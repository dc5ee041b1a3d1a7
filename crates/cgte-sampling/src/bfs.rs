//! Breadth-first (snowball) sampling — the biased baseline of §8.
//!
//! BFS has been widely used to sample topologies, but the paper's related
//! work (and \[7, 20, 36, 37, 46, 70\]) stresses that a BFS sample is
//! *without replacement* and strongly biased toward high-degree nodes in a
//! way that, unlike RW, has **no known closed-form sampling weights** to
//! correct with — and it only covers the neighborhood of its seed. It is
//! included here so that the bias is demonstrable (see the `bfs_bias`
//! example and the tests below), not as a recommended design.

use crate::{DesignKind, NodeSampler, SampleError, WalkStats};
use cgte_graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// Breadth-first-search sampler: explores outward from a random seed,
/// visiting each node at most once, until `n` nodes are collected (or the
/// component is exhausted, after which a fresh seed restarts the search).
///
/// Neighbor visit order is randomized so two BFS runs differ, but the
/// with-replacement/i.i.d. assumptions of the §4–§5 estimators do **not**
/// hold; [`NodeSampler::weight_of`] reports 1 (no principled correction
/// exists), so estimates computed from BFS samples are biased by design.
#[derive(Debug, Clone, Copy, Default)]
pub struct BreadthFirst {
    start: Option<NodeId>,
}

impl BreadthFirst {
    /// BFS from a random seed.
    pub fn new() -> Self {
        BreadthFirst { start: None }
    }

    /// Fixes the seed node. A draw from a seed outside the graph fails
    /// with [`SampleError::InvalidStart`].
    pub fn start_at(mut self, v: NodeId) -> Self {
        self.start = Some(v);
        self
    }
}

impl NodeSampler for BreadthFirst {
    // A BFS "step" is one dequeued node, so the trivial accounting
    // (steps = retained) is exact; the search may stop short of `n` when
    // the graph is exhausted, which is why stats count the emitted nodes.
    fn try_sample_each<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        stats: &mut WalkStats,
        mut emit: impl FnMut(NodeId),
    ) -> Result<(), SampleError> {
        if g.num_nodes() == 0 {
            return Err(SampleError::EmptyGraph);
        }
        // An isolated seed is fine (the search reseeds); one outside the
        // graph is not.
        if let Some(s) = self.start.filter(|&s| s as usize >= g.num_nodes()) {
            return Err(SampleError::InvalidStart(s));
        }
        let mut visited = vec![false; g.num_nodes()];
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let seed = |visited: &[bool], rng: &mut R| -> Option<NodeId> {
            if let Some(s) = self.start {
                if !visited[s as usize] {
                    return Some(s);
                }
            }
            // Uniform unvisited seed; rejection-sample then fall back to scan.
            for _ in 0..64 {
                let v = rng.gen_range(0..g.num_nodes() as NodeId);
                if !visited[v as usize] {
                    return Some(v);
                }
            }
            (0..g.num_nodes() as NodeId).find(|&v| !visited[v as usize])
        };
        let mut scratch: Vec<NodeId> = Vec::new();
        let mut retained = 0;
        while retained < n {
            if queue.is_empty() {
                match seed(&visited, rng) {
                    Some(s) => {
                        visited[s as usize] = true;
                        queue.push_back(s);
                    }
                    None => break, // every node already sampled
                }
            }
            let u = queue.pop_front().expect("non-empty queue");
            emit(u);
            retained += 1;
            scratch.clear();
            scratch.extend_from_slice(g.neighbors(u));
            scratch.shuffle(rng);
            for &v in &scratch {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        *stats = WalkStats {
            retained,
            steps: retained,
            burn_in: 0,
            thinning: 1,
            rejections: 0,
        };
        Ok(())
    }

    fn design(&self) -> DesignKind {
        // No valid correction exists; reported as Uniform so that the bias
        // is visible rather than silently "corrected" with wrong weights.
        DesignKind::Uniform
    }

    fn weight_of(&self, _g: &Graph, _v: NodeId) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::generators::{planted_partition, PlantedConfig};
    use cgte_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bfs_visits_without_replacement() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = GraphBuilder::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let s = BreadthFirst::new().sample(&g, 6, &mut rng);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "BFS must not repeat nodes");
    }

    #[test]
    fn bfs_explores_neighborhood_first() {
        // Star: from the center, the first samples are the center then leaves.
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(2);
        let s = BreadthFirst::new().start_at(0).sample(&g, 3, &mut rng);
        assert_eq!(s[0], 0);
        assert!(s[1] != 0 && s[2] != 0);
    }

    #[test]
    fn bfs_restarts_across_components() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let s = BreadthFirst::new().sample(&g, 4, &mut rng);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_exhausts_graph_gracefully() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let s = BreadthFirst::new().sample(&g, 10, &mut rng);
        assert_eq!(s.len(), 3, "stops when every node is sampled");
    }

    #[test]
    fn bfs_oversamples_high_degree_early() {
        // §8's bias claim: the mean degree of a small BFS sample exceeds
        // the graph mean (hubs are reached quickly).
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PlantedConfig {
            category_sizes: vec![300, 300],
            k: 4,
            alpha: 1.0,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        // Add a few hubs by rewiring: use the existing graph; BFS from
        // random seeds, sample 5%.
        let mut mean_bfs = 0.0;
        let reps = 40;
        for _ in 0..reps {
            let s = BreadthFirst::new().sample(&pg.graph, 30, &mut rng);
            mean_bfs += s.iter().map(|&v| pg.graph.degree(v) as f64).sum::<f64>() / s.len() as f64;
        }
        mean_bfs /= reps as f64;
        assert!(
            mean_bfs > pg.graph.mean_degree(),
            "BFS sample mean degree {mean_bfs} should exceed graph mean {}",
            pg.graph.mean_degree()
        );
    }
}
