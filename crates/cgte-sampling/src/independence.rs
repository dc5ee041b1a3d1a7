//! Independence sampling: UIS and WIS (§3.1.1).

use crate::{AliasTable, DesignKind, NodeSampler, SampleError, WalkStats};
use cgte_graph::{Graph, NodeId};
use rand::Rng;

/// Uniform Independence Sampling: each draw is uniform over `V`,
/// independent, with replacement.
///
/// Rarely feasible in real online networks (no sampling frame), but the
/// paper's baseline design and the reference against which crawls are
/// judged (§6.3.3: "UIS clearly performs best").
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformIndependence;

impl NodeSampler for UniformIndependence {
    // One draw per retained node: stats are exact by construction.
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
        for _ in 0..n {
            emit(rng.gen_range(0..g.num_nodes() as NodeId));
        }
        *stats = WalkStats {
            retained: n,
            steps: n,
            burn_in: 0,
            thinning: 1,
            rejections: 0,
        };
        Ok(())
    }

    fn design(&self) -> DesignKind {
        DesignKind::Uniform
    }

    fn weight_of(&self, _g: &Graph, _v: NodeId) -> f64 {
        1.0
    }
}

/// Weighted Independence Sampling: node `v` drawn with probability
/// proportional to a caller-supplied weight, independently, with
/// replacement.
///
/// The idealized limit of weighted crawls; also used to "down-sample" large
/// graphs with a deliberate bias (§3.1.1). Zero-weight nodes are never
/// sampled.
#[derive(Debug, Clone)]
pub struct WeightedIndependence {
    weights: Vec<f64>,
    table: AliasTable,
}

impl WeightedIndependence {
    /// Creates a WIS sampler over explicit node weights.
    ///
    /// Returns `None` if weights are empty, negative, non-finite, or sum to
    /// zero (same contract as [`AliasTable::new`]).
    pub fn new(weights: Vec<f64>) -> Option<Self> {
        let table = AliasTable::new(&weights)?;
        Some(WeightedIndependence { weights, table })
    }

    /// WIS with `w(v) = deg(v)`: the independence-sampling limit of the
    /// simple random walk. Returns `None` for an edgeless graph.
    pub fn degree_proportional(g: &Graph) -> Option<Self> {
        let weights: Vec<f64> = (0..g.num_nodes())
            .map(|v| g.degree(v as NodeId) as f64)
            .collect();
        Self::new(weights)
    }

    /// The weight vector this sampler uses.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl NodeSampler for WeightedIndependence {
    // One alias-table draw per retained node; stats exact by construction.
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
        assert_eq!(
            self.weights.len(),
            g.num_nodes(),
            "weight vector does not cover the graph"
        );
        for _ in 0..n {
            emit(self.table.sample(rng) as NodeId);
        }
        *stats = WalkStats {
            retained: n,
            steps: n,
            burn_in: 0,
            thinning: 1,
            rejections: 0,
        };
        Ok(())
    }

    fn design(&self) -> DesignKind {
        DesignKind::Weighted
    }

    fn weight_of(&self, _g: &Graph, v: NodeId) -> f64 {
        self.weights[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge(0, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn uis_covers_all_nodes() {
        let g = star(10);
        let mut rng = StdRng::seed_from_u64(1);
        let s = UniformIndependence.sample(&g, 5000, &mut rng);
        assert_eq!(s.len(), 5000);
        let mut seen = [false; 10];
        for v in s {
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&x| x),
            "all nodes should appear in 5000 draws"
        );
    }

    #[test]
    fn uis_is_approximately_uniform() {
        let g = star(5);
        let mut rng = StdRng::seed_from_u64(2);
        let s = UniformIndependence.sample(&g, 50_000, &mut rng);
        let mut counts = [0usize; 5];
        for v in s {
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 50_000.0 - 0.2).abs() < 0.01);
        }
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn uis_panics_on_empty_graph() {
        let g = GraphBuilder::new(0).build();
        let mut rng = StdRng::seed_from_u64(3);
        let _ = UniformIndependence.sample(&g, 1, &mut rng);
    }

    #[test]
    fn wis_degree_proportional_frequencies() {
        // Star on 5 nodes: center degree 4, leaves degree 1; center should
        // receive 4/8 of the draws.
        let g = star(5);
        let wis = WeightedIndependence::degree_proportional(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let s = wis.sample(&g, 40_000, &mut rng);
        let center = s.iter().filter(|&&v| v == 0).count();
        assert!((center as f64 / 40_000.0 - 0.5).abs() < 0.01);
        assert_eq!(wis.weight_of(&g, 0), 4.0);
        assert_eq!(wis.weight_of(&g, 1), 1.0);
    }

    #[test]
    fn wis_rejects_bad_weights() {
        assert!(WeightedIndependence::new(vec![]).is_none());
        assert!(WeightedIndependence::new(vec![0.0; 3]).is_none());
        assert!(WeightedIndependence::new(vec![1.0, -2.0]).is_none());
        let g = GraphBuilder::new(3).build(); // edgeless: all degrees zero
        assert!(WeightedIndependence::degree_proportional(&g).is_none());
    }

    #[test]
    fn wis_zero_weight_nodes_never_drawn() {
        let g = star(4);
        let wis = WeightedIndependence::new(vec![1.0, 0.0, 1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(wis.sample(&g, 10_000, &mut rng).iter().all(|&v| v != 1));
    }

    #[test]
    fn designs_report_correctly() {
        let g = star(4);
        assert_eq!(UniformIndependence.design(), DesignKind::Uniform);
        let wis = WeightedIndependence::degree_proportional(&g).unwrap();
        assert_eq!(wis.design(), DesignKind::Weighted);
    }
}
