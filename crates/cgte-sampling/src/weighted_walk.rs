//! Weighted random walk with product-form edge weights (§3.1.2).

use crate::random_walk::walk_start;
use crate::{DesignKind, NodeSampler, SampleError, WalkStats};
use cgte_graph::{Graph, NodeId};
use rand::Rng;
use std::sync::Arc;

/// Weighted Random Walk (WRW): a random walk on a weighted graph \[5\], here
/// with **product-form** edge weights `w({u,v}) = f(u)·f(v)` for a per-node
/// factor `f`.
///
/// Product form has two properties that make it the right substrate for
/// stratified crawling ([`crate::Swrw`]):
///
/// 1. the transition probability from `u` to neighbor `v` is ∝ `f(v)` —
///    the factor `f(u)` cancels — so a crawler only needs the factors of
///    the *neighbors* it can see;
/// 2. the stationary probability is `π(v) ∝ f(v)·Σ_{u∼v} f(u)`, computable
///    from information observed when visiting `v` (its neighbor list), so
///    the Hansen–Hurwitz correction of §5 is applicable in a real crawl.
///
/// Nodes with factor 0 are never *targeted*; if a walk finds itself where
/// every neighbor has factor 0 it moves uniformly instead (and such
/// fallback steps remain valid samples of the modified chain — documented
/// deviation kept deliberately rare by choosing positive factors).
///
/// The walk table is built once, by [`WeightedRandomWalk::new`], for the
/// graph it is given: each node's factor `f(u)` and strength
/// `s(u) = Σ_{v∼u} f(v)`, summed in adjacency order. It costs 16 B per
/// node and is shared through an `Arc`, so clones (and the builder
/// methods) copy no per-node data. A step reads `s(u)` as its total and
/// scans the row once; [`NodeSampler::weight_of`] is `f(v)·s(v)` with no
/// neighbor scan. Sampling or weighting on a graph with a different node
/// count panics.
#[derive(Debug, Clone)]
pub struct WeightedRandomWalk {
    table: Arc<WalkTable>,
    burn_in: usize,
    thinning: usize,
    start: Option<NodeId>,
}

/// Per-node factors and strengths of one graph.
#[derive(Debug)]
struct WalkTable {
    factors: Vec<f64>,
    strengths: Vec<f64>,
}

impl WalkTable {
    /// Asserts that the table was built for a graph of `g`'s size.
    fn check(&self, g: &Graph) {
        assert_eq!(
            self.factors.len(),
            g.num_nodes(),
            "walk table does not cover the graph"
        );
    }

    fn step<R: Rng + ?Sized>(&self, g: &Graph, u: NodeId, rng: &mut R) -> NodeId {
        let nbrs = g.neighbors(u);
        assert!(!nbrs.is_empty(), "walk reached an isolated node {u}");
        let total = self.strengths[u as usize];
        if total <= 0.0 {
            // All-neighbor-zero fallback: uniform step.
            return nbrs[rng.gen_range(0..nbrs.len())];
        }
        let mut x = rng.gen::<f64>() * total;
        for &v in nbrs {
            x -= self.factors[v as usize];
            if x <= 0.0 {
                return v;
            }
        }
        *nbrs.last().expect("non-empty")
    }
}

impl WeightedRandomWalk {
    /// Creates a WRW on `g` with the given per-node factors, building its
    /// walk table (one `O(N + E)` pass over `g`).
    ///
    /// Returns `None` if `factors` does not have one entry per node of `g`
    /// or if any factor is negative or non-finite.
    pub fn new(g: &Graph, factors: Vec<f64>) -> Option<Self> {
        if factors.len() != g.num_nodes() || factors.iter().any(|f| !f.is_finite() || *f < 0.0) {
            return None;
        }
        let strengths = (0..g.num_nodes() as NodeId)
            .map(|u| {
                g.neighbors(u)
                    .iter()
                    .map(|&v| factors[v as usize])
                    .sum::<f64>()
            })
            .collect();
        Some(WeightedRandomWalk {
            table: Arc::new(WalkTable { factors, strengths }),
            burn_in: 0,
            thinning: 1,
            start: None,
        })
    }

    /// Discards the first `steps` visited nodes.
    pub fn burn_in(mut self, steps: usize) -> Self {
        self.burn_in = steps;
        self
    }

    /// Keeps only every `t`-th node (`t >= 1`).
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn thinning(mut self, t: usize) -> Self {
        assert!(t >= 1, "thinning factor must be at least 1");
        self.thinning = t;
        self
    }

    /// Fixes the starting node. A draw from a node outside the graph or
    /// without edges fails with [`SampleError::InvalidStart`].
    pub fn start_at(mut self, v: NodeId) -> Self {
        self.start = Some(v);
        self
    }

    /// The per-node factors `f(u)`.
    pub fn factors(&self) -> &[f64] {
        &self.table.factors
    }
}

impl NodeSampler for WeightedRandomWalk {
    // WRW always moves (the all-zero-neighbor fallback still steps), so
    // the stats are derived arithmetic over the one walk loop; every
    // other entry point is a trait default over this core.
    fn try_sample_each<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        stats: &mut WalkStats,
        mut emit: impl FnMut(NodeId),
    ) -> Result<(), SampleError> {
        let table = &*self.table;
        table.check(g);
        let mut cur = walk_start(g, self.start, rng)?;
        for _ in 0..self.burn_in {
            cur = table.step(g, cur, rng);
        }
        for _ in 0..n {
            emit(cur);
            for _ in 0..self.thinning {
                cur = table.step(g, cur, rng);
            }
        }
        *stats = WalkStats {
            retained: n,
            steps: self.burn_in + n * self.thinning,
            burn_in: self.burn_in,
            thinning: self.thinning,
            rejections: 0,
        };
        Ok(())
    }

    fn design(&self) -> DesignKind {
        DesignKind::Weighted
    }

    /// Stationary weight `π(v) ∝ f(v)·s(v)` (node strength under
    /// product-form edge weights), read from the walk table.
    fn weight_of(&self, g: &Graph, v: NodeId) -> f64 {
        let table = &*self.table;
        table.check(g);
        let f_v = table.factors[v as usize];
        if f_v == 0.0 {
            return 0.0;
        }
        f_v * table.strengths[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unit_factors_reduce_to_simple_rw() {
        let g = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap();
        let wrw = WeightedRandomWalk::new(&g, vec![1.0; 5]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let s = wrw.clone().burn_in(100).sample(&g, n, &mut rng);
        let mut counts = [0usize; 5];
        for v in s {
            counts[v as usize] += 1;
        }
        for v in 0..5u32 {
            let expect = g.degree(v) as f64 / 10.0;
            let got = counts[v as usize] as f64 / n as f64;
            assert!((got - expect).abs() < 0.01, "node {v}: {got} vs {expect}");
        }
        // With unit factors, weight_of equals the degree.
        assert_eq!(wrw.weight_of(&g, 2), 3.0);
    }

    #[test]
    fn stationary_matches_strength() {
        // Triangle with one boosted node.
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let factors = vec![1.0, 4.0, 1.0];
        let wrw = WeightedRandomWalk::new(&g, factors).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 300_000;
        let s = wrw.clone().burn_in(100).sample(&g, n, &mut rng);
        let mut counts = [0usize; 3];
        for v in s {
            counts[v as usize] += 1;
        }
        // Strengths: s(0)=1*(4+1)=5, s(1)=4*(1+1)=8, s(2)=5. Total 18.
        let expect = [5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0];
        for v in 0..3 {
            let got = counts[v] as f64 / n as f64;
            assert!(
                (got - expect[v]).abs() < 0.01,
                "node {v}: {got} vs {}",
                expect[v]
            );
            assert!((wrw.weight_of(&g, v as NodeId) - [5.0, 8.0, 5.0][v]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_factor_nodes_avoided() {
        // Path 0-1-2-3 where node 1 has factor 0: walk started at 2/3
        // should rarely visit 0 (only via the uniform fallback at node 1,
        // which it never enters from the right side).
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let wrw = WeightedRandomWalk::new(&g, vec![1.0, 0.0, 1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let s = wrw.clone().start_at(3).sample(&g, 10_000, &mut rng);
        assert!(
            s.iter().all(|&v| v != 1 && v != 0),
            "zero-factor region entered"
        );
        assert_eq!(wrw.weight_of(&g, 1), 0.0);
    }

    #[test]
    fn all_zero_neighbors_falls_back_to_uniform() {
        // Star with zero-factor leaves: from the center every neighbor has
        // factor 0, so the fallback must fire rather than panic.
        let mut b = GraphBuilder::new(4);
        for v in 1..4 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        let wrw = WeightedRandomWalk::new(&g, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let s = wrw.start_at(0).sample(&g, 10, &mut rng);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn rejects_invalid_factors() {
        let g = GraphBuilder::from_edges(2, [(0, 1)]).unwrap();
        assert!(WeightedRandomWalk::new(&g, vec![1.0, -0.5]).is_none());
        assert!(WeightedRandomWalk::new(&g, vec![f64::NAN, 1.0]).is_none());
        assert!(WeightedRandomWalk::new(&g, vec![f64::INFINITY, 1.0]).is_none());
        // One factor per node, no more and no fewer.
        assert!(WeightedRandomWalk::new(&g, vec![1.0]).is_none());
        assert!(WeightedRandomWalk::new(&g, vec![1.0; 3]).is_none());
    }

    /// The two-pass step the walk table replaced: sum the row, then scan
    /// it. The table must match it bit for bit.
    fn oracle_step<R: Rng + ?Sized>(factors: &[f64], g: &Graph, u: NodeId, rng: &mut R) -> NodeId {
        let nbrs = g.neighbors(u);
        let total: f64 = nbrs.iter().map(|&v| factors[v as usize]).sum();
        if total <= 0.0 {
            return nbrs[rng.gen_range(0..nbrs.len())];
        }
        let mut x = rng.gen::<f64>() * total;
        for &v in nbrs {
            x -= factors[v as usize];
            if x <= 0.0 {
                return v;
            }
        }
        *nbrs.last().expect("non-empty")
    }

    /// The weight the walk table replaced: a neighbor sum per call.
    fn oracle_weight(factors: &[f64], g: &Graph, v: NodeId) -> f64 {
        let f_v = factors[v as usize];
        if f_v == 0.0 {
            return 0.0;
        }
        f_v * g
            .neighbors(v)
            .iter()
            .map(|&u| factors[u as usize])
            .sum::<f64>()
    }

    /// A seeded random graph: a ring (so no node is isolated) plus
    /// `extra` random chords.
    fn random_graph(n: usize, extra: usize, rng: &mut StdRng) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            b.add_edge(u as NodeId, ((u + 1) % n) as NodeId).unwrap();
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            if u != v {
                b.add_edge(u, v).unwrap();
            }
        }
        b.build()
    }

    /// Checks every node's step (under several seeds, including the RNG
    /// state it leaves), its weight, and one long walk against the
    /// oracle. Returns how many nodes take the all-zero fallback.
    fn assert_matches_oracle(g: &Graph, factors: &[f64]) -> usize {
        let wrw = WeightedRandomWalk::new(g, factors.to_vec()).unwrap();
        let mut fallbacks = 0;
        for u in 0..g.num_nodes() as NodeId {
            assert_eq!(
                wrw.weight_of(g, u).to_bits(),
                oracle_weight(factors, g, u).to_bits(),
                "weight of node {u}"
            );
            if wrw.table.strengths[u as usize] <= 0.0 {
                fallbacks += 1;
            }
            for seed in 0..8 {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = a.clone();
                assert_eq!(
                    wrw.table.step(g, u, &mut a),
                    oracle_step(factors, g, u, &mut b),
                    "step from node {u}, seed {seed}"
                );
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng state after node {u}");
            }
        }
        let got = wrw
            .start_at(0)
            .sample(g, 2_000, &mut StdRng::seed_from_u64(99));
        let mut rng = StdRng::seed_from_u64(99);
        let mut cur = 0;
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, cur, "walk diverged at step {i}");
            cur = oracle_step(factors, g, cur, &mut rng);
        }
        fallbacks
    }

    #[test]
    fn walk_table_matches_two_pass_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        // Factor draws: ordinary, zero, near the smallest normal, near
        // 1e300; sums of mixed magnitudes round differently in any other
        // order, so only the adjacency-order sum passes.
        let draw = |rng: &mut StdRng, kinds: &[u8]| -> f64 {
            match kinds[rng.gen_range(0..kinds.len())] {
                0 => rng.gen::<f64>(),
                1 => 0.0,
                2 => f64::MIN_POSITIVE * (1.0 + 3.0 * rng.gen::<f64>()),
                _ => 1e300 * (0.5 + rng.gen::<f64>()),
            }
        };
        for (n, extra, kinds) in [
            (200, 600, &[0u8, 1, 2, 3][..]),
            (300, 300, &[2][..]),
            (300, 3000, &[3][..]),
            (150, 900, &[0, 3][..]),
            (400, 400, &[0, 2][..]),
        ] {
            let g = random_graph(n, extra, &mut rng);
            let factors: Vec<f64> = (0..n).map(|_| draw(&mut rng, kinds)).collect();
            assert_matches_oracle(&g, &factors);
        }
        // Mostly zero factors: many rows have no positive neighbor, so the
        // uniform fallback runs, and must run on the same draws.
        let g = random_graph(300, 150, &mut rng);
        let factors: Vec<f64> = (0..300)
            .map(|_| {
                if rng.gen::<f64>() < 0.8 {
                    0.0
                } else {
                    rng.gen()
                }
            })
            .collect();
        assert!(assert_matches_oracle(&g, &factors) > 20);
    }

    #[test]
    #[should_panic(expected = "walk table does not cover the graph")]
    fn sampling_another_graph_panics() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let other = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let wrw = WeightedRandomWalk::new(&g, vec![1.0; 3]).unwrap();
        wrw.sample(&other, 5, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "walk table does not cover the graph")]
    fn weighting_on_another_graph_panics() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let other = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let wrw = WeightedRandomWalk::new(&g, vec![1.0; 3]).unwrap();
        wrw.weight_of(&other, 0);
    }
}
