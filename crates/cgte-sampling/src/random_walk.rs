//! Simple random walk sampling (§3.1.2).

use crate::{DesignKind, NodeSampler, SampleError, WalkStats};
use cgte_graph::{Graph, NodeId};
use rand::Rng;

/// The node a walk starts from: the fixed `start` if one is set, else a
/// uniform node among those with at least one edge.
///
/// Unusable graphs — no nodes, or no edges so no walk could move — surface
/// as a typed [`SampleError`] rather than a panic, so services can reject
/// the request instead of losing a worker thread. The check comes first
/// even for a fixed start, so a walk fails before it emits any node. A
/// fixed start outside the graph or without edges is
/// [`SampleError::InvalidStart`], for the same reason.
///
/// Rejection sampling is bounded: on graphs dominated by isolated nodes
/// (where naive rejection could loop for an arbitrarily long time), the
/// non-isolated node list is materialized after a fixed number of misses
/// and the start is drawn from it directly. Graphs where most nodes have
/// edges keep the allocation-free fast path.
pub(crate) fn walk_start<R: Rng + ?Sized>(
    g: &Graph,
    start: Option<NodeId>,
    rng: &mut R,
) -> Result<NodeId, SampleError> {
    if g.num_nodes() == 0 {
        return Err(SampleError::EmptyGraph);
    }
    if g.num_edges() == 0 {
        return Err(SampleError::EdgelessGraph);
    }
    if let Some(v) = start {
        return if (v as usize) < g.num_nodes() && g.degree(v) > 0 {
            Ok(v)
        } else {
            Err(SampleError::InvalidStart(v))
        };
    }
    const MAX_REJECTIONS: usize = 64;
    for _ in 0..MAX_REJECTIONS {
        let v = rng.gen_range(0..g.num_nodes() as NodeId);
        if g.degree(v) > 0 {
            return Ok(v);
        }
    }
    // 64 straight misses: isolated nodes dominate. Draw uniformly from the
    // explicit non-isolated list instead (non-empty: the graph has edges).
    let non_isolated: Vec<NodeId> = g.nodes().filter(|&v| g.degree(v) > 0).collect();
    Ok(non_isolated[rng.gen_range(0..non_isolated.len())])
}

/// Simple Random Walk (RW): the next node is a uniform random neighbor of
/// the current one.
///
/// On a connected, aperiodic graph the stationary distribution is
/// `π(v) ∝ deg(v)` \[41\], so [`NodeSampler::weight_of`] reports the degree
/// and the §5 estimators correct for it (§5.4).
///
/// `burn_in` initial steps are discarded; with `thinning = T`, only every
/// T-th visited node is retained (§5.4 discusses thinning as a correlation
/// reduction that discards information — ablation A2 quantifies it).
#[derive(Debug, Clone, Copy)]
pub struct RandomWalk {
    burn_in: usize,
    thinning: usize,
    start: Option<NodeId>,
}

impl Default for RandomWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl RandomWalk {
    /// RW with no burn-in, no thinning, random start.
    pub fn new() -> Self {
        RandomWalk {
            burn_in: 0,
            thinning: 1,
            start: None,
        }
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

    /// Fixes the starting node instead of drawing one at random. A draw
    /// from a node outside the graph or without edges fails with
    /// [`SampleError::InvalidStart`].
    pub fn start_at(mut self, v: NodeId) -> Self {
        self.start = Some(v);
        self
    }

    fn step<R: Rng + ?Sized>(g: &Graph, u: NodeId, rng: &mut R) -> NodeId {
        let nbrs = g.neighbors(u);
        assert!(!nbrs.is_empty(), "walk reached an isolated node {u}");
        nbrs[rng.gen_range(0..nbrs.len())]
    }
}

impl NodeSampler for RandomWalk {
    // RW never rejects, so the stats are pure arithmetic on top of the
    // plain walk loop — zero per-step overhead, and the buffered entry
    // points inherit the identical RNG sequence from the trait defaults.
    fn try_sample_each<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        stats: &mut WalkStats,
        mut emit: impl FnMut(NodeId),
    ) -> Result<(), SampleError> {
        let mut cur = walk_start(g, self.start, rng)?;
        for _ in 0..self.burn_in {
            cur = Self::step(g, cur, rng);
        }
        for _ in 0..n {
            emit(cur);
            for _ in 0..self.thinning {
                cur = Self::step(g, cur, rng);
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

    fn weight_of(&self, g: &Graph, v: NodeId) -> f64 {
        g.degree(v) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lollipop() -> Graph {
        // Triangle {0,1,2} plus a path 2-3-4: degrees 2,2,3,2,1.
        GraphBuilder::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn sample_into_matches_sample_and_reuses_buffer() {
        let g = lollipop();
        let rw = RandomWalk::new().burn_in(7).thinning(2);
        let v = rw.sample(&g, 50, &mut StdRng::seed_from_u64(31));
        let mut buf = Vec::new();
        rw.sample_into(&g, 50, &mut StdRng::seed_from_u64(31), &mut buf);
        assert_eq!(v, buf);
        let cap = buf.capacity();
        rw.sample_into(&g, 50, &mut StdRng::seed_from_u64(32), &mut buf);
        assert_eq!(buf.capacity(), cap, "second draw must reuse the buffer");
        assert_eq!(buf.len(), 50);
    }

    #[test]
    fn walk_visits_only_neighbors() {
        let g = lollipop();
        let mut rng = StdRng::seed_from_u64(1);
        let s = RandomWalk::new().sample(&g, 200, &mut rng);
        for w in s.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "{} -> {} not an edge", w[0], w[1]);
        }
    }

    #[test]
    fn stationary_frequencies_proportional_to_degree() {
        let g = lollipop();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let s = RandomWalk::new().burn_in(100).sample(&g, n, &mut rng);
        let mut counts = [0usize; 5];
        for v in s {
            counts[v as usize] += 1;
        }
        let total_deg = 10.0; // 2*|E|
        for (v, &count) in counts.iter().enumerate() {
            let expect = g.degree(v as NodeId) as f64 / total_deg;
            let got = count as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "node {v}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn thinning_skips_steps() {
        // On a path 0-1-2, a thinned-by-2 walk starting at 0 alternates
        // between even positions in the step sequence.
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let s = RandomWalk::new()
            .start_at(0)
            .thinning(2)
            .sample(&g, 50, &mut rng);
        // Parity argument: every second step from node 0 is at even distance,
        // i.e., node 0 or node 2, never node 1.
        for &v in &s {
            assert_ne!(v, 1, "thinned walk on bipartite path hit odd side");
        }
    }

    #[test]
    fn burn_in_discards_prefix() {
        let g = lollipop();
        let mut rng = StdRng::seed_from_u64(4);
        let s = RandomWalk::new()
            .start_at(4)
            .burn_in(1)
            .sample(&g, 3, &mut rng);
        // After one burn-in step from leaf 4, the walk must be at node 3.
        assert_eq!(s[0], 3);
    }

    #[test]
    fn fixed_start_is_first_sample_without_burn_in() {
        let g = lollipop();
        let mut rng = StdRng::seed_from_u64(5);
        let s = RandomWalk::new().start_at(4).sample(&g, 2, &mut rng);
        assert_eq!(s[0], 4);
    }

    #[test]
    #[should_panic(expected = "edgeless")]
    fn panics_on_edgeless_graph() {
        let g = GraphBuilder::new(3).build();
        let mut rng = StdRng::seed_from_u64(6);
        let _ = RandomWalk::new().sample(&g, 1, &mut rng);
    }

    #[test]
    fn weight_is_degree() {
        let g = lollipop();
        let rw = RandomWalk::new();
        assert_eq!(rw.weight_of(&g, 2), 3.0);
        assert_eq!(rw.weight_of(&g, 4), 1.0);
        assert_eq!(rw.design(), DesignKind::Weighted);
    }

    #[test]
    fn random_start_avoids_isolated_nodes() {
        let g = GraphBuilder::from_edges(4, [(0, 1)]).unwrap(); // 2, 3 isolated
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let v = walk_start(&g, None, &mut rng).unwrap();
            assert!(v == 0 || v == 1);
        }
    }

    #[test]
    fn try_sample_surfaces_typed_errors() {
        use crate::SampleError;
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = Vec::new();
        let edgeless = GraphBuilder::new(3).build();
        assert_eq!(
            RandomWalk::new().try_sample_into(&edgeless, 1, &mut rng, &mut buf),
            Err(SampleError::EdgelessGraph)
        );
        let empty = GraphBuilder::new(0).build();
        assert_eq!(
            RandomWalk::new().try_sample_into(&empty, 1, &mut rng, &mut buf),
            Err(SampleError::EmptyGraph)
        );
        // The checked path draws the identical sequence.
        let g = lollipop();
        let v = RandomWalk::new().sample(&g, 20, &mut StdRng::seed_from_u64(11));
        RandomWalk::new()
            .try_sample_into(&g, 20, &mut StdRng::seed_from_u64(11), &mut buf)
            .unwrap();
        assert_eq!(v, buf);
    }

    #[test]
    fn stats_report_walk_cost_without_perturbing_the_draw() {
        let g = lollipop();
        let rw = RandomWalk::new().burn_in(7).thinning(2);
        let plain = rw.sample(&g, 50, &mut StdRng::seed_from_u64(31));
        let mut buf = Vec::new();
        let mut stats = WalkStats::default();
        rw.try_sample_into_stats(&g, 50, &mut StdRng::seed_from_u64(31), &mut buf, &mut stats)
            .unwrap();
        assert_eq!(plain, buf);
        assert_eq!(
            stats,
            WalkStats {
                retained: 50,
                steps: 7 + 50 * 2,
                burn_in: 7,
                thinning: 2,
                rejections: 0,
            }
        );
    }

    #[test]
    fn random_start_bounded_on_isolation_dominated_graph() {
        // One edge among a sea of isolated nodes: naive rejection would
        // expect ~50k misses per draw; the bounded fallback must terminate
        // quickly and still return only the two connected nodes.
        let g = GraphBuilder::from_edges(100_000, [(123, 456)]).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let v = walk_start(&g, None, &mut rng).unwrap();
            assert!(v == 123 || v == 456);
        }
    }
}
