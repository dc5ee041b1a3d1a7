//! Metropolis–Hastings random walk (§3.1.2).

use crate::random_walk::walk_start;
use crate::{DesignKind, NodeSampler, SampleError, WalkStats};
use cgte_graph::{Graph, NodeId};
use rand::Rng;

/// Metropolis–Hastings Random Walk (MHRW) targeting the uniform
/// distribution.
///
/// From node `u`, propose a uniform neighbor `v` and accept with probability
/// `min(1, deg(u)/deg(v))`; on rejection the walk *stays at `u`*, and the
/// repeated visit is retained as a sample — that self-transition is exactly
/// what makes the stationary distribution uniform.
///
/// The paper (and \[20, 51\]) found RW-with-reweighting to outperform MHRW for
/// most tasks; MHRW is included as the baseline it is compared against in
/// Fig. 6.
#[derive(Debug, Clone, Copy)]
pub struct MetropolisHastingsWalk {
    burn_in: usize,
    thinning: usize,
    start: Option<NodeId>,
}

impl Default for MetropolisHastingsWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl MetropolisHastingsWalk {
    /// MHRW with no burn-in, no thinning, random start.
    pub fn new() -> Self {
        MetropolisHastingsWalk {
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

    /// Fixes the starting node. A draw from a node outside the graph or
    /// without edges fails with [`SampleError::InvalidStart`].
    pub fn start_at(mut self, v: NodeId) -> Self {
        self.start = Some(v);
        self
    }

    /// One MH transition; `true` iff the proposal was accepted. The RNG
    /// draw sequence is fixed (proposal, then acceptance coin when
    /// needed) so counted and uncounted paths are interchangeable.
    fn step<R: Rng + ?Sized>(g: &Graph, u: NodeId, rng: &mut R) -> (NodeId, bool) {
        let nbrs = g.neighbors(u);
        assert!(!nbrs.is_empty(), "walk reached an isolated node {u}");
        let v = nbrs[rng.gen_range(0..nbrs.len())];
        let accept = g.degree(u) as f64 / g.degree(v) as f64;
        if accept >= 1.0 || rng.gen::<f64>() < accept {
            (v, true)
        } else {
            (u, false)
        }
    }
}

impl NodeSampler for MetropolisHastingsWalk {
    // Rejections are counted inline in the one walk loop; the buffered
    // entry points are the trait defaults over this core.
    fn try_sample_each<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        stats: &mut WalkStats,
        mut emit: impl FnMut(NodeId),
    ) -> Result<(), SampleError> {
        let mut rejections = 0usize;
        let mut cur = walk_start(g, self.start, rng)?;
        for _ in 0..self.burn_in {
            let (next, accepted) = Self::step(g, cur, rng);
            rejections += usize::from(!accepted);
            cur = next;
        }
        for _ in 0..n {
            emit(cur);
            for _ in 0..self.thinning {
                let (next, accepted) = Self::step(g, cur, rng);
                rejections += usize::from(!accepted);
                cur = next;
            }
        }
        *stats = WalkStats {
            retained: n,
            steps: self.burn_in + n * self.thinning,
            burn_in: self.burn_in,
            thinning: self.thinning,
            rejections,
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

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lollipop() -> Graph {
        GraphBuilder::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn sample_into_matches_sample() {
        let g = lollipop();
        let w = MetropolisHastingsWalk::new().burn_in(5).thinning(3);
        let v = w.sample(&g, 40, &mut StdRng::seed_from_u64(77));
        let mut buf = Vec::with_capacity(40);
        w.sample_into(&g, 40, &mut StdRng::seed_from_u64(77), &mut buf);
        assert_eq!(v, buf);
    }

    #[test]
    fn stationary_distribution_is_uniform() {
        let g = lollipop();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 300_000;
        let s = MetropolisHastingsWalk::new()
            .burn_in(200)
            .sample(&g, n, &mut rng);
        let mut counts = [0usize; 5];
        for v in s {
            counts[v as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            let got = c as f64 / n as f64;
            assert!(
                (got - 0.2).abs() < 0.01,
                "node {v}: frequency {got} should be ~0.2"
            );
        }
    }

    #[test]
    fn consecutive_samples_are_neighbors_or_equal() {
        let g = lollipop();
        let mut rng = StdRng::seed_from_u64(2);
        let s = MetropolisHastingsWalk::new().sample(&g, 500, &mut rng);
        for w in s.windows(2) {
            assert!(
                w[0] == w[1] || g.has_edge(w[0], w[1]),
                "{} -> {} invalid MHRW move",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn rejections_produce_repeats() {
        // From the high-degree node 2 (deg 3), moves to leaf-adjacent node 3
        // (deg 2) are always accepted, but moves *from* 4 (deg 1) to 3
        // (deg 2) are accepted only half the time, so repeats must occur.
        let g = lollipop();
        let mut rng = StdRng::seed_from_u64(3);
        let s = MetropolisHastingsWalk::new().sample(&g, 2000, &mut rng);
        let repeats = s.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 0, "MHRW on a degree-diverse graph must self-loop");
    }

    #[test]
    fn design_is_uniform_with_unit_weights() {
        let g = lollipop();
        let m = MetropolisHastingsWalk::new();
        assert_eq!(m.design(), DesignKind::Uniform);
        assert_eq!(m.weight_of(&g, 2), 1.0);
    }

    #[test]
    fn burn_in_and_thinning_apply() {
        let g = lollipop();
        let mut rng = StdRng::seed_from_u64(4);
        let s = MetropolisHastingsWalk::new()
            .burn_in(10)
            .thinning(3)
            .sample(&g, 100, &mut rng);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn stats_path_draws_identical_sequence_and_counts_rejections() {
        let g = lollipop();
        let w = MetropolisHastingsWalk::new().burn_in(5).thinning(3);
        let plain = w.sample(&g, 500, &mut StdRng::seed_from_u64(21));
        let mut buf = Vec::new();
        let mut stats = WalkStats::default();
        w.try_sample_into_stats(
            &g,
            500,
            &mut StdRng::seed_from_u64(21),
            &mut buf,
            &mut stats,
        )
        .unwrap();
        assert_eq!(plain, buf, "counting must not perturb the walk");
        assert_eq!(stats.retained, 500);
        assert_eq!(stats.steps, 5 + 500 * 3);
        assert_eq!((stats.burn_in, stats.thinning), (5, 3));
        assert!(stats.rejections > 0, "degree-diverse graph must reject");
        assert!(stats.rejections < stats.steps);

        // With no burn-in/thinning, every rejection shows as a repeat in
        // the retained sequence (no self-loops), except possibly in the
        // one trailing transition taken after the last retained node.
        let w = MetropolisHastingsWalk::new();
        let mut stats = WalkStats::default();
        w.try_sample_into_stats(
            &g,
            2000,
            &mut StdRng::seed_from_u64(3),
            &mut buf,
            &mut stats,
        )
        .unwrap();
        let repeats = buf.windows(2).filter(|p| p[0] == p[1]).count();
        assert!(
            stats.rejections == repeats || stats.rejections == repeats + 1,
            "rejections {} vs visible repeats {repeats}",
            stats.rejections
        );
    }

    #[test]
    fn regular_graph_never_rejects() {
        // 4-cycle: all degrees equal, acceptance always 1 => no repeats
        // unless the proposal itself repeats (impossible without self-loops).
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let s = MetropolisHastingsWalk::new().sample(&g, 1000, &mut rng);
        assert!(s.windows(2).all(|w| w[0] != w[1]));
    }
}
