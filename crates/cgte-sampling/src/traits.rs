//! The sampler abstraction shared by all sampling designs.

use crate::{
    MetropolisHastingsWalk, RandomWalk, Swrw, UniformIndependence, WeightedIndependence,
    WeightedRandomWalk,
};
use cgte_graph::{Graph, NodeId};
use rand::Rng;

/// Why a sampler could not draw from a graph.
///
/// These are *input* conditions a long-running service must surface to its
/// caller (HTTP 422 in `cgte-serve`), not programming errors — which is
/// why they are a typed error rather than the panics they used to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleError {
    /// The graph has no nodes at all; no design can draw anything.
    EmptyGraph,
    /// The graph has no edges: a crawl has no eligible (non-isolated)
    /// start node and could never move.
    EdgelessGraph,
    /// A fixed start node that no draw can begin at: not a node of the
    /// graph, or (for a walk) a node without edges, where the walk could
    /// never move.
    InvalidStart(NodeId),
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::EmptyGraph => write!(f, "cannot sample from an empty graph"),
            SampleError::EdgelessGraph => write!(f, "cannot walk on an edgeless graph"),
            SampleError::InvalidStart(v) => write!(
                f,
                "cannot start at node {v}: not in the graph, or isolated for a walk"
            ),
        }
    }
}

impl std::error::Error for SampleError {}

/// Whether a design samples uniformly or with known non-uniform weights.
///
/// Drives the estimator family choice: uniform designs use the §4
/// estimators; weighted designs use the Hansen–Hurwitz-corrected §5 forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignKind {
    /// Every node equally likely (UIS, converged MHRW).
    Uniform,
    /// Node `v` sampled with probability ∝ a known weight `w(v)`
    /// (WIS, RW → degree, S-WRW → stratified stationary weight).
    Weighted,
}

/// Per-draw cost accounting for a sample: how much chain movement a
/// retained sample actually cost (§6 studies exactly this sampling-cost
/// vs estimation-error trade-off).
///
/// Filled by [`NodeSampler::try_sample_each`]. For independence
/// designs a "step" is one draw; for crawls it is one chain transition,
/// so `steps = burn_in + retained × thinning`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStats {
    /// Nodes emitted.
    pub retained: usize,
    /// Total chain transitions (or independent draws) performed.
    pub steps: usize,
    /// Transitions discarded before the first retained node.
    pub burn_in: usize,
    /// Thinning factor in effect (1 = keep every visit).
    pub thinning: usize,
    /// MHRW proposals declined (the walk stayed put and the repeat was
    /// retained); 0 for every other design.
    pub rejections: usize,
}

/// A with-replacement probability sampler of nodes (§3.1).
///
/// Implementations must be deterministic given the RNG, and must report the
/// stationary sampling weight `w(v) ∝ π(v)` of every node — known only up to
/// a constant, which is all the ratio estimators of §5 require.
pub trait NodeSampler {
    /// The one required drawing method — the canonical core every other
    /// entry point is a default wrapper over. Draws `n` nodes and hands
    /// each retained node to `emit` as soon as it is drawn, in draw order,
    /// so a caller can fold a node into its statistics while the walk's
    /// next step is still in flight
    /// ([`ObservationStream::ingest_walk`](crate::ObservationStream::ingest_walk)).
    /// Fills `stats` with the draw's cost accounting.
    ///
    /// Unusable input graphs (empty, or edgeless for crawls) are reported
    /// as a typed [`SampleError`] **before the first node is emitted**, so
    /// a failed draw leaves whatever `emit` feeds untouched.
    ///
    /// Crawling samplers interpret `n` as the number of *retained* samples
    /// (after burn-in and thinning). Observing stats must not perturb the
    /// draw: the RNG sequence depends only on `(g, n, rng)`.
    fn try_sample_each<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        stats: &mut WalkStats,
        emit: impl FnMut(NodeId),
    ) -> Result<(), SampleError>;

    /// [`NodeSampler::try_sample_each`] into a buffer: draws `n` nodes
    /// into `out` (clearing it first). Identical draw and stats given the
    /// same RNG state.
    fn try_sample_into_stats<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        out: &mut Vec<NodeId>,
        stats: &mut WalkStats,
    ) -> Result<(), SampleError> {
        out.clear();
        out.reserve(n);
        self.try_sample_each(g, n, rng, stats, |v| out.push(v))
    }

    /// Like [`NodeSampler::try_sample_into_stats`], without the cost
    /// accounting. Identical draw given the same RNG state.
    fn try_sample_into<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> Result<(), SampleError> {
        self.try_sample_into_stats(g, n, rng, out, &mut WalkStats::default())
    }

    /// Infallible variant for callers that have already validated the
    /// graph (experiment drivers over generated graphs): panics with the
    /// [`SampleError`] message instead of returning it. Identical draw
    /// given the same RNG state; callers that draw many samples (big-walk
    /// replication loops, the benchmark harness) reuse one buffer instead
    /// of allocating per draw.
    fn sample_into<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        self.try_sample_into(g, n, rng, out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Allocating convenience over [`NodeSampler::sample_into`].
    fn sample<R: Rng + ?Sized>(&self, g: &Graph, n: usize, rng: &mut R) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(n);
        self.sample_into(g, n, rng, &mut out);
        out
    }

    /// The design family this sampler realizes (asymptotically, for walks).
    fn design(&self) -> DesignKind;

    /// Stationary sampling weight of node `v`, up to a constant factor.
    ///
    /// Uniform designs return 1 for every node.
    fn weight_of(&self, g: &Graph, v: NodeId) -> f64;

    /// Convenience: the weights of an entire drawn sample, in order.
    fn weights_for(&self, g: &Graph, nodes: &[NodeId]) -> Vec<f64> {
        nodes.iter().map(|&v| self.weight_of(g, v)).collect()
    }
}

/// A dynamically chosen sampler, for experiment sweeps that iterate over
/// designs (Fig. 4 and Fig. 6 compare UIS/RW/MHRW/S-WRW side by side).
#[derive(Debug, Clone)]
pub enum AnySampler {
    /// Uniform independence sampling.
    Uis(UniformIndependence),
    /// Weighted independence sampling.
    Wis(WeightedIndependence),
    /// Simple random walk.
    Rw(RandomWalk),
    /// Metropolis–Hastings random walk.
    Mhrw(MetropolisHastingsWalk),
    /// Weighted random walk (product-form edge weights).
    Wrw(WeightedRandomWalk),
    /// Stratified weighted random walk.
    Swrw(Swrw),
}

impl AnySampler {
    /// Short display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            AnySampler::Uis(_) => "UIS",
            AnySampler::Wis(_) => "WIS",
            AnySampler::Rw(_) => "RW",
            AnySampler::Mhrw(_) => "MHRW",
            AnySampler::Wrw(_) => "WRW",
            AnySampler::Swrw(_) => "S-WRW",
        }
    }
}

impl NodeSampler for AnySampler {
    // Only the required core needs forwarding: every other entry point is
    // a trait default over it, so dispatching here makes the enum's
    // `sample`/`sample_into`/`try_sample_into_stats` bit-identical to
    // calling the variant directly.
    fn try_sample_each<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        stats: &mut WalkStats,
        emit: impl FnMut(NodeId),
    ) -> Result<(), SampleError> {
        match self {
            AnySampler::Uis(s) => s.try_sample_each(g, n, rng, stats, emit),
            AnySampler::Wis(s) => s.try_sample_each(g, n, rng, stats, emit),
            AnySampler::Rw(s) => s.try_sample_each(g, n, rng, stats, emit),
            AnySampler::Mhrw(s) => s.try_sample_each(g, n, rng, stats, emit),
            AnySampler::Wrw(s) => s.try_sample_each(g, n, rng, stats, emit),
            AnySampler::Swrw(s) => s.try_sample_each(g, n, rng, stats, emit),
        }
    }

    fn design(&self) -> DesignKind {
        match self {
            AnySampler::Uis(s) => s.design(),
            AnySampler::Wis(s) => s.design(),
            AnySampler::Rw(s) => s.design(),
            AnySampler::Mhrw(s) => s.design(),
            AnySampler::Wrw(s) => s.design(),
            AnySampler::Swrw(s) => s.design(),
        }
    }

    fn weight_of(&self, g: &Graph, v: NodeId) -> f64 {
        match self {
            AnySampler::Uis(s) => s.weight_of(g, v),
            AnySampler::Wis(s) => s.weight_of(g, v),
            AnySampler::Rw(s) => s.weight_of(g, v),
            AnySampler::Mhrw(s) => s.weight_of(g, v),
            AnySampler::Wrw(s) => s.weight_of(g, v),
            AnySampler::Swrw(s) => s.weight_of(g, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn any_sampler_names() {
        assert_eq!(AnySampler::Uis(UniformIndependence).name(), "UIS");
        assert_eq!(AnySampler::Rw(RandomWalk::new()).name(), "RW");
        assert_eq!(
            AnySampler::Mhrw(MetropolisHastingsWalk::new()).name(),
            "MHRW"
        );
    }

    #[test]
    fn any_sampler_dispatches() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = AnySampler::Uis(UniformIndependence);
        assert_eq!(s.design(), DesignKind::Uniform);
        assert_eq!(s.sample(&g, 10, &mut rng).len(), 10);
        assert_eq!(s.weight_of(&g, 0), 1.0);

        let s = AnySampler::Rw(RandomWalk::new());
        assert_eq!(s.design(), DesignKind::Weighted);
        assert_eq!(s.sample(&g, 10, &mut rng).len(), 10);
        assert_eq!(s.weight_of(&g, 0), 2.0); // degree
    }

    #[test]
    fn any_sampler_forwards_stats_to_counted_paths() {
        let g = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap();
        let s = AnySampler::Mhrw(MetropolisHastingsWalk::new().burn_in(4).thinning(2));
        let plain = s.sample(&g, 100, &mut StdRng::seed_from_u64(9));
        let mut buf = Vec::new();
        let mut stats = WalkStats::default();
        s.try_sample_into_stats(&g, 100, &mut StdRng::seed_from_u64(9), &mut buf, &mut stats)
            .unwrap();
        assert_eq!(plain, buf);
        assert_eq!(stats.steps, 4 + 100 * 2);
        assert!(stats.rejections > 0);
        // Independence designs report one step per draw via the default.
        let s = AnySampler::Uis(UniformIndependence);
        s.try_sample_into_stats(&g, 10, &mut StdRng::seed_from_u64(1), &mut buf, &mut stats)
            .unwrap();
        assert_eq!((stats.retained, stats.steps, stats.rejections), (10, 10, 0));
    }

    #[test]
    fn any_sampler_sample_into_forwards_to_variant() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        for s in [
            AnySampler::Uis(UniformIndependence),
            AnySampler::Rw(RandomWalk::new().burn_in(3)),
            AnySampler::Mhrw(MetropolisHastingsWalk::new().thinning(2)),
        ] {
            let v = s.sample(&g, 25, &mut StdRng::seed_from_u64(13));
            let mut buf = Vec::new();
            s.sample_into(&g, 25, &mut StdRng::seed_from_u64(13), &mut buf);
            assert_eq!(v, buf, "{} sample_into must match sample", s.name());
        }
    }
}
