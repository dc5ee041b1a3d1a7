//! Stratified Weighted Random Walk (S-WRW), the paper's reference \[35\].

use crate::{DesignKind, NodeSampler, SampleError, WalkStats, WeightedRandomWalk};
use cgte_graph::{CategoryId, Graph, NodeId, Partition};
use rand::Rng;

/// Stratified Weighted Random Walk: a [`WeightedRandomWalk`] whose per-node
/// factor is the weight `γ_C` of the node's *category*, so the crawl
/// oversamples categories of interest ("walking on a graph with a
/// magnifying glass", \[35\]).
///
/// With product-form edge weights `γ_{C(u)}·γ_{C(v)}`, the transition
/// probability toward neighbor `v` is ∝ `γ_{C(v)}`. A real crawler can
/// compute this from the neighbor categories visible in a star measurement,
/// and the stationary weight of a visited node —
/// `π(v) ∝ γ_{C(v)}·Σ_{u∼v} γ_{C(u)}` — from the same information, which is
/// what makes the §5 estimators applicable.
///
/// [`Swrw::equal_category_target`] reproduces the configuration the paper
/// evaluates (§6.3.1): equal category weights, no irrelevant categories
/// (`f̃_⊖ = 0`), full stratification strength (`γ = ∞`). Setting
/// `γ_C = 1/vol(C)` makes every category's stationary mass approximately
/// equal, which is what "equal category weights" targets — small categories
/// (the paper's colleges, 3.5 % of users across 10 000+ categories) are
/// oversampled by orders of magnitude relative to RW, as seen in Fig. 5.
///
/// Every constructor builds the inner walk table for the graph it is
/// given (16 B per node: factor and strength, see [`WeightedRandomWalk`]),
/// shared through an `Arc` by clones, so build one `Swrw` per graph and
/// partition and clone it rather than rebuilding.
#[derive(Debug, Clone)]
pub struct Swrw {
    inner: WeightedRandomWalk,
    category_weights: Vec<f64>,
}

impl Swrw {
    /// S-WRW on `g` with explicit per-category weights `γ_C`.
    ///
    /// Returns `None` if any weight is negative or non-finite, if there is
    /// not one weight per category, or if `p` does not cover `g`'s nodes.
    pub fn new(g: &Graph, p: &Partition, category_weights: Vec<f64>) -> Option<Self> {
        if category_weights.len() != p.num_categories() {
            return None;
        }
        let factors: Vec<f64> = p
            .assignments()
            .iter()
            .map(|&c| category_weights[c as usize])
            .collect();
        let inner = WeightedRandomWalk::new(g, factors)?;
        Some(Swrw {
            inner,
            category_weights,
        })
    }

    /// The paper's evaluation configuration: category weights chosen so
    /// every (non-empty) category receives roughly equal sampling mass,
    /// `γ_C = 1 / vol(C)`; zero-volume categories get weight 0.
    ///
    /// This is [`Swrw::stratified`] with `beta = 1` — maximum
    /// stratification. Beware its mixing cost on finite crawls: a walk
    /// entering a tiny category faces internal edge weights `γ_C²` versus
    /// boundary weights `γ_C·γ_other`, so escape takes `O(vol(V)/vol(C))`
    /// steps and short walks cover few rare categories. Intermediate
    /// `beta` trades stratification for mixing (ablation A3).
    pub fn equal_category_target(g: &Graph, p: &Partition) -> Option<Self> {
        Self::stratified(g, p, 1.0)
    }

    /// S-WRW with stratification strength `beta`:
    /// `γ_C = vol(C)^(−beta)`.
    ///
    /// `beta = 0` is the plain RW; `beta = 1` targets equal sampling mass
    /// per category ([`Swrw::equal_category_target`]); intermediate values
    /// boost rare categories while keeping traps shallow — `beta = 0.5`
    /// makes a category's stationary mass ∝ `vol(C)^(1/2)`, a `vol^(-1/2)`
    /// per-volume boost for small categories with only `O(sqrt(vol(V)/vol(C)))`
    /// escape times. Zero-volume categories get weight 0.
    ///
    /// # Panics
    /// Panics if `beta` is negative or not finite.
    pub fn stratified(g: &Graph, p: &Partition, beta: f64) -> Option<Self> {
        assert!(
            beta.is_finite() && beta >= 0.0,
            "beta must be finite and >= 0"
        );
        let mut vol = vec![0f64; p.num_categories()];
        for v in 0..g.num_nodes() {
            vol[p.category_of(v as NodeId) as usize] += g.degree(v as NodeId) as f64;
        }
        let weights: Vec<f64> = vol
            .iter()
            .map(|&x| if x > 0.0 { x.powf(-beta) } else { 0.0 })
            .collect();
        Self::new(g, p, weights)
    }

    /// Discards the first `steps` visited nodes.
    pub fn burn_in(mut self, steps: usize) -> Self {
        self.inner = self.inner.burn_in(steps);
        self
    }

    /// Keeps only every `t`-th node (`t >= 1`).
    pub fn thinning(mut self, t: usize) -> Self {
        self.inner = self.inner.thinning(t);
        self
    }

    /// Fixes the starting node. A draw from a node outside the graph or
    /// without edges fails with [`SampleError::InvalidStart`].
    pub fn start_at(mut self, v: NodeId) -> Self {
        self.inner = self.inner.start_at(v);
        self
    }

    /// The per-node factors `γ_{C(u)}` of the walk table.
    pub fn factors(&self) -> &[f64] {
        self.inner.factors()
    }

    /// The per-category weights `γ_C`.
    pub fn category_weights(&self) -> &[f64] {
        &self.category_weights
    }

    /// Weight of a category by id.
    pub fn category_weight(&self, c: CategoryId) -> f64 {
        self.category_weights[c as usize]
    }
}

impl NodeSampler for Swrw {
    // Forwarding the one required core to the inner WRW is enough: the
    // wrapper entry points are trait defaults over it on both types.
    fn try_sample_each<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        n: usize,
        rng: &mut R,
        stats: &mut WalkStats,
        emit: impl FnMut(NodeId),
    ) -> Result<(), SampleError> {
        self.inner.try_sample_each(g, n, rng, stats, emit)
    }

    fn design(&self) -> DesignKind {
        DesignKind::Weighted
    }

    fn weight_of(&self, g: &Graph, v: NodeId) -> f64 {
        self.inner.weight_of(g, v)
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
    fn rejects_mismatched_weights() {
        let p = Partition::trivial(4);
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(Swrw::new(&g, &p, vec![1.0, 2.0]).is_none());
        assert!(Swrw::new(&g, &p, vec![-1.0]).is_none());
        let smaller = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(Swrw::new(&smaller, &p, vec![1.0]).is_none());
    }

    #[test]
    fn oversamples_small_category() {
        // Two communities: a big one (160 nodes) and a small one (20), with
        // equal-target weights the small category should receive far more
        // than its 11% population share.
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PlantedConfig {
            category_sizes: vec![20, 160],
            k: 6,
            alpha: 0.0,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let swrw = Swrw::equal_category_target(&pg.graph, &pg.partition).unwrap();
        let n = 40_000;
        let s = swrw.clone().burn_in(500).sample(&pg.graph, n, &mut rng);
        let small = s
            .iter()
            .filter(|&&v| pg.partition.category_of(v) == 0)
            .count() as f64
            / n as f64;
        assert!(
            small > 0.3,
            "small category share {small}, expected strong oversampling vs 0.11"
        );
    }

    #[test]
    fn stationary_weights_match_visit_frequencies() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PlantedConfig {
            category_sizes: vec![30, 60],
            k: 4,
            alpha: 0.0,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let swrw = Swrw::equal_category_target(&pg.graph, &pg.partition).unwrap();
        let n = 400_000;
        let s = swrw.clone().burn_in(1000).sample(&pg.graph, n, &mut rng);
        let mut counts = vec![0usize; pg.graph.num_nodes()];
        for v in &s {
            counts[*v as usize] += 1;
        }
        let total_w: f64 = (0..pg.graph.num_nodes())
            .map(|v| swrw.weight_of(&pg.graph, v as NodeId))
            .sum();
        // Check a handful of nodes against their theoretical frequency.
        for v in [0u32, 10, 40, 80] {
            let expect = swrw.weight_of(&pg.graph, v) / total_w;
            let got = counts[v as usize] as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.3 * expect + 0.002,
                "node {v}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn zero_volume_category_gets_zero_weight() {
        // Category 1 has an isolated node only.
        let g = GraphBuilder::from_edges(3, [(0, 2)]).unwrap();
        let p = Partition::from_assignments(vec![0, 1, 0], 2).unwrap();
        let swrw = Swrw::equal_category_target(&g, &p).unwrap();
        assert_eq!(swrw.category_weight(1), 0.0);
        assert!(swrw.category_weight(0) > 0.0);
    }

    #[test]
    fn builder_methods_chain() {
        let p = Partition::trivial(4);
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let swrw = Swrw::new(&g, &p, vec![1.0])
            .unwrap()
            .burn_in(5)
            .thinning(2)
            .start_at(0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(swrw.sample(&g, 7, &mut rng).len(), 7);
        assert_eq!(swrw.design(), DesignKind::Weighted);
    }
}
