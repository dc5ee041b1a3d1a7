//! The streaming observation kernel: ingest sampled nodes in batches,
//! query the sufficient statistics of **both** observation scenarios at
//! any prefix, and merge independently collected shards.
//!
//! This is the paper's operating model made explicit: a crawler streams
//! node samples in and category-graph estimates come out, without the
//! estimator ever holding the full sample — only `O(C²)` running sums
//! (plus one push log, which makes shards mergeable). The batch experiment
//! runner (`cgte_eval::run_experiment`) and the online estimation service
//! (`cgte-serve`) both sit on this kernel, so their numbers are
//! bit-identical by construction.
//!
//! Estimates themselves live one crate up (`cgte_core::estimate_stream_into`
//! and `cgte_core::estimate_category_graph`, which consume the accumulators
//! exposed here): the kernel produces design-based sufficient statistics,
//! the estimator crate turns them into Eq. (4)/(5)/(8)/(9) values.
//!
//! ```
//! use cgte_graph::GraphBuilder;
//! use cgte_graph::Partition;
//! use cgte_sampling::{ObservationContext, ObservationStream};
//!
//! let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
//! let p = Partition::from_assignments(vec![0, 0, 1, 1], 2).unwrap();
//! let ctx = ObservationContext::new(&g, &p);
//!
//! // Two crawlers ingest independently…
//! let mut a = ObservationStream::new(2);
//! a.ingest_uniform(&ctx, &[0, 1]);
//! let mut b = ObservationStream::new(2);
//! b.ingest_uniform(&ctx, &[2, 3]);
//!
//! // …and merging them is bit-identical to one sequential observer.
//! let mut whole = ObservationStream::new(2);
//! whole.ingest_uniform(&ctx, &[0, 1, 2, 3]);
//! a.merge(&ctx, &b);
//! assert_eq!(a, whole);
//! ```

use crate::observe::{InducedAccumulator, ObservationContext, StarAccumulator};
use crate::{DesignKind, NodeSampler, SampleError, WalkStats};
use cgte_graph::NodeId;
use rand::Rng;

/// Both observation scenarios' incremental state over one sample stream.
///
/// A single push feeds the [`StarAccumulator`] and the
/// [`InducedAccumulator`] in lockstep, so every estimator family of the
/// paper can be snapshotted from the same stream at any prefix.
///
/// The stream keeps one `(node, weight)` push log, held by the star
/// accumulator; the induced accumulator keeps none. That one log is what
/// [`ObservationStream::merge`] replays and what snapshots persist, and
/// [`ObservationStream::log`] exposes it. Batch ingests and merges reserve
/// the batch's log entries before pushing, so a stream filled in one batch
/// (a snapshot replay) holds a log of exactly its length.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationStream {
    star: StarAccumulator,
    induced: InducedAccumulator,
}

impl ObservationStream {
    /// An empty stream over `num_categories` categories.
    pub fn new(num_categories: usize) -> Self {
        ObservationStream {
            star: StarAccumulator::new(num_categories),
            induced: InducedAccumulator::new(num_categories),
        }
    }

    /// Clears all state, keeping allocations (scratch reuse between
    /// replications).
    pub fn reset(&mut self) {
        self.star.reset();
        self.induced.reset();
    }

    /// Heap bytes held by both accumulators: the one push log (12 bytes per
    /// sample), the induced block directory (`n/16` bytes), one 512-byte
    /// mass block per 64-node word that holds a member plus a shared zero
    /// block, and the `O(C²)` sums. Members are the sampled nodes with a
    /// non-empty cut row; until the first one arrives the directory and the
    /// blocks hold nothing.
    pub fn heap_bytes(&self) -> usize {
        self.star.heap_bytes() + self.induced.heap_bytes()
    }

    /// Folds one sampled node with design weight `w` into both
    /// accumulators.
    ///
    /// # Panics
    /// Panics if `w` is not positive and finite, or on a category-count
    /// mismatch with the context.
    #[inline]
    pub fn push(&mut self, ctx: &ObservationContext<'_>, v: NodeId, w: f64) {
        self.star.push(ctx, v, w);
        self.induced.push(ctx, v, w);
    }

    /// Ingests a batch of sampled nodes with explicit design weights.
    ///
    /// # Panics
    /// Panics unless `weights.len() == nodes.len()` (plus the `push`
    /// contract per element).
    pub fn ingest(&mut self, ctx: &ObservationContext<'_>, nodes: &[NodeId], weights: &[f64]) {
        assert_eq!(weights.len(), nodes.len(), "one weight per sample");
        self.star.reserve(nodes.len());
        for (&v, &w) in nodes.iter().zip(weights) {
            self.push(ctx, v, w);
        }
    }

    /// Ingests a batch under a uniform design (all weights 1).
    pub fn ingest_uniform(&mut self, ctx: &ObservationContext<'_>, nodes: &[NodeId]) {
        self.star.reserve(nodes.len());
        for &v in nodes {
            self.push(ctx, v, 1.0);
        }
    }

    /// Ingests a batch with the weights a sampler reports for each node —
    /// `w(v)` under a weighted design, 1 under a uniform one. This is
    /// exactly the weighting rule of the batch experiment runner, so a
    /// stream fed the same drawn sequence reaches bit-identical state.
    pub fn ingest_sampler<S: NodeSampler + ?Sized>(
        &mut self,
        ctx: &ObservationContext<'_>,
        nodes: &[NodeId],
        sampler: &S,
        design: DesignKind,
    ) {
        self.star.reserve(nodes.len());
        for &v in nodes {
            self.push(ctx, v, design_weight(sampler, design, ctx, v));
        }
    }

    /// Draws `n` nodes from `sampler` and pushes each one, with the weight
    /// [`ObservationStream::ingest_sampler`] would give it, as soon as the
    /// draw emits it ([`NodeSampler::try_sample_each`]). The stream reaches
    /// the state `try_sample_into_stats` + `ingest_sampler` reach on the
    /// same RNG, bit for bit, with no node buffer in between; on a
    /// 1M-node graph the push's cache misses then overlap the walk's.
    ///
    /// The log is reserved for the batch at the first node, so a draw that
    /// fails (it fails before emitting anything) leaves the stream exactly
    /// as it was, allocations included.
    pub fn ingest_walk<S: NodeSampler + ?Sized, R: Rng + ?Sized>(
        &mut self,
        ctx: &ObservationContext<'_>,
        sampler: &S,
        design: DesignKind,
        n: usize,
        rng: &mut R,
        stats: &mut WalkStats,
    ) -> Result<(), SampleError> {
        let mut reserved = false;
        sampler.try_sample_each(ctx.graph(), n, rng, stats, |v| {
            if !reserved {
                self.star.reserve(n);
                reserved = true;
            }
            self.push(ctx, v, design_weight(sampler, design, ctx, v));
        })
    }

    /// Folds another stream's observations into this one by replaying its
    /// log through [`ObservationStream::push`] in order. The result is
    /// bit-identical to having pushed those samples here directly (the
    /// merge law), and cross-shard induced pairs are found on the way.
    ///
    /// # Panics
    /// Panics if the category counts differ (the shards must observe the
    /// same partition).
    pub fn merge(&mut self, ctx: &ObservationContext<'_>, other: &ObservationStream) {
        assert_eq!(
            self.num_categories(),
            other.num_categories(),
            "merged accumulators must share a category count"
        );
        let (nodes, weights) = other.log();
        self.ingest(ctx, nodes, weights);
    }

    /// Number of ingested samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.star.len()
    }

    /// Whether nothing was ingested.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.star.is_empty()
    }

    /// Number of categories.
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.star.num_categories()
    }

    /// The star-scenario sufficient statistics at the current prefix.
    #[inline]
    pub fn star(&self) -> &StarAccumulator {
        &self.star
    }

    /// The induced-scenario sufficient statistics at the current prefix.
    #[inline]
    pub fn induced(&self) -> &InducedAccumulator {
        &self.induced
    }

    /// The ingested nodes and their design weights, in order, as two
    /// parallel slices.
    #[inline]
    pub fn log(&self) -> (&[NodeId], &[f64]) {
        self.star.log()
    }
}

/// The design weight of a sampled node: `w(v)` under a weighted design,
/// 1 under a uniform one.
#[inline]
fn design_weight<S: NodeSampler + ?Sized>(
    sampler: &S,
    design: DesignKind,
    ctx: &ObservationContext<'_>,
    v: NodeId,
) -> f64 {
    match design {
        DesignKind::Uniform => 1.0,
        DesignKind::Weighted => sampler.weight_of(ctx.graph(), v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomWalk;
    use cgte_graph::{Graph, GraphBuilder, Partition};

    fn fixture() -> (Graph, Partition) {
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        (g, p)
    }

    #[test]
    fn stream_tracks_both_scenarios() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut s = ObservationStream::new(2);
        assert!(s.is_empty());
        s.ingest_uniform(&ctx, &[2, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.star().len(), 2);
        assert_eq!(s.induced().len(), 2);
        // The bridge edge shows up in both scenarios' cross numerators.
        assert!(s.star().weight_numerators().get(0, 1) > 0.0);
        assert!(s.induced().weight_numerators().get(0, 1) > 0.0);
        assert_eq!(s.log(), (&[2, 3][..], &[1.0, 1.0][..]));
        s.reset();
        assert!(s.is_empty());
    }

    /// The induced accumulator keeps no log: repeat pushes of one node
    /// touch only its existing mass slot, so its heap stops growing after the
    /// first push (the stream's one log grows in the star accumulator).
    #[test]
    fn induced_heap_is_flat_under_repeat_pushes() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut s = ObservationStream::new(2);
        s.push(&ctx, 2, 1.0);
        let heap = s.induced().heap_bytes();
        for _ in 1..10_000 {
            s.push(&ctx, 2, 1.0);
        }
        assert_eq!(s.induced().heap_bytes(), heap);
        assert_eq!(s.log().0.len(), 10_000);
    }

    /// Under one category every cut row is empty, so no sampled node
    /// becomes a member: after 10k pushes the induced accumulator holds no
    /// block directory and no mass block, whether pushed one by one or
    /// ingested as a batch, and the batch's log is reserved to exactly its
    /// length.
    #[test]
    fn single_category_stream_holds_no_mass_blocks() {
        use rand::SeedableRng;
        let (g, _) = fixture();
        let p = Partition::from_assignments(vec![0; 6], 1).unwrap();
        let ctx = ObservationContext::new(&g, &p);
        let nodes = RandomWalk::new().sample(&g, 10_000, &mut rand::rngs::StdRng::seed_from_u64(3));
        let mut pushed = ObservationStream::new(1);
        for &v in &nodes {
            pushed.push(&ctx, v, 1.0);
        }
        let mut batch = ObservationStream::new(1);
        batch.ingest_uniform(&ctx, &nodes);
        assert_eq!(pushed, batch);
        let empty = InducedAccumulator::new(1).heap_bytes();
        assert_eq!(pushed.induced().heap_bytes(), empty);
        assert_eq!(batch.induced().heap_bytes(), empty);
        assert_eq!(
            batch.star().heap_bytes(),
            StarAccumulator::new(1).heap_bytes() + 10_000 * 12
        );
    }

    #[test]
    fn split_ingest_merge_equals_sequential() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let nodes = [2u32, 3, 2, 0, 5, 2, 3, 4, 1, 2];
        let rw = RandomWalk::new();
        for split in [0, 1, 5, 9, 10] {
            let mut whole = ObservationStream::new(2);
            whole.ingest_sampler(&ctx, &nodes, &rw, DesignKind::Weighted);
            let mut a = ObservationStream::new(2);
            a.ingest_sampler(&ctx, &nodes[..split], &rw, DesignKind::Weighted);
            let mut b = ObservationStream::new(2);
            b.ingest_sampler(&ctx, &nodes[split..], &rw, DesignKind::Weighted);
            a.merge(&ctx, &b);
            assert_eq!(a, whole, "split at {split}");
        }
    }

    #[test]
    fn ingest_sampler_logs_design_weights() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let rw = RandomWalk::new();
        let mut weighted = ObservationStream::new(2);
        weighted.ingest_sampler(&ctx, &[2, 0], &rw, DesignKind::Weighted);
        assert_eq!(weighted.log().1, &[3.0, 2.0]); // degrees
        let mut uniform = ObservationStream::new(2);
        uniform.ingest_sampler(&ctx, &[2, 0], &rw, DesignKind::Uniform);
        assert_eq!(uniform.log().1, &[1.0, 1.0]);
    }

    #[test]
    fn ingest_matches_explicit_weights() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let nodes = [2u32, 4, 2];
        let rw = RandomWalk::new();
        let weights: Vec<f64> = nodes.iter().map(|&v| g.degree(v) as f64).collect();
        let mut a = ObservationStream::new(2);
        a.ingest(&ctx, &nodes, &weights);
        let mut b = ObservationStream::new(2);
        b.ingest_sampler(&ctx, &nodes, &rw, DesignKind::Weighted);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one weight per sample")]
    fn ingest_rejects_length_mismatch() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut s = ObservationStream::new(2);
        s.ingest(&ctx, &[0, 1], &[1.0]);
    }
}
