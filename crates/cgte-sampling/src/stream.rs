//! The streaming observation kernel: ingest sampled nodes in batches,
//! query the sufficient statistics of **both** observation scenarios at
//! any prefix, and merge independently collected shards.
//!
//! This is the paper's operating model made explicit: a crawler streams
//! node samples in and category-graph estimates come out, without the
//! estimator ever holding the full sample — only `O(C²)` running sums
//! (plus the push log that makes shards mergeable). The batch experiment
//! runner (`cgte_eval::run_experiment`) and the online estimation service
//! (`cgte-serve`) both sit on this kernel, so their numbers are
//! bit-identical by construction.
//!
//! Estimates themselves live one crate up (`cgte_core::stream_estimate`,
//! which consumes the accumulators exposed here): the kernel produces
//! design-based sufficient statistics, the estimator crate turns them into
//! Eq. (4)/(5)/(8)/(9) values.
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
use crate::{DesignKind, NodeSampler};
use cgte_graph::NodeId;

/// Both observation scenarios' incremental state over one sample stream.
///
/// A single push feeds the [`StarAccumulator`] and the
/// [`InducedAccumulator`] in lockstep, so every estimator family of the
/// paper can be snapshotted from the same stream at any prefix. Streams
/// are mergeable with the same bit-exact law as the accumulators they
/// wrap (star first, then induced — a fixed order, so merged state equals
/// sequentially pushed state field for field).
///
/// Each wrapped accumulator keeps its own `(node, weight)` push log —
/// a deliberate 16 bytes/sample duplication: the logs are what make the
/// accumulators independently mergeable, and sharing one log across the
/// pair would leave a stream's inner accumulators silently unmergeable
/// on their own. [`ObservationStream::log`] exposes the star copy.
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

    /// Heap bytes held by both accumulators: both logs, the induced
    /// membership bitset, chunk directory and slot pool (under 4 slots of
    /// 12 bytes per distinct sampled node), and the `O(C²)` sums.
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
        for (&v, &w) in nodes.iter().zip(weights) {
            self.push(ctx, v, w);
        }
    }

    /// Ingests a batch under a uniform design (all weights 1).
    pub fn ingest_uniform(&mut self, ctx: &ObservationContext<'_>, nodes: &[NodeId]) {
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
        for &v in nodes {
            let w = match design {
                DesignKind::Uniform => 1.0,
                DesignKind::Weighted => sampler.weight_of(ctx.graph(), v),
            };
            self.push(ctx, v, w);
        }
    }

    /// Folds another stream's observations into this one (bit-exact merge
    /// law; see [`StarAccumulator::merge`]).
    ///
    /// # Panics
    /// Panics if the category counts differ.
    pub fn merge(&mut self, ctx: &ObservationContext<'_>, other: &ObservationStream) {
        self.star.merge(ctx, &other.star);
        self.induced.merge(ctx, &other.induced);
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

    /// The ingested `(node, weight)` sequence, in order.
    #[inline]
    pub fn log(&self) -> &[(NodeId, f64)] {
        self.star.log()
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
        assert_eq!(s.log(), &[(2, 1.0), (3, 1.0)]);
        s.reset();
        assert!(s.is_empty());
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
