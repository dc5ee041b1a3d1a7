//! Estimates over the streaming observation kernel
//! ([`cgte_sampling::ObservationStream`]).
//!
//! Two functions turn the kernel's sufficient statistics into the paper's
//! estimates. [`estimate_stream_into`] snapshots every estimator family at
//! the current prefix into a reusable buffer; the batch experiment runner
//! (`cgte_eval::run_experiment`) and the online service (`cgte-serve`)
//! both call it, which is what makes a serve session fed the same sampled
//! sequence **bit-identical** to the batch path: there is only one
//! snapshot computation to agree with. [`estimate_category_graph`] reads
//! the same statistics into one whole [`CategoryGraph`] (§7.2).
//!
//! The sampling design is fixed when the stream is filled: a
//! [`cgte_sampling::DesignKind`] at ingest decides whether each node is
//! pushed with its weight `w(v)` or with 1.

use crate::category_size::{
    induced_sizes_acc, induced_sizes_acc_into, star_sizes_acc, star_sizes_acc_into, StarSizeOptions,
};
use crate::edge_weight::{induced_weights_acc_into, star_weights_acc, star_weights_acc_into};
use cgte_graph::{CategoryGraph, CategoryMatrix};
use cgte_sampling::{InducedAccumulator, ObservationStream, StarAccumulator};

/// Which estimator family to use — uniform (§4) or Hansen–Hurwitz weighted
/// (§5).
///
/// `Uniform` treats every draw as equally likely (correct for UIS and
/// converged MHRW) and pushes it with weight 1; `Weighted` pushes the
/// sampler's `w(v)` (correct for WIS, RW, S-WRW). Applying `Uniform` to a
/// degree-biased sample reproduces the uncorrected distortion the paper
/// warns about in §5 — useful for demonstrations, wrong for inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Design {
    /// Treat the sample as uniform (unit weights).
    Uniform,
    /// Correct for the sampler's weights (default).
    #[default]
    Weighted,
}

/// Which size estimator feeds the star edge-weight denominator (§5.3.2
/// recommends choosing the lower-variance one per application).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeMethod {
    /// Counting estimator, Eq. (4)/(11).
    Induced,
    /// Star estimator, Eq. (5)/(12), with its options.
    Star(StarSizeOptions),
}

/// A full snapshot of both estimator families at one prefix, with reusable
/// buffers ("cheap `snapshot_into`"): construct once, re-fill per prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEstimate {
    /// The population size `N` the sizes were scaled by.
    pub population: f64,
    /// Number of ingested samples at this snapshot.
    pub len: usize,
    /// Whether the induced size estimator was defined (non-empty sample);
    /// when `false`, `sizes_induced` holds the operational all-zeros
    /// reading.
    pub induced_defined: bool,
    /// Induced (counting) size estimates, Eq. (4)/(11), one per category.
    pub sizes_induced: Vec<f64>,
    /// Star size estimates, Eq. (5)/(12); `None` where undefined.
    pub sizes_star: Vec<Option<f64>>,
    /// The §5.3.2 plug-in sizes the star weight estimator uses: star size
    /// with induced fallback per category.
    pub plug_sizes: Vec<f64>,
    /// Whether the weight matrices below were computed at this snapshot.
    pub with_weights: bool,
    /// Induced edge-weight estimates, Eq. (8)/(15); zeros when
    /// `with_weights` is false.
    pub weights_induced: CategoryMatrix,
    /// Star edge-weight estimates, Eq. (9)/(16) with plug-in sizes; zeros
    /// when `with_weights` is false.
    pub weights_star: CategoryMatrix,
}

impl StreamEstimate {
    /// An empty snapshot buffer over `num_categories` categories.
    pub fn new(num_categories: usize) -> Self {
        StreamEstimate {
            population: 0.0,
            len: 0,
            induced_defined: false,
            sizes_induced: Vec::with_capacity(num_categories),
            sizes_star: Vec::with_capacity(num_categories),
            plug_sizes: Vec::with_capacity(num_categories),
            with_weights: false,
            weights_induced: CategoryMatrix::zeros(num_categories),
            weights_star: CategoryMatrix::zeros(num_categories),
        }
    }

    /// Number of categories this buffer snapshots.
    pub fn num_categories(&self) -> usize {
        self.weights_induced.num_categories()
    }

    /// Heap bytes the buffer holds: three per-category vectors and the two
    /// `O(C²)` weight triangles.
    pub fn heap_bytes(&self) -> usize {
        self.sizes_induced.capacity() * std::mem::size_of::<f64>()
            + self.sizes_star.capacity() * std::mem::size_of::<Option<f64>>()
            + self.plug_sizes.capacity() * std::mem::size_of::<f64>()
            + self.weights_induced.heap_bytes()
            + self.weights_star.heap_bytes()
    }
}

/// Snapshots both estimator families from raw accumulator state into a
/// reusable [`StreamEstimate`] buffer.
///
/// The computation — induced sizes (all-zeros when undefined), star sizes,
/// plug-in sizes (star with induced fallback), then optionally both weight
/// matrices — replays the batch experiment runner's snapshot expression
/// for expression, so the two paths agree bit for bit. `with_weights`
/// skips the `O(C²)` weight work for size-only consumers.
///
/// # Panics
/// Panics if `out`'s category count differs from the accumulators'.
pub fn estimate_stream_into(
    star: &StarAccumulator,
    induced: &InducedAccumulator,
    population: f64,
    opts: &StarSizeOptions,
    with_weights: bool,
    out: &mut StreamEstimate,
) {
    assert_eq!(
        out.num_categories(),
        star.num_categories(),
        "snapshot buffer dimension mismatch"
    );
    out.population = population;
    out.len = star.len();
    out.induced_defined = induced_sizes_acc_into(induced, population, &mut out.sizes_induced);
    star_sizes_acc_into(star, population, opts, &mut out.sizes_star);
    out.with_weights = with_weights;
    if with_weights {
        // Star edge weights plug in the star size with induced fallback
        // (§5.3.2: pick the better-behaved size estimator).
        out.plug_sizes.clear();
        out.plug_sizes.extend(
            out.sizes_star
                .iter()
                .zip(&out.sizes_induced)
                .map(|(s, &i)| s.unwrap_or(i)),
        );
        induced_weights_acc_into(induced, &mut out.weights_induced);
        star_weights_acc_into(star, &out.plug_sizes, &mut out.weights_star);
    } else {
        out.plug_sizes.clear();
        out.weights_induced.reset();
        out.weights_star.reset();
    }
}

/// Allocating convenience over [`estimate_stream_into`] for one-shot
/// consumers: a full snapshot (sizes and weights) of a stream.
pub fn estimate_stream(
    stream: &ObservationStream,
    population: f64,
    opts: &StarSizeOptions,
) -> StreamEstimate {
    let mut out = StreamEstimate::new(stream.num_categories());
    estimate_stream_into(
        stream.star(),
        stream.induced(),
        population,
        opts,
        true,
        &mut out,
    );
    out
}

/// Estimates a full [`CategoryGraph`] — all category sizes and all pairwise
/// edge weights — from a stream's star observation: sizes via `sizes`,
/// weights via Eq. (9)/(16) with those sizes plugged into the
/// denominators.
///
/// Categories whose star size is undefined (no samples from the category)
/// fall back to the induced size; if that is also undefined (an empty
/// stream) the size is 0 and incident edges are dropped. All-pairs weights
/// flow through dense [`CategoryMatrix`] values end to end.
///
/// ```
/// use cgte_core::{estimate_category_graph, SizeMethod, StarSizeOptions};
/// use cgte_graph::{CategoryGraph, GraphBuilder, Partition};
/// use cgte_sampling::{ObservationContext, ObservationStream};
///
/// let g = GraphBuilder::from_edges(6,
///     [(0,1),(1,2),(0,2),(3,4),(4,5),(3,5),(2,3)]).unwrap();
/// let p = Partition::from_assignments(vec![0,0,0,1,1,1], 2).unwrap();
/// let mut stream = ObservationStream::new(2);
/// stream.ingest_uniform(&ObservationContext::new(&g, &p), &[0, 1, 2, 3, 4, 5]);
/// let sizes = SizeMethod::Star(StarSizeOptions::default());
/// let est = estimate_category_graph(&stream, 6.0, sizes);
/// let truth = CategoryGraph::exact(&g, &p);
/// assert!((est.weight(0, 1) - truth.weight(0, 1)).abs() < 1e-9);
/// ```
pub fn estimate_category_graph(
    stream: &ObservationStream,
    population: f64,
    sizes: SizeMethod,
) -> CategoryGraph {
    let fallback = induced_sizes_acc(stream.induced(), population)
        .unwrap_or_else(|| vec![0.0; stream.num_categories()]);
    let sizes: Vec<f64> = match sizes {
        SizeMethod::Induced => fallback,
        SizeMethod::Star(opts) => star_sizes_acc(stream.star(), population, &opts)
            .into_iter()
            .zip(fallback)
            .map(|(star, ind)| star.unwrap_or(ind))
            .collect(),
    };
    let weights = star_weights_acc(stream.star(), &sizes);
    CategoryGraph::from_weights(sizes, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_weight::induced_weights_acc;
    use cgte_graph::generators::{planted_partition, PlantedConfig};
    use cgte_graph::{Graph, GraphBuilder, Partition};
    use cgte_sampling::{
        DesignKind, NodeSampler, ObservationContext, RandomWalk, UniformIndependence,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (Graph, Partition) {
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        (g, p)
    }

    #[test]
    fn snapshot_matches_allocating_estimators_bitwise() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut stream = ObservationStream::new(2);
        for &(v, w) in &[(2u32, 3.0), (3, 3.0), (0, 2.0), (5, 2.0), (2, 3.0)] {
            stream.push(&ctx, v, w);
        }
        let opts = StarSizeOptions::default();
        let est = estimate_stream(&stream, 6.0, &opts);
        assert_eq!(est.len, 5);
        assert_eq!(
            est.sizes_induced,
            induced_sizes_acc(stream.induced(), 6.0).unwrap()
        );
        assert_eq!(est.sizes_star, star_sizes_acc(stream.star(), 6.0, &opts));
        assert_eq!(est.weights_induced, induced_weights_acc(stream.induced()));
        assert_eq!(
            est.weights_star,
            star_weights_acc(stream.star(), &est.plug_sizes)
        );
    }

    #[test]
    fn empty_stream_is_the_operational_zero_reading() {
        let stream = ObservationStream::new(3);
        let est = estimate_stream(&stream, 10.0, &StarSizeOptions::default());
        assert!(!est.induced_defined);
        assert_eq!(est.sizes_induced, vec![0.0; 3]);
        assert_eq!(est.sizes_star, vec![None; 3]);
        assert!(est.weights_induced.is_zero());
        assert!(est.weights_star.is_zero());
    }

    #[test]
    fn size_only_snapshot_skips_weights() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut stream = ObservationStream::new(2);
        stream.ingest_uniform(&ctx, &[2, 3]);
        let mut out = StreamEstimate::new(2);
        estimate_stream_into(
            stream.star(),
            stream.induced(),
            6.0,
            &StarSizeOptions::default(),
            false,
            &mut out,
        );
        assert!(!out.with_weights);
        assert!(out.weights_induced.is_zero());
        // Re-filling the same buffer with weights works (snapshot reuse).
        estimate_stream_into(
            stream.star(),
            stream.induced(),
            6.0,
            &StarSizeOptions::default(),
            true,
            &mut out,
        );
        assert!(out.with_weights);
        assert!(out.weights_induced.get(0, 1) > 0.0);
    }

    /// A stream of `nodes` under a uniform design over the fixture.
    fn uniform_stream(g: &Graph, p: &Partition, nodes: &[u32]) -> ObservationStream {
        let mut stream = ObservationStream::new(p.num_categories());
        stream.ingest_uniform(&ObservationContext::new(g, p), nodes);
        stream
    }

    #[test]
    fn full_uniform_sample_recovers_truth_induced() {
        let (g, p) = fixture();
        let all: Vec<u32> = (0..6).collect();
        let est = estimate_stream(
            &uniform_stream(&g, &p, &all),
            6.0,
            &StarSizeOptions::default(),
        );
        let truth = CategoryGraph::exact(&g, &p);
        assert!((est.sizes_induced[0] - 3.0).abs() < 1e-9);
        assert!((est.weights_induced.get(0, 1) - truth.weight(0, 1)).abs() < 1e-9);
    }

    #[test]
    fn full_uniform_sample_recovers_truth_star() {
        let (g, p) = fixture();
        let all: Vec<u32> = (0..6).collect();
        let stream = uniform_stream(&g, &p, &all);
        for method in [
            SizeMethod::Induced,
            SizeMethod::Star(StarSizeOptions::default()),
        ] {
            let est = estimate_category_graph(&stream, 6.0, method);
            assert!((est.size(1) - 3.0).abs() < 1e-9, "{method:?}");
            assert!((est.weight(0, 1) - 1.0 / 9.0).abs() < 1e-9, "{method:?}");
        }
    }

    #[test]
    fn unsampled_categories_get_zero_size_and_no_edges() {
        let (g, p) = fixture();
        let est = estimate_stream(
            &uniform_stream(&g, &p, &[0, 1]),
            6.0,
            &StarSizeOptions::default(),
        );
        assert_eq!(est.sizes_induced[1], 0.0);
        assert_eq!(est.weights_induced.iter_nonzero().count(), 0);
    }

    #[test]
    fn star_fallback_to_induced_size() {
        let (g, p) = fixture();
        // Category 1 never sampled: star plug-in size undefined, induced
        // fallback gives 0; the edge is dropped (denominator would be
        // mass_0 * 0 + 0 * size_0 = 0).
        let stream = uniform_stream(&g, &p, &[0, 1]);
        let est =
            estimate_category_graph(&stream, 6.0, SizeMethod::Star(StarSizeOptions::default()));
        assert_eq!(est.size(1), 0.0);
    }

    #[test]
    fn weighted_design_beats_uncorrected_on_rw() {
        // RW without correction inflates big/high-degree categories; the
        // Weighted design must be closer to the truth than Uniform on the
        // same degree-biased sample.
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = PlantedConfig {
            category_sizes: vec![60, 540],
            k: 6,
            alpha: 0.1,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let rw = RandomWalk::new().burn_in(300);
        let nodes = rw.sample(&pg.graph, 5000, &mut rng);
        let ctx = ObservationContext::new(&pg.graph, &pg.partition);
        let n = pg.graph.num_nodes() as f64;
        let star = SizeMethod::Star(StarSizeOptions::default());
        let estimate = |design| {
            let mut stream = ObservationStream::new(2);
            stream.ingest_sampler(&ctx, &nodes, &rw, design);
            estimate_category_graph(&stream, n, star)
        };
        let corrected = estimate(DesignKind::Weighted);
        let uncorrected = estimate(DesignKind::Uniform);
        let err_c = (corrected.size(0) - 60.0).abs();
        let err_u = (uncorrected.size(0) - 60.0).abs();
        // Note: sizes are mildly biased either way on one draw; compare errors.
        assert!(
            err_c <= err_u + 5.0,
            "corrected {err_c} should not be worse than uncorrected {err_u}"
        );
    }

    #[test]
    fn estimated_graph_close_to_truth_at_scale() {
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = PlantedConfig {
            category_sizes: vec![100, 200, 400],
            k: 10,
            alpha: 0.4,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let truth = CategoryGraph::exact(&pg.graph, &pg.partition);
        let nodes = UniformIndependence.sample(&pg.graph, 3000, &mut rng);
        let est = estimate_category_graph(
            &uniform_stream(&pg.graph, &pg.partition, &nodes),
            pg.graph.num_nodes() as f64,
            SizeMethod::Star(StarSizeOptions::default()),
        );
        for a in 0..3u32 {
            for b in (a + 1)..3u32 {
                let t = truth.weight(a, b);
                let e = est.weight(a, b);
                assert!(
                    (e - t).abs() / t < 0.2,
                    "pair ({a},{b}): est {e} vs truth {t}"
                );
            }
        }
    }
}
