//! Exact-enumeration unbiasedness tests.
//!
//! On tiny hand-built graphs (≤ 6 nodes), *every* UIS sample of a fixed
//! size can be enumerated — `n^m` ordered with-replacement tuples, each of
//! probability `1/n^m`. Averaging an estimator over all tuples computes
//! its expectation **exactly** (up to f64 rounding), so these tests pin
//! the estimators' defining properties with no statistical tolerance:
//!
//! - the induced category-size estimator (Eq. 4) is exactly unbiased:
//!   `E[|Â|] = |A|` for every category and sample size;
//! - the induced edge-weight estimator (Eq. 8) is exactly conditionally
//!   unbiased: `E[ŵ(A,B) | both categories sampled] = w(A,B)`;
//! - the star variants (Eq. 5 size, Eq. 9 weight) match hand-computed
//!   values on explicit samples.
//!
//! The Eq. 4 and Eq. 8 proofs also run every tuple through the production
//! path — an [`ObservationStream`] snapshotted by [`estimate_stream_into`],
//! what serve, cluster and the experiment runner use — and require it to
//! equal the batch estimator bit for bit wherever the latter is defined,
//! so the exact-unbiasedness results carry over to it.

use cgte_core::category_size::{
    induced_size, mean_degree, mean_degree_in, relative_volume, star_size,
};
use cgte_core::edge_weight::{induced_weight, star_weight};
use cgte_core::{estimate_stream_into, StarSizeOptions, StreamEstimate};
use cgte_graph::{CategoryGraph, Graph, GraphBuilder, NodeId, Partition};
use cgte_sampling::{InducedSample, ObservationContext, ObservationStream, StarSample};

/// Two triangles joined by a bridge: categories {0,1,2} and {3,4,5}.
/// Degrees 2,2,3,3,2,2; one cut edge, so w(A,B) = 1/9.
fn bridge() -> (Graph, Partition) {
    let g = GraphBuilder::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        .unwrap();
    let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
    (g, p)
}

/// A 5-node star with uneven categories: center + one leaf in category 0,
/// three leaves in category 1. Heavily degree-skewed, which is where
/// biased estimators would show.
fn star5() -> (Graph, Partition) {
    let mut b = GraphBuilder::new(5);
    for v in 1..5 {
        b.add_edge(0, v).unwrap();
    }
    let g = b.build();
    let p = Partition::from_assignments(vec![0, 0, 1, 1, 1], 2).unwrap();
    (g, p)
}

/// The production path over one sample: a reused [`ObservationStream`]
/// fed the tuple under the uniform design, then snapshotted.
struct Streamed<'a> {
    ctx: ObservationContext<'a>,
    stream: ObservationStream,
    est: StreamEstimate,
}

impl<'a> Streamed<'a> {
    fn new(g: &'a Graph, p: &'a Partition) -> Self {
        Streamed {
            ctx: ObservationContext::new(g, p),
            stream: ObservationStream::new(p.num_categories()),
            est: StreamEstimate::new(p.num_categories()),
        }
    }

    fn estimate(&mut self, nodes: &[NodeId]) -> &StreamEstimate {
        self.stream.reset();
        self.stream.ingest_uniform(&self.ctx, nodes);
        let population = self.ctx.graph().num_nodes() as f64;
        estimate_stream_into(
            self.stream.star(),
            self.stream.induced(),
            population,
            &StarSizeOptions::default(),
            true,
            &mut self.est,
        );
        &self.est
    }
}

/// Calls `f` with every ordered with-replacement tuple of `m` node ids.
fn for_all_tuples(n: usize, m: usize, mut f: impl FnMut(&[NodeId])) {
    let mut tuple = vec![0 as NodeId; m];
    loop {
        f(&tuple);
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == m {
                return;
            }
            tuple[i] += 1;
            if (tuple[i] as usize) < n {
                break;
            }
            tuple[i] = 0;
            i += 1;
        }
    }
}

#[test]
fn induced_size_eq4_exactly_unbiased_under_uis() {
    for (g, p) in [bridge(), star5()] {
        let n = g.num_nodes();
        let cg = CategoryGraph::exact(&g, &p);
        let mut streamed = Streamed::new(&g, &p);
        for m in [1usize, 2, 3] {
            let tuples = (n as f64).powi(m as i32);
            for c in 0..p.num_categories() as u32 {
                let mut sum = 0.0f64;
                for_all_tuples(n, m, |nodes| {
                    let s = InducedSample::observe(&g, &p, nodes);
                    let batch = induced_size(&s, c, n as f64).expect("non-empty sample");
                    let est = streamed.estimate(nodes);
                    assert!(est.induced_defined, "tuple {nodes:?}");
                    assert_eq!(
                        est.sizes_induced[c as usize].to_bits(),
                        batch.to_bits(),
                        "tuple {nodes:?} cat {c}: streamed Eq. 4 differs from batch"
                    );
                    sum += batch;
                });
                let truth = cg.size(c);
                let mean = sum / tuples;
                assert!(
                    (mean - truth).abs() < 1e-9,
                    "n={n} m={m} cat {c}: E[|Â|] = {mean}, |A| = {truth}"
                );
            }
        }
    }
}

#[test]
fn induced_weight_eq8_exactly_conditionally_unbiased_under_uis() {
    for (g, p) in [bridge(), star5()] {
        let n = g.num_nodes();
        let cg = CategoryGraph::exact(&g, &p);
        let truth = cg.weight(0, 1);
        assert!(truth > 0.0, "fixtures have a cut edge");
        let mut streamed = Streamed::new(&g, &p);
        for m in [2usize, 3, 4] {
            let mut sum = 0.0f64;
            let mut defined = 0usize;
            for_all_tuples(n, m, |nodes| {
                let s = InducedSample::observe(&g, &p, nodes);
                if let Some(w) = induced_weight(&s, 0, 1) {
                    let est = streamed.estimate(nodes);
                    for (a, b) in [(0, 1), (1, 0)] {
                        assert_eq!(
                            est.weights_induced.get(a, b).to_bits(),
                            w.to_bits(),
                            "tuple {nodes:?}: streamed Eq. 8 ({a},{b}) differs from batch"
                        );
                    }
                    sum += w;
                    defined += 1;
                }
            });
            assert!(defined > 0);
            let mean = sum / defined as f64;
            assert!(
                (mean - truth).abs() < 1e-9,
                "n={n} m={m}: E[ŵ | defined] = {mean}, w(A,B) = {truth}"
            );
        }
    }
}

#[test]
fn induced_weight_undefined_iff_category_unsampled() {
    // Eq. 8's denominator needs both categories present; the estimator
    // must report None (undefined), never 0, in that case.
    let (g, p) = bridge();
    for_all_tuples(6, 2, |nodes| {
        let s = InducedSample::observe(&g, &p, nodes);
        let both = nodes.iter().any(|&v| v <= 2) && nodes.iter().any(|&v| v >= 3);
        assert_eq!(induced_weight(&s, 0, 1).is_some(), both, "tuple {nodes:?}");
    });
}

#[test]
fn star_size_eq5_matches_hand_computed_values() {
    let (g, p) = bridge();
    // Sample S = (1, 2), uniform weights.
    //   f̂_vol(A) = (2 + 2) / (2 + 3) = 4/5;  f̂_vol(B) = 1/5
    //   k̂_V = (2 + 3)/2 = 5/2;  k̂_A = 5/2;  k̂_B undefined (no B sample)
    //   Eq. 5: |Â| = 6 · (4/5) · (5/2)/(5/2) = 24/5
    let s = StarSample::observe(&g, &p, &[1, 2]);
    assert!((relative_volume(&s, 0).unwrap() - 0.8).abs() < 1e-12);
    assert!((relative_volume(&s, 1).unwrap() - 0.2).abs() < 1e-12);
    assert!((mean_degree(&s).unwrap() - 2.5).abs() < 1e-12);
    assert!((mean_degree_in(&s, 0).unwrap() - 2.5).abs() < 1e-12);
    let opts = StarSizeOptions::default();
    assert!((star_size(&s, 0, 6.0, &opts).unwrap() - 4.8).abs() < 1e-12);
    assert_eq!(star_size(&s, 1, 6.0, &opts), None, "k̂_B is undefined");
    // Model-based variant (footnote 4): k̂_B := k̂_V, so
    // |B̂| = 6 · (1/5) · 1 = 6/5.
    let model = StarSizeOptions {
        model_based_mean_degree: true,
    };
    assert!((star_size(&s, 1, 6.0, &model).unwrap() - 1.2).abs() < 1e-12);
}

#[test]
fn star_weight_eq9_matches_hand_computed_values() {
    let (g, p) = bridge();
    // Sample S = (1, 2): S_A = {1, 2}, S_B = ∅.
    //   numerator = |E_{1,B}| + |E_{2,B}| = 0 + 1 = 1
    //   denominator = w⁻¹(S_A)·|B̂| + w⁻¹(S_B)·|Â| = 2·|B̂|
    // With the true |B| = 3: ŵ(A,B) = 1/6.
    let s = StarSample::observe(&g, &p, &[1, 2]);
    let w = star_weight(&s, 0, 1, 3.0, 3.0).unwrap();
    assert!((w - 1.0 / 6.0).abs() < 1e-12, "got {w}");

    // Full sample: every term exact, so Eq. 9 recovers w(A,B) = 1/9
    // exactly: numerator = 2 (the cut edge seen from both sides),
    // denominator = 3·3 + 3·3 = 18.
    let full = StarSample::observe(&g, &p, &[0, 1, 2, 3, 4, 5]);
    let w = star_weight(&full, 0, 1, 3.0, 3.0).unwrap();
    assert!((w - 1.0 / 9.0).abs() < 1e-12, "got {w}");
    let cg = CategoryGraph::exact(&g, &p);
    assert!((w - cg.weight(0, 1)).abs() < 1e-12);
}
