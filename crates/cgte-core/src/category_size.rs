//! Category size estimators `|Â|` (§4.1 uniform, §5.2 weighted).
//!
//! The induced estimator needs only the categories of sampled nodes; the
//! star estimator additionally exploits the neighbor categories and tends to
//! win on dense graphs with homogeneous degrees, while losing under heavy
//! degree skew (§6.3.2). Both are written in their weighted (Hansen–Hurwitz)
//! form; with unit weights they reduce *exactly* to the uniform equations,
//! which the tests verify.

use crate::hansen_hurwitz::{hh_mean, reweighted_size};
use cgte_graph::CategoryId;
use cgte_sampling::{InducedAccumulator, InducedSample, StarAccumulator, StarSample};

/// The per-sample records every size estimator consumes: category, degree
/// and design weight per sampled node.
///
/// Implemented for both observation scenarios — the paper applies the
/// *induced* (counting) size estimator to star-collected data too (§7.1
/// discards star information for comparison).
pub trait Records {
    /// Category of each sample.
    fn rec_categories(&self) -> &[CategoryId];
    /// Degree of each sample.
    fn rec_degrees(&self) -> &[u32];
    /// Design weight of each sample.
    fn rec_weights(&self) -> &[f64];
    /// Number of categories in the partition.
    fn rec_num_categories(&self) -> usize;
}

impl Records for InducedSample {
    fn rec_categories(&self) -> &[CategoryId] {
        self.categories()
    }
    fn rec_degrees(&self) -> &[u32] {
        self.degrees()
    }
    fn rec_weights(&self) -> &[f64] {
        self.weights()
    }
    fn rec_num_categories(&self) -> usize {
        self.num_categories()
    }
}

impl Records for StarSample {
    fn rec_categories(&self) -> &[CategoryId] {
        self.categories()
    }
    fn rec_degrees(&self) -> &[u32] {
        self.degrees()
    }
    fn rec_weights(&self) -> &[f64] {
        self.weights()
    }
    fn rec_num_categories(&self) -> usize {
        self.num_categories()
    }
}

/// Induced (counting) estimator of `|A|`: Eq. (4) uniform, Eq. (11)
/// weighted — `|Â| = N · w⁻¹(S_A) / w⁻¹(S)`.
///
/// Returns `None` on an empty sample. `population` is `N` (or any constant
/// if only relative sizes are needed, §4.3).
pub fn induced_size<S: Records + ?Sized>(
    sample: &S,
    c: CategoryId,
    population: f64,
) -> Option<f64> {
    let cats = sample.rec_categories();
    let ws = sample.rec_weights();
    if cats.is_empty() {
        return None;
    }
    // A fold from +0.0, not `sum()` (whose empty sum is -0.0): an
    // unsampled category estimates +0.0, as in `induced_sizes` and the
    // streamed accumulators.
    let num = cats
        .iter()
        .zip(ws)
        .filter(|(cat, _)| **cat == c)
        .fold(0.0, |acc, (_, w)| acc + 1.0 / w);
    Some(population * num / reweighted_size(ws))
}

/// All category sizes by the induced estimator in one pass.
///
/// Returns `None` on an empty sample; unsampled categories estimate 0.
pub fn induced_sizes<S: Records + ?Sized>(sample: &S, population: f64) -> Option<Vec<f64>> {
    let cats = sample.rec_categories();
    let ws = sample.rec_weights();
    if cats.is_empty() {
        return None;
    }
    let mut per_cat = vec![0.0f64; sample.rec_num_categories()];
    for (&c, &w) in cats.iter().zip(ws) {
        per_cat[c as usize] += 1.0 / w;
    }
    let total = reweighted_size(ws);
    Some(
        per_cat
            .into_iter()
            .map(|x| population * x / total)
            .collect(),
    )
}

/// Mean degree `k̂_V` over the whole graph: Eq. (6) uniform, Eq. (14)
/// weighted. Returns `None` on an empty sample.
pub fn mean_degree<S: Records + ?Sized>(sample: &S) -> Option<f64> {
    hh_mean(
        sample
            .rec_degrees()
            .iter()
            .zip(sample.rec_weights())
            .map(|(&d, &w)| (d as f64, w)),
    )
}

/// Mean degree `k̂_A` within category `c`: Eq. (6) uniform, Eq. (14)
/// weighted. Returns `None` if no sample fell in `c`.
pub fn mean_degree_in<S: Records + ?Sized>(sample: &S, c: CategoryId) -> Option<f64> {
    hh_mean(
        sample
            .rec_categories()
            .iter()
            .zip(sample.rec_degrees())
            .zip(sample.rec_weights())
            .filter(|((cat, _), _)| **cat == c)
            .map(|((_, &d), &w)| (d as f64, w)),
    )
}

/// Star estimator of the relative volume `f̂_A^vol = vol(A)/vol(V)`:
/// Eq. (7) uniform, Eq. (13) weighted —
/// `[Σ_s (1/w(s)) Σ_{v∈N(s)} 1{v∈A}] / [Σ_s deg(s)/w(s)]`.
///
/// This is the paper's preferred `f_vol` estimator (from \[35\]); it uses
/// *all* observed neighbor categories rather than sample counting.
/// Returns `None` if the sample has zero total degree.
pub fn relative_volume(sample: &StarSample, c: CategoryId) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..sample.len() {
        let w = sample.weights()[i];
        num += sample.neighbors_in(i, c) as f64 / w;
        den += sample.degrees()[i] as f64 / w;
    }
    if den == 0.0 {
        None
    } else {
        Some(num / den)
    }
}

/// Options for the star size estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StarSizeOptions {
    /// Use the model-based variant `k̂_A := k̂_V` of the paper's footnote 4:
    /// lower variance (and defined even when no sample fell in `A`) at the
    /// cost of bias when category mean degrees differ — the classic
    /// precision-vs-accuracy tradeoff. Ablation A1 quantifies it.
    pub model_based_mean_degree: bool,
}

/// Star estimator of `|A|`: Eq. (5) uniform, Eq. (12) weighted —
/// `|Â| = N · f̂_A^vol · k̂_V / k̂_A`.
///
/// Returns `None` when a component is undefined: empty/zero-volume sample,
/// or (in the plug-in variant) no sample from `A` / zero `k̂_A`.
pub fn star_size(
    sample: &StarSample,
    c: CategoryId,
    population: f64,
    opts: &StarSizeOptions,
) -> Option<f64> {
    let f_vol = relative_volume(sample, c)?;
    let k_v = mean_degree(sample)?;
    let k_a = if opts.model_based_mean_degree {
        k_v
    } else {
        mean_degree_in(sample, c)?
    };
    if k_a == 0.0 {
        return None;
    }
    Some(population * f_vol * k_v / k_a)
}

/// Final assembly of the star size estimates from the five sufficient
/// statistics — shared verbatim by the from-scratch and incremental paths
/// so the two are bit-identical. Writes into `out` (cleared first) so hot
/// snapshot paths reuse one buffer per thread.
#[allow(clippy::too_many_arguments)]
fn finish_star_sizes_into(
    num_c: usize,
    nbr_mass: &[f64],
    deg_mass: f64,
    inv_mass: f64,
    inv_mass_in: &[f64],
    deg_mass_in: &[f64],
    population: f64,
    opts: &StarSizeOptions,
    out: &mut Vec<Option<f64>>,
) {
    out.clear();
    if deg_mass == 0.0 || inv_mass == 0.0 {
        out.resize(num_c, None);
        return;
    }
    let k_v = deg_mass / inv_mass;
    out.extend((0..num_c).map(|c| {
        let f_vol = nbr_mass[c] / deg_mass;
        let k_a = if opts.model_based_mean_degree {
            k_v
        } else {
            if inv_mass_in[c] == 0.0 {
                return None;
            }
            deg_mass_in[c] / inv_mass_in[c]
        };
        if k_a == 0.0 {
            return None;
        }
        Some(population * f_vol * k_v / k_a)
    }));
}

/// All category sizes by the star estimator in one pass over the sample.
///
/// Per-category entries are `None` exactly when [`star_size`] would be.
pub fn star_sizes(
    sample: &StarSample,
    population: f64,
    opts: &StarSizeOptions,
) -> Vec<Option<f64>> {
    let num_c = sample.num_categories();
    let mut nbr_mass = vec![0.0f64; num_c]; // Σ (1/w) · #neighbors in c
    let mut deg_mass = 0.0f64; // Σ deg/w
    let mut inv_mass_in = vec![0.0f64; num_c]; // w⁻¹(S_c)
    let mut deg_mass_in = vec![0.0f64; num_c]; // Σ_{S_c} deg/w
    let mut inv_mass = 0.0f64; // w⁻¹(S)
    for i in 0..sample.len() {
        let w = sample.weights()[i];
        let c = sample.categories()[i] as usize;
        let d = sample.degrees()[i] as f64;
        for &(cat, cnt) in sample.neighbor_categories(i) {
            nbr_mass[cat as usize] += cnt as f64 / w;
        }
        deg_mass += d / w;
        inv_mass += 1.0 / w;
        inv_mass_in[c] += 1.0 / w;
        deg_mass_in[c] += d / w;
    }
    let mut out = Vec::new();
    finish_star_sizes_into(
        num_c,
        &nbr_mass,
        deg_mass,
        inv_mass,
        &inv_mass_in,
        &deg_mass_in,
        population,
        opts,
        &mut out,
    );
    out
}

/// All category sizes by the star estimator from incremental accumulator
/// state — `O(C)`, bit-identical to [`star_sizes`] over the same prefix.
pub fn star_sizes_acc(
    acc: &StarAccumulator,
    population: f64,
    opts: &StarSizeOptions,
) -> Vec<Option<f64>> {
    let mut out = Vec::new();
    star_sizes_acc_into(acc, population, opts, &mut out);
    out
}

/// Allocation-free [`star_sizes_acc`]: writes into `out` (cleared first),
/// so per-prefix snapshot loops reuse one buffer.
pub fn star_sizes_acc_into(
    acc: &StarAccumulator,
    population: f64,
    opts: &StarSizeOptions,
    out: &mut Vec<Option<f64>>,
) {
    finish_star_sizes_into(
        acc.num_categories(),
        acc.neighbor_mass(),
        acc.degree_mass(),
        acc.inverse_mass(),
        acc.inverse_mass_in(),
        acc.degree_mass_in(),
        population,
        opts,
        out,
    )
}

/// All category sizes by the induced estimator from incremental
/// accumulator state — `O(C)`, bit-identical to [`induced_sizes`] over the
/// same prefix.
///
/// Returns `None` on an empty accumulator, like [`induced_sizes`].
pub fn induced_sizes_acc(acc: &InducedAccumulator, population: f64) -> Option<Vec<f64>> {
    if acc.is_empty() {
        return None;
    }
    let mut out = Vec::new();
    induced_sizes_acc_into(acc, population, &mut out);
    Some(out)
}

/// Allocation-free [`induced_sizes_acc`]: writes into `out` (cleared
/// first). On an empty accumulator — where the estimator is undefined —
/// it writes the operational all-zeros reading (the NRMSE protocol's
/// "observed nothing, estimate 0") and returns `false`; otherwise `true`.
pub fn induced_sizes_acc_into(
    acc: &InducedAccumulator,
    population: f64,
    out: &mut Vec<f64>,
) -> bool {
    out.clear();
    if acc.is_empty() {
        out.resize(acc.num_categories(), 0.0);
        return false;
    }
    let total = acc.inverse_mass();
    out.extend(
        acc.per_category_mass()
            .iter()
            .map(|&x| population * x / total),
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::{Graph, GraphBuilder, Partition};
    use cgte_sampling::{NodeSampler, RandomWalk, StarSample, UniformIndependence};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two triangles joined by a bridge: categories {0,1,2} and {3,4,5}.
    fn fixture() -> (Graph, Partition) {
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        (g, p)
    }

    #[test]
    fn induced_size_matches_eq4_on_uniform_sample() {
        let (g, p) = fixture();
        // Sample: two from category 0, one from category 1, N = 6.
        let s = InducedSample::observe(&g, &p, &[0, 1, 4]);
        // Eq. (4): |Â| = 6 * 2/3.
        assert!((induced_size(&s, 0, 6.0).unwrap() - 4.0).abs() < 1e-12);
        assert!((induced_size(&s, 1, 6.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn induced_size_weighted_corrects_degree_bias() {
        // Star graph: center (cat 0, deg 4), 4 leaves (cat 1, deg 1).
        // A perfectly degree-representative sample: center 4x, each leaf 1x.
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        let p = Partition::from_assignments(vec![0, 1, 1, 1, 1], 2).unwrap();
        let rw = RandomWalk::new();
        let nodes = [0, 0, 0, 0, 1, 2, 3, 4];
        let s = InducedSample::observe_with_weights(&g, &p, &nodes, rw.weights_for(&g, &nodes));
        // Eq. (11): w⁻¹(S_0) = 4·(1/4) = 1; w⁻¹(S) = 1 + 4 = 5; |Â| = 5·1/5 = 1.
        assert!((induced_size(&s, 0, 5.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((induced_size(&s, 1, 5.0).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn induced_sizes_consistent_with_single() {
        let (g, p) = fixture();
        let s = InducedSample::observe(&g, &p, &[0, 1, 4, 5, 5]);
        let all = induced_sizes(&s, 6.0).unwrap();
        for c in 0..2 {
            assert!((all[c as usize] - induced_size(&s, c, 6.0).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_sample_returns_none() {
        let (g, p) = fixture();
        let s = InducedSample::observe(&g, &p, &[]);
        assert_eq!(induced_size(&s, 0, 6.0), None);
        assert_eq!(induced_sizes(&s, 6.0), None);
        let star = StarSample::observe(&g, &p, &[]);
        assert_eq!(star_size(&star, 0, 6.0, &StarSizeOptions::default()), None);
    }

    #[test]
    fn mean_degree_components() {
        let (g, p) = fixture();
        // Degrees: node 2 and 3 have 3, others 2.
        let s = StarSample::observe(&g, &p, &[0, 2]);
        assert!((mean_degree(&s).unwrap() - 2.5).abs() < 1e-12);
        assert!((mean_degree_in(&s, 0).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(mean_degree_in(&s, 1), None); // no samples from cat 1
    }

    #[test]
    fn relative_volume_exact_on_full_sample() {
        let (g, p) = fixture();
        // Full sample: f̂vol must equal the true volume fractions (7 edges,
        // vol(V)=14; cat 0 has degrees 2+2+3=7).
        let s = StarSample::observe(&g, &p, &[0, 1, 2, 3, 4, 5]);
        assert!((relative_volume(&s, 0).unwrap() - 0.5).abs() < 1e-12);
        assert!((relative_volume(&s, 1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn star_size_exact_on_full_uniform_sample() {
        let (g, p) = fixture();
        let s = StarSample::observe(&g, &p, &[0, 1, 2, 3, 4, 5]);
        let opts = StarSizeOptions::default();
        // Full sample: f̂vol, k̂V, k̂A are all exact, so |Â| is exact.
        assert!((star_size(&s, 0, 6.0, &opts).unwrap() - 3.0).abs() < 1e-9);
        assert!((star_size(&s, 1, 6.0, &opts).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn star_sizes_match_single_calls() {
        let (g, p) = fixture();
        let s = StarSample::observe(&g, &p, &[0, 2, 3, 3, 5]);
        for opts in [
            StarSizeOptions::default(),
            StarSizeOptions {
                model_based_mean_degree: true,
            },
        ] {
            let all = star_sizes(&s, 6.0, &opts);
            for c in 0..2u32 {
                let single = star_size(&s, c, 6.0, &opts);
                match (all[c as usize], single) {
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1e-12),
                    (None, None) => {}
                    other => panic!("mismatch for c={c}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn model_based_defined_without_category_samples() {
        let (g, p) = fixture();
        // Only category-0 nodes sampled; node 2 sees neighbor 3 in cat 1.
        let s = StarSample::observe(&g, &p, &[0, 2]);
        let plugin = star_size(&s, 1, 6.0, &StarSizeOptions::default());
        assert_eq!(plugin, None, "plug-in k̂_A undefined without samples from A");
        let model = star_size(
            &s,
            1,
            6.0,
            &StarSizeOptions {
                model_based_mean_degree: true,
            },
        );
        assert!(model.unwrap() > 0.0, "model-based variant extrapolates");
    }

    #[test]
    fn star_size_converges_under_uis() {
        // Statistical check: moderately large planted graph, big sample.
        use cgte_graph::generators::{planted_partition, PlantedConfig};
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = PlantedConfig {
            category_sizes: vec![100, 300, 600],
            k: 8,
            alpha: 0.3,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let n = pg.graph.num_nodes() as f64;
        let nodes = UniformIndependence.sample(&pg.graph, 4000, &mut rng);
        let s = StarSample::observe(&pg.graph, &pg.partition, &nodes);
        for (c, truth) in [(0u32, 100.0), (1, 300.0), (2, 600.0)] {
            let est = star_size(&s, c, n, &StarSizeOptions::default()).unwrap();
            assert!(
                (est - truth).abs() / truth < 0.25,
                "cat {c}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn induced_size_converges_under_rw() {
        use cgte_graph::generators::{planted_partition, PlantedConfig};
        let mut rng = StdRng::seed_from_u64(43);
        let cfg = PlantedConfig {
            category_sizes: vec![100, 300, 600],
            k: 8,
            alpha: 0.3,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let n = pg.graph.num_nodes() as f64;
        let rw = RandomWalk::new().burn_in(500);
        let nodes = rw.sample(&pg.graph, 8000, &mut rng);
        let weights = rw.weights_for(&pg.graph, &nodes);
        let s = InducedSample::observe_with_weights(&pg.graph, &pg.partition, &nodes, weights);
        for (c, truth) in [(0u32, 100.0), (1, 300.0), (2, 600.0)] {
            let est = induced_size(&s, c, n).unwrap();
            assert!(
                (est - truth).abs() / truth < 0.3,
                "cat {c}: est {est} vs truth {truth}"
            );
        }
    }
}
