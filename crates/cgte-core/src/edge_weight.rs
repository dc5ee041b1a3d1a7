//! Category edge weight estimators `ŵ(A,B)` (§4.2 uniform, §5.3 weighted).
//!
//! Both designs estimate Eq. (3) by dividing the (reweighted) number of
//! observed `A`–`B` edges by the (reweighted) maximum number observable.
//! Star sampling also counts edges toward *unsampled* members of the other
//! category, which is why it dominates the induced estimator here
//! (§6.3.3: induced needs 5–10× more samples for the same accuracy).
//!
//! All-pairs estimates are returned as dense [`CategoryMatrix`] values —
//! `C` is tens, so a flat triangle beats pair-keyed hash maps throughout
//! the experiment hot path. Each estimator has two from-equivalent entry
//! points: one over a materialized observation ([`induced_weights_all`],
//! [`star_weights_all`]) and one over incremental accumulator state
//! ([`induced_weights_acc`], [`star_weights_acc`]). The two accumulate in
//! the same order with the same floating-point expressions, so their
//! results are **bit-identical** (property-tested).

use cgte_graph::{CategoryId, CategoryMatrix};
use cgte_sampling::{InducedAccumulator, InducedSample, StarAccumulator, StarSample};

/// Per-category reweighted sizes `w⁻¹(S_c)` in one pass.
fn inv_mass_per_category(cats: &[CategoryId], ws: &[f64], num_c: usize) -> Vec<f64> {
    let mut m = vec![0.0f64; num_c];
    for (&c, &w) in cats.iter().zip(ws) {
        m[c as usize] += 1.0 / w;
    }
    m
}

/// Final division of Eq. (8)/(15): numerators over `w⁻¹(S_A)·w⁻¹(S_B)`.
/// Pairs with empty numerator or vanishing denominator estimate 0.
fn finish_induced_weights(num: &CategoryMatrix, mass: &[f64]) -> CategoryMatrix {
    let mut out = CategoryMatrix::zeros(num.num_categories());
    finish_induced_weights_into(num, mass, &mut out);
    out
}

fn finish_induced_weights_into(num: &CategoryMatrix, mass: &[f64], out: &mut CategoryMatrix) {
    num.map_upper_into(out, |a, b, n| {
        let d = mass[a as usize] * mass[b as usize];
        if a != b && n != 0.0 && d > 0.0 {
            n / d
        } else {
            0.0
        }
    })
}

/// Final division of Eq. (9)/(16): numerators over
/// `w⁻¹(S_A)·|B̂| + w⁻¹(S_B)·|Â|`. Pairs with empty numerator or vanishing
/// denominator estimate 0.
fn finish_star_weights(num: &CategoryMatrix, mass: &[f64], sizes: &[f64]) -> CategoryMatrix {
    let mut out = CategoryMatrix::zeros(num.num_categories());
    finish_star_weights_into(num, mass, sizes, &mut out);
    out
}

fn finish_star_weights_into(
    num: &CategoryMatrix,
    mass: &[f64],
    sizes: &[f64],
    out: &mut CategoryMatrix,
) {
    num.map_upper_into(out, |a, b, n| {
        let d = mass[a as usize] * sizes[b as usize] + mass[b as usize] * sizes[a as usize];
        if a != b && n != 0.0 && d > 0.0 {
            n / d
        } else {
            0.0
        }
    })
}

/// Induced-subgraph estimator of `w(A,B)`: Eq. (8) uniform, Eq. (15)
/// weighted —
/// `ŵ(A,B) = [Σ_{a∈S_A} Σ_{b∈S_B} 1{{a,b}∈E} / (w(a)w(b))] / [w⁻¹(S_A)·w⁻¹(S_B)]`.
///
/// Returns `None` if either category received no samples (the estimator is
/// undefined, not zero). `Some(0.0)` means both categories were sampled but
/// no edge between them was observed.
///
/// # Panics
/// Panics if `a == b` (the category graph has no self-loops).
pub fn induced_weight(sample: &InducedSample, a: CategoryId, b: CategoryId) -> Option<f64> {
    assert_ne!(a, b, "edge weights are defined between distinct categories");
    let cats = sample.categories();
    let ws = sample.weights();
    let mass = inv_mass_per_category(cats, ws, sample.num_categories());
    let denom = mass[a as usize] * mass[b as usize];
    if denom == 0.0 {
        return None;
    }
    let mut num = 0.0;
    for &(i, j) in sample.edges() {
        let (ci, cj) = (cats[i as usize], cats[j as usize]);
        if (ci == a && cj == b) || (ci == b && cj == a) {
            num += 1.0 / (ws[i as usize] * ws[j as usize]);
        }
    }
    Some(num / denom)
}

/// All pairwise induced weight estimates as a dense matrix.
///
/// An entry is non-zero exactly for pairs with at least one observed
/// inter-category edge and a non-vanishing denominator; pairs that are
/// "undefined" (a side unsampled) or merely edge-free both read 0, which is
/// the operational interpretation the NRMSE protocol uses (query
/// [`induced_weight`] for an explicit zero-vs-undefined answer).
///
/// The summation replays [`InducedAccumulator`]'s push order — samples in
/// draw order, each one joined against the aggregated mass of every earlier
/// adjacent node in ascending node-id order — so the result is
/// bit-identical to [`induced_weights_acc`] on the same prefix.
pub fn induced_weights_all(sample: &InducedSample) -> CategoryMatrix {
    let n = sample.len();
    let num_c = sample.num_categories();
    let cats = sample.categories();
    let ws = sample.weights();
    let nodes = sample.nodes();
    let mass = inv_mass_per_category(cats, ws, num_c);
    // Bucket each recorded edge under its larger sample index; edges are
    // stored sorted, so every bucket receives ascending smaller-indices.
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(i, j) in sample.edges() {
        incident[j as usize].push(i);
    }
    let mut num = CategoryMatrix::zeros(num_c);
    for i in 0..n {
        let earlier = &mut incident[i];
        if earlier.is_empty() {
            continue;
        }
        // Group the earlier endpoints by node id (ascending, then ascending
        // occurrence), mirroring the accumulator's neighbor scan.
        earlier.sort_unstable_by_key(|&j| (nodes[j as usize], j));
        let ci = cats[i];
        let wi_inv = 1.0 / ws[i];
        let mut k = 0;
        while k < earlier.len() {
            let node = nodes[earlier[k] as usize];
            let cj = cats[earlier[k] as usize];
            let mut m = 0.0;
            while k < earlier.len() && nodes[earlier[k] as usize] == node {
                m += 1.0 / ws[earlier[k] as usize];
                k += 1;
            }
            if cj != ci {
                num.add(ci, cj, wi_inv * m);
            }
        }
    }
    finish_induced_weights(&num, &mass)
}

/// All pairwise induced weight estimates from incremental accumulator
/// state — `O(C²)`, bit-identical to [`induced_weights_all`] over the same
/// observed prefix.
pub fn induced_weights_acc(acc: &InducedAccumulator) -> CategoryMatrix {
    finish_induced_weights(acc.weight_numerators(), acc.per_category_mass())
}

/// Allocation-free [`induced_weights_acc`]: writes into `out`, which must
/// have the accumulator's category count.
pub fn induced_weights_acc_into(acc: &InducedAccumulator, out: &mut CategoryMatrix) {
    finish_induced_weights_into(acc.weight_numerators(), acc.per_category_mass(), out)
}

/// Star estimator of `w(A,B)`: Eq. (9) uniform, Eq. (16) weighted —
/// `ŵ(A,B) = [Σ_{a∈S_A} |E_{a,B}|/w(a) + Σ_{b∈S_B} |E_{b,A}|/w(b)]
///           / [w⁻¹(S_A)·|B̂| + w⁻¹(S_B)·|Â|]`.
///
/// `size_a`/`size_b` are (estimates of) `|A|`/`|B|` — Eq. (4)/(5) or their
/// weighted forms, whichever has smaller variance for the application
/// (§5.3.2). Returns `None` when the denominator vanishes (neither category
/// sampled, or sizes zero).
///
/// # Panics
/// Panics if `a == b`.
pub fn star_weight(
    sample: &StarSample,
    a: CategoryId,
    b: CategoryId,
    size_a: f64,
    size_b: f64,
) -> Option<f64> {
    assert_ne!(a, b, "edge weights are defined between distinct categories");
    let cats = sample.categories();
    let ws = sample.weights();
    let mut num = 0.0;
    let mut mass_a = 0.0;
    let mut mass_b = 0.0;
    for i in 0..sample.len() {
        let c = cats[i];
        let w = ws[i];
        if c == a {
            num += sample.neighbors_in(i, b) as f64 / w;
            mass_a += 1.0 / w;
        } else if c == b {
            num += sample.neighbors_in(i, a) as f64 / w;
            mass_b += 1.0 / w;
        }
    }
    let denom = mass_a * size_b + mass_b * size_a;
    if denom <= 0.0 {
        return None;
    }
    Some(num / denom)
}

/// All pairwise star weight estimates as a dense matrix.
///
/// `sizes[c]` supplies `|Ĉ|` per category (entries may be 0 for categories
/// with unknown size; pairs whose denominator vanishes read 0, as do pairs
/// without observed edges — the same convention as
/// [`induced_weights_all`]).
///
/// Accumulates in [`StarAccumulator`] push order, so the result is
/// bit-identical to [`star_weights_acc`] on the same prefix.
///
/// # Panics
/// Panics unless `sizes` has one entry per category.
pub fn star_weights_all(sample: &StarSample, sizes: &[f64]) -> CategoryMatrix {
    assert_eq!(
        sizes.len(),
        sample.num_categories(),
        "one size per category"
    );
    let num_c = sample.num_categories();
    let cats = sample.categories();
    let ws = sample.weights();
    let mass = inv_mass_per_category(cats, ws, num_c);
    let mut num = CategoryMatrix::zeros(num_c);
    for i in 0..sample.len() {
        let c = cats[i];
        let w = ws[i];
        for &(other, cnt) in sample.neighbor_categories(i) {
            if other == c {
                continue;
            }
            num.add(c, other, cnt as f64 / w);
        }
    }
    finish_star_weights(&num, &mass, sizes)
}

/// All pairwise star weight estimates from incremental accumulator state —
/// `O(C²)`, bit-identical to [`star_weights_all`] over the same observed
/// prefix.
///
/// # Panics
/// Panics unless `sizes` has one entry per category.
pub fn star_weights_acc(acc: &StarAccumulator, sizes: &[f64]) -> CategoryMatrix {
    assert_eq!(sizes.len(), acc.num_categories(), "one size per category");
    finish_star_weights(acc.weight_numerators(), acc.inverse_mass_in(), sizes)
}

/// Allocation-free [`star_weights_acc`]: writes into `out`, which must
/// have the accumulator's category count.
///
/// # Panics
/// Panics unless `sizes` has one entry per category.
pub fn star_weights_acc_into(acc: &StarAccumulator, sizes: &[f64], out: &mut CategoryMatrix) {
    assert_eq!(sizes.len(), acc.num_categories(), "one size per category");
    finish_star_weights_into(acc.weight_numerators(), acc.inverse_mass_in(), sizes, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::{CategoryGraph, Graph, GraphBuilder, Partition};
    use cgte_sampling::{NodeSampler, ObservationContext, RandomWalk, UniformIndependence};
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
    fn induced_weight_full_sample_is_exact() {
        let (g, p) = fixture();
        let all: Vec<u32> = (0..6).collect();
        let s = InducedSample::observe(&g, &p, &all);
        // Truth: 1 bridge edge / (3*3).
        let w = induced_weight(&s, 0, 1).unwrap();
        assert!((w - 1.0 / 9.0).abs() < 1e-12);
        // Symmetric.
        assert_eq!(induced_weight(&s, 1, 0), induced_weight(&s, 0, 1));
    }

    #[test]
    fn induced_weight_eq8_small_sample() {
        let (g, p) = fixture();
        // S = {2, 3, 4}: S_0 = {2}, S_1 = {3, 4}; observed A-B edges: (2,3).
        let s = InducedSample::observe(&g, &p, &[2, 3, 4]);
        // Eq. (8): 1 / (1*2).
        assert!((induced_weight(&s, 0, 1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn induced_weight_multiset_counts_repeats() {
        let (g, p) = fixture();
        // Node 2 twice and node 3 once: edge counted twice, |S_0|=2, |S_1|=1.
        let s = InducedSample::observe(&g, &p, &[2, 2, 3]);
        assert!((induced_weight(&s, 0, 1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn induced_weight_undefined_vs_zero() {
        let (g, p) = fixture();
        // No category-1 samples: undefined.
        let s = InducedSample::observe(&g, &p, &[0, 1]);
        assert_eq!(induced_weight(&s, 0, 1), None);
        // Both sampled, no observed cross edge: zero.
        let s = InducedSample::observe(&g, &p, &[0, 4]);
        assert_eq!(induced_weight(&s, 0, 1), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "distinct categories")]
    fn induced_weight_rejects_self_pair() {
        let (g, p) = fixture();
        let s = InducedSample::observe(&g, &p, &[0]);
        let _ = induced_weight(&s, 0, 0);
    }

    #[test]
    fn induced_weights_all_matches_single() {
        let (g, p) = fixture();
        let s = InducedSample::observe(&g, &p, &[0, 2, 3, 5, 3]);
        let all = induced_weights_all(&s);
        for (a, b, w) in all.iter_nonzero() {
            assert!((w - induced_weight(&s, a, b).unwrap()).abs() < 1e-12);
        }
        assert!(all.get(0, 1) > 0.0, "bridge pair must be present");
    }

    #[test]
    fn star_weight_full_sample_exact_with_true_sizes() {
        let (g, p) = fixture();
        let all: Vec<u32> = (0..6).collect();
        let s = cgte_sampling::StarSample::observe(&g, &p, &all);
        // Numerator: category-0 nodes see 1 neighbor in cat 1 (node 2 -> 3),
        // category-1 nodes see 1 in cat 0; = 2. Denominator: 3*3 + 3*3 = 18.
        let w = star_weight(&s, 0, 1, 3.0, 3.0).unwrap();
        assert!((w - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn star_weight_works_from_one_side_only() {
        let (g, p) = fixture();
        // Only node 2 (cat 0) sampled: star still sees its edge into cat 1.
        let s = cgte_sampling::StarSample::observe(&g, &p, &[2]);
        // Numerator: |E_{2,B}| = 1. Denominator: w⁻¹(S_0)·|B| = 1·3.
        let w = star_weight(&s, 0, 1, 3.0, 3.0).unwrap();
        assert!((w - 1.0 / 3.0).abs() < 1e-12);
        // Induced estimator is undefined on the same draw — star's key win.
        let ind = s.to_induced(&g, &p);
        assert_eq!(induced_weight(&ind, 0, 1), None);
    }

    #[test]
    fn star_weight_none_when_denominator_zero() {
        let (g, p) = fixture();
        let s = cgte_sampling::StarSample::observe(&g, &p, &[0]);
        assert_eq!(star_weight(&s, 0, 1, 0.0, 0.0), None);
    }

    #[test]
    fn star_weights_all_matches_single() {
        let (g, p) = fixture();
        let s = cgte_sampling::StarSample::observe(&g, &p, &[0, 2, 3, 5]);
        let sizes = vec![3.0, 3.0];
        let all = star_weights_all(&s, &sizes);
        assert!(all.count_nonzero() > 0);
        for (a, b, w) in all.iter_nonzero() {
            let single = star_weight(&s, a, b, sizes[a as usize], sizes[b as usize]).unwrap();
            assert!((w - single).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulator_weights_bit_identical_to_from_scratch() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        // A revisiting, weighted draw exercises the multiset paths.
        let nodes = [2u32, 3, 2, 0, 5, 2, 3, 4, 1, 2];
        let weights: Vec<f64> = nodes.iter().map(|&v| g.degree(v) as f64).collect();
        let mut ind_acc = InducedAccumulator::new(2);
        let mut star_acc = StarAccumulator::new(2);
        for (&v, &w) in nodes.iter().zip(&weights) {
            ind_acc.push(&ctx, v, w);
            star_acc.push(&ctx, v, w);
        }
        let ind = InducedSample::observe_with_weights(&g, &p, &nodes, weights.clone());
        let star = cgte_sampling::StarSample::observe_with_weights(&g, &p, &nodes, weights);
        let sizes = vec![3.0, 3.0];
        assert_eq!(induced_weights_all(&ind), induced_weights_acc(&ind_acc));
        assert_eq!(
            star_weights_all(&star, &sizes),
            star_weights_acc(&star_acc, &sizes)
        );
    }

    #[test]
    fn weighted_induced_estimator_corrects_rw_bias() {
        use cgte_graph::generators::{planted_partition, PlantedConfig};
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = PlantedConfig {
            category_sizes: vec![150, 150],
            k: 10,
            alpha: 0.2,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let truth = CategoryGraph::exact(&pg.graph, &pg.partition).weight(0, 1);
        let rw = RandomWalk::new().burn_in(300);
        let nodes = rw.sample(&pg.graph, 6000, &mut rng);
        let weights = rw.weights_for(&pg.graph, &nodes);
        let s = InducedSample::observe_with_weights(&pg.graph, &pg.partition, &nodes, weights);
        let est = induced_weight(&s, 0, 1).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.3,
            "est {est} vs truth {truth}"
        );
    }

    #[test]
    fn star_estimator_converges_faster_than_induced() {
        // The paper's headline: at equal sample size, star beats induced for
        // edge weights. Check mean absolute relative error over replications.
        use cgte_graph::generators::{planted_partition, PlantedConfig};
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = PlantedConfig {
            category_sizes: vec![200, 200],
            k: 10,
            alpha: 0.5,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let truth = CategoryGraph::exact(&pg.graph, &pg.partition).weight(0, 1);
        let mut err_star = 0.0;
        let mut err_ind = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let nodes = UniformIndependence.sample(&pg.graph, 60, &mut rng);
            let star = cgte_sampling::StarSample::observe(&pg.graph, &pg.partition, &nodes);
            let ind = InducedSample::observe(&pg.graph, &pg.partition, &nodes);
            if let Some(w) = star_weight(&star, 0, 1, 200.0, 200.0) {
                err_star += (w - truth).abs() / truth;
            }
            err_ind += match induced_weight(&ind, 0, 1) {
                Some(w) => (w - truth).abs() / truth,
                None => 1.0,
            };
        }
        assert!(
            err_star < err_ind,
            "star total error {err_star} should beat induced {err_ind}"
        );
    }
}
