//! Property-based tests on the core data structures and estimator
//! invariants, spanning all crates.

use cgte::estimators::category_size::{
    induced_size, induced_sizes, induced_sizes_acc, star_sizes, star_sizes_acc, StarSizeOptions,
};
use cgte::estimators::edge_weight::{
    induced_weight, induced_weights_acc, induced_weights_all, star_weights_acc, star_weights_all,
};
use cgte::estimators::hansen_hurwitz::reweighted_size;
use cgte::estimators::{estimate_category_graph, SizeMethod};
use cgte::graph::{CategoryGraph, Graph, GraphBuilder, NodeId, Partition};
use cgte::sampling::{
    AliasTable, InducedSample, ObservationContext, ObservationStream, StarSample,
};
use proptest::prelude::*;

/// An arbitrary simple graph as (node count, raw edge list with possible
/// self-loops/duplicates that the builder must clean up).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..120).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v).expect("in range");
                }
            }
            b.build()
        })
    })
}

/// A graph together with a covering partition and a nonempty node sample.
fn arb_observed() -> impl Strategy<Value = (Graph, Partition, Vec<NodeId>)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.num_nodes();
        let cats = proptest::collection::vec(0u32..4, n);
        let sample = proptest::collection::vec(0..n as NodeId, 1..60);
        (Just(g), cats, sample).prop_map(|(g, cats, sample)| {
            let p = Partition::from_assignments(cats, 4).expect("in range");
            (g, p, sample)
        })
    })
}

/// A category graph's sizes and weights as raw bits, so equality is
/// bit-identity (it tells `-0.0` from `0.0`).
fn graph_bits(cg: &CategoryGraph) -> (Vec<u64>, Vec<u64>) {
    (
        cg.sizes().iter().map(|x| x.to_bits()).collect(),
        cg.weight_matrix()
            .iter_upper()
            .map(|(_, _, w)| w.to_bits())
            .collect(),
    )
}

proptest! {
    #[test]
    fn csr_graph_invariants(g in arb_graph()) {
        // Degree sum equals twice the edge count.
        let deg_sum: usize = (0..g.num_nodes()).map(|v| g.degree(v as NodeId)).sum();
        prop_assert_eq!(deg_sum, 2 * g.num_edges());
        // Adjacency is symmetric, sorted and self-loop-free.
        for v in 0..g.num_nodes() as NodeId {
            let nbrs = g.neighbors(v);
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for &u in nbrs {
                prop_assert_ne!(u, v);
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
            }
        }
        // edges() yields each edge exactly once.
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn category_graph_partitions_edges(
        (g, p, _) in arb_observed()
    ) {
        let cg = CategoryGraph::exact(&g, &p);
        let intra: u64 = (0..4).map(|c| cg.intra_edge_count(c)).sum();
        prop_assert_eq!(intra + cg.total_cut_edges(), g.num_edges() as u64);
        // Eq. (3) weights live in [0, 1] and are symmetric.
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                let w = cg.weight(a, b);
                prop_assert!((0.0..=1.0).contains(&w));
                prop_assert_eq!(w, cg.weight(b, a));
                // Cut bounded by |A||B|.
                prop_assert!(
                    cg.edge_count_between(a, b) as f64 <= cg.size(a) * cg.size(b) + 1e-9
                );
            }
        }
    }

    #[test]
    fn label_permutation_preserves_sizes(
        (g, p, _) in arb_observed(),
        alpha in 0.0f64..=1.0,
        seed in any::<u64>()
    ) {
        let _ = g;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let q = p.permute_labels(alpha, &mut rng);
        prop_assert_eq!(q.sizes(), p.sizes());
        prop_assert_eq!(q.num_nodes(), p.num_nodes());
    }

    #[test]
    fn induced_sizes_sum_to_population(
        (g, p, sample) in arb_observed(),
        population in 1.0f64..1e6
    ) {
        // Eq. (4)/(11): estimated sizes always total exactly N.
        let s = InducedSample::observe(&g, &p, &sample);
        let sizes = induced_sizes(&s, population).expect("nonempty sample");
        let total: f64 = sizes.iter().sum();
        prop_assert!((total - population).abs() < 1e-6 * population.max(1.0));
        for (c, &v) in sizes.iter().enumerate() {
            prop_assert!(v >= 0.0);
            let single = induced_size(&s, c as u32, population).unwrap();
            prop_assert!((v - single).abs() < 1e-9);
        }
    }

    #[test]
    fn full_sample_estimates_are_exact(
        (g, p, _) in arb_observed()
    ) {
        // Observing every node once makes the uniform estimators exact.
        let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let ind = InducedSample::observe(&g, &p, &all);
        let star = StarSample::observe(&g, &p, &all);
        let exact = CategoryGraph::exact(&g, &p);
        let n = g.num_nodes() as f64;
        let sizes = induced_sizes(&ind, n).unwrap();
        for c in 0..4u32 {
            prop_assert!((sizes[c as usize] - exact.size(c)).abs() < 1e-9);
        }
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                if exact.size(a) > 0.0 && exact.size(b) > 0.0 {
                    let w = induced_weight(&ind, a, b).unwrap();
                    prop_assert!((w - exact.weight(a, b)).abs() < 1e-9,
                        "induced ({a},{b}): {} vs {}", w, exact.weight(a, b));
                }
            }
        }
        let true_sizes: Vec<f64> = (0..4u32).map(|c| exact.size(c)).collect();
        for (a, b, w) in star_weights_all(&star, &true_sizes).iter_nonzero() {
            prop_assert!((w - exact.weight(a, b)).abs() < 1e-9,
                "star ({a},{b}): {} vs {}", w, exact.weight(a, b));
        }
    }

    #[test]
    fn weight_scaling_cancels_in_estimators(
        (g, p, sample) in arb_observed(),
        scale in 0.01f64..100.0
    ) {
        // Multiplying all design weights by a constant must not change any
        // ratio estimator (§5.1).
        let w1 = vec![1.0; sample.len()];
        let w2 = vec![scale; sample.len()];
        let a = InducedSample::observe_with_weights(&g, &p, &sample, w1);
        let b = InducedSample::observe_with_weights(&g, &p, &sample, w2);
        let sa = induced_sizes(&a, 1000.0).unwrap();
        let sb = induced_sizes(&b, 1000.0).unwrap();
        for c in 0..4 {
            prop_assert!((sa[c] - sb[c]).abs() < 1e-6);
        }
        let wa = induced_weights_all(&a);
        let wb = induced_weights_all(&b);
        prop_assert_eq!(wa.num_categories(), wb.num_categories());
        prop_assert_eq!(wa.count_nonzero(), wb.count_nonzero());
        for (x, y, v) in wa.iter_upper() {
            prop_assert!((v - wb.get(x, y)).abs() < 1e-9);
        }
    }

    #[test]
    fn star_degree_consistency(
        (g, p, sample) in arb_observed()
    ) {
        // Each star record's neighbor histogram must total its degree, and
        // the induced view of the same draw is internally consistent.
        let star = StarSample::observe(&g, &p, &sample);
        for i in 0..star.len() {
            let total: u32 = star.neighbor_categories(i).iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(total, star.degrees()[i]);
        }
        let ind = star.to_induced(&g, &p);
        prop_assert_eq!(ind.nodes(), star.nodes());
        for &(i, j) in ind.edges() {
            prop_assert!(g.has_edge(ind.nodes()[i as usize], ind.nodes()[j as usize]));
        }
    }

    #[test]
    fn incremental_accumulators_match_observe_exactly(
        (g, p, sample) in arb_observed(),
        weighted in any::<bool>()
    ) {
        // The tentpole invariant: pushing a sampled sequence into the
        // incremental accumulators and snapshotting at any prefix must be
        // BIT-IDENTICAL (==, not approximately equal) to from-scratch
        // observation + estimation of that prefix, for both designs.
        let weights: Vec<f64> = if weighted {
            // Positive, degree-dependent weights exercise the H-H paths.
            sample.iter().map(|&v| g.degree(v) as f64 + 1.0).collect()
        } else {
            vec![1.0; sample.len()]
        };
        let ctx = ObservationContext::new(&g, &p);
        let mut stream = ObservationStream::new(4);
        let population = g.num_nodes() as f64;
        let opts_plugin = StarSizeOptions::default();
        let opts_model = StarSizeOptions { model_based_mean_degree: true };
        // Snapshot at every prefix length (the experiment snapshots at a
        // subset; every length is the stronger check).
        for i in 0..sample.len() {
            stream.push(&ctx, sample[i], weights[i]);
            let (ind_acc, star_acc) = (stream.induced(), stream.star());
            let prefix = &sample[..=i];
            let wpfx = weights[..=i].to_vec();
            let ind = InducedSample::observe_with_weights(&g, &p, prefix, wpfx.clone());
            let star = StarSample::observe_with_weights(&g, &p, prefix, wpfx);
            prop_assert_eq!(
                induced_sizes(&ind, population),
                induced_sizes_acc(ind_acc, population),
                "induced sizes diverged at prefix {}", i + 1
            );
            prop_assert_eq!(
                star_sizes(&star, population, &opts_plugin),
                star_sizes_acc(star_acc, population, &opts_plugin),
                "star sizes (plug-in) diverged at prefix {}", i + 1
            );
            prop_assert_eq!(
                star_sizes(&star, population, &opts_model),
                star_sizes_acc(star_acc, population, &opts_model),
                "star sizes (model) diverged at prefix {}", i + 1
            );
            prop_assert_eq!(
                induced_weights_all(&ind),
                induced_weights_acc(ind_acc),
                "induced weights diverged at prefix {}", i + 1
            );
            let sizes: Vec<f64> = (0..4u32).map(|c| p.category_size(c) as f64).collect();
            prop_assert_eq!(
                star_weights_all(&star, &sizes),
                star_weights_acc(star_acc, &sizes),
                "star weights diverged at prefix {}", i + 1
            );
            // The whole category graph against its from-scratch oracle:
            // star sizes with induced fallback, then star weights.
            let fallback = induced_sizes(&ind, population).unwrap_or_else(|| vec![0.0; 4]);
            for method in [
                SizeMethod::Induced,
                SizeMethod::Star(opts_plugin),
                SizeMethod::Star(opts_model),
            ] {
                let oracle_sizes: Vec<f64> = match method {
                    SizeMethod::Induced => fallback.clone(),
                    SizeMethod::Star(opts) => star_sizes(&star, population, &opts)
                        .into_iter()
                        .zip(&fallback)
                        .map(|(s, &f)| s.unwrap_or(f))
                        .collect(),
                };
                let oracle_weights = star_weights_all(&star, &oracle_sizes);
                let oracle = CategoryGraph::from_weights(oracle_sizes, oracle_weights);
                prop_assert_eq!(
                    graph_bits(&estimate_category_graph(&stream, population, method)),
                    graph_bits(&oracle),
                    "category graph ({:?}) diverged at prefix {}", method, i + 1
                );
            }
        }
    }

    #[test]
    fn alias_table_respects_support(
        weights in proptest::collection::vec(0.0f64..10.0, 1..50),
        seed in any::<u64>()
    ) {
        use rand::SeedableRng;
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let t = AliasTable::new(&weights).expect("valid weights");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = t.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {i}");
        }
    }

    #[test]
    fn reweighted_size_bounds(
        weights in proptest::collection::vec(0.1f64..10.0, 0..50)
    ) {
        let rs = reweighted_size(&weights);
        prop_assert!(rs >= 0.0);
        // Bounded by n / min_w and n / max_w.
        if !weights.is_empty() {
            let n = weights.len() as f64;
            let min = weights.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = weights.iter().cloned().fold(0.0, f64::max);
            prop_assert!(rs <= n / min + 1e-9);
            prop_assert!(rs >= n / max - 1e-9);
        }
    }

    #[test]
    fn edgelist_round_trip(g in arb_graph()) {
        use cgte::datasets::{read_edgelist, write_edgelist};
        let mut buf = Vec::new();
        write_edgelist(&g, &mut buf).unwrap();
        let g2 = read_edgelist(std::io::Cursor::new(buf)).unwrap();
        // Ids may shrink if the last nodes are isolated; compare edges.
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        prop_assert_eq!(e1, e2);
    }

    #[test]
    fn nrmse_invariants(
        estimates in proptest::collection::vec(0.0f64..100.0, 1..30),
        truth in 0.1f64..100.0
    ) {
        use cgte::eval::nrmse;
        let r = nrmse(&estimates, truth).unwrap();
        prop_assert!(r >= 0.0);
        // Exactness iff all estimates equal the truth.
        if estimates.iter().all(|&e| (e - truth).abs() < 1e-12) {
            prop_assert!(r < 1e-9);
        }
        // Scale equivariance: scaling estimates and truth together is
        // invariant.
        let scaled: Vec<f64> = estimates.iter().map(|e| e * 3.0).collect();
        let r2 = nrmse(&scaled, truth * 3.0).unwrap();
        prop_assert!((r - r2).abs() < 1e-9);
    }
}
