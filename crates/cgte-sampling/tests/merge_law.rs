//! Property tests for the mergeable observation core.
//!
//! The law under test: `observe(a); merge(observe(b)) ≡ observe(a ++ b)`
//! **bit-exactly** — for both accumulators (star + induced), both designs
//! (uniform + degree-weighted), arbitrary split points, and snapshots of
//! every estimator family. Plus the algebraic side conditions: empty-shard
//! identity on both sides, merge associativity (bit-exact — every
//! association replays the same push sequence), commutativity only up to
//! floating-point reordering (checked approximately, documented as such),
//! range-chunked `NeighborCategoryIndex` builds recombining to the
//! monolithic index, and an induced accumulator reused across `reset()`
//! and graphs of different sizes staying equal to a fresh one, including
//! push orders that fill and recycle its per-word mass blocks, and the
//! index's cut rows matching the adjacency rows they filter, grouped by
//! category.

use cgte_core::edge_weight::{induced_weights_acc, induced_weights_all};
use cgte_core::{estimate_stream, StarSizeOptions};
use cgte_graph::generators::{planted_partition, PlantedConfig};
use cgte_graph::{CategoryMatrix, Graph, GraphBuilder, NodeId, Partition};
use cgte_sampling::{
    DesignKind, InducedAccumulator, InducedSample, NeighborCategoryIndex, NodeSampler,
    ObservationContext, ObservationStream, RandomWalk, UniformIndependence,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small planted graph: three unbalanced categories, dense enough that
/// induced pairs actually occur in short samples.
fn fixture(seed: u64) -> (Graph, Partition) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = PlantedConfig {
        category_sizes: vec![12, 20, 32],
        k: 5,
        alpha: 0.4,
    };
    let pg = planted_partition(&cfg, &mut rng).unwrap();
    (pg.graph, pg.partition)
}

/// Draws a revisiting node sequence (a walk revisits; that is the hard
/// case for the induced accumulator's per-node running masses).
fn draw(g: &Graph, n: usize, seed: u64, walk: bool) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    if walk {
        RandomWalk::new().sample(g, n, &mut rng)
    } else {
        UniformIndependence.sample(g, n, &mut rng)
    }
}

fn weights_for(g: &Graph, nodes: &[NodeId], design: DesignKind) -> Vec<f64> {
    match design {
        DesignKind::Uniform => vec![1.0; nodes.len()],
        DesignKind::Weighted => nodes.iter().map(|&v| g.degree(v) as f64).collect(),
    }
}

/// The merge law proper, checked field-for-field (PartialEq on the
/// accumulators covers every sufficient statistic and the log) and on the
/// full estimator snapshot.
fn check_merge_law(g: &Graph, p: &Partition, nodes: &[NodeId], design: DesignKind, split: usize) {
    let ctx = ObservationContext::new(g, p);
    let w = weights_for(g, nodes, design);
    let c = p.num_categories();

    let mut whole = ObservationStream::new(c);
    whole.ingest(&ctx, nodes, &w);

    let mut left = ObservationStream::new(c);
    left.ingest(&ctx, &nodes[..split], &w[..split]);
    let mut right = ObservationStream::new(c);
    right.ingest(&ctx, &nodes[split..], &w[split..]);

    left.merge(&ctx, &right);
    assert_eq!(left, whole, "merge law violated at split {split}");

    // Snapshots of the merged and sequential state are bit-identical for
    // every estimator family.
    let pop = g.num_nodes() as f64;
    let opts = StarSizeOptions::default();
    let a = estimate_stream(&left, pop, &opts);
    let b = estimate_stream(&whole, pop, &opts);
    assert_eq!(a, b, "snapshot after merge differs at split {split}");
}

/// A G(n, quarters/4) graph over `n` nodes with three categories, some of
/// them possibly empty.
fn random_graph(n: usize, quarters: i32, seed: u64) -> (Graph, Partition) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n as NodeId {
        for v in u + 1..n as NodeId {
            if rng.gen_range(0..4) < quarters {
                edges.push((u, v));
            }
        }
    }
    let g = GraphBuilder::from_edges(n, edges).unwrap();
    let cats = (0..n).map(|_| rng.gen_range(0..3)).collect();
    (g, Partition::from_assignments(cats, 3).unwrap())
}

/// A graph over `n` nodes in three id blocks whose nodes `v % 3 == 0` are
/// boundary nodes and the rest interior: every pair inside a block is an
/// edge with probability 3/4, and so is every pair of boundary nodes in
/// different blocks. Interior nodes have empty cut rows.
fn mixed_graph(n: usize, seed: u64) -> (Graph, Partition) {
    let mut rng = StdRng::seed_from_u64(seed);
    let block = |v: NodeId| (3 * v as usize / n) as u32;
    let mut edges = Vec::new();
    for u in 0..n as NodeId {
        for v in u + 1..n as NodeId {
            let linked = block(u) == block(v) || (u % 3 == 0 && v % 3 == 0);
            if linked && rng.gen_range(0..4) < 3 {
                edges.push((u, v));
            }
        }
    }
    let g = GraphBuilder::from_edges(n, edges).unwrap();
    let cats = (0..n as NodeId).map(block).collect();
    (g, Partition::from_assignments(cats, 3).unwrap())
}

/// A 400-node ring lattice (each node linked to the next three) whose
/// first category holds 99% of the nodes, like the serve workload's
/// headline partition: only the neighborhoods of four nodes cross
/// categories.
fn skewed_graph() -> (Graph, Partition) {
    let n = 400;
    let g = GraphBuilder::from_edges(
        n,
        (0..n as NodeId).flat_map(|v| (1..=3).map(move |k| (v, (v + k) % n as NodeId))),
    )
    .unwrap();
    let cats = (0..n as u32)
        .map(|v| if v % 100 == 7 { 1 + v % 2 } else { 0 })
        .collect();
    let p = Partition::from_assignments(cats, 3).unwrap();
    assert_eq!(p.sizes()[0], 396);
    (g, p)
}

fn matrix_bits(m: &CategoryMatrix) -> Vec<(u32, u32, u64)> {
    m.iter_upper()
        .map(|(a, b, x)| (a, b, x.to_bits()))
        .collect()
}

proptest! {
    #[test]
    fn merge_equals_sequential_for_all_designs_and_splits(
        seed in 0u64..64,
        n in 1usize..60,
        frac in 0u32..=4,
        walk in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let (g, p) = fixture(7);
        let nodes = draw(&g, n, seed, walk);
        let split = (n * frac as usize) / 4; // 0, ¼, ½, ¾, all
        let design = if weighted { DesignKind::Weighted } else { DesignKind::Uniform };
        check_merge_law(&g, &p, &nodes, design, split);
    }

    #[test]
    fn empty_shard_is_an_identity(seed in 0u64..32, n in 1usize..40) {
        let (g, p) = fixture(9);
        let ctx = ObservationContext::new(&g, &p);
        let nodes = draw(&g, n, seed, true);
        let w = weights_for(&g, &nodes, DesignKind::Weighted);
        let c = p.num_categories();

        let mut s = ObservationStream::new(c);
        s.ingest(&ctx, &nodes, &w);
        let empty = ObservationStream::new(c);

        // Right identity: s ⊕ ∅ = s.
        let mut right = s.clone();
        right.merge(&ctx, &empty);
        prop_assert_eq!(&right, &s);

        // Left identity: ∅ ⊕ s = s.
        let mut left = ObservationStream::new(c);
        left.merge(&ctx, &s);
        prop_assert_eq!(&left, &s);
    }

    #[test]
    fn merge_is_associative_bit_exactly(
        seed in 0u64..32,
        n in 3usize..45,
    ) {
        let (g, p) = fixture(11);
        let ctx = ObservationContext::new(&g, &p);
        let nodes = draw(&g, n, seed, true);
        let w = weights_for(&g, &nodes, DesignKind::Weighted);
        let c = p.num_categories();
        let (i, j) = (n / 3, 2 * n / 3);

        let mk = |range: std::ops::Range<usize>| {
            let mut s = ObservationStream::new(c);
            s.ingest(&ctx, &nodes[range.clone()], &w[range]);
            s
        };
        let (a, b, d) = (mk(0..i), mk(i..j), mk(j..n));

        // (a ⊕ b) ⊕ d
        let mut ab = a.clone();
        ab.merge(&ctx, &b);
        ab.merge(&ctx, &d);
        // a ⊕ (b ⊕ d)
        let mut bd = b.clone();
        bd.merge(&ctx, &d);
        let mut a_bd = a.clone();
        a_bd.merge(&ctx, &bd);

        prop_assert_eq!(&ab, &a_bd, "associativity");

        // Both equal the sequential observation of the whole sequence.
        let mut whole = ObservationStream::new(c);
        whole.ingest(&ctx, &nodes, &w);
        prop_assert_eq!(&ab, &whole);
    }

    #[test]
    fn merge_commutes_up_to_float_reordering(seed in 0u64..16, n in 2usize..40) {
        // Commutativity holds for the *statistics* only up to FP
        // reassociation (the logs genuinely differ in order, so bit
        // equality is not expected and not claimed).
        let (g, p) = fixture(13);
        let ctx = ObservationContext::new(&g, &p);
        let nodes = draw(&g, n, seed, true);
        let w = weights_for(&g, &nodes, DesignKind::Weighted);
        let c = p.num_categories();
        let split = n / 2;

        let mk = |range: std::ops::Range<usize>| {
            let mut s = ObservationStream::new(c);
            s.ingest(&ctx, &nodes[range.clone()], &w[range]);
            s
        };
        let (a, b) = (mk(0..split), mk(split..n));
        let mut ab = a.clone();
        ab.merge(&ctx, &b);
        let mut ba = b.clone();
        ba.merge(&ctx, &a);

        prop_assert_eq!(ab.len(), ba.len());
        let (sa, sb) = (ab.star(), ba.star());
        prop_assert!((sa.inverse_mass() - sb.inverse_mass()).abs() <= 1e-9 * sa.inverse_mass().abs().max(1.0));
        prop_assert!((sa.degree_mass() - sb.degree_mass()).abs() <= 1e-9 * sa.degree_mass().abs().max(1.0));
        for (x, y) in sa.neighbor_mass().iter().zip(sb.neighbor_mass()) {
            prop_assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
        }
        let (ia, ib) = (ab.induced(), ba.induced());
        for (x, y) in ia.per_category_mass().iter().zip(ib.per_category_mass()) {
            prop_assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
        }
        // Cross-shard pair discovery is order-independent as a set, so the
        // weight numerators agree up to reordering too.
        for a_cat in 0..c as u32 {
            for b_cat in (a_cat + 1)..c as u32 {
                let x = ia.weight_numerators().get(a_cat, b_cat);
                let y = ib.weight_numerators().get(a_cat, b_cat);
                prop_assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
            }
        }
    }

    #[test]
    fn chunked_index_builds_merge_to_the_monolith(
        chunks in 1usize..6,
        seed in 0u64..8,
        skewed in any::<bool>(),
    ) {
        let (g, p) = if skewed { skewed_graph() } else { fixture(17 + seed) };
        let serial = NeighborCategoryIndex::build(&g, &p);
        let n = g.num_nodes() as NodeId;
        let per = n.div_ceil(chunks as NodeId).max(1);
        let mut merged: Option<NeighborCategoryIndex> = None;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + per).min(n);
            let shard = NeighborCategoryIndex::build_range(&g, &p, lo, hi);
            match &mut merged {
                None => merged = Some(shard),
                Some(m) => m.merge(&shard),
            }
            lo = hi;
        }
        prop_assert_eq!(merged.unwrap(), serial);
    }

    #[test]
    fn reused_induced_accumulator_matches_fresh_and_from_scratch(
        seed in 0u64..32,
        len in 0usize..40,
    ) {
        // Node counts straddle the mass blocks' 64-node words; the order
        // makes the reused accumulator shrink to one node, then grow past
        // its first graph after a reset.
        let mut reused = InducedAccumulator::new(3);
        for (k, n) in [65usize, 1, 200, 63].into_iter().enumerate() {
            reused.reset();
            prop_assert_eq!(&reused, &InducedAccumulator::new(3));
            let (g, p) = random_graph(n, 1, seed * 4 + k as u64);
            let ctx = ObservationContext::new(&g, &p);
            let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
            let nodes: Vec<NodeId> = (0..len).map(|_| rng.gen_range(0..n as NodeId)).collect();
            let w: Vec<f64> = nodes.iter().map(|&v| g.degree(v) as f64 + 0.5).collect();
            let mut fresh = InducedAccumulator::new(3);
            for i in 0..len {
                reused.push(&ctx, nodes[i], w[i]);
                fresh.push(&ctx, nodes[i], w[i]);
                prop_assert_eq!(&reused, &fresh, "n {} prefix {}", n, i + 1);
                let sample =
                    InducedSample::observe_with_weights(&g, &p, &nodes[..=i], w[..=i].to_vec());
                prop_assert_eq!(
                    matrix_bits(&induced_weights_acc(&reused)),
                    matrix_bits(&induced_weights_all(&sample)),
                    "n {} prefix {}", n, i + 1
                );
            }
        }
    }
}

/// A push order over `0..n` that exercises the induced accumulator's
/// mass blocks: every id, so a full word reaches 64 members.
fn block_order(n: usize, order: u32, rng: &mut StdRng) -> Vec<NodeId> {
    let n = n as NodeId;
    match order {
        // Descending ids: each word's block is opened by its last slot.
        0 => (0..n).rev().collect(),
        // Words interleaved, bits in a stride-37 permutation: the blocks
        // of different words fill in turn.
        1 => (0..64)
            .flat_map(|k| (0..n.div_ceil(64)).map(move |w| w * 64 + (k * 37) % 64))
            .filter(|&v| v < n)
            .collect(),
        // Ascending ids with every node repeated right away and a random
        // tail of revisits.
        _ => (0..n)
            .flat_map(|v| [v, v])
            .chain((0..n).map(|_| rng.gen_range(0..n)))
            .collect(),
    }
}

/// Every push order × every reset cut, deterministically: the block
/// layout depends only on the order of pushed ids, so random cases would
/// only repeat these sequences on other edges. The last graph mixes
/// interior nodes (empty cut rows, never members) with boundary nodes.
#[test]
fn induced_mass_blocks_fill_and_recycle_exactly() {
    let mut graphs: Vec<_> = [64usize, 65, 130]
        .into_iter()
        .map(|n| random_graph(n, 3, n as u64))
        .collect();
    // Interior nodes never become members, so their words' blocks hold
    // mass only for the boundary nodes among them.
    let (g, p) = mixed_graph(150, 150);
    let interior = (0..150).filter(|&v| {
        g.neighbors(v)
            .iter()
            .all(|&u| p.category_of(u) == p.category_of(v))
    });
    assert!(interior.count() > 50, "mixed graph lacks interior nodes");
    graphs.push((g, p));
    for order in 0..3 {
        for cut in 0..=128 {
            // One accumulator reused across dense graphs of growing size:
            // each graph's order is cut by a reset mid-stream, then pushed
            // whole; then reset and refilled with the same ids, which must
            // not grow the heap.
            let mut reused = InducedAccumulator::new(3);
            for (g, p) in &graphs {
                let n = g.num_nodes();
                let ctx = ObservationContext::new(g, p);
                let nodes = block_order(n, order, &mut StdRng::seed_from_u64(cut as u64));
                let w: Vec<f64> = nodes.iter().map(|&v| g.degree(v) as f64 + 0.5).collect();
                let at = format!("n {n} order {order} cut {cut}");

                reused.reset();
                for i in 0..cut.min(nodes.len()) {
                    reused.push(&ctx, nodes[i], w[i]);
                }
                reused.reset();
                assert_eq!(reused, InducedAccumulator::new(3), "{at}");

                let mut fresh = InducedAccumulator::new(3);
                for i in 0..nodes.len() {
                    reused.push(&ctx, nodes[i], w[i]);
                    fresh.push(&ctx, nodes[i], w[i]);
                    assert_eq!(reused, fresh, "{at} prefix {}", i + 1);
                    if (i + 1) % 61 == 0 || i + 1 == nodes.len() {
                        let sample = InducedSample::observe_with_weights(
                            g,
                            p,
                            &nodes[..=i],
                            w[..=i].to_vec(),
                        );
                        assert_eq!(
                            matrix_bits(&induced_weights_acc(&reused)),
                            matrix_bits(&induced_weights_all(&sample)),
                            "{at} prefix {}",
                            i + 1
                        );
                    }
                }

                let heap = reused.heap_bytes();
                reused.reset();
                for i in 0..nodes.len() {
                    reused.push(&ctx, nodes[i], w[i]);
                }
                assert_eq!(reused, fresh, "{at}");
                assert!(
                    reused.heap_bytes() <= heap,
                    "refill grew the heap: {} > {heap} ({at})",
                    reused.heap_bytes()
                );
            }
        }
    }
}

/// Every cut row is the adjacency row filtered to other categories, then
/// stably sorted by category, and each category's group is as long as the
/// node's histogram count for it — on a planted partition and on one
/// whose first category holds 99% of the nodes.
#[test]
fn cut_rows_are_neighbors_in_other_categories() {
    // Rows whose grouped order differs from their id order.
    let mut regrouped = 0;
    for (g, p) in [fixture(19), skewed_graph()] {
        let index = NeighborCategoryIndex::build(&g, &p);
        let ctx = ObservationContext::new(&g, &p);
        let n = g.num_nodes() as NodeId;
        let mut boundary = 0;
        for v in 0..n {
            let cv = p.category_of(v);
            let mut want: Vec<NodeId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| p.category_of(u) != cv)
                .collect();
            want.sort_by_key(|&u| p.category_of(u));
            assert_eq!(index.cut_neighbors(v), &want[..], "node {v}");
            assert_eq!(ctx.cut_neighbors(v), &want[..], "node {v}");
            let mut rest = index.cut_neighbors(v);
            for &(b, count) in index.neighbor_categories(v) {
                if b == cv {
                    continue;
                }
                let (group, tail) = rest.split_at(count as usize);
                assert!(group.iter().all(|&u| p.category_of(u) == b), "node {v}");
                rest = tail;
            }
            assert!(rest.is_empty(), "node {v}");
            boundary += usize::from(!want.is_empty());
            regrouped += usize::from(!want.is_sorted());
        }
        assert!(0 < boundary && boundary < n as usize, "{boundary} of {n}");
    }
    assert!(regrouped > 0, "no row's groups reorder its ids");
}

/// A non-member's term is exactly `+0.0` even when `1/w` is `+∞`: on a
/// walk whose every fifth sample has the least subnormal weight, no
/// numerator is NaN and the estimates equal the batch path's bit for bit,
/// at every prefix.
#[test]
fn subnormal_weights_match_the_batch_path_bit_for_bit() {
    let (g, p) = fixture(23);
    let ctx = ObservationContext::new(&g, &p);
    let nodes = draw(&g, 300, 23, true);
    let w: Vec<f64> = nodes
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i % 5 == 4 {
                f64::from_bits(1)
            } else {
                g.degree(v) as f64 + 0.25
            }
        })
        .collect();
    let mut acc = InducedAccumulator::new(3);
    for i in 0..nodes.len() {
        acc.push(&ctx, nodes[i], w[i]);
        assert!(
            acc.weight_numerators()
                .iter_upper()
                .all(|(_, _, x)| !x.is_nan()),
            "NaN numerator at prefix {}",
            i + 1
        );
        let sample = InducedSample::observe_with_weights(&g, &p, &nodes[..=i], w[..=i].to_vec());
        assert_eq!(
            matrix_bits(&induced_weights_acc(&acc)),
            matrix_bits(&induced_weights_all(&sample)),
            "prefix {}",
            i + 1
        );
    }
}

/// The cross-shard edge case stated plainly: an edge whose endpoints live
/// in different shards is invisible to both shards alone, and merge must
/// recover exactly its sequential contribution.
#[test]
fn merge_recovers_cross_shard_induced_pairs() {
    use cgte_graph::GraphBuilder;
    let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let p = Partition::from_assignments(vec![0, 0, 1, 1], 2).unwrap();
    let ctx = ObservationContext::new(&g, &p);

    // Shard A sees node 1, shard B sees node 2; the 1–2 edge crosses.
    let mut a = ObservationStream::new(2);
    a.ingest_uniform(&ctx, &[1]);
    let mut b = ObservationStream::new(2);
    b.ingest_uniform(&ctx, &[2]);
    assert!(a.induced().weight_numerators().is_zero());
    assert!(b.induced().weight_numerators().is_zero());

    a.merge(&ctx, &b);
    let mut whole = ObservationStream::new(2);
    whole.ingest_uniform(&ctx, &[1, 2]);
    assert_eq!(a, whole);
    assert!(a.induced().weight_numerators().get(0, 1) > 0.0);
}
