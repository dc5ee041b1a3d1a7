//! The emit contract of `NodeSampler::try_sample_each`, the one draw loop
//! of every sampler: it hands each retained node to `emit` in draw order,
//! exactly the nodes the buffered `try_sample_into_stats` returns, with
//! the same `WalkStats` and the same RNG state afterwards; and it reports
//! an unusable graph before emitting anything.

use cgte_graph::generators::{planted_partition, PlantedConfig};
use cgte_graph::{Graph, GraphBuilder, NodeId, Partition};
use cgte_sampling::{
    AnySampler, BreadthFirst, DesignKind, MetropolisHastingsWalk, NodeSampler, ObservationContext,
    ObservationStream, RandomWalk, SampleError, Swrw, UniformIndependence, WalkStats,
    WeightedIndependence, WeightedRandomWalk,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Draw = (Result<(), SampleError>, Vec<NodeId>, WalkStats, [u64; 4]);

/// A draw through `try_sample_each`: result, emitted nodes, stats and the
/// RNG state after.
fn each<S: NodeSampler>(s: &S, g: &Graph, n: usize, seed: u64) -> Draw {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = WalkStats::default();
    let mut nodes = Vec::new();
    let r = s.try_sample_each(g, n, &mut rng, &mut stats, |v| nodes.push(v));
    (r, nodes, stats, rng.state())
}

/// The same draw through the buffered `try_sample_into_stats`, into a
/// buffer that starts dirty (the draw must clear it).
fn buffered<S: NodeSampler>(s: &S, g: &Graph, n: usize, seed: u64) -> Draw {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = WalkStats::default();
    let mut nodes = vec![NodeId::MAX; 3];
    let r = s.try_sample_into_stats(g, n, &mut rng, &mut nodes, &mut stats);
    (r, nodes, stats, rng.state())
}

fn planted() -> (Graph, Partition) {
    let cfg = PlantedConfig {
        category_sizes: vec![20, 40, 60],
        k: 4,
        alpha: 0.3,
    };
    let pg = planted_partition(&cfg, &mut StdRng::seed_from_u64(5)).unwrap();
    (pg.graph, pg.partition)
}

/// Every sampler under burn-in, thinning and fixed-start variants, plus
/// every `AnySampler` variant.
fn samplers(g: &Graph, p: &Partition) -> Vec<(String, AnySampler)> {
    let mut rng = StdRng::seed_from_u64(17);
    let factors: Vec<f64> = (0..g.num_nodes())
        .map(|_| rng.gen_range(0.5..2.0))
        .collect();
    let wrw = WeightedRandomWalk::new(g, factors).unwrap();
    let swrw = Swrw::equal_category_target(g, p).unwrap();
    let mut out = vec![
        ("uis".to_string(), AnySampler::Uis(UniformIndependence)),
        (
            "wis".to_string(),
            AnySampler::Wis(WeightedIndependence::degree_proportional(g).unwrap()),
        ),
    ];
    for (b, t, start) in [(0, 1, None), (7, 1, None), (0, 3, None), (5, 2, Some(3))] {
        let tag = format!("burn_in {b} thinning {t} start {start:?}");
        let mut rw = RandomWalk::new().burn_in(b).thinning(t);
        let mut mh = MetropolisHastingsWalk::new().burn_in(b).thinning(t);
        let mut w = wrw.clone().burn_in(b).thinning(t);
        let mut s = swrw.clone().burn_in(b).thinning(t);
        if let Some(v) = start {
            rw = rw.start_at(v);
            mh = mh.start_at(v);
            w = w.start_at(v);
            s = s.start_at(v);
        }
        out.push((format!("rw {tag}"), AnySampler::Rw(rw)));
        out.push((format!("mhrw {tag}"), AnySampler::Mhrw(mh)));
        out.push((format!("wrw {tag}"), AnySampler::Wrw(w)));
        out.push((format!("swrw {tag}"), AnySampler::Swrw(s)));
    }
    out
}

fn assert_each_matches_buffered<S: NodeSampler>(name: &str, s: &S, g: &Graph, n: usize) {
    for seed in [1, 2, 3] {
        let e = each(s, g, n, seed);
        assert_eq!(e, buffered(s, g, n, seed), "{name}, seed {seed}");
        assert!(e.0.is_ok(), "{name}");
        assert_eq!(e.2.retained, e.1.len(), "{name}: retained counts the emits");
    }
}

#[test]
fn each_emits_the_buffered_draw_for_every_sampler() {
    let (g, p) = planted();
    for (name, s) in samplers(&g, &p) {
        assert_each_matches_buffered(&name, &s, &g, 200);
        // The variant itself, not only the enum's forwarding.
        match &s {
            AnySampler::Uis(v) => assert_each_matches_buffered(&name, v, &g, 200),
            AnySampler::Wis(v) => assert_each_matches_buffered(&name, v, &g, 200),
            AnySampler::Rw(v) => assert_each_matches_buffered(&name, v, &g, 200),
            AnySampler::Mhrw(v) => assert_each_matches_buffered(&name, v, &g, 200),
            AnySampler::Wrw(v) => assert_each_matches_buffered(&name, v, &g, 200),
            AnySampler::Swrw(v) => assert_each_matches_buffered(&name, v, &g, 200),
        }
        let e = each(&s, &g, 200, 1);
        assert_eq!(e.2.retained, 200, "{name}");
    }
    // MHRW's rejections are part of the stats that must agree.
    let mh = MetropolisHastingsWalk::new().burn_in(4).thinning(2);
    let e = each(&mh, &g, 500, 9);
    assert!(e.2.rejections > 0, "a degree-diverse graph must reject");
    assert_eq!(e, buffered(&mh, &g, 500, 9));
    for bfs in [BreadthFirst::new(), BreadthFirst::new().start_at(7)] {
        assert_each_matches_buffered("bfs", &bfs, &g, 50);
    }
}

/// BFS samples without replacement, so asking for more nodes than the
/// graph has stops at the node count: `retained` counts what was emitted.
#[test]
fn exhausted_bfs_counts_only_emitted_nodes() {
    let g = GraphBuilder::from_edges(10, [(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
    let e = each(&BreadthFirst::new(), &g, 50, 4);
    assert!(e.0.is_ok());
    assert_eq!(e.1.len(), 10);
    assert_eq!((e.2.retained, e.2.steps), (10, 10));
    assert_eq!(e, buffered(&BreadthFirst::new(), &g, 50, 4));
}

/// An empty graph fails every sampler, and an edgeless one every walk
/// (fixed start or not), with nothing emitted.
#[test]
fn unusable_graphs_fail_before_the_first_emit() {
    let empty = GraphBuilder::new(0).build();
    let edgeless = GraphBuilder::new(4).build();
    let fails = |name: &str, e: Draw, want: SampleError| {
        assert_eq!(e.0, Err(want), "{name}");
        assert!(e.1.is_empty(), "{name} emitted {:?}", e.1);
    };
    let wis = WeightedIndependence::new(vec![1.0]).unwrap();
    fails(
        "uis",
        each(&UniformIndependence, &empty, 5, 1),
        SampleError::EmptyGraph,
    );
    fails("wis", each(&wis, &empty, 5, 1), SampleError::EmptyGraph);
    fails(
        "bfs",
        each(&BreadthFirst::new(), &empty, 5, 1),
        SampleError::EmptyGraph,
    );
    let empty_wrw = WeightedRandomWalk::new(&empty, Vec::new()).unwrap();
    let edgeless_wrw = WeightedRandomWalk::new(&edgeless, vec![1.0; 4]).unwrap();
    for start in [None, Some(0)] {
        let (rw, mh, ew, lw) = match start {
            Some(v) => (
                RandomWalk::new().start_at(v),
                MetropolisHastingsWalk::new().thinning(2).start_at(v),
                empty_wrw.clone().start_at(v),
                edgeless_wrw.clone().start_at(v),
            ),
            None => (
                RandomWalk::new(),
                MetropolisHastingsWalk::new().thinning(2),
                empty_wrw.clone(),
                edgeless_wrw.clone(),
            ),
        };
        for (graph, wrw, want) in [
            (&empty, ew, SampleError::EmptyGraph),
            (&edgeless, lw, SampleError::EdgelessGraph),
        ] {
            fails("rw", each(&rw, graph, 5, 1), want);
            fails("mhrw", each(&mh, graph, 5, 1), want);
            fails("wrw", each(&wrw, graph, 5, 1), want);
            fails("any rw", each(&AnySampler::Rw(rw), graph, 5, 1), want);
            assert_eq!(each(&rw, graph, 5, 1), buffered(&rw, graph, 5, 1));
        }
    }
}

/// A fixed start that no draw can begin at fails before the first emit:
/// a node outside the graph for every start-taking sampler, and an
/// isolated node for every walk. A stream fed such a draw stays exactly as
/// it was. BFS may start at an isolated node (it reseeds from there).
#[test]
fn invalid_starts_fail_before_the_first_emit() {
    // Four nodes, one edge 0–1: nodes 2 and 3 are isolated.
    let g = GraphBuilder::from_edges(4, [(0, 1)]).unwrap();
    let p = Partition::trivial(4);
    let ctx = ObservationContext::new(&g, &p);
    let wrw = WeightedRandomWalk::new(&g, vec![1.0; 4]).unwrap();
    let swrw = Swrw::equal_category_target(&g, &p).unwrap();
    for v in [3, 99] {
        let walks = [
            AnySampler::Rw(RandomWalk::new().start_at(v)),
            AnySampler::Mhrw(MetropolisHastingsWalk::new().burn_in(2).start_at(v)),
            AnySampler::Wrw(wrw.clone().start_at(v)),
            AnySampler::Swrw(swrw.clone().thinning(2).start_at(v)),
        ];
        for s in &walks {
            let name = format!("{} start {v}", s.name());
            let e = each(s, &g, 5, 1);
            assert_eq!(e.0, Err(SampleError::InvalidStart(v)), "{name}");
            assert!(e.1.is_empty(), "{name} emitted {:?}", e.1);
            assert_eq!(e, buffered(s, &g, 5, 1), "{name}");
            let mut stream = ObservationStream::new(1);
            stream.ingest_uniform(&ctx, &[0, 1]);
            let before = stream.clone();
            let r = stream.ingest_walk(
                &ctx,
                s,
                DesignKind::Weighted,
                5,
                &mut StdRng::seed_from_u64(1),
                &mut WalkStats::default(),
            );
            assert_eq!(r, Err(SampleError::InvalidStart(v)), "{name}");
            assert_eq!(stream, before, "{name}");
        }
    }
    let e = each(&BreadthFirst::new().start_at(99), &g, 5, 1);
    assert_eq!(e.0, Err(SampleError::InvalidStart(99)));
    assert!(e.1.is_empty(), "bfs emitted {:?}", e.1);
    let (r, nodes, _, _) = each(&BreadthFirst::new().start_at(3), &g, 2, 1);
    r.unwrap();
    assert_eq!(nodes[0], 3);
}

/// On an even cycle every walk moves each step (MHRW never rejects: all
/// degrees are equal), so the parity of a node's id is the parity of the
/// steps taken to reach it from node 0. The `i`-th retained node comes
/// after `burn_in + i·thinning` steps; with an odd thinning factor, a
/// loop that emitted after the thinning steps instead of before them
/// would flip every parity.
#[test]
fn each_emits_before_the_thinning_steps() {
    let n = 8;
    let g =
        GraphBuilder::from_edges(n, (0..n as NodeId).map(|u| (u, (u + 1) % n as NodeId))).unwrap();
    let p = Partition::blocks(n, &[4, 4]).unwrap();
    let wrw = WeightedRandomWalk::new(&g, (1..=n).map(|f| f as f64).collect()).unwrap();
    let swrw = Swrw::equal_category_target(&g, &p).unwrap();
    for (b, t) in [(0, 1), (0, 3), (1, 1), (2, 3), (3, 5)] {
        let walks = [
            AnySampler::Rw(RandomWalk::new().burn_in(b).thinning(t).start_at(0)),
            AnySampler::Mhrw(
                MetropolisHastingsWalk::new()
                    .burn_in(b)
                    .thinning(t)
                    .start_at(0),
            ),
            AnySampler::Wrw(wrw.clone().burn_in(b).thinning(t).start_at(0)),
            AnySampler::Swrw(swrw.clone().burn_in(b).thinning(t).start_at(0)),
        ];
        for s in walks {
            for seed in [1, 2] {
                let (r, nodes, stats, _) = each(&s, &g, 40, seed);
                r.unwrap();
                assert_eq!(stats.rejections, 0);
                if b == 0 {
                    assert_eq!(nodes[0], 0, "{} emits its start first", s.name());
                }
                for (i, &v) in nodes.iter().enumerate() {
                    assert_eq!(
                        v as usize % 2,
                        (b + i * t) % 2,
                        "{} burn_in {b} thinning {t}: node {i}",
                        s.name()
                    );
                }
            }
        }
    }
}

/// The RW loop against a direct transcription of §3.1.2's walk: start,
/// `burn_in` steps, then retain a node and take `thinning` steps, `n`
/// times.
#[test]
fn rw_each_matches_a_reference_walk() {
    let (g, _) = planted();
    for (b, t) in [(0, 1), (5, 1), (0, 2), (9, 4)] {
        let rw = RandomWalk::new().burn_in(b).thinning(t).start_at(11);
        let mut rng = StdRng::seed_from_u64(40 + b as u64);
        let mut cur: NodeId = 11;
        let step = |cur: NodeId, rng: &mut StdRng| {
            let nbrs = g.neighbors(cur);
            nbrs[rng.gen_range(0..nbrs.len())]
        };
        for _ in 0..b {
            cur = step(cur, &mut rng);
        }
        let mut want = Vec::new();
        for _ in 0..100 {
            want.push(cur);
            for _ in 0..t {
                cur = step(cur, &mut rng);
            }
        }
        let (r, nodes, _, state) = each(&rw, &g, 100, 40 + b as u64);
        r.unwrap();
        assert_eq!(nodes, want, "burn_in {b} thinning {t}");
        assert_eq!(state, rng.state());
    }
}
