//! `ObservationStream::ingest_walk` (push each node as the draw emits it)
//! against the buffered path it replaces (`try_sample_into_stats` into a
//! buffer, then `ingest_sampler`): for every sampler and both designs the
//! two reach the same stream, bit for bit — accumulators, both log
//! columns and `.cgtes` bytes — batch after batch on one RNG. A draw
//! that fails leaves the stream as it was.

use cgte_graph::generators::{planted_partition, PlantedConfig};
use cgte_graph::store::Container;
use cgte_graph::{Graph, GraphBuilder, NodeId, Partition};
use cgte_sampling::snapshot::{stream_sections, write_snapshot};
use cgte_sampling::{
    AnySampler, BreadthFirst, DesignKind, MetropolisHastingsWalk, NodeSampler, ObservationContext,
    ObservationStream, RandomWalk, SampleError, Swrw, UniformIndependence, WalkStats,
    WeightedIndependence, WeightedRandomWalk,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn snapshot_bytes(stream: &ObservationStream) -> Vec<u8> {
    let mut c = Container::new();
    for s in stream_sections(stream) {
        c.push(s);
    }
    let mut buf = Vec::new();
    write_snapshot(&mut buf, &c).unwrap();
    buf
}

fn planted() -> (Graph, Partition) {
    let cfg = PlantedConfig {
        category_sizes: vec![200, 300, 500],
        k: 6,
        alpha: 0.3,
    };
    let pg = planted_partition(&cfg, &mut StdRng::seed_from_u64(21)).unwrap();
    (pg.graph, pg.partition)
}

/// Four 500-step batches through both paths, each on its own copy of one
/// seeded RNG; the streams, logs, snapshot bytes, heap, stats and RNG
/// states must agree after every batch.
fn assert_fused_equals_buffered<S: NodeSampler>(
    name: &str,
    s: &S,
    ctx: &ObservationContext<'_>,
    design: DesignKind,
) {
    let c = ctx.partition().num_categories();
    let (mut fused, mut buffered) = (ObservationStream::new(c), ObservationStream::new(c));
    let mut rng_f = StdRng::seed_from_u64(99);
    let mut rng_b = StdRng::seed_from_u64(99);
    let mut nodes: Vec<NodeId> = Vec::new();
    for batch in 0..4 {
        let (mut stats_f, mut stats_b) = (WalkStats::default(), WalkStats::default());
        fused
            .ingest_walk(ctx, s, design, 500, &mut rng_f, &mut stats_f)
            .unwrap();
        s.try_sample_into_stats(ctx.graph(), 500, &mut rng_b, &mut nodes, &mut stats_b)
            .unwrap();
        buffered.ingest_sampler(ctx, &nodes, s, design);
        let at = format!("{name} {design:?} batch {batch}");
        assert_eq!(fused, buffered, "{at}");
        assert_eq!(fused.log().0, buffered.log().0, "{at}: nodes");
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fused.log().1), bits(buffered.log().1), "{at}: weights");
        assert_eq!(snapshot_bytes(&fused), snapshot_bytes(&buffered), "{at}");
        assert_eq!(fused.heap_bytes(), buffered.heap_bytes(), "{at}");
        assert_eq!(stats_f, stats_b, "{at}");
        assert_eq!(rng_f.state(), rng_b.state(), "{at}");
        assert_eq!(fused.len(), (batch + 1) * stats_f.retained, "{at}");
    }
}

#[test]
fn ingest_walk_equals_draw_then_push() {
    let (g, p) = planted();
    let ctx = ObservationContext::new(&g, &p);
    let mut rng = StdRng::seed_from_u64(3);
    let factors: Vec<f64> = (0..g.num_nodes())
        .map(|_| rng.gen_range(0.5..2.0))
        .collect();
    let samplers = [
        AnySampler::Uis(UniformIndependence),
        AnySampler::Wis(WeightedIndependence::degree_proportional(&g).unwrap()),
        AnySampler::Rw(RandomWalk::new().burn_in(20).thinning(2)),
        AnySampler::Mhrw(MetropolisHastingsWalk::new().burn_in(5).thinning(3)),
        AnySampler::Wrw(WeightedRandomWalk::new(&g, factors).unwrap()),
        AnySampler::Swrw(Swrw::equal_category_target(&g, &p).unwrap().thinning(2)),
    ];
    for design in [DesignKind::Uniform, DesignKind::Weighted] {
        for s in &samplers {
            assert_fused_equals_buffered(s.name(), s, &ctx, design);
        }
        assert_fused_equals_buffered("BFS", &BreadthFirst::new(), &ctx, design);
    }
}

/// A walk on an edgeless graph fails before its first node: the stream,
/// its heap and its snapshot bytes stay exactly as they were.
#[test]
fn failed_walk_leaves_the_stream_unchanged() {
    let g = GraphBuilder::new(6).build();
    let p = Partition::blocks(6, &[3, 3]).unwrap();
    let ctx = ObservationContext::new(&g, &p);
    let mut stream = ObservationStream::new(2);
    stream.ingest_uniform(&ctx, &[0, 4, 4]);
    let (before, heap, bytes) = (stream.clone(), stream.heap_bytes(), snapshot_bytes(&stream));
    let walks = [
        AnySampler::Rw(RandomWalk::new()),
        AnySampler::Mhrw(MetropolisHastingsWalk::new().start_at(1)),
        AnySampler::Wrw(WeightedRandomWalk::new(&g, vec![1.0; 6]).unwrap()),
    ];
    for s in &walks {
        for design in [DesignKind::Uniform, DesignKind::Weighted] {
            let r = stream.ingest_walk(
                &ctx,
                s,
                design,
                500,
                &mut StdRng::seed_from_u64(1),
                &mut WalkStats::default(),
            );
            assert_eq!(r, Err(SampleError::EdgelessGraph), "{}", s.name());
            assert_eq!(stream, before, "{}", s.name());
            assert_eq!(stream.heap_bytes(), heap, "{}", s.name());
            assert_eq!(snapshot_bytes(&stream), bytes, "{}", s.name());
        }
    }
}
