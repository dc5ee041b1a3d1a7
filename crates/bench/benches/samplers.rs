//! P1: sampler throughput — nodes drawn per second for all five designs,
//! and the S-WRW walk layer (draw and `weight_of`) on fig4's Texas
//! stand-in.

use cgte_graph::generators::{planted_partition, PlantedConfig};
use cgte_sampling::{
    MetropolisHastingsWalk, NodeSampler, RandomWalk, Swrw, UniformIndependence,
    WeightedIndependence,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_samplers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let pg =
        planted_partition(&PlantedConfig::scaled(10, 20, 0.5), &mut rng).expect("feasible config");
    let g = &pg.graph;
    let n = 10_000;

    let mut grp = c.benchmark_group("samplers_10k_draws");
    grp.sample_size(20);
    grp.bench_function("uis", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(UniformIndependence.sample(g, n, &mut rng)))
    });
    let wis = WeightedIndependence::degree_proportional(g).unwrap();
    grp.bench_function("wis_degree", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(wis.sample(g, n, &mut rng)))
    });
    let rw = RandomWalk::new();
    grp.bench_function("rw", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(rw.sample(g, n, &mut rng)))
    });
    let mhrw = MetropolisHastingsWalk::new();
    grp.bench_function("mhrw", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| black_box(mhrw.sample(g, n, &mut rng)))
    });
    let swrw = Swrw::equal_category_target(g, &pg.partition).unwrap();
    grp.bench_function("swrw", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| black_box(swrw.sample(g, n, &mut rng)))
    });
    grp.finish();
}

/// S-WRW's walk layer on fig4's Texas stand-in (the built-in scenario's
/// seed, `scale_div` 8, spectral top-20 partition drawn from the same
/// stream): a 30k-sample draw, and `weight_of` over those samples, the
/// Hansen–Hurwitz weight every push reads.
fn bench_swrw_walk_layer(c: &mut Criterion) {
    use cgte_datasets::{standin, standin_partition, StandinKind};

    let mut rng = StdRng::seed_from_u64(0x2012_5EED);
    let g = standin(StandinKind::FacebookTexas, 8, &mut rng);
    let p = standin_partition(&g, 20, true, &mut rng);
    let swrw = Swrw::equal_category_target(&g, &p).unwrap();
    let n = 30_000;
    let nodes = swrw.clone().burn_in(1_000).sample(&g, n, &mut rng);
    println!(
        "swrw_walk_layer: {} nodes, {} edges, C = {}",
        g.num_nodes(),
        g.num_edges(),
        p.num_categories()
    );

    let mut grp = c.benchmark_group("swrw_walk_layer");
    grp.sample_size(20);
    grp.bench_function("fig4_texas_draw_30k", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut out = Vec::with_capacity(n);
        b.iter(|| {
            swrw.sample_into(&g, n, &mut rng, &mut out);
            black_box(out.len())
        })
    });
    grp.bench_function("fig4_texas_weight_of_30k", |b| {
        b.iter(|| black_box(nodes.iter().map(|&v| swrw.weight_of(&g, v)).sum::<f64>()))
    });
    grp.finish();
}

criterion_group!(benches, bench_samplers, bench_swrw_walk_layer);
criterion_main!(benches);
