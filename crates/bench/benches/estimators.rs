//! P1: observation and estimator throughput.

use cgte_core::category_size::{induced_sizes, star_sizes, StarSizeOptions};
use cgte_core::edge_weight::{induced_weights_all, star_weights_all};
use cgte_graph::generators::{planted_partition, PlantedConfig};
use cgte_sampling::{InducedSample, NodeSampler, StarSample, UniformIndependence};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_estimators(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let pg =
        planted_partition(&PlantedConfig::scaled(10, 20, 0.5), &mut rng).expect("feasible config");
    let (g, p) = (&pg.graph, &pg.partition);
    let nodes = UniformIndependence.sample(g, 5_000, &mut rng);
    let population = g.num_nodes() as f64;

    let mut grp = c.benchmark_group("estimators_5k_sample");
    grp.sample_size(20);
    grp.bench_function("observe_induced", |b| {
        b.iter(|| black_box(InducedSample::observe(g, p, &nodes)))
    });
    grp.bench_function("observe_star", |b| {
        b.iter(|| black_box(StarSample::observe(g, p, &nodes)))
    });

    let ind = InducedSample::observe(g, p, &nodes);
    let star = StarSample::observe(g, p, &nodes);
    grp.bench_function("induced_sizes", |b| {
        b.iter(|| black_box(induced_sizes(&ind, population)))
    });
    grp.bench_function("star_sizes", |b| {
        b.iter(|| black_box(star_sizes(&star, population, &StarSizeOptions::default())))
    });
    grp.bench_function("induced_weights_all", |b| {
        b.iter(|| black_box(induced_weights_all(&ind)))
    });
    let sizes: Vec<f64> = p.sizes().iter().map(|&s| s as f64).collect();
    grp.bench_function("star_weights_all", |b| {
        b.iter(|| black_box(star_weights_all(&star, &sizes)))
    });
    grp.finish();
}

/// Growing-prefix evaluation (the §6.1 NRMSE protocol's inner loop): the
/// old path re-observes every prefix from scratch; the incremental path
/// folds the sequence into accumulators once and snapshots per size.
fn bench_prefix_evaluation(c: &mut Criterion) {
    use cgte_core::category_size::{induced_sizes_acc, star_sizes_acc};
    use cgte_core::edge_weight::{induced_weights_acc, star_weights_acc};
    use cgte_graph::generators::{chung_lu, powerlaw_weights, scale_to_mean};
    use cgte_graph::Partition;
    use cgte_sampling::{InducedAccumulator, ObservationContext, RandomWalk, StarAccumulator};

    // A 100k-node Chung-Lu graph with power-law degrees (mean ~10) and ten
    // equal categories — the fig3/fig4 synthetic workload shape.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 100_000;
    let mut w = powerlaw_weights(n, 2.5, 1.0, (n as f64).sqrt(), &mut rng);
    scale_to_mean(&mut w, 10.0);
    let g = chung_lu(&w, &mut rng);
    let p = Partition::blocks(n, &[n / 10; 10]).expect("exact blocks");
    let sizes = [100usize, 200, 500, 1000, 2000];
    let max_size = *sizes.iter().max().unwrap();
    let walk = RandomWalk::new().burn_in(1_000);
    let nodes = walk.sample(&g, max_size, &mut rng);
    let weights: Vec<f64> = nodes.iter().map(|&v| g.degree(v) as f64).collect();
    let num_c = p.num_categories();
    let population = g.num_nodes() as f64;
    let opts = StarSizeOptions::default();

    let mut grp = c.benchmark_group("prefix_eval_100k_chung_lu");
    grp.sample_size(10);
    grp.bench_function("reobserve_per_prefix", |b| {
        b.iter(|| {
            for &s in &sizes {
                let star =
                    StarSample::observe_with_weights(&g, &p, &nodes[..s], weights[..s].to_vec());
                let ind = star.to_induced(&g, &p);
                let ind_sizes = cgte_core::category_size::induced_sizes(&ind, population)
                    .unwrap_or_else(|| vec![0.0; num_c]);
                let star_sz = cgte_core::category_size::star_sizes(&star, population, &opts);
                let plug: Vec<f64> = star_sz
                    .iter()
                    .zip(&ind_sizes)
                    .map(|(st, &i)| st.unwrap_or(i))
                    .collect();
                black_box(induced_weights_all(&ind));
                black_box(star_weights_all(&star, &plug));
            }
        })
    });

    // The context is built once per experiment and amortized over hundreds
    // of replications, so it stays outside the measured loop (like the
    // graph itself).
    let ctx = ObservationContext::new(&g, &p);
    grp.bench_function("incremental_accumulators", |b| {
        let mut star_acc = StarAccumulator::new(num_c);
        let mut ind_acc = InducedAccumulator::new(num_c);
        b.iter(|| {
            star_acc.reset();
            ind_acc.reset();
            let mut next = 0;
            for (pos, (&v, &w)) in nodes.iter().zip(&weights).enumerate() {
                star_acc.push(&ctx, v, w);
                ind_acc.push(&ctx, v, w);
                if next < sizes.len() && sizes[next] == pos + 1 {
                    let ind_sizes =
                        induced_sizes_acc(&ind_acc, population).unwrap_or_else(|| vec![0.0; num_c]);
                    let star_sz = star_sizes_acc(&star_acc, population, &opts);
                    let plug: Vec<f64> = star_sz
                        .iter()
                        .zip(&ind_sizes)
                        .map(|(st, &i)| st.unwrap_or(i))
                        .collect();
                    black_box(induced_weights_acc(&ind_acc));
                    black_box(star_weights_acc(&star_acc, &plug));
                    next += 1;
                }
            }
        })
    });
    grp.finish();
}

/// Induced push throughput (§3.2.1: one mass load per cut neighbor of
/// every sample) in the regimes the benchmark workloads span: a small
/// dense graph that a long walk covers, a large sparse graph, both under
/// ten id blocks where most neighbors are in another category, the large
/// graph under a top-50 community partition with a rest category, shaped
/// like the serve workload's headline graph, where almost no neighbor is,
/// and fig4's Texas stand-in at its default scale, whose spectral top-20
/// partition collapses to a few categories that most edges cross.
fn bench_induced_push(c: &mut Criterion) {
    use cgte_datasets::{standin, standin_partition, StandinKind};
    use cgte_graph::generators::{chung_lu, powerlaw_weights, scale_to_mean};
    use cgte_graph::{Graph, NodeId, Partition};
    use cgte_sampling::{InducedAccumulator, ObservationContext, RandomWalk};

    /// Share of the pushes' adjacency entries that are in their cut rows.
    fn cut_share(ctx: &ObservationContext<'_>, nodes: &[NodeId]) -> f64 {
        let cut: usize = nodes.iter().map(|&v| ctx.cut_neighbors(v).len()).sum();
        let scanned: usize = nodes.iter().map(|&v| ctx.graph().degree(v)).sum();
        cut as f64 / scanned.max(1) as f64
    }

    /// A Chung–Lu graph (γ = 2.5) under ten id blocks or top-50
    /// communities, and the stream that drew it.
    fn chung_lu_case(n: usize, mean_degree: f64, communities: bool) -> (Graph, Partition, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut w = powerlaw_weights(n, 2.5, 1.0, (n as f64).sqrt(), &mut rng);
        scale_to_mean(&mut w, mean_degree);
        let g = chung_lu(&w, &mut rng);
        let p = if communities {
            standin_partition(&g, 50, false, &mut rng)
        } else {
            Partition::blocks(n, &[n / 10; 10]).expect("exact blocks")
        };
        (g, p, rng)
    }

    /// fig4's Texas graph: the built-in scenario's seed, `scale_div` 8 and
    /// a spectral top-20 partition drawn from the same stream, which goes
    /// on to draw the walk.
    fn fig4_texas() -> (Graph, Partition, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x2012_5EED);
        let g = standin(StandinKind::FacebookTexas, 8, &mut rng);
        let p = standin_partition(&g, 20, true, &mut rng);
        (g, p, rng)
    }

    let mut grp = c.benchmark_group("induced_push");
    grp.sample_size(10);
    type Case = fn() -> (Graph, Partition, StdRng);
    let cases: [(&str, usize, Case); 4] = [
        ("high_hit_5k_deg60_30k_rw", 30_000, || {
            chung_lu_case(5_000, 60.0, false)
        }),
        ("low_hit_100k_deg10_50k_rw", 50_000, || {
            chung_lu_case(100_000, 10.0, false)
        }),
        ("skewed_100k_deg10_top50_50k_rw", 50_000, || {
            chung_lu_case(100_000, 10.0, true)
        }),
        ("fig4_texas_spectral_30k_rw", 30_000, fig4_texas),
    ];
    for (label, pushes, case) in cases {
        let (g, p, mut rng) = case();
        let nodes = RandomWalk::new()
            .burn_in(1_000)
            .sample(&g, pushes, &mut rng);
        let weights: Vec<f64> = nodes.iter().map(|&v| g.degree(v) as f64).collect();
        let ctx = ObservationContext::new(&g, &p);
        println!(
            "induced_push/{label}: {} nodes, C = {}, {:.2}% of the pushed nodes' adjacency entries cross categories",
            g.num_nodes(),
            p.num_categories(),
            100.0 * cut_share(&ctx, &nodes)
        );
        let mut acc = InducedAccumulator::new(p.num_categories());
        grp.bench_function(label, |b| {
            b.iter(|| {
                acc.reset();
                for (&v, &w) in nodes.iter().zip(&weights) {
                    acc.push(&ctx, v, w);
                }
                black_box(acc.inverse_mass())
            })
        });
    }
    grp.finish();
}

/// A server-side walk ingest (`Session::ingest_steps`) on a graph shaped
/// like the serve workload's 1M-node headline graph (Chung–Lu, γ = 2.5,
/// mean degree 10, top-50 communities + rest): 500-step RW batches, each
/// from a fresh seed, so every batch starts cold. `draw_then_push` walks
/// the whole batch into a buffer and then pushes it; `ingest_walk` pushes
/// each node as the walk draws it, so the push's cache misses overlap the
/// walk's. Both fold the same nodes into the same stream, which is reset
/// every 100 batches like a 50k-sample session.
fn bench_ingest_walk(c: &mut Criterion) {
    use cgte_datasets::standin_partition;
    use cgte_graph::generators::{par_chung_lu, powerlaw_weights, scale_to_mean};
    use cgte_sampling::{DesignKind, ObservationContext, ObservationStream, RandomWalk, WalkStats};

    let n = 1_000_000;
    let mut rng = StdRng::seed_from_u64(23);
    let mut w = powerlaw_weights(n, 2.5, 2.0, (n as f64).sqrt(), &mut rng);
    scale_to_mean(&mut w, 10.0);
    let g = par_chung_lu(&w, 23, 0);
    let p = standin_partition(&g, 50, false, &mut rng);
    let ctx = ObservationContext::new(&g, &p);
    let rw = RandomWalk::new();
    let design = DesignKind::Weighted;
    println!(
        "ingest_walk: {} nodes, {} edges, C = {}",
        g.num_nodes(),
        g.num_edges(),
        p.num_categories()
    );

    let mut grp = c.benchmark_group("ingest_walk");
    grp.sample_size(10);
    let mut stream = ObservationStream::new(p.num_categories());
    let mut stats = WalkStats::default();
    let mut seed = 0u64;
    let mut next_batch = |stream: &mut ObservationStream| {
        if stream.len() >= 50_000 {
            stream.reset();
        }
        seed += 1;
        StdRng::seed_from_u64(seed)
    };
    let mut nodes = Vec::new();
    grp.bench_function("draw_then_push", |b| {
        b.iter(|| {
            let mut rng = next_batch(&mut stream);
            rw.try_sample_into_stats(&g, 500, &mut rng, &mut nodes, &mut stats)
                .expect("the graph has edges");
            stream.ingest_sampler(&ctx, &nodes, &rw, design);
            black_box(stream.len())
        })
    });
    grp.bench_function("ingest_walk", |b| {
        b.iter(|| {
            let mut rng = next_batch(&mut stream);
            stream
                .ingest_walk(&ctx, &rw, design, 500, &mut rng, &mut stats)
                .expect("the graph has edges");
            black_box(stream.len())
        })
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_estimators,
    bench_prefix_evaluation,
    bench_induced_push,
    bench_ingest_walk
);
criterion_main!(benches);
