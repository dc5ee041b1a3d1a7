//! The §6.3.1 spectral category partition: Newman's leading-eigenvector
//! communities, top-k, on the texas stand-in at fig4's default scale. This
//! is the whole partition cost of a cold `cgte run --builtin fig4` build
//! job for that graph.

use cgte_datasets::{standin, standin_partition, StandinKind};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_spectral(c: &mut Criterion) {
    let mut g = c.benchmark_group("spectral_partition");
    g.sample_size(10);
    // fig4's texas graph: scenario seed, `scale_div` 8, top-20; the
    // partition continues the generator's stream, as the scenario cache
    // does.
    let mut rng = StdRng::seed_from_u64(0x2012_5EED);
    let graph = standin(StandinKind::FacebookTexas, 8, &mut rng);
    g.bench_function("texas_div8_top20", |b| {
        b.iter(|| {
            let mut r = rng.clone();
            black_box(standin_partition(&graph, 20, true, &mut r))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_spectral);
criterion_main!(benches);
