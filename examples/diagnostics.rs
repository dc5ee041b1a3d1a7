//! Crawl diagnostics and the BFS cautionary tale (§5.4, §8).
//!
//! ```sh
//! cargo run --release --example diagnostics
//! ```
//!
//! 1. Convergence diagnostics for a random walk: lag autocorrelation of the
//!    degree trace, the decorrelation lag (a principled thinning choice),
//!    and the Geweke z-score.
//! 2. Why BFS sampling is not a probability design: its category size
//!    "estimates" stay biased no matter how large the sample, while the
//!    corrected RW estimates converge (§8's warning, demonstrated).

use cgte::estimators::category_size::induced_sizes_acc;
use cgte::graph::generators::{planted_partition, PlantedConfig};
use cgte::graph::{Graph, NodeId, Partition};
use cgte::sampling::convergence::{autocorrelation, decorrelation_lag, degree_trace, geweke_z};
use cgte::sampling::{
    BreadthFirst, NodeSampler, ObservationContext, ObservationStream, RandomWalk,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `nodes` drawn by `sampler`, folded into a stream under its design: BFS
/// samples with unit weights (no correction exists), walk samples with
/// their weight `deg(v)`.
fn stream_of<S: NodeSampler>(
    g: &Graph,
    p: &Partition,
    nodes: &[NodeId],
    sampler: &S,
) -> ObservationStream {
    let mut stream = ObservationStream::new(p.num_categories());
    stream.ingest_sampler(
        &ObservationContext::new(g, p),
        nodes,
        sampler,
        sampler.design(),
    );
    stream
}

/// The Hansen–Hurwitz mean degree `k̂_V` of a stream, Eq. (6)/(14).
fn mean_degree(s: &ObservationStream) -> f64 {
    s.star().degree_mass() / s.star().inverse_mass()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(58);
    // A graph with a small, tightly-knit category 0: BFS started anywhere
    // tends to either flood it or miss it.
    let cfg = PlantedConfig {
        category_sizes: vec![150, 600, 1200],
        k: 8,
        alpha: 0.2,
    };
    let pg = planted_partition(&cfg, &mut rng).expect("feasible configuration");
    let n = pg.graph.num_nodes();

    // --- Part 1: walk diagnostics -------------------------------------
    let rw = RandomWalk::new();
    let walk = rw.sample(&pg.graph, 30_000, &mut rng);
    let trace = degree_trace(&pg.graph, &walk);
    println!(
        "random walk diagnostics (degree trace, {} steps):",
        trace.len()
    );
    for lag in [1usize, 2, 5, 10, 20] {
        println!(
            "  lag-{lag:<2} autocorrelation: {:+.4}",
            autocorrelation(&trace, lag).unwrap()
        );
    }
    match decorrelation_lag(&trace, 0.05, 200) {
        Some(t) => println!("  decorrelation lag (|r| < 0.05): T = {t}  → thinning choice"),
        None => println!("  trace still correlated at lag 200"),
    }
    println!(
        "  Geweke z (first 10% vs last 50%): {:+.2}  (|z| ≲ 2 ⇒ no drift detected)",
        geweke_z(&trace, 0.1, 0.5).unwrap()
    );

    // --- Part 2: BFS degree bias does not vanish with sample size ------
    // BFS reaches hubs almost immediately, so the raw sample mean degree
    // overshoots; a RW sample is equally biased *but* its bias is exactly
    // deg(v)-proportional, so the Eq. (14) correction removes it. BFS has
    // no such correction.
    use cgte::datasets::{standin, StandinKind};
    let skewed = standin(StandinKind::Epinions, 60, &mut rng);
    let trivial = Partition::trivial(skewed.num_nodes());
    println!(
        "\nmean degree k_V on a degree-skewed graph (truth = {:.2}):",
        skewed.mean_degree()
    );
    println!("{:>8} {:>12} {:>14}", "|S|", "BFS naive", "RW corrected");
    for s in [50usize, 200, 800] {
        let mut bfs_est = 0.0;
        let mut rw_est = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let bfs = BreadthFirst::new();
            let bfs_nodes = bfs.sample(&skewed, s, &mut rng);
            let bfs_sample = stream_of(&skewed, &trivial, &bfs_nodes, &bfs);
            bfs_est += mean_degree(&bfs_sample) / reps as f64;
            let rw = RandomWalk::new().burn_in(300);
            let rw_nodes = rw.sample(&skewed, s, &mut rng);
            let rw_sample = stream_of(&skewed, &trivial, &rw_nodes, &rw);
            rw_est += mean_degree(&rw_sample) / reps as f64;
        }
        println!("{s:>8} {bfs_est:>12.2} {rw_est:>14.2}");
    }
    // Category sizes still work *on average* under BFS here (uniform seed),
    // but each single BFS floods one community — the per-sample spread is
    // the failure mode:
    let reps = 40;
    let mut bfs_sq = 0.0;
    let mut rw_sq = 0.0;
    let truth = 150.0;
    let size_0 = |s: &ObservationStream| induced_sizes_acc(s.induced(), n as f64).unwrap()[0];
    for _ in 0..reps {
        let bfs = BreadthFirst::new();
        let bfs_nodes = bfs.sample(&pg.graph, 300, &mut rng);
        let b = stream_of(&pg.graph, &pg.partition, &bfs_nodes, &bfs);
        bfs_sq += (size_0(&b) - truth).powi(2) / reps as f64;
        let rw = RandomWalk::new().burn_in(300);
        let rw_nodes = rw.sample(&pg.graph, 300, &mut rng);
        let r = stream_of(&pg.graph, &pg.partition, &rw_nodes, &rw);
        rw_sq += (size_0(&r) - truth).powi(2) / reps as f64;
    }
    println!(
        "\ncategory-0 size at |S|=300: NRMSE(BFS) = {:.3} vs NRMSE(RW corrected) = {:.3}",
        bfs_sq.sqrt() / truth,
        rw_sq.sqrt() / truth
    );
    println!("BFS floods whichever community the seed lands in — huge per-sample");
    println!("variance and an uncorrectable degree bias (§8's case for probability");
    println!("samples).");
}
