//! The paper's §7.3.3 workflow: a college-to-college friendship graph from
//! a stratified weighted random walk (S-WRW).
//!
//! ```sh
//! cargo run --release --example college_graph
//! ```
//!
//! Colleges cover only a few percent of the population, so a plain random
//! walk barely touches them (0–10 samples per college in the paper). This
//! example shows S-WRW's stratification fixing that, then estimates the
//! college category graph with star size estimation — the configuration
//! the paper found best for the 2010 data.

use cgte::datasets::{FacebookSim, FacebookSimConfig};
use cgte::estimators::{estimate_category_graph, SizeMethod, StarSizeOptions};
use cgte::sampling::{
    DesignKind, NodeSampler, ObservationContext, ObservationStream, RandomWalk, Swrw,
};
use cgte::viz::{top_edges_report, ExportOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2010);
    let cfg = FacebookSimConfig {
        num_users: 20_000,
        num_regions: 60,
        num_countries: 10,
        num_colleges: 100,
        ..Default::default()
    };
    println!(
        "simulating a Facebook-like population ({} users)...",
        cfg.num_users
    );
    let sim = FacebookSim::generate(&cfg, &mut rng);
    let colleges = &sim.colleges;
    let n_colleges = cfg.num_colleges;
    let population = sim.graph.num_nodes() as f64;
    let sample_size = 6000;

    // Plain RW: colleges are ~3.5% of users, so few samples land in them.
    let rw = RandomWalk::new().burn_in(500);
    let rw_nodes = rw.sample(&sim.graph, sample_size, &mut rng);
    let rw_hits = rw_nodes
        .iter()
        .filter(|&&v| (colleges.category_of(v) as usize) < n_colleges)
        .count();

    // S-WRW stratified toward colleges (β = 0.5: strong boost for rare
    // categories without the β = 1 trapping; see ablation A3).
    let swrw = Swrw::stratified(&sim.graph, colleges, 0.5)
        .expect("college partition has volume")
        .burn_in(500);
    let sw_nodes = swrw.sample(&sim.graph, sample_size, &mut rng);
    let sw_hits = sw_nodes
        .iter()
        .filter(|&&v| (colleges.category_of(v) as usize) < n_colleges)
        .count();
    println!(
        "college samples out of {sample_size}: RW = {rw_hits} ({:.1}%), S-WRW = {sw_hits} ({:.1}%)",
        100.0 * rw_hits as f64 / sample_size as f64,
        100.0 * sw_hits as f64 / sample_size as f64,
    );

    // Estimate the college graph from the S-WRW sample with star sizes.
    let mut stream = ObservationStream::new(colleges.num_categories());
    stream.ingest_sampler(
        &ObservationContext::new(&sim.graph, colleges),
        &sw_nodes,
        &swrw,
        DesignKind::Weighted,
    );
    let sizes = SizeMethod::Star(StarSizeOptions::default());
    let est = estimate_category_graph(&stream, population, sizes);

    let mut labels: Vec<String> = (0..n_colleges).map(|c| format!("college-{c:02}")).collect();
    labels.push("no-college".into());
    let opts = ExportOptions {
        labels,
        min_weight: 0.0,
        ..Default::default()
    };
    println!("\n{}", top_edges_report(&est, &opts, 12));

    // How close are the size estimates for the five biggest colleges?
    println!("{:>12} {:>10} {:>10}", "college", "true |A|", "est |A|");
    for c in 0..5u32 {
        println!(
            "{:>12} {:>10} {:>10.1}",
            format!("college-{c:02}"),
            colleges.category_size(c),
            est.size(c)
        );
    }
}
