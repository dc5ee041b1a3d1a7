//! The paper's §7.3.1 workflow: estimate a country-to-country friendship
//! graph from crawls of a Facebook-like population, then export it.
//!
//! ```sh
//! cargo run --release --example country_graph
//! ```
//!
//! Mirrors the paper's recipe: merge regional networks into countries,
//! estimate category sizes with the induced (counting) estimator under
//! UIS, feed those sizes into the star edge-weight estimators, and average
//! the per-crawl estimates. Prints the strongest links and a DOT rendering.

use cgte::datasets::{FacebookSim, FacebookSimConfig};
use cgte::estimators::{estimate_category_graph, SizeMethod};
use cgte::sampling::{
    DesignKind, NodeSampler, ObservationContext, ObservationStream, RandomWalk, UniformIndependence,
};
use cgte::viz::{to_dot, top_edges_report, ExportOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2009);
    let cfg = FacebookSimConfig {
        num_users: 20_000,
        num_regions: 60,
        num_countries: 10,
        num_colleges: 80,
        ..Default::default()
    };
    println!(
        "simulating a Facebook-like population ({} users)...",
        cfg.num_users
    );
    let sim = FacebookSim::generate(&cfg, &mut rng);
    let countries = sim.countries();
    let population = sim.graph.num_nodes() as f64;

    // Two independent crawls, as the paper combines multiple techniques.
    let ctx = ObservationContext::new(&sim.graph, &countries);
    let uis_nodes = UniformIndependence.sample(&sim.graph, 4000, &mut rng);
    let mut uis = ObservationStream::new(countries.num_categories());
    uis.ingest_uniform(&ctx, &uis_nodes);
    let rw = RandomWalk::new().burn_in(500);
    let rw_nodes = rw.sample(&sim.graph, 4000, &mut rng);
    let mut walk = ObservationStream::new(countries.num_categories());
    walk.ingest_sampler(&ctx, &rw_nodes, &rw, DesignKind::Weighted);

    // §7.3.1: induced sizes (UIS counting did best), star edge weights.
    let est_uis = estimate_category_graph(&uis, population, SizeMethod::Induced);
    let est_rw = estimate_category_graph(&walk, population, SizeMethod::Induced);

    // Average the two estimates edge-wise.
    let num_c = countries.num_categories();
    let sizes: Vec<f64> = (0..num_c as u32)
        .map(|c| (est_uis.size(c) + est_rw.size(c)) / 2.0)
        .collect();
    let mut weights = cgte::graph::CategoryMatrix::zeros(num_c);
    for e in est_uis.edges() {
        weights.add(e.a, e.b, e.weight / 2.0);
    }
    for e in est_rw.edges() {
        weights.add(e.a, e.b, e.weight / 2.0);
    }
    let avg = cgte::graph::CategoryGraph::from_weights(sizes, weights);

    let mut labels: Vec<String> = (0..cfg.num_countries)
        .map(|c| format!("country-{c}"))
        .collect();
    labels.push("undeclared".into());
    let opts = ExportOptions {
        labels,
        top_k: 15,
        ..Default::default()
    };
    println!("\n{}", top_edges_report(&avg, &opts, 10));
    println!("--- DOT (paste into graphviz) ---\n{}", to_dot(&avg, &opts));
}
