//! Quickstart: estimate a category graph from a random-walk sample.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates the paper's synthetic graph (scaled down), crawls it with a
//! simple random walk, and estimates every category size and inter-category
//! edge weight from the crawl — then compares against the exact values,
//! which are computable here because the graph is fully known.

use cgte::estimators::{estimate_category_graph, SizeMethod, StarSizeOptions};
use cgte::graph::generators::{planted_partition, PlantedConfig};
use cgte::graph::CategoryGraph;
use cgte::sampling::{DesignKind, ObservationContext, ObservationStream, RandomWalk, WalkStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. A graph whose nodes belong to 6 categories of very different
    //    sizes (the paper's §6.2.1 model), with moderate community
    //    structure (alpha = 0.5).
    let config = PlantedConfig {
        category_sizes: vec![100, 200, 400, 800, 1600, 3200],
        k: 10,
        alpha: 0.5,
    };
    let pg = planted_partition(&config, &mut rng).expect("feasible configuration");
    let n = pg.graph.num_nodes();
    println!(
        "graph: {} nodes, {} edges, {} categories",
        n,
        pg.graph.num_edges(),
        pg.partition.num_categories()
    );

    // 2. Crawl it: a simple random walk visits ~5% of the graph. The walk
    //    oversamples high-degree nodes; its stationary weight is deg(v).
    // 3. Observe each sampled node as the walk draws it: the crawler sees
    //    its category, degree, and its neighbors' categories (the star
    //    scenario), pushed with its walk weight (the weighted design).
    let rw = RandomWalk::new().burn_in(500);
    let mut stream = ObservationStream::new(pg.partition.num_categories());
    stream
        .ingest_walk(
            &ObservationContext::new(&pg.graph, &pg.partition),
            &rw,
            DesignKind::Weighted,
            n / 10,
            &mut rng,
            &mut WalkStats::default(),
        )
        .expect("the graph has edges");

    // 4. Estimate the full category graph, correcting for the walk's bias.
    let sizes = SizeMethod::Star(StarSizeOptions::default());
    let est = estimate_category_graph(&stream, n as f64, sizes);

    // 5. Compare to the exact category graph.
    let exact = CategoryGraph::exact(&pg.graph, &pg.partition);
    println!(
        "\n{:>4} {:>12} {:>12} {:>8}",
        "cat", "true |A|", "est |A|", "err%"
    );
    for c in 0..exact.num_categories() as u32 {
        let t = exact.size(c);
        let e = est.size(c);
        println!(
            "{c:>4} {t:>12.0} {e:>12.1} {:>7.1}%",
            100.0 * (e - t).abs() / t
        );
    }

    let mut pairs: Vec<_> = exact.edges_by_weight().into_iter().take(5).collect();
    pairs.sort_by_key(|a| (a.a, a.b));
    println!(
        "\n{:>9} {:>12} {:>12} {:>8}",
        "edge", "true w", "est w", "err%"
    );
    for e in pairs {
        let t = e.weight;
        let w = est.weight(e.a, e.b);
        println!(
            "{:>4}-{:<4} {t:>12.3e} {w:>12.3e} {:>7.1}%",
            e.a,
            e.b,
            100.0 * (w - t).abs() / t
        );
    }
    println!(
        "\nSample was {} nodes ({}% of the graph).",
        stream.len(),
        100 * stream.len() / n
    );
}
