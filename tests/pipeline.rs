//! End-to-end pipeline tests spanning every crate: generate → write →
//! read → sample → observe → estimate → export.

use cgte::datasets::{read_categories, read_edgelist, write_categories, write_edgelist};
use cgte::estimators::{estimate_category_graph, SizeMethod, StarSizeOptions};
use cgte::graph::generators::{planted_partition, PlantedConfig};
use cgte::graph::{CategoryGraph, Graph, NodeId, Partition};
use cgte::sampling::{
    DesignKind, NodeSampler, ObservationContext, ObservationStream, RandomWalk,
    UniformIndependence, WalkStats,
};
use cgte::viz::{to_dot, to_graphml, to_json, ExportOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Cursor;

/// `nodes` drawn by `sampler`, folded into a stream under `design`.
fn stream_of<S: NodeSampler>(
    g: &Graph,
    p: &Partition,
    nodes: &[NodeId],
    sampler: &S,
    design: DesignKind,
) -> ObservationStream {
    let mut stream = ObservationStream::new(p.num_categories());
    stream.ingest_sampler(&ObservationContext::new(g, p), nodes, sampler, design);
    stream
}

#[test]
fn full_pipeline_round_trip() {
    let mut rng = StdRng::seed_from_u64(10);
    let cfg = PlantedConfig {
        category_sizes: vec![60, 120, 240],
        k: 6,
        alpha: 0.3,
    };
    let pg = planted_partition(&cfg, &mut rng).unwrap();

    // Serialize and re-load the dataset through the text formats.
    let mut graph_buf = Vec::new();
    write_edgelist(&pg.graph, &mut graph_buf).unwrap();
    let mut cat_buf = Vec::new();
    write_categories(&pg.partition, &mut cat_buf).unwrap();
    let g = read_edgelist(Cursor::new(graph_buf)).unwrap();
    let p = read_categories(Cursor::new(cat_buf), g.num_nodes()).unwrap();
    assert_eq!(g, pg.graph);
    assert_eq!(p, pg.partition);

    // Crawl and estimate: the walk pushes each node as it draws it.
    let rw = RandomWalk::new().burn_in(300);
    let mut stream = ObservationStream::new(p.num_categories());
    stream
        .ingest_walk(
            &ObservationContext::new(&g, &p),
            &rw,
            DesignKind::Weighted,
            3000,
            &mut rng,
            &mut WalkStats::default(),
        )
        .unwrap();
    let est = estimate_category_graph(
        &stream,
        g.num_nodes() as f64,
        SizeMethod::Star(StarSizeOptions::default()),
    );

    // Estimates should be in the right ballpark.
    let exact = CategoryGraph::exact(&g, &p);
    for c in 0..3u32 {
        let t = exact.size(c);
        let e = est.size(c);
        assert!((e - t).abs() / t < 0.3, "category {c}: {e} vs {t}");
    }
    for a in 0..3u32 {
        for b in (a + 1)..3u32 {
            let t = exact.weight(a, b);
            let e = est.weight(a, b);
            assert!((e - t).abs() / t < 0.4, "edge ({a},{b}): {e} vs {t}");
        }
    }

    // Exports must mention every category and be non-trivial.
    let opts = ExportOptions::default();
    let dot = to_dot(&est, &opts);
    let json = to_json(&est, &opts);
    let xml = to_graphml(&est, &opts);
    for c in 0..3 {
        assert!(dot.contains(&format!("n{c} [")), "dot missing node {c}");
        assert!(
            json.contains(&format!("\"id\": {c}")),
            "json missing node {c}"
        );
        assert!(
            xml.contains(&format!("<node id=\"n{c}\"")),
            "graphml missing node {c}"
        );
    }
    assert!(dot.contains(" -- "), "dot has no edges");
}

#[test]
fn uniform_design_equals_unit_weight_sample() {
    // A weighted sampler's draw pushed under DesignKind::Uniform must equal
    // the same draw pushed with unit weights — the §4 formulas are the §5
    // formulas with w ≡ 1, and the design is fixed at ingest.
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = PlantedConfig {
        category_sizes: vec![80, 160],
        k: 6,
        alpha: 0.5,
    };
    let pg = planted_partition(&cfg, &mut rng).unwrap();
    let rw = RandomWalk::new();
    let nodes = rw.sample(&pg.graph, 800, &mut rng);
    let uniform = stream_of(&pg.graph, &pg.partition, &nodes, &rw, DesignKind::Uniform);
    let mut unit = ObservationStream::new(2);
    unit.ingest_uniform(&ObservationContext::new(&pg.graph, &pg.partition), &nodes);
    assert_eq!(uniform, unit);
    // And the weighted reading of the same draw differs.
    assert_ne!(
        stream_of(&pg.graph, &pg.partition, &nodes, &rw, DesignKind::Weighted),
        unit
    );
}

#[test]
fn multiwalk_combination_improves_estimates() {
    use cgte::sampling::run_walks;
    let mut rng = StdRng::seed_from_u64(12);
    let cfg = PlantedConfig {
        category_sizes: vec![100, 400],
        k: 8,
        alpha: 0.4,
    };
    let pg = planted_partition(&cfg, &mut rng).unwrap();
    let rw = RandomWalk::new().burn_in(200);
    let mw = run_walks(&rw, &pg.graph, 10, 400, &mut rng);
    let n = pg.graph.num_nodes() as f64;

    // Per-walk estimates scatter around the truth; the combined sample's
    // estimate should have error no worse than the median per-walk error.
    let star = SizeMethod::Star(StarSizeOptions::default());
    let estimate = |nodes: &[u32]| {
        let stream = stream_of(&pg.graph, &pg.partition, nodes, &rw, DesignKind::Weighted);
        estimate_category_graph(&stream, n, star).size(0)
    };
    let mut walk_errors: Vec<f64> = (0..mw.num_walks())
        .map(|i| (estimate(mw.walk(i)) - 100.0).abs())
        .collect();
    walk_errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let combined_error = (estimate(&mw.combined()) - 100.0).abs();
    let median_err = walk_errors[walk_errors.len() / 2];
    assert!(
        combined_error <= median_err + 1e-9,
        "combined {combined_error} vs median per-walk {median_err}"
    );
}

#[test]
fn population_estimate_feeds_size_estimator() {
    // §4.3: when N is unknown, estimate it from collisions and plug it in.
    use cgte::estimators::category_size::induced_sizes_acc;
    use cgte::estimators::population::population_size_uniform;
    let mut rng = StdRng::seed_from_u64(13);
    let cfg = PlantedConfig {
        category_sizes: vec![200, 600],
        k: 6,
        alpha: 0.2,
    };
    let pg = planted_partition(&cfg, &mut rng).unwrap();
    let nodes = UniformIndependence.sample(&pg.graph, 1500, &mut rng);
    let n_hat = population_size_uniform(&nodes).expect("collisions at this size");
    assert!((n_hat - 800.0).abs() / 800.0 < 0.25, "N̂ = {n_hat}");
    let uis = UniformIndependence;
    let s = stream_of(&pg.graph, &pg.partition, &nodes, &uis, DesignKind::Uniform);
    assert_eq!(s.num_categories(), 2);
    let est = induced_sizes_acc(s.induced(), n_hat).unwrap()[0];
    assert!(
        (est - 200.0).abs() / 200.0 < 0.3,
        "|Â| = {est} using N̂ = {n_hat}"
    );
}
