//! `/metrics` exposition-format tests: boot the service on a real
//! socket, drive a scripted session, scrape, and validate the body with
//! the strict Prometheus text parser from `cgte-obs` — every family
//! declared with HELP + TYPE, histogram buckets cumulative and
//! monotone, `_sum`/`_count` consistent — plus the endpoint-accounting
//! contract: scrape traffic (`/healthz`, `/metrics`) is counted under
//! its own endpoint label and **excluded** from the aggregate request
//! counter. The per-session heap gauge reads the open sessions' stream
//! and walk-buffer memory and drops back when they close.

mod common;

use cgte_obs::promtext;
use cgte_serve::client::Client;
use cgte_serve::{ServeConfig, Server};
use common::{planted, temp_store, write_graph};

/// Sums one endpoint-labelled counter family by label.
fn endpoint_counts(exp: &promtext::Exposition, family: &str) -> Vec<(String, f64)> {
    exp.samples
        .iter()
        .filter(|s| s.name == family)
        .map(|s| {
            (
                s.label("endpoint").expect("endpoint label").to_string(),
                s.value,
            )
        })
        .collect()
}

#[test]
fn exposition_validates_and_endpoint_accounting_is_exact() {
    let dir = temp_store("expo");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&ServeConfig {
        cache_dir: dir,
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A scripted mix: listing, a full session lifecycle, an error path,
    // and scrape traffic that must stay out of the aggregate counter.
    let (st, _) = client.request("GET", "/graphs", "").unwrap();
    assert_eq!(st, 200);
    let (st, body) = client
        .request(
            "POST",
            "/sessions",
            "{\"graph\":\"planted\",\"sampler\":\"mhrw\",\"seed\":9}",
        )
        .unwrap();
    assert_eq!(st, 200, "{body}");
    let (st, _) = client
        .request("POST", "/sessions/s0/ingest", "{\"steps\":300}")
        .unwrap();
    assert_eq!(st, 200);
    let (st, _) = client.request("GET", "/sessions/s0/estimate", "").unwrap();
    assert_eq!(st, 200);
    let (st, _) = client
        .request("GET", "/sessions/nope/estimate", "")
        .unwrap();
    assert_eq!(st, 404);
    // First scrape, with s0 live: its heap bytes cover at least its
    // stream's one 300-entry push log of 12-byte entries plus the induced
    // block directory over the graph's nodes (one u32 per 64 nodes), the
    // shared zero block and one 512-byte mass block, all allocated at the
    // walk's first node with a neighbor in another category, of which
    // this planted graph has plenty. It is also counted under the metrics
    // endpoint label so the second scrape (the one we validate) can see it.
    let (st, live) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(st, 200);
    promtext::validate(&live).unwrap_or_else(|e| panic!("invalid exposition: {e:?}"));
    let live_heap = promtext::parse(&live)
        .unwrap()
        .value("cgte_serve_session_heap_bytes")
        .unwrap();
    let induced = g.num_nodes().div_ceil(64) * 4 + 2 * 512;
    assert!(
        live_heap >= (300 * 12 + induced) as f64,
        "live heap: {live_heap}"
    );
    let (st, _) = client.request("DELETE", "/sessions/s0", "").unwrap();
    assert_eq!(st, 200);
    let (st, _) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(st, 200);
    let (st, text) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(st, 200);
    server.shutdown();
    server.join();

    // The strict validator: TYPE of a known kind + HELP for every
    // family, finite counter values, cumulative monotone buckets,
    // `+Inf` == `_count`, `_sum`/`_count` present per histogram series.
    let stats = promtext::validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e:?}"));
    assert!(stats.families >= 14, "families: {}", stats.families);
    assert!(stats.histograms >= 2, "histograms: {}", stats.histograms);

    let exp = promtext::parse(&text).unwrap();
    assert_eq!(
        exp.types
            .get("cgte_serve_request_duration_seconds")
            .map(String::as_str),
        Some("histogram")
    );
    assert_eq!(
        exp.types
            .get("cgte_serve_response_size_bytes")
            .map(String::as_str),
        Some("histogram")
    );
    assert_eq!(
        exp.types
            .get("cgte_serve_session_heap_bytes")
            .map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        exp.value("cgte_serve_session_heap_bytes"),
        Some(0.0),
        "closed sessions hold no accounted heap"
    );

    // Endpoint accounting: scrape endpoints appear under their own
    // label, and the aggregate counter is exactly the non-scrape sum.
    let by_endpoint = endpoint_counts(&exp, "cgte_serve_endpoint_requests_total");
    let count_of = |label: &str| {
        by_endpoint
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    assert_eq!(count_of("healthz"), 1.0);
    assert_eq!(
        count_of("metrics"),
        1.0,
        "first scrape counted, second in flight"
    );
    assert_eq!(count_of("ingest"), 1.0);
    assert_eq!(
        count_of("estimate"),
        2.0,
        "valid + 404 path share the shape"
    );
    let aggregate = exp.value("cgte_serve_requests_total").unwrap();
    let non_scrape: f64 = by_endpoint
        .iter()
        .filter(|(l, _)| l != "healthz" && l != "metrics")
        .map(|(_, v)| v)
        .sum();
    assert_eq!(
        aggregate, non_scrape,
        "aggregate must exclude scrape traffic"
    );

    // Histogram `_count` agrees with the endpoint hit counter.
    let estimate_count = exp
        .samples
        .iter()
        .find(|s| {
            s.name == "cgte_serve_request_duration_seconds_count"
                && s.label("endpoint") == Some("estimate")
        })
        .expect("estimate latency histogram present")
        .value;
    assert_eq!(estimate_count, 2.0);

    // Server-side walk accounting: 300 MHRW transitions, some rejected.
    let steps = exp.value("cgte_serve_walk_steps_total").unwrap();
    let rejections = exp.value("cgte_serve_walk_rejections_total").unwrap();
    assert_eq!(steps, 300.0);
    assert!(
        rejections > 0.0 && rejections < steps,
        "rejections: {rejections}"
    );
}
