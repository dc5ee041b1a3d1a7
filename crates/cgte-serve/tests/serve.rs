//! End-to-end tests of the estimation service over a real TCP socket:
//! boot on an ephemeral port, drive a scripted session with a plain
//! `std::net::TcpStream` client, and pin the estimate JSON **bit-exactly**
//! against the batch path's numbers — the same sampled sequence through
//! `run_experiment`'s snapshot function must reproduce every value the
//! server returned, down to the last ulp (shortest round-trip JSON
//! floats).

mod common;

use cgte_core::{estimate_stream, StarSizeOptions};
use cgte_eval::{nrmse_from_errors, run_experiment, ExperimentConfig, Target};
use cgte_graph::{NodeId, Partition};
use cgte_sampling::{
    AnySampler, DesignKind, NodeSampler, ObservationContext, ObservationStream, RandomWalk,
};
use cgte_scenarios::artifact::{parse_json, Json};
use cgte_serve::client::Client;
use cgte_serve::{ServeConfig, Server};
use common::{planted, temp_store, write_graph, RequestOk};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0x5EED;

fn f64_at<'a>(v: &'a Json, path: &[&str]) -> &'a Json {
    let mut cur = v;
    for k in path {
        cur = cur.get(k).unwrap_or_else(|| panic!("missing key {k:?}"));
    }
    cur
}

fn as_f64(v: &Json) -> f64 {
    match v {
        Json::Num(x) => *x,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn scripted_session_estimates_are_bit_identical_to_batch_path() {
    let dir = temp_store("golden");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&ServeConfig {
        cache_dir: dir.clone(),
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // /graphs lists the entry without loading it.
    let (st, body) = client.request_ok("GET", "/graphs", "");
    assert_eq!(st, 200, "{body}");
    let v = parse_json(&body).unwrap();
    let graphs = match v.get("graphs").unwrap() {
        Json::Arr(a) => a,
        other => panic!("graphs not an array: {other:?}"),
    };
    assert_eq!(graphs.len(), 1);
    assert_eq!(
        f64_at(&graphs[0], &["name"]),
        &Json::Str("planted".to_string())
    );
    assert_eq!(as_f64(f64_at(&graphs[0], &["nodes"])), 280.0);

    // Open a weighted RW session and feed it the exact sequence the batch
    // experiment runner draws for replication 0 of this seed.
    let (st, body) = client.request_ok(
        "POST",
        "/sessions",
        &format!(
            "{{\"graph\":\"planted\",\"partition\":\"main\",\"sampler\":\"rw\",\"seed\":{SEED}}}"
        ),
    );
    assert_eq!(st, 200, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(v.get("session").unwrap(), &Json::Str("s0".to_string()));
    assert_eq!(as_f64(v.get("num_categories").unwrap()), 3.0);

    let rw = RandomWalk::new();
    let sample_size = 400usize;
    let nodes = rw.sample(&g, sample_size, &mut StdRng::seed_from_u64(SEED));
    let ids: Vec<String> = nodes.iter().map(|v| v.to_string()).collect();
    let (st, body) = client.request_ok(
        "POST",
        "/sessions/s0/ingest",
        &format!("{{\"nodes\":[{}]}}", ids.join(",")),
    );
    assert_eq!(st, 200, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(as_f64(v.get("len").unwrap()), sample_size as f64);

    let (st, body) = client.request_ok("GET", "/sessions/s0/estimate", "");
    assert_eq!(st, 200, "{body}");

    // The batch path: same sequence through the same streaming kernel.
    let ctx = ObservationContext::new(&g, &p);
    let mut stream = ObservationStream::new(p.num_categories());
    stream.ingest_sampler(&ctx, &nodes, &rw, DesignKind::Weighted);
    let expected = estimate_stream(&stream, g.num_nodes() as f64, &StarSizeOptions::default());

    let v = parse_json(&body).unwrap();
    let got_induced = match f64_at(&v, &["sizes", "induced"]) {
        Json::Arr(a) => a.iter().map(as_f64).collect::<Vec<_>>(),
        other => panic!("sizes.induced: {other:?}"),
    };
    assert_eq!(got_induced.len(), 3);
    for (c, (&got, &want)) in got_induced.iter().zip(&expected.sizes_induced).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "induced size of category {c}: {got} vs {want}"
        );
    }
    let got_star = match f64_at(&v, &["sizes", "star"]) {
        Json::Arr(a) => a
            .iter()
            .map(|x| match x {
                Json::Null => None,
                other => Some(as_f64(other)),
            })
            .collect::<Vec<_>>(),
        other => panic!("sizes.star: {other:?}"),
    };
    for (c, (got, want)) in got_star.iter().zip(&expected.sizes_star).enumerate() {
        match (got, want) {
            (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits(), "star size {c}"),
            (None, None) => {}
            other => panic!("star size {c} definedness mismatch: {other:?}"),
        }
    }
    for key in ["induced", "star"] {
        let triplets = match f64_at(&v, &["weights", key]) {
            Json::Arr(a) => a,
            other => panic!("weights.{key}: {other:?}"),
        };
        let want = if key == "induced" {
            &expected.weights_induced
        } else {
            &expected.weights_star
        };
        let want_nonzero: Vec<(u32, u32, f64)> = want.iter_nonzero().collect();
        assert_eq!(triplets.len(), want_nonzero.len(), "weights.{key} count");
        for (t, (a, b, w)) in triplets.iter().zip(want_nonzero) {
            let arr = match t {
                Json::Arr(x) => x,
                other => panic!("triplet: {other:?}"),
            };
            assert_eq!(as_f64(&arr[0]) as u32, a);
            assert_eq!(as_f64(&arr[1]) as u32, b);
            assert_eq!(
                as_f64(&arr[2]).to_bits(),
                w.to_bits(),
                "weights.{key}[{a},{b}]"
            );
        }
    }

    // Close the loop against run_experiment itself: one replication, one
    // prefix size — its recorded NRMSE must equal the NRMSE recomputed
    // from the server's estimate values, bit for bit.
    let cfg = ExperimentConfig::new(vec![sample_size], 1).seed(SEED);
    let targets = [Target::Size(2), Target::Weight(0, 1)];
    let res = run_experiment(&g, &p, &AnySampler::Rw(RandomWalk::new()), &targets, &cfg);
    let truth_size = res.truth(Target::Size(2)).unwrap();
    let serve_size = got_induced[2];
    let expect_nrmse = nrmse_from_errors((serve_size - truth_size).powi(2), 1, truth_size).unwrap();
    let got_nrmse = res
        .nrmse(cgte_eval::EstimatorKind::InducedSize, Target::Size(2))
        .unwrap()[0];
    assert_eq!(
        got_nrmse.to_bits(),
        expect_nrmse.to_bits(),
        "run_experiment NRMSE vs serve-derived NRMSE"
    );

    // Determinism golden: a second identical session returns a byte-for-
    // byte identical estimate document (modulo the session id).
    let (st, body2) = client.request_ok(
        "POST",
        "/sessions",
        &format!(
            "{{\"graph\":\"planted\",\"partition\":\"main\",\"sampler\":\"rw\",\"seed\":{SEED}}}"
        ),
    );
    assert_eq!(st, 200, "{body2}");
    let (_, _) = client.request_ok(
        "POST",
        "/sessions/s1/ingest",
        &format!("{{\"nodes\":[{}]}}", ids.join(",")),
    );
    let (_, est2) = client.request_ok("GET", "/sessions/s1/estimate", "");
    assert_eq!(est2.replace("\"s1\"", "\"s0\""), body);

    // Zero builds ever: the health endpoint pins the invariant.
    let (_, health) = client.request_ok("GET", "/healthz", "");
    let h = parse_json(&health).unwrap();
    assert_eq!(as_f64(h.get("builds").unwrap()), 0.0);
    assert_eq!(as_f64(h.get("loads").unwrap()), 1.0);

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_side_walk_matches_batch_draw_and_surfaces_422() {
    let dir = temp_store("walk");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    // An edgeless graph to exercise the typed sampler error end to end.
    let edgeless = cgte_graph::GraphBuilder::new(5).build();
    let ep = Partition::from_assignments(vec![0; 5], 1).unwrap();
    write_graph(&dir, "edgeless", &edgeless, &ep);

    let server = Server::bind(&ServeConfig {
        cache_dir: dir.clone(),
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Server-side walk: one batch of n steps is bit-identical to the
    // local sampler draw with the same seed.
    let (st, _) = client.request_ok(
        "POST",
        "/sessions",
        &format!("{{\"graph\":\"planted\",\"sampler\":\"rw\",\"seed\":{SEED}}}"),
    );
    assert_eq!(st, 200);
    let (st, body) = client.request_ok("POST", "/sessions/s0/ingest", "{\"steps\":300}");
    assert_eq!(st, 200, "{body}");
    let (_, est_served) = client.request_ok("GET", "/sessions/s0/estimate", "");

    let rw = RandomWalk::new();
    let nodes: Vec<NodeId> = rw.sample(&g, 300, &mut StdRng::seed_from_u64(SEED));
    let ctx = ObservationContext::new(&g, &p);
    let mut stream = ObservationStream::new(p.num_categories());
    stream.ingest_sampler(&ctx, &nodes, &rw, DesignKind::Weighted);
    let expected = estimate_stream(&stream, g.num_nodes() as f64, &StarSizeOptions::default());
    let v = parse_json(&est_served).unwrap();
    let got = match f64_at(&v, &["sizes", "induced"]) {
        Json::Arr(a) => a.iter().map(as_f64).collect::<Vec<_>>(),
        other => panic!("{other:?}"),
    };
    for (got, want) in got.iter().zip(&expected.sizes_induced) {
        assert_eq!(got.to_bits(), want.to_bits());
    }

    // Sampler failure surfaces as 422 (typed SampleError), not 500.
    let (st, _) = client.request_ok(
        "POST",
        "/sessions",
        "{\"graph\":\"edgeless\",\"sampler\":\"rw\"}",
    );
    assert_eq!(st, 200);
    let (st, body) = client.request_ok("POST", "/sessions/s1/ingest", "{\"steps\":10}");
    assert_eq!(st, 422, "{body}");
    assert!(body.contains("edgeless"), "{body}");

    // Bad inputs: unknown graph 404, bad sampler 422, bad JSON 400,
    // out-of-range node 422, unknown session 404.
    let (st, _) = client.request_ok("POST", "/sessions", "{\"graph\":\"nope\"}");
    assert_eq!(st, 404);
    let (st, _) = client.request_ok(
        "POST",
        "/sessions",
        "{\"graph\":\"planted\",\"sampler\":\"bogus\"}",
    );
    assert_eq!(st, 422);
    let (st, _) = client.request_ok("POST", "/sessions", "{not json");
    assert_eq!(st, 400);
    let (st, body) = client.request_ok("POST", "/sessions/s0/ingest", "{\"nodes\":[999999]}");
    assert_eq!(st, 422, "{body}");
    // `steps: null` is a typed 422, not a worker panic (a panicking
    // worker would shrink the pool for the server's lifetime).
    let (st, body) = client.request_ok("POST", "/sessions/s0/ingest", "{\"steps\":null}");
    assert_eq!(st, 422, "{body}");
    let (st, _) = client.request_ok("POST", "/sessions/s0/ingest", "{\"steps\":0}");
    assert_eq!(st, 422);
    let (st, _) = client.request_ok("GET", "/sessions/s99/estimate", "");
    assert_eq!(st, 404);

    // Bootstrap CIs: deterministic, bracket-shaped, session-scoped.
    let (st, ci1) = client.request_ok("GET", "/sessions/s0/estimate?ci=0.95&reps=50", "");
    assert_eq!(st, 200, "{ci1}");
    let (_, ci2) = client.request_ok("GET", "/sessions/s0/estimate?ci=0.95&reps=50", "");
    assert_eq!(ci1, ci2, "CI queries must be deterministic");
    let v = parse_json(&ci1).unwrap();
    let ci = v.get("ci").unwrap();
    assert_eq!(as_f64(ci.get("level").unwrap()), 0.95);
    let stars = match ci.get("sizes_star").unwrap() {
        Json::Arr(a) => a,
        other => panic!("{other:?}"),
    };
    assert_eq!(stars.len(), 3);
    for s in stars {
        if let Json::Obj(_) = s {
            let lo = as_f64(s.get("lo").unwrap());
            let hi = as_f64(s.get("hi").unwrap());
            assert!(lo <= hi);
        }
    }
    let (st, _) = client.request_ok("GET", "/sessions/s0/estimate?ci=1.5", "");
    assert_eq!(st, 422);

    // Session close.
    let (st, _) = client.request_ok("DELETE", "/sessions/s0", "");
    assert_eq!(st, 200);
    let (st, _) = client.request_ok("GET", "/sessions/s0/estimate", "");
    assert_eq!(st, 404);

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_sessions_across_connections() {
    let dir = temp_store("conc");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&ServeConfig {
        cache_dir: dir.clone(),
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let bodies: Vec<String> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move |_| {
                    let mut c = Client::connect(addr).unwrap();
                    let (st, body) = c
                        .request(
                            "POST",
                            "/sessions",
                            &format!(
                                "{{\"graph\":\"planted\",\"sampler\":\"uis\",\"seed\":{}}}",
                                100 + i
                            ),
                        )
                        .unwrap();
                    assert_eq!(st, 200, "{body}");
                    let id = match parse_json(&body).unwrap().get("session").unwrap() {
                        Json::Str(s) => s.clone(),
                        other => panic!("{other:?}"),
                    };
                    let (st, _) = c
                        .request("POST", &format!("/sessions/{id}/ingest"), "{\"steps\":200}")
                        .unwrap();
                    assert_eq!(st, 200);
                    let (st, est) = c
                        .request("GET", &format!("/sessions/{id}/estimate"), "")
                        .unwrap();
                    assert_eq!(st, 200);
                    est
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();
    assert_eq!(bodies.len(), 4);
    for b in &bodies {
        let v = parse_json(b).unwrap();
        assert_eq!(as_f64(v.get("len").unwrap()), 200.0);
    }
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mmap_and_heap_hosted_sessions_estimate_bit_identically() {
    // The zero-copy acceptance contract: the same scripted session on a
    // mapped-hosted graph and on a heap-hosted graph must produce the
    // exact same estimate JSON — shortest round-trip floats, so byte
    // equality of the bodies is f64::to_bits equality of every value.
    let dir = temp_store("mmap-id");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let rw = RandomWalk::new();
    let nodes = rw.sample(&g, 400, &mut StdRng::seed_from_u64(SEED));
    let ids: Vec<String> = nodes.iter().map(|v| v.to_string()).collect();

    let drive = |mmap: bool| -> String {
        let server = Server::bind(&ServeConfig {
            cache_dir: dir.clone(),
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            mmap,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let (st, body) = client.request_ok(
            "POST",
            "/sessions",
            &format!(
                "{{\"graph\":\"planted\",\"partition\":\"main\",\"sampler\":\"rw\",\"seed\":{SEED}}}"
            ),
        );
        assert_eq!(st, 200, "{body}");
        let (st, body) = client.request_ok(
            "POST",
            "/sessions/s0/ingest",
            &format!("{{\"nodes\":[{}]}}", ids.join(",")),
        );
        assert_eq!(st, 200, "{body}");
        let (st, est) = client.request_ok("GET", "/sessions/s0/estimate?ci=0.95", "");
        assert_eq!(st, 200, "{est}");
        // Either hosting mode performs zero builds.
        let (_, health) = client.request_ok("GET", "/healthz", "");
        let h = parse_json(&health).unwrap();
        assert_eq!(as_f64(h.get("builds").unwrap()), 0.0);
        server.shutdown();
        server.join();
        est
    };

    let mapped = drive(true);
    let heap = drive(false);
    assert_eq!(mapped, heap, "mapped vs heap estimate bodies diverge");
    std::fs::remove_dir_all(&dir).ok();
}
