//! Durability tests of the session snapshot endpoints, plus the
//! robustness satellites: a session checkpointed to disk, the server
//! killed, and the session rehydrated on a fresh process must continue
//! **bit-exactly** — the restored walk draws the same nodes and the
//! estimate documents match byte for byte. Also covers TTL eviction,
//! the `--max-sessions` 429 backpressure path (with `Retry-After`),
//! and the `/metrics` Prometheus exposition.

mod common;

use cgte_graph::store::Section;
use cgte_sampling::snapshot;
use cgte_scenarios::artifact::{parse_json, Json};
use cgte_serve::client::Client;
use cgte_serve::{ServeConfig, Server};
use common::{planted, temp_store, write_graph, RequestOk};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

const SEED: u64 = 0x5EED;

fn boot(dir: &Path, cfg: impl FnOnce(ServeConfig) -> ServeConfig) -> Server {
    Server::bind(&cfg(ServeConfig {
        cache_dir: dir.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    }))
    .unwrap()
}

/// One `Connection: close` request over a raw socket, returning the full
/// response text — the only way to see status line *and* headers, which
/// the shared client does not expose.
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    s.write_all(body).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// Like [`raw_request`] but parsed, for binary bodies (`.cgtes` bytes in
/// either direction).
fn bytes_request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    w.write_all(body).unwrap();
    w.flush().unwrap();
    let resp = cgte_serve::http::read_response(&mut BufReader::new(stream)).unwrap();
    (resp.status, resp.body)
}

fn session_id(body: &str) -> String {
    match parse_json(body).unwrap().get("session") {
        Some(Json::Str(id)) => id.clone(),
        other => panic!("no session id in {body}: {other:?}"),
    }
}

fn json_u64(body: &str, key: &str) -> u64 {
    match parse_json(body).unwrap().get(key) {
        Some(Json::Num(x)) => *x as u64,
        other => panic!("{key} not a number in {body}: {other:?}"),
    }
}

/// The tentpole end-to-end: checkpoint a live walking session to disk,
/// kill the server process (drop it entirely), boot a fresh one on the
/// same store, restore — and the continued session must produce the
/// byte-identical estimate the uninterrupted one did, because the
/// snapshot carries the push log *and* the walker's RNG state.
#[test]
fn killed_server_restores_sessions_bit_exactly() {
    let dir = temp_store("kill-restore");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);

    let first = boot(&dir, |c| c);
    let addr = first.addr();
    let mut client = Client::connect(addr).unwrap();

    let (st, body) = client.request_ok(
        "POST",
        "/sessions",
        &format!(
            "{{\"graph\":\"planted\",\"partition\":\"main\",\"sampler\":\"rw\",\"seed\":{SEED}}}"
        ),
    );
    assert_eq!(st, 200, "{body}");
    let (st, _) = client.request_ok("POST", "/sessions/s0/ingest", "{\"steps\":300}");
    assert_eq!(st, 200);

    // Checkpoint at 300 samples, then keep walking to 450 and record the
    // uninterrupted continuation's estimate.
    let (st, body) = client.request_ok("POST", "/sessions/s0/snapshot", "");
    assert_eq!(st, 200, "{body}");
    assert_eq!(json_u64(&body, "len"), 300);
    assert!(json_u64(&body, "bytes") > 0);
    let (st, _) = client.request_ok("POST", "/sessions/s0/ingest", "{\"steps\":150}");
    assert_eq!(st, 200);
    let (st, uninterrupted) = client.request_ok("GET", "/sessions/s0/estimate", "");
    assert_eq!(st, 200);

    // Kill the process. Only the .cgtes file survives.
    drop(client);
    first.shutdown();
    first.join();
    assert!(dir.join("sessions").join("s0.cgtes").is_file());

    let second = boot(&dir, |c| c);
    let mut client = Client::connect(second.addr()).unwrap();
    let (st, body) = client.request_ok("POST", "/sessions/restore", "{\"snapshot\":\"s0\"}");
    assert_eq!(st, 200, "{body}");
    let v = parse_json(&body).unwrap();
    assert_eq!(v.get("session").unwrap(), &Json::Str("s0".to_string()));
    assert_eq!(v.get("restored").unwrap(), &Json::Bool(true));
    assert_eq!(json_u64(&body, "len"), 300);

    // The restored walker re-draws the exact same 150 steps.
    let (st, _) = client.request_ok("POST", "/sessions/s0/ingest", "{\"steps\":150}");
    assert_eq!(st, 200);
    let (st, restored) = client.request_ok("GET", "/sessions/s0/estimate", "");
    assert_eq!(st, 200);
    assert_eq!(
        restored, uninterrupted,
        "continuation diverged after restore"
    );

    second.shutdown();
    second.join();
}

/// The binary route: download the `.cgtes` over HTTP, restore it by
/// POSTing the raw bytes back, and get an equivalent session — the
/// transport a sharded coordinator uses.
#[test]
fn snapshot_bytes_roundtrip_over_http() {
    let dir = temp_store("bytes");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = boot(&dir, |c| c);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    client.request_ok(
        "POST",
        "/sessions",
        &format!("{{\"graph\":\"planted\",\"sampler\":\"mhrw\",\"seed\":{SEED}}}"),
    );
    client.request_ok("POST", "/sessions/s0/ingest", "{\"steps\":120}");
    let (_, original) = client.request_ok("GET", "/sessions/s0/estimate", "");

    let (st, bytes) = bytes_request(addr, "GET", "/sessions/s0/snapshot", b"");
    assert_eq!(st, 200);
    assert!(bytes.starts_with(snapshot::MAGIC), "missing CGTES magic");

    let (st, body) = bytes_request(addr, "POST", "/sessions/restore", &bytes);
    assert_eq!(st, 200, "{}", String::from_utf8_lossy(&body));
    let body = String::from_utf8(body).unwrap();
    assert_eq!(json_u64(&body, "len"), 120);

    // The twin session reports the same estimate (modulo its id).
    let (st, twin) = client.request_ok("GET", "/sessions/s1/estimate", "");
    assert_eq!(st, 200);
    assert_eq!(twin.replace("\"s1\"", "\"s0\""), original);

    server.shutdown();
    server.join();
}

/// Hostile restore inputs fail with clean, typed HTTP errors.
#[test]
fn restore_rejects_bad_input() {
    let dir = temp_store("bad-restore");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = boot(&dir, |c| c);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // Unknown snapshot name.
    let (st, _) = client.request_ok("POST", "/sessions/restore", "{\"snapshot\":\"nope\"}");
    assert_eq!(st, 404);
    // Path traversal in the name.
    let (st, _) = client.request_ok("POST", "/sessions/restore", "{\"snapshot\":\"../etc\"}");
    assert_eq!(st, 400);
    // Saving under a hostile name is refused too.
    client.request_ok(
        "POST",
        "/sessions",
        "{\"graph\":\"planted\",\"sampler\":\"uis\",\"seed\":7}",
    );
    client.request_ok("POST", "/sessions/s0/ingest", "{\"steps\":50}");
    let (st, _) = client.request_ok("POST", "/sessions/s0/snapshot?name=..%2Fx", "");
    assert_eq!(st, 400);

    // Corrupted and truncated snapshot bytes are 422, never a panic or a
    // silently shorter session.
    let (_, clean) = bytes_request(addr, "GET", "/sessions/s0/snapshot", b"");
    let mut corrupt = clean.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    let (st, _) = bytes_request(addr, "POST", "/sessions/restore", &corrupt);
    assert_eq!(st, 422);
    let (st, _) = bytes_request(addr, "POST", "/sessions/restore", &clean[..clean.len() - 7]);
    assert_eq!(st, 422);

    server.shutdown();
    server.join();
}

/// Every walk a session can run is bounded by `burn_in + steps·thinning`,
/// at open, at restore (a hostile `.cgtes` cannot smuggle in a huge
/// burn-in) and at ingest; rejections are 422 and leave the server live.
#[test]
fn walk_budget_bounds_open_restore_and_ingest() {
    use cgte_serve::session::{MAX_WALK_BUDGET, SEC_PARAMS};
    let dir = temp_store("budget");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = boot(&dir, |c| c);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    let (st, body) = client.request_ok(
        "POST",
        "/sessions",
        "{\"graph\":\"planted\",\"sampler\":\"rw\",\"burn_in\":1e12}",
    );
    assert_eq!(st, 422, "{body}");
    let (st, body) = client.request_ok(
        "POST",
        "/sessions",
        "{\"graph\":\"planted\",\"sampler\":\"rw\",\"thinning\":1e12}",
    );
    assert_eq!(st, 422, "{body}");

    // A burn-in that fits one step exactly opens; two steps do not fit.
    let (st, body) = client.request_ok(
        "POST",
        "/sessions",
        &format!(
            "{{\"graph\":\"planted\",\"sampler\":\"rw\",\"burn_in\":{}}}",
            MAX_WALK_BUDGET - 1
        ),
    );
    assert_eq!(st, 200, "{body}");
    let id = session_id(&body);
    let (st, _) = client.request_ok("POST", &format!("/sessions/{id}/ingest"), "{\"steps\":2}");
    assert_eq!(st, 422);
    let (st, _) = client.request_ok("DELETE", &format!("/sessions/{id}"), "");
    assert_eq!(st, 200);

    // Steps alone are bounded too.
    let (_, body) = client.request_ok(
        "POST",
        "/sessions",
        "{\"graph\":\"planted\",\"sampler\":\"rw\",\"seed\":3}",
    );
    let id = session_id(&body);
    let (st, _) = client.request_ok(
        "POST",
        &format!("/sessions/{id}/ingest"),
        &format!("{{\"steps\":{}}}", MAX_WALK_BUDGET + 1),
    );
    assert_eq!(st, 422);
    let (st, _) = client.request_ok("POST", &format!("/sessions/{id}/ingest"), "{\"steps\":20}");
    assert_eq!(st, 200);

    // A well-formed snapshot whose params carry a 1e12 burn-in.
    let (st, clean) = bytes_request(addr, "GET", &format!("/sessions/{id}/snapshot"), b"");
    assert_eq!(st, 200);
    let mut c = snapshot::read_snapshot(&clean[..]).unwrap();
    let seed = c.u64s(SEC_PARAMS).unwrap()[0];
    c.take(SEC_PARAMS);
    c.push(Section::u64s(SEC_PARAMS, vec![seed, 1_000_000_000_000, 1]));
    let mut hostile = Vec::new();
    snapshot::write_snapshot(&mut hostile, &c).unwrap();
    let (st, body) = bytes_request(addr, "POST", "/sessions/restore", &hostile);
    assert_eq!(st, 422, "{}", String::from_utf8_lossy(&body));

    let (st, _) = client.request_ok("GET", "/healthz", "");
    assert_eq!(st, 200);
    server.shutdown();
    server.join();
}

/// Idle sessions past their TTL are evicted (lazily, on the next pass);
/// in-flight handles are never reaped.
#[test]
fn idle_sessions_are_evicted_after_ttl() {
    let dir = temp_store("ttl");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = boot(&dir, |c| ServeConfig {
        session_ttl_secs: Some(0),
        ..c
    });
    let mut client = Client::connect(server.addr()).unwrap();

    client.request_ok(
        "POST",
        "/sessions",
        "{\"graph\":\"planted\",\"sampler\":\"uis\",\"seed\":3}",
    );
    std::thread::sleep(std::time::Duration::from_millis(50));
    // Any request sweeps; the idle session is gone.
    let (st, _) = client.request_ok("GET", "/healthz", "");
    assert_eq!(st, 200);
    let (st, _) = client.request_ok("GET", "/sessions/s0/estimate", "");
    assert_eq!(st, 404);
    let (_, metrics) = client.request_ok("GET", "/metrics", "");
    assert!(
        metrics.contains("cgte_serve_sessions_evicted_total 1"),
        "{metrics}"
    );

    server.shutdown();
    server.join();
}

/// Session admission control: over `max_sessions` the server answers 429
/// with a `Retry-After` header instead of growing without bound.
#[test]
fn session_cap_returns_429_with_retry_after() {
    let dir = temp_store("cap");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = boot(&dir, |c| ServeConfig {
        max_sessions: 1,
        ..c
    });
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    let open = "{\"graph\":\"planted\",\"sampler\":\"uis\",\"seed\":5}";
    let (st, _) = client.request_ok("POST", "/sessions", open);
    assert_eq!(st, 200);

    let raw = raw_request(addr, "POST", "/sessions", open.as_bytes());
    assert!(
        raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
        "{raw}"
    );
    assert!(raw.contains("Retry-After: "), "{raw}");

    // Freeing the slot readmits.
    let (st, _) = client.request_ok("DELETE", "/sessions/s0", "");
    assert_eq!(st, 200);
    let (st, _) = client.request_ok("POST", "/sessions", open);
    assert_eq!(st, 200);

    server.shutdown();
    server.join();
}

/// `/metrics` speaks the Prometheus text exposition format and counts
/// real events.
#[test]
fn metrics_exposition_counts_events() {
    let dir = temp_store("metrics");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = boot(&dir, |c| c);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    client.request_ok(
        "POST",
        "/sessions",
        "{\"graph\":\"planted\",\"sampler\":\"rw\",\"seed\":9}",
    );
    client.request_ok("POST", "/sessions/s0/snapshot", "");

    let raw = raw_request(addr, "GET", "/metrics", b"");
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    assert!(
        raw.contains("Content-Type: text/plain; version=0.0.4"),
        "{raw}"
    );
    for family in [
        "# HELP cgte_serve_sessions_active",
        "# TYPE cgte_serve_sessions_active gauge",
        "cgte_serve_sessions_active 1",
        "cgte_serve_sessions_created_total 1",
        "cgte_serve_sessions_evicted_total 0",
        "cgte_serve_graph_loads_total 1",
        "cgte_serve_graph_builds_total 0",
        "cgte_serve_snapshots_saved_total 1",
        "cgte_serve_snapshots_restored_total 0",
        "cgte_client_retries_total",
        "cgte_serve_uptime_seconds",
    ] {
        assert!(raw.contains(family), "missing {family:?} in:\n{raw}");
    }

    server.shutdown();
    server.join();
}
