//! Integration tests for the event-driven connection engine: fresh
//! requests under `connections >> threads`, the slowloris read deadline
//! (408), the request-body cap (413), request framing that answers one
//! request exactly once, and the connection-health metric families.

mod common;

use cgte_scenarios::artifact::{parse_json, Json};
use cgte_serve::client::Client;
use cgte_serve::{ServeConfig, Server};
use common::{planted_sized, temp_store, write_graph};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        cache_dir: dir.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    }
}

fn as_f64(v: &Json) -> f64 {
    match v {
        Json::Num(x) => *x,
        other => panic!("expected number, got {other:?}"),
    }
}

/// Sends raw bytes on a fresh connection and reads the response to EOF.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8], timeout: Duration) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(timeout)).unwrap();
    s.write_all(bytes).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// Scrapes one counter/gauge value out of the Prometheus exposition.
fn metric_value(metrics: &str, family: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(family) && l.as_bytes().get(family.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("family {family} missing from:\n{metrics}"))
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

/// The tentpole contract: with far more open connections than worker
/// threads, a fresh request still answers promptly because parked idle
/// connections cost the event loop nothing.
#[test]
fn event_engine_serves_fresh_requests_past_many_idle_connections() {
    let dir = temp_store("idle");
    let (g, p) = planted_sized(&[30, 60, 90], 5);
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&config(&dir)).unwrap();
    let addr = server.addr();

    // 40 connections that never send a byte, parked in the interest set.
    let idle: Vec<TcpStream> = (0..40).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // 8 more that completed a request and are now idle keep-alive — the
    // re-park path after a worker finishes a response.
    let parked: Vec<Client> = (0..8)
        .map(|_| {
            let mut c = Client::connect(addr).unwrap();
            let (st, _) = c.request("GET", "/healthz", "").unwrap();
            assert_eq!(st, 200);
            c
        })
        .collect();

    // 48 open connections against 2 workers: a fresh request must still
    // answer within the (generous) bound.
    let mut fresh = Client::connect(addr).unwrap();
    let (st, body) = fresh.request("GET", "/healthz", "").unwrap();
    assert_eq!(st, 200, "{body}");
    let h = parse_json(&body).unwrap();
    assert!(
        as_f64(h.get("connections").unwrap()) >= 49.0,
        "open-connection gauge undercounts: {body}"
    );

    let (st, metrics) = fresh.request("GET", "/metrics", "").unwrap();
    assert_eq!(st, 200);
    assert!(metric_value(&metrics, "cgte_serve_open_connections") >= 49.0);

    drop(idle);
    drop(parked);
    // Shutdown drains every parked connection: join() returning is the
    // clean-drain assertion.
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Slowloris bound: a request that starts arriving but never completes is
/// answered 408 within the configured deadline, while a connection that
/// is merely idle (zero bytes sent) is never expired.
#[test]
fn stalled_requests_time_out_with_408_on_both_engines() {
    let dir = temp_store("slow");
    let (g, p) = planted_sized(&[30, 60, 90], 5);
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&ServeConfig {
        request_timeout_ms: 300,
        ..config(&dir)
    })
    .unwrap();
    let addr = server.addr();

    // Half a request: headers promise 10 body bytes, only 3 arrive.
    let out = raw_exchange(
        addr,
        b"POST /sessions HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        Duration::from_secs(10),
    );
    assert!(out.starts_with("HTTP/1.1 408"), "{out}");
    assert!(out.contains("timed out reading the request"), "{out}");

    // Headers that never terminate stall the same way.
    let out = raw_exchange(
        addr,
        b"GET /healthz HTTP/1.1\r\nX-Stall: yes",
        Duration::from_secs(10),
    );
    assert!(out.starts_with("HTTP/1.1 408"), "{out}");

    // An idle connection outlives the request deadline untouched: the
    // deadline arms on the first byte, not on accept.
    let mut idle = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    idle.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    idle.read_to_string(&mut out).ok();
    assert!(
        out.starts_with("HTTP/1.1 200"),
        "idle connection expired: {out}"
    );
    drop(idle);

    let mut c = Client::connect(addr).unwrap();
    let (st, metrics) = c.request("GET", "/metrics", "").unwrap();
    assert_eq!(st, 200);
    assert!(
        metric_value(&metrics, "cgte_serve_request_timeouts_total") >= 2.0,
        "{metrics}"
    );
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Request-body cap: a body longer than `max_body_bytes` answers 413
/// without being read; an in-budget body still parses.
#[test]
fn oversized_bodies_are_rejected_with_413_on_both_engines() {
    let dir = temp_store("cap");
    let (g, p) = planted_sized(&[30, 60, 90], 5);
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&ServeConfig {
        max_body_bytes: 1024,
        ..config(&dir)
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let (st, body) = c.request("POST", "/sessions", &"x".repeat(2000)).unwrap();
    assert_eq!(st, 413, "{body}");
    assert!(body.contains("exceeds the 1024 limit"), "{body}");

    // The 413 hangs up; an in-budget request on a new connection is
    // unaffected (it is malformed JSON, a typed 400 — not 413).
    let mut c = Client::connect(server.addr()).unwrap();
    let (st, _) = c.request("POST", "/sessions", &"x".repeat(1024)).unwrap();
    assert_eq!(st, 400);
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Sends `raw` on a fresh connection and asserts that exactly one
/// response — a 400 carrying `msg` — arrives before the server hangs up.
fn assert_single_400(tag: &str, raw: &[u8], msg: &str) {
    let dir = temp_store(tag);
    let server = Server::bind(&config(&dir)).unwrap();
    let out = raw_exchange(server.addr(), raw, Duration::from_secs(10));
    assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "{out}");
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");
    assert!(out.contains(msg), "{out}");
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A chunked body is refused outright. Framed as a zero-length body, its
/// chunk bytes would be read as a pipelined second request and one
/// request would be answered twice.
#[test]
fn transfer_encoding_is_refused_with_a_single_400() {
    assert_single_400(
        "te",
        b"POST /sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        "Transfer-Encoding is not supported",
    );
}

/// Differing duplicate `Content-Length` values are refused (RFC 9112
/// §6.3) instead of resolving "last wins".
#[test]
fn conflicting_content_lengths_are_refused_with_a_single_400() {
    assert_single_400(
        "cl",
        b"POST /sessions HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}{}",
        "conflicting Content-Length values 2 and 4",
    );
}

/// The new connection-health families are present in the exposition with
/// their `# TYPE` declarations.
#[test]
fn metrics_exposes_connection_health_families() {
    let dir = temp_store("fam");
    let (g, p) = planted_sized(&[30, 60, 90], 5);
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&config(&dir)).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let (st, metrics) = c.request("GET", "/metrics", "").unwrap();
    assert_eq!(st, 200);
    for (family, kind) in [
        ("cgte_serve_open_connections", "gauge"),
        ("cgte_serve_accept_errors_total", "counter"),
        ("cgte_serve_request_timeouts_total", "counter"),
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family} {kind}")),
            "missing # TYPE {family} {kind}:\n{metrics}"
        );
    }
    assert!(metric_value(&metrics, "cgte_serve_open_connections") >= 1.0);
    assert_eq!(
        metric_value(&metrics, "cgte_serve_accept_errors_total"),
        0.0
    );
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
