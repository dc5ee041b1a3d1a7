//! Integration tests for the event-driven connection engine: fresh
//! requests under `connections >> threads`, the slowloris read deadline
//! (408), the request-body cap (413), the JSON nesting cap (400),
//! request framing that answers one request exactly once, pipelined
//! requests, a response larger than the socket buffers going to a slow
//! reader, keep-alive clients that never see each other's sessions, and
//! the connection-health metric families.

mod common;

use cgte_scenarios::artifact::{parse_json, Json};
use cgte_serve::client::Client;
use cgte_serve::http;
use cgte_serve::registry::Registry;
use cgte_serve::session::{Session, SessionSpec};
use cgte_serve::{ServeConfig, Server};
use common::{planted_sized, temp_store, write_graph};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

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
fn stalled_requests_time_out_with_408() {
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
fn oversized_bodies_are_rejected_with_413() {
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

/// A deeply nested JSON body is a typed 400, not a stack overflow that
/// aborts the process: the server keeps answering afterwards.
#[test]
fn deeply_nested_json_body_is_a_400_and_the_server_stays_up() {
    let dir = temp_store("deep");
    let server = Server::bind(&config(&dir)).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let (st, body) = c
        .request("POST", "/sessions", &"[".repeat(200_000))
        .unwrap();
    assert_eq!(st, 400, "{body}");
    assert!(body.contains("nested deeper than"), "{body}");
    let mut c = Client::connect(server.addr()).unwrap();
    let (st, body) = c.request("GET", "/healthz", "").unwrap();
    assert_eq!(st, 200, "{body}");
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

/// Two requests pipelined in one write on a keep-alive connection are
/// each answered once, in order, and the connection stays usable.
#[test]
fn pipelined_requests_are_answered_once_each_in_order() {
    let dir = temp_store("pipe");
    let (g, p) = planted_sized(&[30, 60, 90], 5);
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&config(&dir)).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // One write carrying a 200 and a 404: their order shows on the wire.
    let mut both = Vec::new();
    http::write_request(&mut both, "GET", "/graphs", b"", false).unwrap();
    http::write_request(&mut both, "GET", "/no-such-route", b"", false).unwrap();
    stream.write_all(&both).unwrap();
    let first = http::read_response(&mut reader).expect("first pipelined response");
    assert_eq!(first.status, 200);
    assert!(String::from_utf8_lossy(&first.body).contains("planted"));
    let second = http::read_response(&mut reader).expect("second pipelined response");
    assert_eq!(second.status, 404);
    assert!(String::from_utf8_lossy(&second.body).contains("no route for GET /no-such-route"));

    // The connection still serves; a closing request's response is the
    // only thing left on the wire, so neither pipelined one was repeated.
    http::write_request(&mut stream, "GET", "/healthz", b"", true).unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert_eq!(rest.matches("HTTP/1.1 ").count(), 1, "{rest}");
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    assert!(rest.contains("\"status\":\"ok\""), "{rest}");

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot download far larger than the socket buffers, to a client
/// that sleeps before reading, arrives whole and byte-equal to the same
/// session replayed in process — and the other worker answers a
/// `/healthz` while the first is still writing it. A loopback peer that
/// does not read takes about 4 MB before a send would block (Linux's
/// default `tcp_wmem` ceiling), so the download is three times that.
#[test]
fn large_response_to_a_slow_reader_arrives_whole_while_others_are_served() {
    const STEPS: usize = 1_000_000;
    let dir = temp_store("large");
    let (g, p) = planted_sized(&[30, 60, 90], 5);
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&config(&dir)).unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    let (st, body) = c
        .request(
            "POST",
            "/sessions",
            "{\"graph\":\"planted\",\"sampler\":\"rw\",\"seed\":7}",
        )
        .unwrap();
    assert_eq!(st, 200, "{body}");
    let (st, body) = c
        .request(
            "POST",
            "/sessions/s0/ingest",
            &format!("{{\"steps\":{STEPS}}}"),
        )
        .unwrap();
    assert_eq!(st, 200, "{body}");

    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let sent = Instant::now();
    http::write_request(&mut slow, "GET", "/sessions/s0/snapshot", b"", false).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let mut other = Client::connect(addr).unwrap();
    let (st, body) = other.request("GET", "/healthz", "").unwrap();
    assert_eq!(st, 200, "{body}");
    let answered = sent.elapsed();
    std::thread::sleep(Duration::from_millis(1000).saturating_sub(answered));
    assert!(
        answered < Duration::from_millis(1000),
        "/healthz waited {answered:?} behind a slow download"
    );

    let mut reader = BufReader::new(slow.try_clone().unwrap());
    let resp = http::read_response(&mut reader).expect("whole snapshot download");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "application/octet-stream");

    let spec = SessionSpec {
        graph: "planted".to_string(),
        partition: None,
        sampler: "rw".to_string(),
        design: None,
        seed: 7,
        burn_in: 0,
        thinning: 1,
    };
    let lg = Registry::new(&dir).get("planted").unwrap();
    let mut local = Session::open("s0".to_string(), lg, &spec, 1).unwrap();
    local.ingest_steps(STEPS).unwrap();
    let expected = local.snapshot_bytes();
    assert!(
        expected.len() > 12_000_000,
        "snapshot of {} bytes could fit the socket buffers",
        expected.len()
    );
    assert!(resp.body == expected, "downloaded snapshot differs");

    // The connection is still usable after the blocking write fallback.
    http::write_request(&mut slow, "GET", "/healthz", b"", false).unwrap();
    assert_eq!(http::read_response(&mut reader).unwrap().status, 200);

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Eight keep-alive clients on two workers each drive their own session
/// for 200 rounds: every response names the client's own session and
/// continues its own `len` sequence.
#[test]
fn keep_alive_clients_each_see_only_their_own_session() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 200;
    let dir = temp_store("own");
    let (g, p) = planted_sized(&[30, 60, 90], 5);
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&config(&dir)).unwrap();
    let addr = server.addr();
    std::thread::scope(|scope| {
        for i in 0..CLIENTS {
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (st, body) = c
                    .request(
                        "POST",
                        "/sessions",
                        &format!("{{\"graph\":\"planted\",\"sampler\":\"rw\",\"seed\":{i}}}"),
                    )
                    .unwrap();
                assert_eq!(st, 200, "{body}");
                let id = match parse_json(&body).unwrap().get("session") {
                    Some(Json::Str(id)) => id.clone(),
                    other => panic!("no session id in {body}: {other:?}"),
                };
                // Client i ingests i + 1 steps a round, so its sequence
                // is its own.
                let steps = i + 1;
                for round in 1..=ROUNDS {
                    let (st, body) = c
                        .request(
                            "POST",
                            &format!("/sessions/{id}/ingest"),
                            &format!("{{\"steps\":{steps}}}"),
                        )
                        .unwrap();
                    assert_eq!(st, 200, "{body}");
                    assert_eq!(
                        body,
                        format!(
                            "{{\"session\":\"{id}\",\"ingested\":{steps},\"len\":{}}}",
                            round * steps
                        )
                    );
                }
            });
        }
    });
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
