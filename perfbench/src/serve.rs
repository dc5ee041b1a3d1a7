//! `serve_ingest` and `serve_query`: closed-loop HTTP sessions against an
//! in-process `cgte-serve` server on the headline graph.
//!
//! Every client is a crawler or dashboard that waits for each reply. Work
//! is fixed by count: every session runs a fixed number of rounds and is
//! then deleted, so session length is capped and per-request cost does not
//! drift as a run goes on. The run repeats whole rounds until `--seconds`
//! have passed.
//!
//! - `serve_ingest` — a round is `POST ingest {"steps": S}` then
//!   `GET estimate`; sessions are opened inside the timed window.
//! - `serve_query` — a round is `POST ingest {"nodes": [4 ids]}` then
//!   `GET estimate`; the ids come from a client-side random-walk crawl the
//!   benchmark generates, and sessions are opened and pre-filled during
//!   set-up.

use crate::fixture::Fixture;
use crate::replay::Decomposed;
use crate::trace::{per_sample, Layers, Tracer};
use crate::{derive_seed, median, percentile, percentile_json, sorted, windowed, Report, RunCtx};
use cgte_graph::store::Loader;
use cgte_graph::NodeId;
use cgte_sampling::{NodeSampler, ObservationContext, RandomWalk};
use cgte_serve::client::Client;
use cgte_serve::registry::Registry;
use cgte_serve::session::{build_sampler, Session, SessionSpec};
use cgte_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Query,
}

/// The workload's shape: how much work a request, a session and a run do.
struct Shape {
    clients: usize,
    workers: usize,
    /// `serve_ingest`: walk steps per ingest.
    steps: usize,
    /// Rounds per session (the session cap is `rounds × samples/round`).
    rounds: usize,
    /// `serve_query`: walk steps that pre-fill each session in set-up.
    prefill: usize,
    /// `serve_query`: node ids per ingest.
    query_nodes: usize,
    /// `serve_query`: rounds per second and client assumed when sizing the
    /// pre-filled session pool (a run that exhausts it ends early).
    query_rate: f64,
    /// Sessions per client replayed by the traced run.
    trace_sessions: usize,
    /// Set-ups per run (the reported `setup_s` is their median).
    setup_reps: usize,
    /// Keep-alive `/healthz` probes of the traced run.
    rtt_probes: usize,
}

impl Shape {
    fn new(kind: Kind, toy: bool) -> Shape {
        let par = crate::nproc().clamp(1, 2);
        let mut s = Shape {
            clients: par,
            workers: par,
            steps: 500,
            rounds: 100,
            prefill: 5_000,
            query_nodes: 4,
            query_rate: 10_000.0,
            trace_sessions: 3,
            setup_reps: 3,
            rtt_probes: 2000,
        };
        if kind == Kind::Query {
            s.rounds = 5000;
            s.trace_sessions = 1;
        }
        if toy {
            s.steps = 50;
            s.rounds = if kind == Kind::Query { 40 } else { 10 };
            s.prefill = 200;
            s.trace_sessions = 1;
            s.setup_reps = 2;
            s.rtt_probes = 50;
        }
        s
    }

    fn samples_per_round(&self, kind: Kind) -> usize {
        match kind {
            Kind::Ingest => self.steps,
            Kind::Query => self.query_nodes,
        }
    }

    fn session_cap(&self, kind: Kind) -> usize {
        let pre = if kind == Kind::Query { self.prefill } else { 0 };
        pre + self.rounds * self.samples_per_round(kind)
    }
}

/// Server-side seed of client `c`'s `k`-th session.
fn session_seed(seed: u64, c: usize, k: usize) -> u64 {
    derive_seed(seed, c as u64, k as u64)
}

/// The client-side crawl behind a `serve_query` session: one random walk
/// whose draws the client reports four at a time.
fn crawl(g: &cgte_graph::Graph, seed: u64, len: usize) -> Result<Vec<NodeId>, String> {
    let mut out = Vec::with_capacity(len);
    RandomWalk::new()
        .try_sample_into(
            g,
            len,
            &mut StdRng::seed_from_u64(seed ^ 0xC4A3_1E57),
            &mut out,
        )
        .map_err(|e| e.to_string())?;
    Ok(out)
}

fn open_body(name: &str, seed: u64) -> String {
    format!("{{\"graph\":\"{name}\",\"sampler\":\"rw\",\"seed\":{seed}}}")
}

fn nodes_body(ids: &[NodeId]) -> String {
    let list: Vec<String> = ids.iter().map(u32::to_string).collect();
    format!("{{\"nodes\":[{}]}}", list.join(","))
}

fn session_id(body: &str) -> Option<String> {
    body.split("\"session\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .map(str::to_string)
}

/// What one client did in a timed window. Completion times are seconds
/// since the window started, so rates and percentiles can be taken per
/// one-second sub-window.
struct ClientLog {
    start: Instant,
    ingest_ms: Vec<f64>,
    ingest_end: Vec<f64>,
    estimate_ms: Vec<f64>,
    estimate_end: Vec<f64>,
    /// Completion time of every request.
    done_at: Vec<f64>,
    requests: u64,
    failed: u64,
    samples: u64,
    /// Client 0's first session: (id, rounds completed, last estimate body).
    check: Option<(String, usize, String)>,
    tracer: Option<Tracer>,
}

impl ClientLog {
    fn new(start: Instant, tracer: Option<Tracer>) -> ClientLog {
        ClientLog {
            start,
            ingest_ms: Vec::new(),
            ingest_end: Vec::new(),
            estimate_ms: Vec::new(),
            estimate_end: Vec::new(),
            done_at: Vec::new(),
            requests: 0,
            failed: 0,
            samples: 0,
            check: None,
            tracer,
        }
    }

    fn since_start(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// One request; non-2xx answers and transport errors count as failed.
    fn call(&mut self, c: &mut Client, method: &str, path: &str, body: &str) -> Option<String> {
        self.requests += 1;
        let answer = c.request(method, path, body);
        self.done_at.push(self.since_start());
        match answer {
            Ok((200, b)) => Some(b),
            Ok((st, b)) => {
                self.failed += 1;
                eprintln!("perfbench: {method} {path} answered {st}: {b}");
                None
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {method} {path} failed: {e}");
                None
            }
        }
    }
}

/// One session a client drives: its id on the server and, for
/// `serve_query`, the crawl it reports.
struct Planned {
    k: usize,
    id: Option<String>,
    nodes: Vec<NodeId>,
}

/// Runs one client's rounds until `deadline` (or through all planned
/// sessions without one). `serve_ingest` sessions are opened here;
/// `serve_query` sessions arrive pre-opened.
#[allow(clippy::too_many_arguments)]
fn drive_client(
    addr: SocketAddr,
    name: &str,
    kind: Kind,
    shape: &Shape,
    seed: u64,
    c: usize,
    plan: &[Planned],
    start: Instant,
    deadline: Option<Instant>,
    tracer: Option<Tracer>,
) -> ClientLog {
    let mut log = ClientLog::new(start, tracer);
    let Ok(mut client) = Client::connect(addr) else {
        log.requests += 1;
        log.failed += 1;
        return log;
    };
    let per_round = shape.samples_per_round(kind) as u64;
    let ingest_steps = format!("{{\"steps\":{}}}", shape.steps);
    let expired = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
    let mut k_iter = 0usize;
    loop {
        // Without a deadline the client runs exactly the planned sessions;
        // `serve_query` sessions must be planned (they are pre-filled).
        let planned = plan.get(k_iter);
        if planned.is_none() && (kind == Kind::Query || deadline.is_none()) {
            break;
        }
        if expired(deadline) {
            break;
        }
        let k = planned.map_or(k_iter, |p| p.k);
        let id = match planned.and_then(|p| p.id.clone()) {
            Some(id) => id,
            None => {
                let body = open_body(name, session_seed(seed, c, k));
                match log
                    .call(&mut client, "POST", "/sessions", &body)
                    .and_then(|b| session_id(&b))
                {
                    Some(id) => id,
                    None => break,
                }
            }
        };
        let ingest_path = format!("/sessions/{id}/ingest");
        let estimate_path = format!("/sessions/{id}/estimate");
        let mut last = String::new();
        let mut done = 0;
        for r in 0..shape.rounds {
            if expired(deadline) {
                break;
            }
            let body = match kind {
                Kind::Ingest => ingest_steps.clone(),
                Kind::Query => {
                    let ids = &planned.expect("query sessions are planned").nodes;
                    nodes_body(&ids[r * shape.query_nodes..(r + 1) * shape.query_nodes])
                }
            };
            let span = log.tracer.as_mut().map(|t| t.begin("http.ingest", None));
            let t0 = Instant::now();
            let ok = log.call(&mut client, "POST", &ingest_path, &body).is_some();
            log.ingest_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            log.ingest_end.push(log.since_start());
            if let (Some(t), Some(s)) = (log.tracer.as_mut(), span) {
                t.end(s);
            }
            if !ok {
                break;
            }
            log.samples += per_round;
            let span = log.tracer.as_mut().map(|t| t.begin("http.estimate", None));
            let t0 = Instant::now();
            let body = log.call(&mut client, "GET", &estimate_path, "");
            log.estimate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            log.estimate_end.push(log.since_start());
            if let (Some(t), Some(s)) = (log.tracer.as_mut(), span) {
                t.end(s);
            }
            match body {
                Some(b) => last = b,
                None => break,
            }
            done += 1;
        }
        if c == 0 && log.check.is_none() {
            log.check = Some((id.clone(), done, last));
        }
        log.call(&mut client, "DELETE", &format!("/sessions/{id}"), "");
        k_iter += 1;
    }
    log
}

/// Opens and pre-fills `serve_query` sessions (one thread per client).
fn prefill_pool(
    addr: SocketAddr,
    name: &str,
    shape: &Shape,
    seed: u64,
    pools: &mut [Vec<Planned>],
) -> (u64, u64) {
    let body = format!("{{\"steps\":{}}}", shape.prefill);
    let counts: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter_mut()
            .enumerate()
            .map(|(c, pool)| {
                let body = &body;
                s.spawn(move || {
                    let mut log = ClientLog::new(Instant::now(), None);
                    let Ok(mut client) = Client::connect(addr) else {
                        return (1, 1);
                    };
                    for p in pool.iter_mut() {
                        let open = open_body(name, session_seed(seed, c, p.k));
                        p.id = log
                            .call(&mut client, "POST", "/sessions", &open)
                            .and_then(|b| session_id(&b));
                        if let Some(id) = &p.id {
                            log.call(&mut client, "POST", &format!("/sessions/{id}/ingest"), body);
                        }
                    }
                    (log.requests, log.failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill client panicked"))
            .collect()
    });
    counts
        .iter()
        .fold((0, 0), |(a, f), (ra, rf)| (a + ra, f + rf))
}

/// A server with the graph loaded and its index built, plus the time
/// that took (`setup_s`).
struct Ready {
    server: Server,
    secs: f64,
    requests: u64,
    failed: u64,
}

/// One set-up: bind, warm (the first session loads the graph and builds
/// the neighbour-category index), and pre-fill the `serve_query` pool.
fn set_up(
    fx: &Fixture,
    kind: Kind,
    shape: &Shape,
    seed: u64,
    pools: &mut [Vec<Planned>],
) -> Result<Ready, String> {
    let t0 = Instant::now();
    let server = Server::bind(&ServeConfig {
        cache_dir: fx.dir.clone(),
        addr: "127.0.0.1:0".to_string(),
        threads: shape.workers,
        max_sessions: 4096,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot bind server: {e}"))?;
    let mut log = ClientLog::new(t0, None);
    let mut c = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let id = log
        .call(&mut c, "POST", "/sessions", &open_body(&fx.name, 0))
        .and_then(|b| session_id(&b))
        .ok_or("warm-up session failed")?;
    log.call(
        &mut c,
        "POST",
        &format!("/sessions/{id}/ingest"),
        "{\"steps\":10}",
    );
    log.call(&mut c, "DELETE", &format!("/sessions/{id}"), "");
    let (mut requests, mut failed) = (log.requests, log.failed);
    if kind == Kind::Query {
        let (r, f) = prefill_pool(server.addr(), &fx.name, shape, seed, pools);
        requests += r;
        failed += f;
    }
    Ok(Ready {
        server,
        secs: t0.elapsed().as_secs_f64(),
        requests,
        failed,
    })
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// Sessions `0..n` of every client, with their crawls for `serve_query`.
fn plan_sessions(
    fx: &Fixture,
    kind: Kind,
    shape: &Shape,
    seed: u64,
    n: usize,
) -> Result<Vec<Vec<Planned>>, String> {
    if kind == Kind::Ingest {
        return Ok((0..shape.clients)
            .map(|_| {
                (0..n)
                    .map(|k| Planned {
                        k,
                        id: None,
                        nodes: Vec::new(),
                    })
                    .collect()
            })
            .collect());
    }
    // The crawl runs on its own mapping, dropped before the server starts.
    let g = Loader::open(fx.path())
        .mmap(true)
        .load_graph()
        .map_err(|e| format!("cannot load {}: {e}", fx.path().display()))?;
    let len = shape.rounds * shape.query_nodes;
    (0..shape.clients)
        .map(|c| {
            (0..n)
                .map(|k| {
                    Ok(Planned {
                        k,
                        id: None,
                        nodes: crawl(&g, session_seed(seed, c, k), len)?,
                    })
                })
                .collect()
        })
        .collect()
}

/// Runs the clients of one closed-loop window; returns their logs and the
/// window's wall time.
#[allow(clippy::too_many_arguments)]
fn window(
    ready: &Ready,
    fx: &Fixture,
    kind: Kind,
    shape: &Shape,
    seed: u64,
    pools: &[Vec<Planned>],
    deadline: Option<Duration>,
    traced: Option<Instant>,
) -> (Vec<ClientLog>, f64) {
    let addr = ready.server.addr();
    let t0 = Instant::now();
    let deadline = deadline.map(|d| t0 + d);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.clients)
            .map(|c| {
                let plan = &pools[c];
                let tracer = traced.map(Tracer::new);
                s.spawn(move || {
                    drive_client(
                        addr, &fx.name, kind, shape, seed, c, plan, t0, deadline, tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, t0.elapsed().as_secs_f64())
}

fn spec(name: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        graph: name.to_string(),
        partition: None,
        sampler: "rw".to_string(),
        design: None,
        seed,
        burn_in: 0,
        thinning: 1,
    }
}

/// Replays client 0's first session in-process and compares its last
/// estimate with the bytes the server returned.
fn replay_check(
    fx: &Fixture,
    kind: Kind,
    shape: &Shape,
    seed: u64,
    nodes: &[NodeId],
    check: &(String, usize, String),
) -> Result<bool, String> {
    let (id, rounds, body) = check;
    if *rounds == 0 {
        return Err("client 0 completed no round of its first session".to_string());
    }
    let reg = Registry::new(&fx.dir);
    let lg = reg.get(&fx.name).map_err(|e| e.msg)?;
    let mut s = Session::open(id.clone(), lg, &spec(&fx.name, session_seed(seed, 0, 0)), 1)
        .map_err(|e| e.msg)?;
    if kind == Kind::Query {
        s.ingest_steps(shape.prefill).map_err(|e| e.msg)?;
    }
    let mut last = String::new();
    for r in 0..*rounds {
        match kind {
            Kind::Ingest => s.ingest_steps(shape.steps),
            Kind::Query => {
                s.ingest_nodes(&nodes[r * shape.query_nodes..(r + 1) * shape.query_nodes])
            }
        }
        .map_err(|e| e.msg)?;
        last = s.estimate_json(None);
    }
    Ok(&last == body)
}

pub fn run(ctx: &RunCtx, fx: &Fixture, kind: Kind) -> Result<Report, String> {
    let shape = Shape::new(kind, ctx.toy);
    if ctx.traced {
        return traced(ctx, fx, kind, &shape);
    }
    let mut r = Report::default();
    let pool_size = if kind == Kind::Query {
        let rounds_per_client = shape.query_rate * ctx.seconds;
        (rounds_per_client / shape.rounds as f64).ceil() as usize + 1
    } else {
        0
    };
    let mut pools = plan_sessions(fx, kind, &shape, ctx.seed, pool_size)?;
    let check_nodes = pools
        .first()
        .and_then(|p| p.first())
        .map(|p| p.nodes.clone());

    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..shape.setup_reps {
        for p in pools.iter_mut().flatten() {
            p.id = None;
        }
        let rd = set_up(fx, kind, &shape, ctx.seed, &mut pools)?;
        setups.push(rd.secs);
        r.attempted += rd.requests;
        r.failed += rd.failed;
        if rep + 1 < shape.setup_reps {
            stop(rd.server);
        } else {
            ready = Some(rd);
        }
    }
    let ready = ready.expect("at least one set-up");
    let (logs, wall) = window(
        &ready,
        fx,
        kind,
        &shape,
        ctx.seed,
        &pools,
        Some(Duration::from_secs_f64(ctx.seconds)),
        None,
    );
    let rss = crate::peak_rss_mb();
    stop(ready.server);

    let cat = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let (ingest_end, ingest_ms) = (cat(|l| &l.ingest_end), cat(|l| &l.ingest_ms));
    let (estimate_end, estimate_ms) = (cat(|l| &l.estimate_end), cat(|l| &l.estimate_ms));
    let done_at = cat(|l| &l.done_at);
    let ingest = sorted(ingest_ms.clone());
    let estimate = sorted(estimate_ms.clone());
    let per_round = shape.samples_per_round(kind) as f64;
    let requests: u64 = logs.iter().map(|l| l.requests).sum();
    let samples: u64 = logs.iter().map(|l| l.samples).sum();
    r.attempted += requests;
    r.failed += logs.iter().map(|l| l.failed).sum::<u64>();

    match logs.first().and_then(|l| l.check.as_ref()) {
        Some(check) => {
            let nodes = check_nodes.unwrap_or_default();
            match replay_check(fx, kind, &shape, ctx.seed, &nodes, check) {
                Ok(true) => {}
                Ok(false) => r.mismatch("final estimate differs from the in-process replay"),
                Err(e) => r.mismatch(&e),
            }
        }
        None => r.mismatch("client 0 finished no session"),
    }

    r.metric("setup_s", median(&setups), "s");
    let rate = |v: &[f64], len: f64| v.len() as f64 / len;
    let p50 = |v: &[f64], _: f64| percentile(&sorted(v.to_vec()), 0.5);
    r.metric(
        "samples_per_s",
        windowed(&ingest_end, &ingest_end, wall, rate) * per_round,
        "samples/s",
    );
    r.metric(
        "requests_per_s",
        windowed(&done_at, &done_at, wall, rate),
        "req/s",
    );
    r.metric(
        "ingest_p50_ms",
        windowed(&ingest_end, &ingest_ms, wall, p50),
        "ms",
    );
    r.metric(
        "estimate_p50_ms",
        windowed(&estimate_end, &estimate_ms, wall, p50),
        "ms",
    );
    r.metric("peak_rss_mb", rss, "MB");
    let sample_windows = crate::per_window(&ingest_end, &ingest_end, wall, rate);
    r.detail(
        "samples_per_s_by_window",
        format!(
            "{:?}",
            sample_windows
                .iter()
                .map(|x| (x * per_round) as u64)
                .collect::<Vec<_>>()
        ),
    );
    r.detail("ingest_ms", percentile_json(&ingest));
    r.detail("estimate_ms", percentile_json(&estimate));
    r.detail("setup_s_all", format!("{setups:?}"));
    r.detail("window_s", crate::num(wall));
    r.detail("requests", requests.to_string());
    r.detail("samples", samples.to_string());
    r.detail(
        "shape",
        format!(
            "{{\"clients\": {}, \"server_workers\": {}, \"rounds_per_session\": {}, \"samples_per_round\": {}, \"session_cap_samples\": {}, \"prefill_steps\": {}, \"pool_sessions_per_client\": {}}}",
            shape.clients,
            shape.workers,
            shape.rounds,
            shape.samples_per_round(kind),
            shape.session_cap(kind),
            if kind == Kind::Query { shape.prefill } else { 0 },
            pool_size
        ),
    );
    Ok(r)
}

/// The traced run: direct layer calls for load and index, the same
/// closed loop untraced and traced (its difference is the tracing
/// overhead), keep-alive `/healthz` round trips, and an in-process replay
/// of the same sessions with one span per layer call.
fn traced(ctx: &RunCtx, fx: &Fixture, kind: Kind, shape: &Shape) -> Result<Report, String> {
    let mut r = Report::default();
    let mut layers = Layers::default();
    let epoch = Instant::now();
    let n = shape.trace_sessions;

    let reg = Registry::new(&fx.dir);
    let t0 = Instant::now();
    let lg = reg.get(&fx.name).map_err(|e| e.msg)?;
    layers.store_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let index = lg.index(0, shape.workers);
    layers.index_build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Two copies of the script: one for the untraced, one for the traced
    // closed loop (each needs its own pre-filled sessions).
    let mut plain = plan_sessions(fx, kind, shape, ctx.seed, n)?;
    let mut with_spans = plan_sessions(fx, kind, shape, ctx.seed, n)?;
    let ready = set_up(fx, kind, shape, ctx.seed, &mut plain)?;
    r.attempted += ready.requests;
    r.failed += ready.failed;
    if kind == Kind::Query {
        let (a, f) = prefill_pool(
            ready.server.addr(),
            &fx.name,
            shape,
            ctx.seed,
            &mut with_spans,
        );
        r.attempted += a;
        r.failed += f;
    }
    let (plain_logs, plain_wall) = window(&ready, fx, kind, shape, ctx.seed, &plain, None, None);
    let (logs, traced_wall) = window(
        &ready,
        fx,
        kind,
        shape,
        ctx.seed,
        &with_spans,
        None,
        Some(epoch),
    );

    let mut probe = ClientLog::new(Instant::now(), Some(Tracer::new(epoch)));
    let mut c = Client::connect(ready.server.addr()).map_err(|e| e.to_string())?;
    for _ in 0..shape.rtt_probes {
        let s = probe
            .tracer
            .as_mut()
            .map(|t| t.begin("serve.transport.healthz", None));
        probe.call(&mut c, "GET", "/healthz", "");
        if let (Some(t), Some(s)) = (probe.tracer.as_mut(), s) {
            t.end(s);
        }
    }
    drop(c);
    stop(ready.server);

    let mut tracer = Tracer::new(epoch);
    for l in plain_logs
        .iter()
        .chain(&logs)
        .chain(std::iter::once(&probe))
    {
        r.attempted += l.requests;
        r.failed += l.failed;
    }
    let http_requests: u64 = logs.iter().map(|l| l.requests).sum();
    let http_failed: u64 = logs.iter().map(|l| l.failed).sum();
    let http_samples: u64 = logs.iter().map(|l| l.samples).sum();
    let check = logs.first().and_then(|l| l.check.clone());
    let mut logs = logs;
    for l in logs.iter_mut() {
        if let Some(t) = l.tracer.take() {
            tracer.absorb(t);
        }
    }
    if let Some(t) = probe.tracer.take() {
        tracer.absorb(t);
    }

    // In-process replay of the traced loop's sessions.
    let p = &lg.partitions[0].1;
    let octx = ObservationContext::with_index(&lg.graph, p, &index);
    let population = lg.graph.num_nodes() as f64;
    let mut replay_samples = 0u64;
    for (c, pool) in with_spans.iter().enumerate() {
        for (k, planned) in pool.iter().enumerate().take(n) {
            let sseed = session_seed(ctx.seed, c, k);
            let id = match (&check, c, k) {
                (Some((id, _, _)), 0, 0) => id.clone(),
                _ => format!("replay-{c}-{k}"),
            };
            let mut s = Session::open(id, lg.clone(), &spec(&fx.name, sseed), shape.workers)
                .map_err(|e| e.msg)?;
            let (sampler, design) =
                build_sampler(&lg.graph, p, "rw", None, 0, 1).map_err(|e| e.msg)?;
            let mut d = Decomposed::new(sampler, design, sseed, p.num_categories());
            if kind == Kind::Query {
                let mut scratch = Tracer::new(epoch);
                s.ingest_steps(shape.prefill).map_err(|e| e.msg)?;
                d.ingest_steps(&octx, &mut scratch, None, shape.prefill)?;
            }
            let mut last = String::new();
            for rd in 0..shape.rounds {
                let root = tracer.begin("round", None);
                let sp = tracer.begin("serve.session.ingest", Some(root));
                let ingested = match kind {
                    Kind::Ingest => s.ingest_steps(shape.steps),
                    Kind::Query => s.ingest_nodes(
                        &planned.nodes[rd * shape.query_nodes..(rd + 1) * shape.query_nodes],
                    ),
                }
                .map_err(|e| e.msg)?;
                tracer.end(sp);
                let sp = tracer.begin("replay.ingest", Some(root));
                match kind {
                    Kind::Ingest => {
                        d.ingest_steps(&octx, &mut tracer, Some(sp), shape.steps)?;
                    }
                    Kind::Query => d.push_all(
                        &octx,
                        &mut tracer,
                        Some(sp),
                        &planned.nodes[rd * shape.query_nodes..(rd + 1) * shape.query_nodes],
                    ),
                }
                tracer.end(sp);
                let sp = tracer.begin("serve.session.estimate_json", Some(root));
                last = s.estimate_json(None);
                tracer.end(sp);
                d.estimate(&mut tracer, Some(root), population);
                tracer.end(root);
                replay_samples += ingested as u64;
            }
            let sizes = format!(
                "\"induced\":{}",
                cgte_serve::json::fmt_array(&d.est.sizes_induced)
            );
            if !last.contains(&sizes) {
                r.mismatch("layer decomposition diverged from the session");
            }
            if let Some((cid, rounds, body)) = &check {
                if c == 0 && k == 0 && (*rounds != shape.rounds || &last != body) {
                    r.mismatch(&format!(
                        "session {cid}: final estimate differs from the in-process replay"
                    ));
                }
            }
        }
    }
    if check.is_none() {
        r.mismatch("client 0 finished no session");
    }

    let walk = tracer.total("sampling.walk");
    let star = tracer.total("sampling.observe.star");
    let induced = tracer.total("sampling.observe.induced");
    let core = tracer.total("core.stream.estimate");
    let s_ingest = tracer.total("serve.session.ingest");
    let s_est = tracer.total("serve.session.estimate_json");
    let rtt = tracer.total("serve.transport.healthz");
    let e2e_ms: f64 = logs
        .iter()
        .flat_map(|l| l.ingest_ms.iter().chain(&l.estimate_ms))
        .sum();
    let round_requests: usize = logs
        .iter()
        .map(|l| l.ingest_ms.len() + l.estimate_ms.len())
        .sum();
    let transport_ms = rtt.mean_us() / 1e3 * round_requests as f64;

    layers.walk_ns_per_sample = per_sample(walk, replay_samples);
    layers.star_ns_per_sample = per_sample(star, replay_samples);
    layers.induced_ns_per_sample = per_sample(induced, replay_samples);
    layers.estimate_us = core.mean_us();
    layers.session_ingest_us = s_ingest.mean_us();
    layers.session_estimate_json_us = s_est.mean_us();
    layers.session_encode_us = s_est.mean_us() - core.mean_us();
    layers.transport_rtt_us = rtt.mean_us();
    layers.transport_share = transport_ms / e2e_ms;
    layers.requests = http_requests as f64;
    layers.requests_failed = http_failed as f64;
    layers.layer_share = (s_ingest.total_ms() + s_est.total_ms() + transport_ms) / e2e_ms;
    layers.overhead_share = traced_wall / plain_wall - 1.0;
    layers.traced_samples_per_s = http_samples as f64 / traced_wall;
    layers.emit(&mut r);

    let path = ctx.trace_path();
    std::fs::create_dir_all(path.parent().expect("trace dir"))
        .and_then(|()| tracer.write_jsonl(&path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    r.detail("trace_file", crate::json_str(&path.display().to_string()));
    r.detail("self_ms", tracer.self_ms_json());
    r.detail("replayed_samples", replay_samples.to_string());
    r.detail("replayed_rounds", s_ingest.count.to_string());
    r.detail("untraced_window_s", crate::num(plain_wall));
    r.detail("traced_window_s", crate::num(traced_wall));
    r.detail(
        "shape",
        format!(
            "{{\"clients\": {}, \"server_workers\": {}, \"sessions_per_client\": {n}, \"rounds_per_session\": {}, \"session_cap_samples\": {}}}",
            shape.clients,
            shape.workers,
            shape.rounds,
            shape.session_cap(kind)
        ),
    );
    Ok(r)
}
