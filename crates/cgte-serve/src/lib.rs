//! `cgte-serve` — the online category-graph estimation service.
//!
//! The paper's operating model as a long-running process: crawlers stream
//! node samples in over HTTP, category-graph estimates (sizes Eq. (4)/(5),
//! edge weights Eq. (8)/(9), and their Hansen–Hurwitz weighted forms) come
//! out at any prefix, and the server never sees more than the streaming
//! kernel's `O(C²)` sufficient statistics per session. Graphs are served
//! from the `.cgteg` store directory the scenario engine and `cgte ingest`
//! write — a warm cache means the server performs **zero graph builds**,
//! only validated loads.
//!
//! ## Endpoints
//!
//! | Method & path                  | Meaning |
//! |--------------------------------|---------|
//! | `GET /healthz`                 | liveness + counters |
//! | `GET /metrics`                 | Prometheus text exposition |
//! | `GET /graphs`                  | list the store's `.cgteg` entries |
//! | `POST /sessions`               | open a sampling session |
//! | `POST /sessions/{id}/ingest`   | ingest node ids or a walk budget |
//! | `GET /sessions/{id}/estimate`  | current estimates (`?ci=0.95`) |
//! | `POST /sessions/{id}/snapshot` | checkpoint to `{store}/sessions/*.cgtes` |
//! | `GET /sessions/{id}/snapshot`  | download the `.cgtes` bytes |
//! | `POST /sessions/restore`       | rehydrate a session from a snapshot |
//! | `DELETE /sessions/{id}`        | close a session |
//! | `POST /shutdown`               | stop accepting, drain, exit |
//!
//! Sessions are durable: `POST /sessions/{id}/snapshot` writes a
//! versioned, checksummed `.cgtes` file (same section framing as the
//! graph store) holding the resolved spec, the walk RNG state and the
//! observation push log; `POST /sessions/restore` replays it into a fresh
//! session whose estimates **and every future server-side draw** are
//! bit-identical to the original — a process kill between the two loses
//! nothing past the last checkpoint.
//!
//! Transport is a dependency-free HTTP/1.1 subset on
//! `std::net::TcpListener`, and the server is **event-driven**: the
//! `--threads` workers all wait on one vendored epoll poller ([`poll`])
//! that holds every idle connection, non-blocking and registered
//! one-shot. The worker handed a ready connection reads it, routes the
//! request, writes the response and re-arms the connection, so a request
//! never changes threads and an idle connection costs no thread. Serving
//! is Linux-only: the poller exists where `build.rs` sets
//! `cfg(cgte_epoll)` (64-bit Linux), and elsewhere the crate still
//! compiles but [`Server::bind`] answers `ErrorKind::Unsupported`.
//! Estimate values are bit-identical to the batch `run_experiment` path
//! on the same sampled sequence: both call the one shared snapshot
//! function (`cgte_core::estimate_stream_into`) over the same streaming
//! kernel (`cgte_sampling::ObservationStream`).

// `deny` rather than `forbid`: the vendored epoll module below is the
// single, explicitly-allowed exception (raw readiness syscalls for the
// event-driven engine); everything else in the crate stays unsafe-free —
// the same shape as `cgte-graph`'s mmap module.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Without the epoll engine nothing can be served, so the server half of
// the crate is unreachable there.
#![cfg_attr(not(cgte_epoll), allow(dead_code))]

pub mod client;
pub mod cluster;
#[cfg(cgte_epoll)]
mod event_loop;
pub mod fault;
pub mod http;
pub mod json;
#[cfg(cgte_epoll)]
#[allow(unsafe_code)]
pub mod poll;
pub mod registry;
pub mod session;

use cgte_sampling::snapshot;
use cgte_scenarios::artifact::{parse_json, Json};
use json::{error_body, fmt_str};
use registry::Registry;
use session::{Session, SessionSpec, DEFAULT_BOOTSTRAP_REPS, MAX_BOOTSTRAP_REPS};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process-global counters exposed by `GET /metrics`: transport totals
/// incremented by the hardened cluster client ([`cluster::RetryClient`])
/// and walk-cost totals incremented by session ingest.
pub mod counters {
    use std::sync::atomic::AtomicU64;

    /// Total request retries performed in this process.
    pub static RETRIES_TOTAL: AtomicU64 = AtomicU64::new(0);
    /// Total backoff slept before retries, in microseconds.
    pub static BACKOFF_MICROS_TOTAL: AtomicU64 = AtomicU64::new(0);
    /// Total chain transitions performed by server-side walks.
    pub static WALK_STEPS_TOTAL: AtomicU64 = AtomicU64::new(0);
    /// Total MHRW proposals declined by server-side walks.
    pub static WALK_REJECTIONS_TOTAL: AtomicU64 = AtomicU64::new(0);
}

/// Per-endpoint request accounting: a hit counter plus latency and
/// response-size histograms, all lock-free to record.
///
/// `/healthz` and `/metrics` hits land here under their own label and are
/// deliberately *excluded* from the aggregate `cgte_serve_requests_total`
/// counter, so scrape traffic can never masquerade as service load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Healthz,
    Metrics,
    Graphs,
    SessionOpen,
    SessionRestore,
    Ingest,
    Estimate,
    SnapshotSave,
    SnapshotGet,
    SessionClose,
    Shutdown,
    Other,
}

impl Endpoint {
    const COUNT: usize = 12;

    fn index(self) -> usize {
        self as usize
    }

    fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Graphs => "graphs",
            Endpoint::SessionOpen => "session_open",
            Endpoint::SessionRestore => "session_restore",
            Endpoint::Ingest => "ingest",
            Endpoint::Estimate => "estimate",
            Endpoint::SnapshotSave => "snapshot_save",
            Endpoint::SnapshotGet => "snapshot_get",
            Endpoint::SessionClose => "session_close",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    /// Classifies a request by the same (method, segments) shape
    /// [`route`] dispatches on; unknown shapes (404/405 answers) land
    /// under `other`.
    fn of(req: &http::Request) -> Endpoint {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Endpoint::Healthz,
            ("GET", ["metrics"]) => Endpoint::Metrics,
            ("GET", ["graphs"]) => Endpoint::Graphs,
            ("POST", ["sessions"]) => Endpoint::SessionOpen,
            ("POST", ["sessions", "restore"]) => Endpoint::SessionRestore,
            ("POST", ["sessions", _, "ingest"]) => Endpoint::Ingest,
            ("GET", ["sessions", _, "estimate"]) => Endpoint::Estimate,
            ("POST", ["sessions", _, "snapshot"]) => Endpoint::SnapshotSave,
            ("GET", ["sessions", _, "snapshot"]) => Endpoint::SnapshotGet,
            ("DELETE", ["sessions", _]) => Endpoint::SessionClose,
            ("POST", ["shutdown"]) => Endpoint::Shutdown,
            _ => Endpoint::Other,
        }
    }
}

/// Every endpoint, in label-index order (for exposition sweeps).
const ALL_ENDPOINTS: [Endpoint; Endpoint::COUNT] = [
    Endpoint::Healthz,
    Endpoint::Metrics,
    Endpoint::Graphs,
    Endpoint::SessionOpen,
    Endpoint::SessionRestore,
    Endpoint::Ingest,
    Endpoint::Estimate,
    Endpoint::SnapshotSave,
    Endpoint::SnapshotGet,
    Endpoint::SessionClose,
    Endpoint::Shutdown,
    Endpoint::Other,
];

#[derive(Debug, Default)]
struct EndpointStats {
    hits: AtomicU64,
    latency_us: cgte_obs::AtomicHistogram,
    resp_bytes: cgte_obs::AtomicHistogram,
}

/// A request-level failure: HTTP status + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// The HTTP status to answer with.
    pub status: u16,
    /// Human-readable cause, returned as `{"error": …}`.
    pub msg: String,
}

impl ServeError {
    /// 400 — malformed request (bad JSON, wrong types).
    pub fn bad_request(msg: impl Into<String>) -> Self {
        ServeError {
            status: 400,
            msg: msg.into(),
        }
    }

    /// 404 — unknown route, graph, partition or session.
    pub fn not_found(msg: impl Into<String>) -> Self {
        ServeError {
            status: 404,
            msg: msg.into(),
        }
    }

    /// 422 — well-formed but unusable (sampler errors, bad parameters).
    pub fn unprocessable(msg: impl Into<String>) -> Self {
        ServeError {
            status: 422,
            msg: msg.into(),
        }
    }

    /// 429 — the `--max-sessions` bound is reached (answered with a
    /// `Retry-After` header).
    pub fn too_many(msg: impl Into<String>) -> Self {
        ServeError {
            status: 429,
            msg: msg.into(),
        }
    }

    /// 500 — server-side failure (unreadable store file).
    pub fn internal(msg: impl Into<String>) -> Self {
        ServeError {
            status: 500,
            msg: msg.into(),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The `.cgteg` store directory graphs are served from.
    pub cache_dir: PathBuf,
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing requests (also bounds the one-time
    /// parallel index build per graph partition).
    pub threads: usize,
    /// Evict sessions idle longer than this many seconds (lazily, on the
    /// next session-table access). `None` disables eviction.
    pub session_ttl_secs: Option<u64>,
    /// Upper bound on concurrently open sessions; opening past it answers
    /// HTTP 429 with a `Retry-After` header.
    pub max_sessions: usize,
    /// Host graphs through the zero-copy mapped loader (default). All
    /// sessions on a graph share one read-only mapping; estimates are
    /// bit-identical to heap-hosted graphs.
    pub mmap: bool,
    /// Deadline for reading one request once its first byte has arrived,
    /// in milliseconds; expiry answers 408 and closes the connection (the
    /// slowloris bound). Idle keep-alive connections are unaffected.
    pub request_timeout_ms: u64,
    /// Largest accepted request body in bytes; longer advertised bodies
    /// answer 413 without being read. Clamped to the wire-format hard cap
    /// ([`http::MAX_BODY`]).
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_dir: PathBuf::from("graph-store"),
            addr: "127.0.0.1:7171".to_string(),
            threads: 4,
            session_ttl_secs: None,
            max_sessions: 1024,
            mmap: true,
            request_timeout_ms: 10_000,
            max_body_bytes: 8 << 20,
        }
    }
}

/// A live session behind its lock, plus its heap bytes (its observation
/// stream) as of its last ingest — kept outside the lock so a
/// `/metrics` scrape never waits on a session.
struct SessionSlot {
    session: Mutex<Session>,
    heap_bytes: AtomicU64,
}

/// One session-table entry: the session plus its idle clock (milliseconds
/// since server start, updated on every lookup — read without taking the
/// session's own lock so eviction sweeps never block behind an ingest).
struct SessionEntry {
    slot: Arc<SessionSlot>,
    last_used: AtomicU64,
}

struct ServerState {
    registry: Registry,
    cache_dir: PathBuf,
    sessions: Mutex<HashMap<String, SessionEntry>>,
    next_session: AtomicU64,
    requests: AtomicUsize,
    endpoints: [EndpointStats; Endpoint::COUNT],
    sessions_evicted: AtomicU64,
    snapshots_saved: AtomicU64,
    snapshots_restored: AtomicU64,
    threads: usize,
    session_ttl: Option<Duration>,
    max_sessions: usize,
    request_timeout: Duration,
    max_body: usize,
    accept_errors: AtomicU64,
    open_connections: AtomicU64,
    request_timeouts: AtomicU64,
    shutdown: AtomicBool,
    addr: SocketAddr,
    started: Instant,
    /// Write end of the engine's self-pipe: wakes every worker for
    /// shutdown.
    #[cfg(cgte_epoll)]
    waker: poll::Waker,
}

/// Accounts one open connection in the `cgte_serve_open_connections`
/// gauge for exactly as long as the guard lives. The guard travels with
/// the connection between the parked table and the workers, so the gauge
/// is correct no matter where the connection is dropped.
struct OpenConnGuard {
    state: Arc<ServerState>,
}

impl OpenConnGuard {
    fn new(state: &Arc<ServerState>) -> OpenConnGuard {
        state.open_connections.fetch_add(1, Ordering::Relaxed);
        OpenConnGuard {
            state: Arc::clone(state),
        }
    }
}

impl Drop for OpenConnGuard {
    fn drop(&mut self) {
        self.state.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ServerState {
    /// Milliseconds since the server started (the session idle clock).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The `Retry-After` hint on a 429: after one TTL some session has
    /// either been closed or become evictable.
    fn retry_after_secs(&self) -> u64 {
        self.session_ttl.map_or(1, |t| t.as_secs().max(1))
    }
}

/// A running server: bound address plus join/shutdown handles.
pub struct Server {
    state: Arc<ServerState>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, spawns the workers of the connection engine,
    /// and returns immediately. Fails with `ErrorKind::Unsupported` on
    /// targets without the epoll engine.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        #[cfg(not(cgte_epoll))]
        {
            let _ = cfg;
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "cgte serve needs the epoll engine (64-bit Linux)",
            ))
        }
        #[cfg(cgte_epoll)]
        {
            // Every worker waits on the one poller and serves what it is
            // handed; the last one to exit drops the engine.
            use std::os::unix::io::AsRawFd as _;
            let listener = std::net::TcpListener::bind(&cfg.addr)?;
            let addr = listener.local_addr()?;
            let poller = poll::Poller::new()?;
            let (wake_rx, waker) = poll::wake_pipe()?;
            poller.add(wake_rx.fd(), event_loop::TOKEN_WAKE)?;
            poller.add(listener.as_raw_fd(), event_loop::TOKEN_LISTENER)?;
            listener.set_nonblocking(true)?;
            let state = Arc::new(ServerState {
                registry: Registry::new(&cfg.cache_dir).mmap(cfg.mmap),
                cache_dir: cfg.cache_dir.clone(),
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(0),
                requests: AtomicUsize::new(0),
                endpoints: std::array::from_fn(|_| EndpointStats::default()),
                sessions_evicted: AtomicU64::new(0),
                snapshots_saved: AtomicU64::new(0),
                snapshots_restored: AtomicU64::new(0),
                threads: cfg.threads.max(1),
                session_ttl: cfg.session_ttl_secs.map(Duration::from_secs),
                max_sessions: cfg.max_sessions.max(1),
                request_timeout: Duration::from_millis(cfg.request_timeout_ms.max(1)),
                max_body: cfg.max_body_bytes.min(http::MAX_BODY),
                accept_errors: AtomicU64::new(0),
                open_connections: AtomicU64::new(0),
                request_timeouts: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                addr,
                started: Instant::now(),
                waker,
            });
            let engine = Arc::new(event_loop::Engine::new(
                Arc::clone(&state),
                listener,
                poller,
                wake_rx,
            ));
            let workers = (0..cfg.threads.max(1))
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    std::thread::spawn(move || engine.run_worker())
                })
                .collect();
            Ok(Server { state, workers })
        }
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Requests shutdown: sets the flag and wakes every worker over the
    /// self-pipe.
    pub fn shutdown(&self) {
        request_shutdown(&self.state);
    }

    /// Waits for every worker to exit (i.e. until a shutdown was requested
    /// and all in-flight work finished). Parked connections and the
    /// listener close with the last worker.
    pub fn join(self) {
        for w in self.workers {
            w.join().expect("worker thread panicked");
        }
    }
}

fn request_shutdown(state: &ServerState) {
    state.shutdown.store(true, Ordering::SeqCst);
    #[cfg(cgte_epoll)]
    state.waker.wake();
}

/// Runs a server in the foreground until shutdown. Prints the grep-able
/// `cgte-serve listening on ADDR` line to stderr once bound (CI's smoke
/// job waits for the port by polling `/healthz`).
pub fn run(cfg: &ServeConfig) -> std::io::Result<()> {
    let server = Server::bind(cfg)?;
    eprintln!(
        "cgte-serve listening on {} (store: {}, {} worker(s))",
        server.addr(),
        cfg.cache_dir.display(),
        cfg.threads.max(1),
    );
    server.join();
    eprintln!("cgte-serve: shutdown complete");
    Ok(())
}

/// Routes one request and records every per-request metric (aggregate
/// counter, span, per-endpoint hit/latency/size).
fn respond(state: &ServerState, req: &http::Request) -> http::Response {
    let endpoint = Endpoint::of(req);
    // Scrape/liveness traffic is accounted under its own endpoint label
    // only, never in the aggregate request counter.
    if !matches!(endpoint, Endpoint::Healthz | Endpoint::Metrics) {
        state.requests.fetch_add(1, Ordering::Relaxed);
    }
    let handle_started = Instant::now();
    let resp = {
        let mut span = cgte_obs::span(cgte_obs::LEVEL_COARSE, "serve.request");
        span.field_str("endpoint", endpoint.label());
        let resp = match route(state, req) {
            Ok(resp) => resp,
            Err(e) => {
                let mut resp = http::Response {
                    status: e.status,
                    content_type: "application/json",
                    headers: Vec::new(),
                    body: error_body(&e.msg).into_bytes(),
                };
                if e.status == 429 {
                    resp.headers
                        .push(("Retry-After", state.retry_after_secs().to_string()));
                }
                resp
            }
        };
        span.field_u64("status", resp.status as u64);
        span.field_u64("bytes", resp.body.len() as u64);
        resp
    };
    let stats = &state.endpoints[endpoint.index()];
    stats.hits.fetch_add(1, Ordering::Relaxed);
    stats
        .latency_us
        .record(handle_started.elapsed().as_micros() as u64);
    stats.resp_bytes.record(resp.body.len() as u64);
    resp
}

fn route(state: &ServerState, req: &http::Request) -> Result<http::Response, ServeError> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(http::Response::json(healthz(state))),
        ("GET", ["metrics"]) => Ok(http::Response::text(metrics(state))),
        ("GET", ["graphs"]) => Ok(http::Response::json(graphs(state))),
        ("POST", ["sessions"]) => open_session(state, &req.body).map(http::Response::json),
        ("POST", ["sessions", "restore"]) => {
            restore_session(state, &req.body).map(http::Response::json)
        }
        ("POST", ["sessions", id, "ingest"]) => {
            ingest(state, id, &req.body).map(http::Response::json)
        }
        ("GET", ["sessions", id, "estimate"]) => estimate(state, id, req).map(http::Response::json),
        ("POST", ["sessions", id, "snapshot"]) => {
            snapshot_save(state, id, req).map(http::Response::json)
        }
        ("GET", ["sessions", id, "snapshot"]) => {
            snapshot_download(state, id).map(http::Response::bytes)
        }
        ("DELETE", ["sessions", id]) => close_session(state, id).map(http::Response::json),
        ("POST", ["shutdown"]) => {
            request_shutdown(state);
            Ok(http::Response::json(
                "{\"status\":\"shutting down\"}".into(),
            ))
        }
        (_, ["healthz" | "metrics" | "graphs" | "shutdown"]) | (_, ["sessions", ..]) => {
            Err(ServeError {
                status: 405,
                msg: format!("method {} not allowed on {}", req.method, req.path),
            })
        }
        _ => Err(ServeError::not_found(format!(
            "no route for {} {}",
            req.method, req.path
        ))),
    }
}

fn healthz(state: &ServerState) -> String {
    evict_expired(state);
    let sessions = state.sessions.lock().expect("sessions lock poisoned").len();
    format!(
        "{{\"status\":\"ok\",\"graphs\":{},\"sessions\":{sessions},\"loads\":{},\"builds\":{},\"requests\":{},\"threads\":{},\"connections\":{},\"uptime_secs\":{:.3}}}",
        state.registry.count(),
        state.registry.loads(),
        state.registry.builds(),
        state.requests.load(Ordering::Relaxed),
        state.threads,
        state.open_connections.load(Ordering::Relaxed),
        state.started.elapsed().as_secs_f64(),
    )
}

/// `GET /metrics` — Prometheus text exposition format, one family per
/// counter the service keeps anyway (plus the process-global transport
/// retry totals the hardened cluster client maintains).
fn metrics(state: &ServerState) -> String {
    use std::fmt::Write as _;
    evict_expired(state);
    let (sessions, heap_bytes) = {
        let map = state.sessions.lock().expect("sessions lock poisoned");
        let heap: u64 = map
            .values()
            .map(|e| e.slot.heap_bytes.load(Ordering::Relaxed))
            .sum();
        (map.len(), heap)
    };
    let mut out = String::with_capacity(2048);
    let mut emit = |name: &str, kind: &str, help: &str, value: String| {
        let _ = write!(
            out,
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        );
    };
    emit(
        "cgte_serve_sessions_active",
        "gauge",
        "Currently open sessions.",
        sessions.to_string(),
    );
    emit(
        "cgte_serve_session_heap_bytes",
        "gauge",
        "Heap bytes of open sessions' observation streams, as of each session's last ingest: one push log each (12 B per sample), plus an induced block directory (n/16 B) and one 512 B mass block per 64-node word holding a sampled node with a neighbor in another category, plus a shared zero block, once the session samples such a node. The neighbor-category index and S-WRW walk table are shared per partition and not counted.",
        heap_bytes.to_string(),
    );
    emit(
        "cgte_serve_sessions_created_total",
        "counter",
        "Sessions ever opened or restored.",
        state.next_session.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_serve_sessions_evicted_total",
        "counter",
        "Sessions evicted by the idle TTL.",
        state.sessions_evicted.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_serve_requests_total",
        "counter",
        "HTTP requests handled.",
        state.requests.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_serve_open_connections",
        "gauge",
        "Connections currently held open (idle, parked, or in-flight).",
        state.open_connections.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_serve_accept_errors_total",
        "counter",
        "Accept failures (e.g. EMFILE), each followed by a backoff sleep.",
        state.accept_errors.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_serve_request_timeouts_total",
        "counter",
        "Requests answered 408 because the read deadline expired.",
        state.request_timeouts.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_serve_graph_loads_total",
        "counter",
        "Graphs loaded from the .cgteg store.",
        state.registry.loads().to_string(),
    );
    emit(
        "cgte_serve_graph_builds_total",
        "counter",
        "Graph builds performed by the server (stays 0: warm cache only).",
        state.registry.builds().to_string(),
    );
    emit(
        "cgte_serve_snapshots_saved_total",
        "counter",
        "Session snapshots written to the store.",
        state.snapshots_saved.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_serve_snapshots_restored_total",
        "counter",
        "Sessions rehydrated from snapshots.",
        state.snapshots_restored.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_client_retries_total",
        "counter",
        "Transport retries performed by this process's cluster client.",
        counters::RETRIES_TOTAL.load(Ordering::Relaxed).to_string(),
    );
    emit(
        "cgte_client_backoff_seconds_total",
        "counter",
        "Total backoff slept before retries.",
        format!(
            "{:.6}",
            counters::BACKOFF_MICROS_TOTAL.load(Ordering::Relaxed) as f64 / 1e6
        ),
    );
    emit(
        "cgte_serve_walk_steps_total",
        "counter",
        "Chain transitions performed by server-side walks.",
        counters::WALK_STEPS_TOTAL
            .load(Ordering::Relaxed)
            .to_string(),
    );
    emit(
        "cgte_serve_walk_rejections_total",
        "counter",
        "MHRW proposals declined by server-side walks.",
        counters::WALK_REJECTIONS_TOTAL
            .load(Ordering::Relaxed)
            .to_string(),
    );
    emit(
        "cgte_serve_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
        format!("{:.3}", state.started.elapsed().as_secs_f64()),
    );
    // Per-endpoint accounting. Scrape traffic (healthz/metrics) appears
    // only here, never in cgte_serve_requests_total.
    let _ = write!(
        out,
        "# HELP cgte_serve_endpoint_requests_total Requests by endpoint.\n# TYPE cgte_serve_endpoint_requests_total counter\n"
    );
    for ep in ALL_ENDPOINTS {
        let hits = state.endpoints[ep.index()].hits.load(Ordering::Relaxed);
        if hits > 0 {
            let _ = writeln!(
                out,
                "cgte_serve_endpoint_requests_total{{endpoint=\"{}\"}} {hits}",
                ep.label()
            );
        }
    }
    emit_endpoint_histogram(
        &mut out,
        state,
        "cgte_serve_request_duration_seconds",
        "Request handling latency by endpoint (log2 buckets).",
        1e-6,
        |s| &s.latency_us,
    );
    emit_endpoint_histogram(
        &mut out,
        state,
        "cgte_serve_response_size_bytes",
        "Response body size by endpoint (log2 buckets).",
        1.0,
        |s| &s.resp_bytes,
    );
    out
}

/// Writes one histogram family in Prometheus exposition form: `# HELP` /
/// `# TYPE` once, then cumulative `_bucket{endpoint=…,le=…}` series plus
/// `_sum`/`_count` for every endpoint with observations.
///
/// The log2 bucket layout is sparse-friendly: leading empty buckets and
/// the saturated tail are elided (the `+Inf` bucket always closes the
/// series), keeping the exposition compact without breaking cumulative
/// monotonicity.
fn emit_endpoint_histogram(
    out: &mut String,
    state: &ServerState,
    name: &str,
    help: &str,
    scale: f64,
    select: impl Fn(&EndpointStats) -> &cgte_obs::AtomicHistogram,
) {
    use std::fmt::Write as _;
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} histogram\n");
    let mut snap = cgte_obs::Histogram::new();
    for ep in ALL_ENDPOINTS {
        select(&state.endpoints[ep.index()]).snapshot_into(&mut snap);
        let total = snap.count();
        if total == 0 {
            continue;
        }
        let label = ep.label();
        let counts = snap.counts();
        let lo = counts.iter().position(|&c| c > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate().skip(lo) {
            cumulative += c;
            let le = cgte_obs::hist::bucket_upper(i) as f64 * scale;
            let _ = writeln!(
                out,
                "{name}_bucket{{endpoint=\"{label}\",le=\"{le}\"}} {cumulative}"
            );
            if cumulative == total {
                break;
            }
        }
        let _ = write!(
            out,
            "{name}_bucket{{endpoint=\"{label}\",le=\"+Inf\"}} {total}\n{name}_sum{{endpoint=\"{label}\"}} {}\n{name}_count{{endpoint=\"{label}\"}} {total}\n",
            snap.sum() as f64 * scale
        );
    }
}

fn graphs(state: &ServerState) -> String {
    let mut out = String::from("{\"graphs\":[");
    for (i, (entry, loaded)) in state.registry.list().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parts: Vec<String> = entry
            .summary
            .partitions
            .iter()
            .map(|p| fmt_str(p))
            .collect();
        out.push_str(&format!(
            "{{\"name\":{},\"nodes\":{},\"edges\":{},\"kind\":{},\"key\":{},\"partitions\":[{}],\"loaded\":{loaded}}}",
            fmt_str(&entry.name),
            entry.summary.num_nodes.map_or("null".into(), |n| n.to_string()),
            entry.summary.num_edges.map_or("null".into(), |n| n.to_string()),
            entry.summary.kind.as_deref().map_or("null".into(), fmt_str),
            entry.summary.key.as_deref().map_or("null".into(), fmt_str),
            parts.join(","),
        ));
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// JSON body helpers over the scenarios parser.

fn parse_body(body: &[u8]) -> Result<Json, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    parse_json(text).map_err(|e| ServeError::bad_request(format!("invalid JSON body: {}", e.msg)))
}

fn body_str(v: &Json, key: &str) -> Result<Option<String>, ServeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(ServeError::bad_request(format!(
            "{key} must be a string, got {other:?}"
        ))),
    }
}

fn body_u64(v: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 => Ok(Some(*x as u64)),
        Some(other) => Err(ServeError::bad_request(format!(
            "{key} must be a non-negative integer, got {other:?}"
        ))),
    }
}

/// Lazily sweeps the session table: drops every session idle past the
/// TTL. Entries whose `Arc` is held elsewhere (a request is mid-flight on
/// them) are never dropped — in-use is the opposite of idle.
fn evict_expired(state: &ServerState) {
    let Some(ttl) = state.session_ttl else { return };
    let ttl_ms = ttl.as_millis() as u64;
    let now = state.now_ms();
    let mut map = state.sessions.lock().expect("sessions lock poisoned");
    let before = map.len();
    map.retain(|_, e| {
        Arc::strong_count(&e.slot) > 1
            || now.saturating_sub(e.last_used.load(Ordering::Relaxed)) <= ttl_ms
    });
    let evicted = (before - map.len()) as u64;
    if evicted > 0 {
        state.sessions_evicted.fetch_add(evicted, Ordering::Relaxed);
        cgte_obs::event(
            cgte_obs::LEVEL_DETAIL,
            "serve.session_evict",
            &[("count", cgte_obs::Value::U64(evicted))],
        );
    }
}

/// Registers a freshly opened/restored session, enforcing the
/// `--max-sessions` bound (a full table after eviction is a 429).
fn insert_session(state: &ServerState, id: String, session: Session) -> Result<(), ServeError> {
    evict_expired(state);
    let mut map = state.sessions.lock().expect("sessions lock poisoned");
    if map.len() >= state.max_sessions {
        return Err(ServeError::too_many(format!(
            "session limit reached ({} open, max {})",
            map.len(),
            state.max_sessions
        )));
    }
    map.insert(
        id,
        SessionEntry {
            slot: Arc::new(SessionSlot {
                heap_bytes: AtomicU64::new(session.heap_bytes() as u64),
                session: Mutex::new(session),
            }),
            last_used: AtomicU64::new(state.now_ms()),
        },
    );
    Ok(())
}

fn open_session(state: &ServerState, body: &[u8]) -> Result<String, ServeError> {
    let v = parse_body(body)?;
    let spec = SessionSpec {
        graph: body_str(&v, "graph")?
            .ok_or_else(|| ServeError::bad_request("missing required field \"graph\""))?,
        partition: body_str(&v, "partition")?,
        sampler: body_str(&v, "sampler")?.unwrap_or_else(|| "rw".to_string()),
        design: body_str(&v, "design")?,
        seed: body_u64(&v, "seed")?.unwrap_or(42),
        burn_in: body_u64(&v, "burn_in")?.unwrap_or(0) as usize,
        thinning: body_u64(&v, "thinning")?.unwrap_or(1) as usize,
    };
    // Cheap bound pre-check before the potentially expensive open (first
    // use of a partition builds its neighbor-category index); the
    // authoritative check is in `insert_session`.
    evict_expired(state);
    if state.sessions.lock().expect("sessions lock poisoned").len() >= state.max_sessions {
        return Err(ServeError::too_many(format!(
            "session limit reached (max {})",
            state.max_sessions
        )));
    }
    let graph = state.registry.get(&spec.graph)?;
    let id = format!("s{}", state.next_session.fetch_add(1, Ordering::SeqCst));
    let session = Session::open(id.clone(), graph, &spec, state.threads)?;
    let response = session.opened_json();
    cgte_obs::event(
        cgte_obs::LEVEL_DETAIL,
        "serve.session_open",
        &[
            ("session", cgte_obs::Value::Str(&id)),
            ("graph", cgte_obs::Value::Str(&spec.graph)),
            ("sampler", cgte_obs::Value::Str(&spec.sampler)),
        ],
    );
    insert_session(state, id, session)?;
    Ok(response)
}

fn get_session(state: &ServerState, id: &str) -> Result<Arc<SessionSlot>, ServeError> {
    evict_expired(state);
    let map = state.sessions.lock().expect("sessions lock poisoned");
    match map.get(id) {
        Some(e) => {
            e.last_used.store(state.now_ms(), Ordering::Relaxed);
            Ok(Arc::clone(&e.slot))
        }
        None => Err(ServeError::not_found(format!("unknown session {id:?}"))),
    }
}

fn ingest(state: &ServerState, id: &str, body: &[u8]) -> Result<String, ServeError> {
    let v = parse_body(body)?;
    let slot = get_session(state, id)?;
    let mut session = slot.session.lock().expect("session lock poisoned");
    let ingested = match (v.get("nodes"), v.get("steps")) {
        (Some(Json::Arr(items)), None) => {
            let mut nodes = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u32::MAX as f64 => {
                        nodes.push(*x as u32)
                    }
                    other => {
                        return Err(ServeError::bad_request(format!(
                            "nodes entries must be non-negative integers, got {other:?}"
                        )))
                    }
                }
            }
            session.ingest_nodes(&nodes)?
        }
        (None, Some(_)) => {
            // `Some(Json::Null)` also lands here and body_u64 maps it to
            // `None` — a typed 422, never an expect/panic (a panicking
            // worker would shrink the pool for the server's lifetime).
            let steps = match body_u64(&v, "steps")? {
                Some(s) => s as usize,
                None => {
                    return Err(ServeError::unprocessable(
                        "steps must be a positive integer",
                    ))
                }
            };
            if steps == 0 {
                return Err(ServeError::unprocessable("steps must be positive"));
            }
            // `ingest_steps` checks the walk budget before walking.
            session.ingest_steps(steps)?
        }
        _ => {
            return Err(ServeError::bad_request(
                "body must have exactly one of \"nodes\": [ids…] or \"steps\": n",
            ))
        }
    };
    slot.heap_bytes
        .store(session.heap_bytes() as u64, Ordering::Relaxed);
    Ok(format!(
        "{{\"session\":{},\"ingested\":{ingested},\"len\":{}}}",
        fmt_str(id),
        session.len()
    ))
}

fn estimate(state: &ServerState, id: &str, req: &http::Request) -> Result<String, ServeError> {
    let ci = match req.query_value("ci") {
        None => None,
        Some(raw) => {
            let level: f64 = raw
                .parse()
                .map_err(|_| ServeError::bad_request(format!("invalid ci level {raw:?}")))?;
            if !(level > 0.0 && level < 1.0) {
                return Err(ServeError::unprocessable(format!(
                    "ci level must be in (0, 1), got {level}"
                )));
            }
            let reps = match req.query_value("reps") {
                None => DEFAULT_BOOTSTRAP_REPS,
                Some(raw) => raw
                    .parse()
                    .map_err(|_| ServeError::bad_request(format!("invalid reps {raw:?}")))?,
            };
            if reps == 0 || reps > MAX_BOOTSTRAP_REPS {
                return Err(ServeError::unprocessable(format!(
                    "reps must be in 1..={MAX_BOOTSTRAP_REPS}"
                )));
            }
            Some((level, reps))
        }
    };
    let slot = get_session(state, id)?;
    let mut session = slot.session.lock().expect("session lock poisoned");
    if let Some((_, reps)) = ci {
        session::check_ci_budget(reps, session.len())?;
    }
    Ok(session.estimate_json(ci))
}

fn close_session(state: &ServerState, id: &str) -> Result<String, ServeError> {
    match state
        .sessions
        .lock()
        .expect("sessions lock poisoned")
        .remove(id)
    {
        Some(_) => {
            cgte_obs::event(
                cgte_obs::LEVEL_DETAIL,
                "serve.session_close",
                &[("session", cgte_obs::Value::Str(id))],
            );
            Ok(format!("{{\"session\":{},\"closed\":true}}", fmt_str(id)))
        }
        None => Err(ServeError::not_found(format!("unknown session {id:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Durable session snapshots.

/// Validates a snapshot file stem: a flat name in the store's `sessions/`
/// directory, never a path. The charset (no separators) plus the no-dot
/// prefix rule make traversal (`../…`) unrepresentable.
fn sanitize_snapshot_name(name: &str) -> Result<&str, ServeError> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
    if ok {
        Ok(name)
    } else {
        Err(ServeError::bad_request(format!(
            "invalid snapshot name {name:?} (letters, digits, '-', '_', '.'; no leading '.')"
        )))
    }
}

/// Where a named snapshot lives: `{cache_dir}/sessions/{name}.cgtes`.
fn snapshot_path(state: &ServerState, name: &str) -> PathBuf {
    state
        .cache_dir
        .join("sessions")
        .join(format!("{name}.cgtes"))
}

/// `POST /sessions/{id}/snapshot` — checkpoints the session to the cache
/// dir (atomically: temp file + rename, so a crash mid-write can never
/// leave a half-snapshot under the final name). `?name=…` overrides the
/// file stem (default: the session id).
fn snapshot_save(state: &ServerState, id: &str, req: &http::Request) -> Result<String, ServeError> {
    let name = sanitize_snapshot_name(req.query_value("name").unwrap_or(id))?.to_string();
    let slot = get_session(state, id)?;
    let (bytes, len) = {
        let session = slot.session.lock().expect("session lock poisoned");
        (session.snapshot_bytes(), session.len())
    };
    let path = snapshot_path(state, &name);
    let dir = path.parent().expect("snapshot path has a parent");
    std::fs::create_dir_all(dir)
        .map_err(|e| ServeError::internal(format!("cannot create {}: {e}", dir.display())))?;
    let tmp = dir.join(format!(".{name}.cgtes.tmp"));
    std::fs::write(&tmp, &bytes)
        .map_err(|e| ServeError::internal(format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| ServeError::internal(format!("cannot rename to {}: {e}", path.display())))?;
    state.snapshots_saved.fetch_add(1, Ordering::Relaxed);
    cgte_obs::event(
        cgte_obs::LEVEL_DETAIL,
        "serve.snapshot_save",
        &[
            ("session", cgte_obs::Value::Str(id)),
            ("name", cgte_obs::Value::Str(&name)),
            ("bytes", cgte_obs::Value::U64(bytes.len() as u64)),
        ],
    );
    Ok(format!(
        "{{\"session\":{},\"snapshot\":{},\"bytes\":{},\"len\":{len}}}",
        fmt_str(id),
        fmt_str(&name),
        bytes.len(),
    ))
}

/// `GET /sessions/{id}/snapshot` — the `.cgtes` bytes over the wire (the
/// coordinator checkpoints remote shards without sharing a filesystem).
fn snapshot_download(state: &ServerState, id: &str) -> Result<Vec<u8>, ServeError> {
    let slot = get_session(state, id)?;
    let session = slot.session.lock().expect("session lock poisoned");
    Ok(session.snapshot_bytes())
}

/// `POST /sessions/restore` — rehydrates a session under a fresh id.
/// The body is either raw `.cgtes` bytes (magic-sniffed) or JSON
/// `{"snapshot": name}` naming a file saved by `snapshot_save`.
fn restore_session(state: &ServerState, body: &[u8]) -> Result<String, ServeError> {
    let from_disk;
    let bytes: &[u8] = if body.starts_with(snapshot::MAGIC) {
        body
    } else {
        let v = parse_body(body)?;
        let name = body_str(&v, "snapshot")?.ok_or_else(|| {
            ServeError::bad_request("body must be raw .cgtes bytes or {\"snapshot\": \"name\"}")
        })?;
        let path = snapshot_path(state, sanitize_snapshot_name(&name)?);
        from_disk = std::fs::read(&path)
            .map_err(|e| ServeError::not_found(format!("cannot read snapshot {name:?}: {e}")))?;
        &from_disk
    };
    let container = snapshot::read_snapshot(bytes)
        .map_err(|e| ServeError::unprocessable(format!("invalid snapshot: {e}")))?;
    let graph_name = Session::snapshot_graph_name(&container)?;
    let graph = state.registry.get(&graph_name)?;
    let id = format!("s{}", state.next_session.fetch_add(1, Ordering::SeqCst));
    let session = Session::restore(id.clone(), graph, &container, state.threads)?;
    let len = session.len();
    let opened = session.opened_json();
    cgte_obs::event(
        cgte_obs::LEVEL_DETAIL,
        "serve.session_restore",
        &[
            ("session", cgte_obs::Value::Str(&id)),
            ("graph", cgte_obs::Value::Str(&graph_name)),
            ("len", cgte_obs::Value::U64(len as u64)),
        ],
    );
    insert_session(state, id, session)?;
    state.snapshots_restored.fetch_add(1, Ordering::Relaxed);
    // `opened_json` ends with '}': splice the restore flag in.
    Ok(format!(
        "{},\"restored\":true}}",
        &opened[..opened.len() - 1]
    ))
}
