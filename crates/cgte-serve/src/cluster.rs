//! Sharded estimation: a fault-tolerant coordinator over `cgte-serve`.
//!
//! The coordinator fans a walk budget out as `walkers` independent
//! sessions across N shard servers, checkpoints them as `.cgtes`
//! snapshots, and merges the final observation logs into **one** stream
//! whose estimates are bit-exact against the single-box path
//! ([`single_box_reference`]). Three properties make that equivalence
//! hold under failures:
//!
//! 1. **Walkers, not shards, are the unit of determinism.** Walker `i`
//!    draws from its own seed ([`derive_walker_seed`]), so *where* it runs
//!    never matters — only that its batches arrive in order.
//! 2. **Snapshots sit on batch boundaries.** A restored walker re-issues
//!    the same batch sizes its uninterrupted twin would have, and the
//!    xoshiro state stored in the snapshot makes the redrawn samples
//!    identical.
//! 3. **Merging replays logs in walker order.** The merged stream is the
//!    same push sequence the reference produces locally.
//!
//! The transport is hardened: per-request connect/read timeouts, bounded
//! retries with exponential backoff and seeded jitter, a circuit breaker
//! that stops hammering a dead shard, and *resync-instead-of-retry* for
//! the non-idempotent ingest POST (after a transport error the
//! coordinator reads the session length back to learn whether the batch
//! was applied — a blind retry could double-ingest). A shard death
//! redistributes its walkers to survivors, restoring each from its last
//! snapshot; only when **no** shard survives does the run degrade, and
//! then the result says so ([`ClusterRun::degraded`] + coverage) instead
//! of hanging or silently answering from partial data.
//!
//! Within a round, the per-walker HTTP round trips fan out over a
//! [`ClusterConfig::round_threads`]-bounded worker pool, so a round's
//! wall-clock is the *slowest* walker trip rather than the sum of all of
//! them. Each worker owns one private [`RetryClient`] per shard; the
//! canonical per-shard breaker state stays with the coordinator thread,
//! crossing the pool boundary through a shared health table on dispatch
//! and through per-walker outcomes (folded back in walker-index order)
//! on completion — so placement decisions never depend on thread
//! scheduling. Dead shards are probed half-open at every checkpoint
//! boundary; a shard that answers again *rejoins*, and walkers migrate
//! back onto it toward an even walkers-per-shard spread (their next
//! placement restores the freshly-taken checkpoint there, which is why
//! rebalancing cannot disturb bit-exactness).

use crate::fault::mix64;
use crate::session::build_sampler;
use crate::{counters, http, ServeError};
use cgte_graph::{Graph, Partition};
use cgte_sampling::{snapshot, NodeSampler, ObservationContext, ObservationStream};
use cgte_scenarios::artifact::{parse_json, Json};
use crossbeam::channel;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// A coordinator-fatal failure. Shard deaths are *not* errors — they end
/// in a degraded [`ClusterRun`]; this type is for misconfiguration and
/// protocol violations (a 4xx from a shard means the spec itself is bad).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Bad coordinator configuration (no shards, zero budget, …).
    Config(String),
    /// A shard answered in a way retries cannot fix.
    Shard(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(m) => write!(f, "cluster config error: {m}"),
            ClusterError::Shard(m) => write!(f, "shard error: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ServeError> for ClusterError {
    fn from(e: ServeError) -> Self {
        ClusterError::Config(e.msg)
    }
}

// ---------------------------------------------------------------------------
// Hardened transport.

/// Retry/timeout policy of the coordinator's shard client.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout per attempt (catches slow-loris stalls).
    pub request_timeout: Duration,
    /// Retries after the first attempt (idempotent requests only).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive failed *requests* (post-retry) that open the circuit.
    pub breaker_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_millis(1000),
            request_timeout: Duration::from_millis(5000),
            max_retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(2000),
            breaker_threshold: 2,
        }
    }
}

/// A transport-level client failure.
#[derive(Debug, Clone)]
pub enum ClientError {
    /// Connect/read/write failed (refused, reset, timeout, mid-body EOF).
    Transport(String),
    /// The server answered 5xx on every attempt.
    Http(u16, String),
    /// The circuit is open: the shard is considered dead.
    CircuitOpen,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport: {m}"),
            ClientError::Http(s, m) => write!(f, "http {s}: {m}"),
            ClientError::CircuitOpen => write!(f, "circuit open"),
        }
    }
}

/// One shard's hardened HTTP client: fresh connection per request (the
/// state of a connection that just saw a fault is unknowable), timeouts
/// on every socket operation, bounded retries with seeded-jitter
/// exponential backoff, and a circuit breaker.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    jitter: StdRng,
    consecutive_failures: u32,
    open: bool,
    /// Retries this client spent — summed per run, unlike the
    /// process-global `counters::RETRIES_TOTAL` kept for `/metrics`.
    run_retries: u64,
    /// Suppresses breaker_open/breaker_reset events: worker-pool clients
    /// are local mirrors, only the coordinator logs canonical transitions.
    quiet: bool,
}

impl RetryClient {
    /// A client for `addr` (`host:port`). `jitter_seed` makes backoff
    /// delays — and therefore fault-injection test timelines —
    /// reproducible.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy, jitter_seed: u64) -> RetryClient {
        RetryClient {
            addr: addr.into(),
            policy,
            jitter: StdRng::seed_from_u64(jitter_seed),
            consecutive_failures: 0,
            open: false,
            run_retries: 0,
            quiet: false,
        }
    }

    /// Silences this client's breaker transition events. Worker-pool
    /// clients are quiet: their breakers only mirror the coordinator's
    /// canonical per-shard state, and double-logging every mirror flip
    /// would drown the real transitions.
    pub fn quiet(mut self) -> RetryClient {
        self.quiet = true;
        self
    }

    /// The shard address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the circuit breaker has declared the shard dead.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Retries this client performed so far (its contribution to
    /// [`ClusterRun::retries`]).
    pub fn retries_spent(&self) -> u64 {
        self.run_retries
    }

    /// Forces the circuit open (the coordinator calls this when a
    /// non-retryable interaction proves the shard gone).
    pub fn trip(&mut self) {
        if !self.open {
            self.open = true;
            if !self.quiet {
                cgte_obs::event(
                    cgte_obs::LEVEL_DETAIL,
                    "cluster.breaker_open",
                    &[("addr", cgte_obs::Value::Str(&self.addr))],
                );
            }
        }
    }

    /// Closes the circuit (e.g. after a successful half-open probe).
    pub fn reset(&mut self) {
        if self.open && !self.quiet {
            cgte_obs::event(
                cgte_obs::LEVEL_DETAIL,
                "cluster.breaker_reset",
                &[("addr", cgte_obs::Value::Str(&self.addr))],
            );
        }
        self.open = false;
        self.consecutive_failures = 0;
    }

    /// Half-open liveness probe: one `/healthz` GET that bypasses the
    /// open-circuit check. Only a `200` closes the breaker; any failure
    /// (re-)trips it, so a dead shard stays quarantined — probing must
    /// never leak a closed breaker for a shard that did not answer.
    pub fn probe(&mut self) -> bool {
        match self.once("GET", "/healthz", b"") {
            Ok(resp) if resp.status == 200 => {
                self.reset();
                true
            }
            _ => {
                self.trip();
                false
            }
        }
    }

    /// `GET` with retries (idempotent by definition).
    pub fn get(&mut self, path: &str) -> Result<(u16, Vec<u8>), ClientError> {
        self.request("GET", path, b"", true)
    }

    /// `POST` with retries — only for requests where a duplicate apply is
    /// harmless (open/restore create orphan sessions at worst; snapshot
    /// save overwrites with identical bytes).
    pub fn post(&mut self, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), ClientError> {
        self.request("POST", path, body, true)
    }

    /// `POST` without retries, for non-idempotent requests (ingest). The
    /// caller must resync on [`ClientError::Transport`] instead of
    /// re-sending blindly.
    pub fn post_no_retry(
        &mut self,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), ClientError> {
        self.request("POST", path, body, false)
    }

    /// `DELETE` with retries (idempotent: a repeat is a harmless 404).
    pub fn delete(&mut self, path: &str) -> Result<(u16, Vec<u8>), ClientError> {
        self.request("DELETE", path, b"", true)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        retry: bool,
    ) -> Result<(u16, Vec<u8>), ClientError> {
        if self.open {
            return Err(ClientError::CircuitOpen);
        }
        let attempts = if retry {
            self.policy.max_retries + 1
        } else {
            1
        };
        let mut last = ClientError::Transport("no attempt made".to_string());
        for attempt in 0..attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            match self.once(method, path, body) {
                Ok(resp) if resp.status >= 500 => {
                    last = ClientError::Http(
                        resp.status,
                        String::from_utf8_lossy(&resp.body).into_owned(),
                    );
                }
                Ok(resp) => {
                    self.consecutive_failures = 0;
                    return Ok((resp.status, resp.body));
                }
                Err(e) => last = ClientError::Transport(e.to_string()),
            }
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.policy.breaker_threshold {
            self.trip();
        }
        Err(last)
    }

    /// Exponential backoff with jitter: `base·2^(attempt-1)` capped at
    /// `backoff_max`, then scaled into `[½, 1]` by the seeded RNG so
    /// concurrent retries don't synchronize.
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .policy
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.policy.backoff_max);
        let micros = exp.as_micros() as u64;
        let jittered = micros / 2 + self.jitter.next_u64() % (micros / 2 + 1);
        self.run_retries += 1;
        counters::RETRIES_TOTAL.fetch_add(1, Ordering::Relaxed);
        counters::BACKOFF_MICROS_TOTAL.fetch_add(jittered, Ordering::Relaxed);
        cgte_obs::event(
            cgte_obs::LEVEL_DETAIL,
            "cluster.retry",
            &[
                ("addr", cgte_obs::Value::Str(&self.addr)),
                ("attempt", cgte_obs::Value::U64(attempt as u64)),
                ("delay_us", cgte_obs::Value::U64(jittered)),
            ],
        );
        std::thread::sleep(Duration::from_micros(jittered));
    }

    fn once(&self, method: &str, path: &str, body: &[u8]) -> std::io::Result<http::ParsedResponse> {
        let addr = self
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("cannot resolve {:?}", self.addr)))?;
        let stream = TcpStream::connect_timeout(&addr, self.policy.connect_timeout)?;
        stream.set_read_timeout(Some(self.policy.request_timeout))?;
        stream.set_write_timeout(Some(self.policy.request_timeout))?;
        let _ = stream.set_nodelay(true);
        http::write_request(&mut &stream, method, path, body, true)?;
        http::read_response(&mut BufReader::new(stream))
    }
}

// ---------------------------------------------------------------------------
// Coordinator.

/// The deterministic per-walker seed: walker `i`'s draws depend only on
/// `(cluster seed, i)`, never on shard placement or failure history. The
/// coordinator and [`single_box_reference`] must agree on this function —
/// it *is* the bit-exactness contract.
///
/// Masked to 53 bits: the seed travels to shards as a JSON number, and
/// only integers up to 2⁵³ survive the `f64` round trip exactly. A wider
/// seed would be silently rounded server-side and every walk would
/// diverge from the local reference.
pub fn derive_walker_seed(seed: u64, walker: usize) -> u64 {
    mix64(seed ^ mix64(walker as u64 + 1)) & ((1u64 << 53) - 1)
}

/// A sharded run's parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Registry name of the graph (must exist in every shard's store and
    /// in the coordinator's local store for merging).
    pub graph: String,
    /// Partition name (default: the graph's first).
    pub partition: Option<String>,
    /// Sampler key: `uis`, `rw`, `mhrw`, `swrw`.
    pub sampler: String,
    /// `uniform`/`weighted` (default: the sampler's natural design).
    pub design: Option<String>,
    /// Cluster seed; walker `i` runs on [`derive_walker_seed`]`(seed, i)`.
    pub seed: u64,
    /// Walk burn-in per ingest batch.
    pub burn_in: usize,
    /// Walk thinning factor.
    pub thinning: usize,
    /// Independent walkers to fan out.
    pub walkers: usize,
    /// Retained samples each walker must produce.
    pub steps_per_walker: usize,
    /// Samples per ingest round (the checkpoint granularity).
    pub batch: usize,
    /// Checkpoint every this many rounds (0 = only the final state).
    pub snapshot_every: usize,
    /// Worker threads driving a round's per-walker HTTP trips. `1` keeps
    /// the trips fully sequential; any value yields the same merged
    /// stream bit-for-bit (placement and merging stay on the
    /// coordinator thread, in walker order).
    pub round_threads: usize,
    /// Transport policy for every shard client.
    pub policy: RetryPolicy,
    /// Seed of the backoff-jitter RNGs.
    pub jitter_seed: u64,
}

impl ClusterConfig {
    /// A config with the service defaults for `graph`.
    pub fn new(graph: impl Into<String>) -> ClusterConfig {
        ClusterConfig {
            graph: graph.into(),
            partition: None,
            sampler: "rw".to_string(),
            design: None,
            seed: 42,
            burn_in: 0,
            thinning: 1,
            walkers: 4,
            steps_per_walker: 1000,
            batch: 250,
            snapshot_every: 1,
            round_threads: 1,
            policy: RetryPolicy::default(),
            jitter_seed: 0,
        }
    }
}

/// Coordinator progress events, delivered to the hook passed to
/// [`run_cluster_with`]. Integration tests use `RoundDone` to kill a
/// shard process at an exact, reproducible point in the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// All live walkers finished round `round` (0-based).
    RoundDone {
        /// The completed round.
        round: usize,
    },
    /// A shard's circuit opened; its walkers will be redistributed.
    ShardDead {
        /// Index into the shard list.
        shard: usize,
    },
    /// A walker was re-homed (restored from its last snapshot, or
    /// restarted from seed if it never checkpointed).
    WalkerMoved {
        /// Walker index.
        walker: usize,
        /// Previous shard.
        from: usize,
        /// New shard.
        to: usize,
    },
    /// A dead shard answered its half-open probe at a checkpoint
    /// boundary; walkers rebalance back onto it.
    ShardRejoined {
        /// Index into the shard list.
        shard: usize,
    },
}

/// The outcome of a sharded run.
#[derive(Debug)]
pub struct ClusterRun {
    /// The merged observation stream (completed walkers, walker order) —
    /// bit-exact vs [`single_box_reference`] when `degraded` is false.
    pub stream: ObservationStream,
    /// Walkers requested.
    pub walkers_total: usize,
    /// Walkers that delivered their full budget.
    pub walkers_completed: usize,
    /// True iff some walkers could not finish (all shards dead): the
    /// estimate covers only `coverage` of the requested budget.
    pub degraded: bool,
    /// Fraction of walkers whose budget is in the merged stream.
    pub coverage: f64,
    /// Shards still alive at the end.
    pub shards_alive: usize,
    /// Shards configured.
    pub shards_total: usize,
    /// Transport retries spent during *this* run, summed over its own
    /// clients — concurrent runs in one process do not bleed into each
    /// other (the process-global counter feeds `/metrics` only).
    pub retries: u64,
    /// Walker re-homings performed.
    pub reassignments: usize,
    /// Ingest rounds driven.
    pub rounds: usize,
}

/// One walker's coordinator-side state.
struct Walker {
    seed: u64,
    shard: usize,
    session: Option<String>,
    /// Committed retained samples in the *current* session.
    done: usize,
    /// Last checkpoint: (samples at checkpoint, `.cgtes` bytes).
    checkpoint: Option<(usize, Vec<u8>)>,
    complete: bool,
    failed: bool,
}

fn json_field(body: &[u8], key: &str) -> Option<Json> {
    let text = std::str::from_utf8(body).ok()?;
    parse_json(text).ok()?.get(key).cloned()
}

fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    match json_field(body, key)? {
        Json::Num(x) if x >= 0.0 && x.fract() == 0.0 => Some(x as u64),
        _ => None,
    }
}

fn json_str(body: &[u8], key: &str) -> Option<String> {
    match json_field(body, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// Runs the cluster with a no-op progress hook. See [`run_cluster_with`].
pub fn run_cluster(
    cfg: &ClusterConfig,
    shards: &[String],
    ctx: &ObservationContext<'_>,
) -> Result<ClusterRun, ClusterError> {
    run_cluster_with(cfg, shards, ctx, |_| {})
}

/// One walker's work order for a round, shipped to the worker pool. The
/// coordinator decides *what* happens (placement, shard, batch size,
/// checkpoint-or-not) before dispatch; workers only execute HTTP trips.
struct RoundTask {
    walker: usize,
    shard: usize,
    session: String,
    done: usize,
    batch: usize,
    /// True when this round sits on the snapshot cadence: download a
    /// checkpoint after the ingest (always done on budget completion).
    checkpoint_due: bool,
    /// `cluster.round` span id — TLS span context does not follow work
    /// onto pool threads, so the parent crosses explicitly.
    span_parent: u64,
}

/// What a [`RoundTask`] produced, folded back on the coordinator thread.
struct RoundOutcome {
    /// Committed session length after the ingest (None: no progress).
    new_len: Option<usize>,
    /// Downloaded `.cgtes` checkpoint at `new_len`, when one was due.
    checkpoint: Option<Vec<u8>>,
    /// The walker delivered its full budget (final checkpoint in hand).
    completed: bool,
    /// The shard failed at the transport level mid-task; the coordinator
    /// runs the canonical `shard_died` transition.
    shard_failed: bool,
}

impl RoundOutcome {
    fn failed() -> RoundOutcome {
        RoundOutcome {
            new_len: None,
            checkpoint: None,
            completed: false,
            shard_failed: true,
        }
    }
}

/// Drives a full sharded estimation run and merges the result.
///
/// `ctx` is the coordinator's *local* view of the same graph + partition
/// the shards serve (loaded from the shared `.cgteg` store); it is used
/// to replay the downloaded logs into the merged stream. `hook` receives
/// [`ClusterEvent`]s as they happen.
///
/// Per-walker HTTP trips of a round run on `cfg.round_threads` pool
/// workers; everything that decides placement or ordering — walker
/// state, canonical breakers, event emission, the merge — stays on this
/// thread, so the result is bit-identical at any thread count.
pub fn run_cluster_with(
    cfg: &ClusterConfig,
    shards: &[String],
    ctx: &ObservationContext<'_>,
    mut hook: impl FnMut(ClusterEvent),
) -> Result<ClusterRun, ClusterError> {
    if shards.is_empty() {
        return Err(ClusterError::Config("no shards given".to_string()));
    }
    if cfg.walkers == 0 || cfg.steps_per_walker == 0 || cfg.batch == 0 {
        return Err(ClusterError::Config(
            "walkers, steps_per_walker and batch must be positive".to_string(),
        ));
    }
    if cfg.round_threads == 0 {
        return Err(ClusterError::Config(
            "round_threads must be positive".to_string(),
        ));
    }
    let mut clients: Vec<RetryClient> = shards
        .iter()
        .enumerate()
        .map(|(i, a)| {
            RetryClient::new(
                a.clone(),
                cfg.policy.clone(),
                mix64(cfg.jitter_seed ^ (i as u64 + 0x5EED)),
            )
        })
        .collect();
    let mut walkers: Vec<Walker> = (0..cfg.walkers)
        .map(|i| Walker {
            seed: derive_walker_seed(cfg.seed, i),
            shard: i % shards.len(),
            session: None,
            done: 0,
            checkpoint: None,
            complete: false,
            failed: false,
        })
        .collect();
    let mut reassignments = 0usize;
    let mut rounds = 0usize;

    // Shared per-shard health table: true = the shard is considered dead.
    // Written by the coordinator on dispatch (canonical state) and by a
    // worker whose client just tripped, so sibling tasks already queued
    // against a corpse short-circuit instead of each burning the full
    // timeout budget.
    let pool_workers = cfg.round_threads.min(cfg.walkers);
    let shard_down: Vec<AtomicBool> = shards.iter().map(|_| AtomicBool::new(false)).collect();
    let pool_retries = AtomicU64::new(0);

    let mut loop_result: Result<(), ClusterError> = Ok(());
    crossbeam::scope(|scope| {
        let (task_tx, task_rx) = channel::unbounded::<RoundTask>();
        let (out_tx, out_rx) = channel::unbounded::<(usize, Result<RoundOutcome, ClusterError>)>();
        for worker in 0..pool_workers {
            let task_rx = task_rx.clone();
            let out_tx = out_tx.clone();
            let shard_down = &shard_down;
            let pool_retries = &pool_retries;
            scope.spawn(move |_| {
                round_worker(
                    cfg,
                    shards,
                    worker,
                    ctx,
                    shard_down,
                    task_rx,
                    out_tx,
                    pool_retries,
                )
            });
        }
        drop(task_rx);
        drop(out_tx);

        loop_result = (|| -> Result<(), ClusterError> {
            loop {
                let mut progressed = false;
                let mut round_span = cgte_obs::span(cgte_obs::LEVEL_COARSE, "cluster.round");
                round_span.field_u64("round", rounds as u64);
                let round_span_id = round_span.id();

                // Phase 1 (coordinator): place detached walkers. Runs on
                // the canonical clients so breaker decisions and
                // WalkerMoved events stay deterministic.
                for (i, w) in walkers.iter_mut().enumerate() {
                    if w.complete || w.failed || w.session.is_some() {
                        continue;
                    }
                    if !place_walker(cfg, &mut clients, w, i, &mut reassignments, &mut hook)? {
                        w.failed = true;
                    }
                }
                // Publish the canonical breaker state to the pool.
                for (s, c) in clients.iter().enumerate() {
                    shard_down[s].store(c.is_open(), Ordering::Release);
                }

                // Phase 2: fan this round's per-walker trips out.
                let boundary =
                    cfg.snapshot_every > 0 && (rounds + 1).is_multiple_of(cfg.snapshot_every);
                let mut in_flight = 0usize;
                for (i, w) in walkers.iter().enumerate() {
                    if w.complete || w.failed {
                        continue;
                    }
                    let Some(session) = w.session.clone() else {
                        continue;
                    };
                    task_tx
                        .send(RoundTask {
                            walker: i,
                            shard: w.shard,
                            session,
                            done: w.done,
                            batch: cfg.batch.min(cfg.steps_per_walker - w.done),
                            checkpoint_due: boundary,
                            span_parent: round_span_id,
                        })
                        .map_err(|_| {
                            ClusterError::Shard("round worker pool is gone".to_string())
                        })?;
                    in_flight += 1;
                }
                let mut outcomes = Vec::with_capacity(in_flight);
                for _ in 0..in_flight {
                    outcomes.push(out_rx.recv().map_err(|_| {
                        ClusterError::Shard("round worker pool died mid-round".to_string())
                    })?);
                }
                // Phase 3 (coordinator): fold outcomes back in walker
                // order — arrival order depends on thread scheduling,
                // state updates must not.
                outcomes.sort_by_key(|(i, _)| *i);
                for (i, outcome) in outcomes {
                    let o = outcome?;
                    let w = &mut walkers[i];
                    if let Some(len) = o.new_len {
                        w.done = len;
                        progressed = true;
                    }
                    if let Some(bytes) = o.checkpoint {
                        w.checkpoint = Some((w.done, bytes));
                    }
                    if o.completed {
                        w.complete = true;
                    } else if o.shard_failed {
                        shard_died(&mut clients, w, &mut hook);
                    }
                }

                // Phase 4: at checkpoint boundaries, probe dead shards
                // half-open; a shard that answers rejoins and walkers
                // rebalance back onto it. Bound to boundaries so every
                // migration restores a just-taken checkpoint.
                if boundary {
                    let mut rejoined = false;
                    for (s, c) in clients.iter_mut().enumerate() {
                        if c.is_open() && c.probe() {
                            rejoined = true;
                            cgte_obs::event(
                                cgte_obs::LEVEL_DETAIL,
                                "cluster.shard_rejoined",
                                &[("shard", cgte_obs::Value::U64(s as u64))],
                            );
                            hook(ClusterEvent::ShardRejoined { shard: s });
                        }
                    }
                    if rejoined {
                        rebalance(&mut clients, &mut walkers, &mut reassignments, &mut hook);
                    }
                }

                drop(round_span);
                hook(ClusterEvent::RoundDone { round: rounds });
                rounds += 1;
                if walkers.iter().all(|w| w.complete || w.failed) {
                    break;
                }
                // Deadlock guard: a fully-dead cluster fails the
                // remaining walkers (after one last half-open probe pass)
                // instead of spinning forever. `probe` keeps the breaker
                // open on failure, so no compensating trip is needed.
                if !progressed && clients.iter().all(RetryClient::is_open) {
                    let mut any_back = false;
                    for c in clients.iter_mut() {
                        if c.probe() {
                            any_back = true;
                        }
                    }
                    if !any_back {
                        for w in walkers.iter_mut() {
                            if !w.complete {
                                w.failed = true;
                            }
                        }
                        break;
                    }
                }
            }
            Ok(())
        })();
        drop(task_tx);
    })
    .map_err(|_| ClusterError::Shard("round worker panicked".to_string()))?;
    loop_result?;

    // Merge completed walkers' logs, in walker order, locally: each final
    // log is validated, then replayed once straight into the merged stream.
    let mut merge_span = cgte_obs::span(cgte_obs::LEVEL_COARSE, "cluster.merge");
    let mut merged = ObservationStream::new(ctx.num_categories());
    let mut completed = 0usize;
    for (i, w) in walkers.iter().enumerate() {
        if !w.complete {
            continue;
        }
        let (_, bytes) = w.checkpoint.as_ref().expect("complete implies checkpoint");
        let container = snapshot::read_snapshot(&bytes[..])
            .map_err(|e| ClusterError::Shard(format!("walker {i} final snapshot: {e}")))?;
        let (nodes, weights) = snapshot::log_from_container(&container, ctx)
            .map_err(|e| ClusterError::Shard(format!("walker {i} final snapshot: {e}")))?;
        if nodes.len() != cfg.steps_per_walker {
            return Err(ClusterError::Shard(format!(
                "walker {i} delivered {} samples, expected {}",
                nodes.len(),
                cfg.steps_per_walker
            )));
        }
        merged.ingest(ctx, nodes, weights);
        completed += 1;
    }
    merge_span.field_u64("walkers", completed as u64);
    merge_span.field_u64("samples", merged.len() as u64);
    drop(merge_span);
    let shards_alive = clients.iter().filter(|c| !c.is_open()).count();
    let retries = clients.iter().map(RetryClient::retries_spent).sum::<u64>()
        + pool_retries.load(Ordering::Relaxed);
    Ok(ClusterRun {
        stream: merged,
        walkers_total: cfg.walkers,
        walkers_completed: completed,
        degraded: completed < cfg.walkers,
        coverage: completed as f64 / cfg.walkers as f64,
        shards_alive,
        shards_total: shards.len(),
        retries,
        reassignments,
        rounds,
    })
}

/// A pool worker: owns one private (quiet) [`RetryClient`] per shard and
/// executes [`RoundTask`]s until the coordinator hangs up. On exit it
/// folds its clients' retry counts into the run total.
#[allow(clippy::too_many_arguments)]
fn round_worker(
    cfg: &ClusterConfig,
    shards: &[String],
    worker: usize,
    ctx: &ObservationContext<'_>,
    shard_down: &[AtomicBool],
    tasks: channel::Receiver<RoundTask>,
    out: channel::Sender<(usize, Result<RoundOutcome, ClusterError>)>,
    pool_retries: &AtomicU64,
) {
    let mut clients: Vec<RetryClient> = shards
        .iter()
        .enumerate()
        .map(|(s, a)| {
            RetryClient::new(
                a.clone(),
                cfg.policy.clone(),
                mix64(cfg.jitter_seed ^ mix64(((worker as u64) << 32) | (s as u64 + 0xB0B))),
            )
            .quiet()
        })
        .collect();
    while let Ok(task) = tasks.recv() {
        let result = run_round_task(cfg, &mut clients, shard_down, ctx, &task);
        if out.send((task.walker, result)).is_err() {
            break;
        }
    }
    let spent: u64 = clients.iter().map(RetryClient::retries_spent).sum();
    pool_retries.fetch_add(spent, Ordering::Relaxed);
}

/// Executes one walker's round trip: ingest, then (when due) checkpoint
/// download, then session delete on budget completion — the same
/// sequence the sequential coordinator issued, so the scripted
/// fault-gauntlet request indices are unchanged at `round_threads = 1`.
fn run_round_task(
    cfg: &ClusterConfig,
    clients: &mut [RetryClient],
    shard_down: &[AtomicBool],
    ctx: &ObservationContext<'_>,
    task: &RoundTask,
) -> Result<RoundOutcome, ClusterError> {
    // The canonical breaker opened since dispatch (a sibling task hit
    // the shard's corpse first): fail fast instead of re-proving it.
    if shard_down[task.shard].load(Ordering::Acquire) {
        return Ok(RoundOutcome::failed());
    }
    let client = &mut clients[task.shard];
    if client.is_open() {
        // The local mirror is stale — the coordinator holds this shard
        // live (it probed it back, or the mirror tripped on weather the
        // canonical client later disproved).
        client.reset();
    }
    let mut span =
        cgte_obs::span_with_parent(cgte_obs::LEVEL_DETAIL, "cluster.walker", task.span_parent);
    span.field_u64("walker", task.walker as u64);
    span.field_u64("shard", task.shard as u64);
    span.field_u64("batch", task.batch as u64);
    let Some(new_len) = ingest_batch(client, &task.session, task.batch, task.done)? else {
        shard_down[task.shard].store(true, Ordering::Release);
        return Ok(RoundOutcome::failed());
    };
    let completed = new_len >= cfg.steps_per_walker;
    if !completed && !task.checkpoint_due {
        return Ok(RoundOutcome {
            new_len: Some(new_len),
            checkpoint: None,
            completed: false,
            shard_failed: false,
        });
    }
    // Completion is only claimed once the full log is in hand: the final
    // state is always checkpointed, cadence or not.
    match fetch_checkpoint(client, &task.session, new_len, ctx)? {
        Some(bytes) => {
            if completed {
                let _ = client.delete(&format!("/sessions/{}", task.session));
            }
            Ok(RoundOutcome {
                new_len: Some(new_len),
                checkpoint: Some(bytes),
                completed,
                shard_failed: false,
            })
        }
        None => {
            shard_down[task.shard].store(true, Ordering::Release);
            Ok(RoundOutcome {
                new_len: Some(new_len),
                checkpoint: None,
                completed: false,
                shard_failed: true,
            })
        }
    }
}

/// Moves walkers from over- to under-loaded live shards until the spread
/// is even (difference ≤ 1), invoked when a shard rejoins. Only walkers
/// whose checkpoint matches their committed length are eligible — the
/// move is a detach; next round's placement restores that checkpoint on
/// the target shard, which replays the identical walk state and keeps
/// the merged stream bit-exact.
fn rebalance(
    clients: &mut [RetryClient],
    walkers: &mut [Walker],
    reassignments: &mut usize,
    hook: &mut impl FnMut(ClusterEvent),
) {
    loop {
        let live: Vec<usize> = (0..clients.len())
            .filter(|&s| !clients[s].is_open())
            .collect();
        if live.len() < 2 {
            return;
        }
        let mut counts = vec![0usize; clients.len()];
        for w in walkers.iter() {
            if !w.complete && !w.failed {
                counts[w.shard] += 1;
            }
        }
        // First max / first min: deterministic tie-breaks.
        let &max_s = live
            .iter()
            .max_by_key(|&&s| (counts[s], usize::MAX - s))
            .expect("live is non-empty");
        let &min_s = live
            .iter()
            .min_by_key(|&&s| (counts[s], s))
            .expect("live is non-empty");
        if counts[max_s] <= counts[min_s] + 1 {
            return;
        }
        let Some((idx, w)) = walkers.iter_mut().enumerate().find(|(_, w)| {
            !w.complete
                && !w.failed
                && w.shard == max_s
                && w.session.is_some()
                && w.checkpoint
                    .as_ref()
                    .map_or(w.done == 0, |(at, _)| *at == w.done)
        }) else {
            return;
        };
        if let Some(session) = w.session.take() {
            // Best-effort: the source shard is live, free its slot now
            // rather than waiting for TTL eviction.
            let _ = clients[max_s].delete(&format!("/sessions/{session}"));
        }
        let from = w.shard;
        w.shard = min_s;
        *reassignments += 1;
        cgte_obs::event(
            cgte_obs::LEVEL_DETAIL,
            "cluster.walker_moved",
            &[
                ("walker", cgte_obs::Value::U64(idx as u64)),
                ("from", cgte_obs::Value::U64(from as u64)),
                ("to", cgte_obs::Value::U64(min_s as u64)),
            ],
        );
        hook(ClusterEvent::WalkerMoved {
            walker: idx,
            from,
            to: min_s,
        });
    }
}

/// Marks a walker's shard dead and detaches the walker (it will be
/// re-placed from its last checkpoint next round).
fn shard_died(clients: &mut [RetryClient], w: &mut Walker, hook: &mut impl FnMut(ClusterEvent)) {
    if !clients[w.shard].is_open() {
        clients[w.shard].trip();
    }
    cgte_obs::event(
        cgte_obs::LEVEL_DETAIL,
        "cluster.shard_dead",
        &[("shard", cgte_obs::Value::U64(w.shard as u64))],
    );
    hook(ClusterEvent::ShardDead { shard: w.shard });
    w.session = None;
}

/// Opens or restores the walker's session on the first usable shard,
/// preferring its current assignment. Returns false when no shard can
/// take it (the walker is lost — degradation, not an error).
fn place_walker(
    cfg: &ClusterConfig,
    clients: &mut [RetryClient],
    w: &mut Walker,
    walker_idx: usize,
    reassignments: &mut usize,
    hook: &mut impl FnMut(ClusterEvent),
) -> Result<bool, ClusterError> {
    let n = clients.len();
    // Two passes: live shards first, then a half-open probe of dead ones
    // (a killed-and-restarted shard comes back this way).
    for pass in 0..2 {
        for off in 0..n {
            let s = (w.shard + off) % n;
            if clients[s].is_open() && (pass == 0 || !clients[s].probe()) {
                continue;
            }
            match open_or_restore(cfg, &mut clients[s], w)? {
                Some((session, len)) => {
                    if s != w.shard {
                        *reassignments += 1;
                        cgte_obs::event(
                            cgte_obs::LEVEL_DETAIL,
                            "cluster.walker_moved",
                            &[
                                ("walker", cgte_obs::Value::U64(walker_idx as u64)),
                                ("from", cgte_obs::Value::U64(w.shard as u64)),
                                ("to", cgte_obs::Value::U64(s as u64)),
                            ],
                        );
                        hook(ClusterEvent::WalkerMoved {
                            walker: walker_idx,
                            from: w.shard,
                            to: s,
                        });
                    }
                    w.shard = s;
                    w.session = Some(session);
                    w.done = len;
                    return Ok(true);
                }
                None => continue, // transport failure: shard now tripped
            }
        }
    }
    Ok(false)
}

/// Opens a fresh session (no checkpoint yet) or restores the last
/// checkpoint on `client`. `Ok(None)` means the shard failed at the
/// transport level; 4xx answers are coordinator-fatal.
fn open_or_restore(
    cfg: &ClusterConfig,
    client: &mut RetryClient,
    w: &mut Walker,
) -> Result<Option<(String, usize)>, ClusterError> {
    let outcome = match &w.checkpoint {
        Some((_, bytes)) => client.post("/sessions/restore", bytes),
        None => {
            let mut body = format!(
                "{{\"graph\":{},\"sampler\":{},\"seed\":{},\"burn_in\":{},\"thinning\":{}",
                crate::json::fmt_str(&cfg.graph),
                crate::json::fmt_str(&cfg.sampler),
                w.seed,
                cfg.burn_in,
                cfg.thinning,
            );
            if let Some(p) = &cfg.partition {
                body.push_str(&format!(",\"partition\":{}", crate::json::fmt_str(p)));
            }
            if let Some(d) = &cfg.design {
                body.push_str(&format!(",\"design\":{}", crate::json::fmt_str(d)));
            }
            body.push('}');
            client.post("/sessions", body.as_bytes())
        }
    };
    match outcome {
        Ok((200, body)) => {
            let session = json_str(&body, "session").ok_or_else(|| {
                ClusterError::Shard("session response carries no \"session\" id".to_string())
            })?;
            let len = json_u64(&body, "len").ok_or_else(|| {
                ClusterError::Shard("session response carries no \"len\"".to_string())
            })? as usize;
            let expect = w.checkpoint.as_ref().map_or(0, |(at, _)| *at);
            if len != expect {
                return Err(ClusterError::Shard(format!(
                    "restored session {session:?} has {len} samples, checkpoint had {expect}"
                )));
            }
            Ok(Some((session, len)))
        }
        Ok((status, body)) => Err(ClusterError::Shard(format!(
            "shard {} rejected session ({status}): {}",
            client.addr(),
            String::from_utf8_lossy(&body)
        ))),
        Err(_) => {
            client.trip();
            Ok(None)
        }
    }
}

/// Sends one ingest batch without blind retries. On a transport error the
/// session length is read back (itself retried — GET is idempotent) to
/// decide *applied* vs *lost*; only a provably-lost batch is re-sent.
/// `Ok(None)` means the shard is gone; any length the protocol cannot
/// explain is a hard error — never a silent wrong answer.
fn ingest_batch(
    client: &mut RetryClient,
    session: &str,
    batch: usize,
    len_before: usize,
) -> Result<Option<usize>, ClusterError> {
    let path = format!("/sessions/{session}/ingest");
    let body = format!("{{\"steps\":{batch}}}");
    let expected = len_before + batch;
    for _ in 0..=client.policy.max_retries {
        match client.post_no_retry(&path, body.as_bytes()) {
            Ok((200, resp)) => {
                let len = json_u64(&resp, "len").ok_or_else(|| {
                    ClusterError::Shard("ingest response carries no \"len\"".to_string())
                })? as usize;
                if len != expected {
                    return Err(ClusterError::Shard(format!(
                        "session {session:?} has {len} samples after ingest, expected {expected}"
                    )));
                }
                return Ok(Some(len));
            }
            Ok((status @ 500..=599, _)) => {
                // A 5xx means the request never took effect; fall through
                // to the resync which will observe `len_before` and let
                // the loop re-send.
                let _ = status;
            }
            Ok((status, resp)) => {
                return Err(ClusterError::Shard(format!(
                    "ingest rejected ({status}): {}",
                    String::from_utf8_lossy(&resp)
                )))
            }
            Err(ClientError::CircuitOpen) => return Ok(None),
            Err(_) => {}
        }
        // Resync: did the failed request land?
        match client.get(&format!("/sessions/{session}/estimate")) {
            Ok((200, resp)) => {
                let len = json_u64(&resp, "len").ok_or_else(|| {
                    ClusterError::Shard("estimate response carries no \"len\"".to_string())
                })? as usize;
                if len == expected {
                    return Ok(Some(len));
                }
                if len != len_before {
                    return Err(ClusterError::Shard(format!(
                        "session {session:?} resynced to {len} samples; expected {len_before} or {expected}"
                    )));
                }
                // Not applied: loop re-sends.
            }
            Ok((404, _)) => return Ok(None), // session lost (shard restarted)
            Ok((status, resp)) => {
                return Err(ClusterError::Shard(format!(
                    "resync failed ({status}): {}",
                    String::from_utf8_lossy(&resp)
                )))
            }
            Err(_) => return Ok(None),
        }
    }
    Ok(None)
}

/// Downloads and validates a session's current `.cgtes` state; `None` on
/// transport failure (shard presumed dead). An *invalid* snapshot from a
/// live shard is fatal — checksums passed HTTP but not the format, which
/// means a bug, not weather. Traced as one `cluster.checkpoint` span,
/// download and validation replay included.
fn fetch_checkpoint(
    client: &mut RetryClient,
    session: &str,
    expect_len: usize,
    ctx: &ObservationContext<'_>,
) -> Result<Option<Vec<u8>>, ClusterError> {
    let mut span = cgte_obs::span(cgte_obs::LEVEL_DETAIL, "cluster.checkpoint");
    span.field_u64("len", expect_len as u64);
    match client.get(&format!("/sessions/{session}/snapshot")) {
        Ok((200, bytes)) => {
            span.field_u64("bytes", bytes.len() as u64);
            let container = snapshot::read_snapshot(&bytes[..])
                .map_err(|e| ClusterError::Shard(format!("downloaded snapshot: {e}")))?;
            let stream = snapshot::stream_from_container(&container, ctx)
                .map_err(|e| ClusterError::Shard(format!("downloaded snapshot: {e}")))?;
            if stream.len() != expect_len {
                return Err(ClusterError::Shard(format!(
                    "snapshot of {session:?} has {} samples, session had {expect_len}",
                    stream.len(),
                )));
            }
            Ok(Some(bytes))
        }
        Ok((status, body)) => Err(ClusterError::Shard(format!(
            "snapshot download failed ({status}): {}",
            String::from_utf8_lossy(&body)
        ))),
        Err(_) => Ok(None),
    }
}

/// The single-box path the cluster is pinned against: the same walkers,
/// seeds and batch boundaries, run locally through the same sampler
/// construction ([`build_sampler`]) and the same streaming kernel. Equal
/// [`ObservationStream`]s imply bit-equal estimates, since estimation is
/// one shared pure function of the stream.
pub fn single_box_reference(
    cfg: &ClusterConfig,
    graph: &Graph,
    partition: &Partition,
    ctx: &ObservationContext<'_>,
) -> Result<ObservationStream, ClusterError> {
    let mut merged = ObservationStream::new(ctx.num_categories());
    let mut nodes = Vec::new();
    for i in 0..cfg.walkers {
        let (sampler, design) = build_sampler(
            graph,
            partition,
            &cfg.sampler,
            cfg.design.as_deref(),
            cfg.burn_in,
            cfg.thinning,
        )?;
        let mut rng = StdRng::seed_from_u64(derive_walker_seed(cfg.seed, i));
        let mut remaining = cfg.steps_per_walker;
        while remaining > 0 {
            let batch = cfg.batch.min(remaining);
            sampler
                .try_sample_into(graph, batch, &mut rng, &mut nodes)
                .map_err(|e| ClusterError::Config(e.to_string()))?;
            merged.ingest_sampler(ctx, &nodes, &sampler, design);
            remaining -= batch;
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_seeds_are_distinct_and_stable() {
        let s: Vec<u64> = (0..8).map(|i| derive_walker_seed(42, i)).collect();
        let again: Vec<u64> = (0..8).map(|i| derive_walker_seed(42, i)).collect();
        assert_eq!(s, again);
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                assert_ne!(s[i], s[j]);
            }
        }
        assert_ne!(derive_walker_seed(42, 0), derive_walker_seed(43, 0));
    }

    #[test]
    fn backoff_is_bounded_and_jitter_seeded() {
        let policy = RetryPolicy {
            backoff_base: Duration::from_micros(100),
            backoff_max: Duration::from_micros(400),
            ..RetryPolicy::default()
        };
        let mut a = RetryClient::new("127.0.0.1:1", policy.clone(), 9);
        let mut b = RetryClient::new("127.0.0.1:1", policy, 9);
        // Same seed → same jitter sequence (observable via the counters).
        let before = counters::BACKOFF_MICROS_TOTAL.load(Ordering::Relaxed);
        a.backoff(1);
        let da = counters::BACKOFF_MICROS_TOTAL.load(Ordering::Relaxed) - before;
        let before = counters::BACKOFF_MICROS_TOTAL.load(Ordering::Relaxed);
        b.backoff(1);
        let db = counters::BACKOFF_MICROS_TOTAL.load(Ordering::Relaxed) - before;
        assert_eq!(da, db);
        assert!((50..=100).contains(&da), "jittered delay {da}µs");
    }

    #[test]
    fn circuit_opens_after_threshold_and_resets() {
        let policy = RetryPolicy {
            connect_timeout: Duration::from_millis(20),
            request_timeout: Duration::from_millis(20),
            max_retries: 0,
            backoff_base: Duration::from_micros(1),
            backoff_max: Duration::from_micros(1),
            breaker_threshold: 2,
        };
        // A bound-but-unserved port: connects may queue, requests die.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut c = RetryClient::new(addr.to_string(), policy, 1);
        assert!(c.get("/healthz").is_err());
        assert!(!c.is_open());
        assert!(c.get("/healthz").is_err());
        assert!(c.is_open());
        assert!(matches!(c.get("/healthz"), Err(ClientError::CircuitOpen)));
        c.reset();
        assert!(!c.is_open());
    }

    #[test]
    fn failed_half_open_probe_keeps_the_breaker_open() {
        let policy = RetryPolicy {
            connect_timeout: Duration::from_millis(20),
            request_timeout: Duration::from_millis(20),
            max_retries: 0,
            backoff_base: Duration::from_micros(1),
            backoff_max: Duration::from_micros(1),
            breaker_threshold: 2,
        };
        // A bound-but-unserved port: connects may queue, requests die —
        // exactly the shape of a dead-but-addressable shard.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut c = RetryClient::new(addr.to_string(), policy, 1);
        c.trip();
        assert!(c.is_open());
        // The probe must not leak a closed breaker: one failed GET is
        // below breaker_threshold, so a reset-then-request probe would
        // leave the circuit closed and the next round would hammer the
        // corpse with the full timeout budget.
        assert!(!c.probe());
        assert!(c.is_open(), "failed probe left the breaker closed");
        assert!(!c.probe());
        assert!(c.is_open());
    }

    #[test]
    fn retries_are_accounted_per_client() {
        let policy = RetryPolicy {
            backoff_base: Duration::from_micros(50),
            backoff_max: Duration::from_micros(100),
            ..RetryPolicy::default()
        };
        let mut a = RetryClient::new("127.0.0.1:1", policy.clone(), 7);
        let b = RetryClient::new("127.0.0.1:1", policy, 7);
        a.backoff(1);
        a.backoff(2);
        assert_eq!(a.retries_spent(), 2);
        assert_eq!(b.retries_spent(), 0, "retries bled across clients");
    }

    /// Answers one request on a fresh local port with `200` and `body`,
    /// then hangs up.
    fn one_shot_responder(body: &'static str) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            http::read_request(&mut BufReader::new(&stream))
                .unwrap()
                .expect("a request");
            http::write_json_response(&mut &stream, 200, body, false).unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn session_answer_without_len_is_a_shard_error() {
        let cfg = ClusterConfig::new("g");
        for checkpoint in [None, Some((0, b"snapshot".to_vec()))] {
            for (body, want) in [
                (
                    r#"{"session":"s0"}"#,
                    Err(ClusterError::Shard(
                        "session response carries no \"len\"".to_string(),
                    )),
                ),
                (
                    r#"{"session":"s0","len":0}"#,
                    Ok(Some(("s0".to_string(), 0))),
                ),
            ] {
                let (addr, responder) = one_shot_responder(body);
                let mut client = RetryClient::new(addr, RetryPolicy::default(), 1);
                let mut w = Walker {
                    seed: 1,
                    shard: 0,
                    session: None,
                    done: 0,
                    checkpoint: checkpoint.clone(),
                    complete: false,
                    failed: false,
                };
                assert_eq!(open_or_restore(&cfg, &mut client, &mut w), want, "{body}");
                responder.join().unwrap();
            }
        }
    }
}
