//! The `cgte bench` harness: machine-readable performance trajectory.
//!
//! Times the hot paths at each configured thread count and emits a JSON
//! report (`BENCH_PR10.json` by default) that later PRs append to, so speed
//! claims are pinned from PR to PR rather than asserted in prose:
//!
//! - **build** — edges/sec of every parallel generator (Chung–Lu at
//!   million-node scale is the headline), with a bit-identity check of
//!   each multi-threaded build against the serial (`threads = 1`)
//!   reference;
//! - **load** — edges/sec restoring the headline 1M-node Chung–Lu graph
//!   from its `.cgteg` container versus regenerating it (the disk cache
//!   tier's value proposition; always full-size, even at `--quick`);
//! - **snapshot** — samples/sec serializing an observation stream to its
//!   `.cgtes` session snapshot and restoring it back (write, and
//!   decode + replay), with a bit-identity check of the round trip —
//!   the durability cost of the fault-tolerant serving tier;
//! - **walk** — aggregate RW/MHRW steps/sec with `t` concurrent
//!   independent walkers over the shared CSR;
//! - **estimate** — NRMSE-experiment throughput (replications and
//!   observed samples per second) via `ExperimentConfig::threads`;
//! - **serve** — sustained requests/sec and p50/p99 request latency of
//!   the online estimation service (`cgte-serve`) against the warm
//!   headline graph, at each worker-pool size;
//! - **serve_open** — the open-loop companion: N keep-alive connections
//!   are held open (default 1,000 and 10,000, clamped to the fd budget)
//!   while a small driver pool fires the serve section's request mix at
//!   the closed-loop `t = 1` rate on a deterministic arrival schedule;
//!   per-request latency is measured from the *scheduled* start into
//!   [`cgte_obs::hist`] log2 histograms, so queueing delay counts;
//! - **cluster** — coordinator wall-clock for a fixed sharded run (4
//!   local shards, 16 walkers) at each `--round-threads` pool size, with
//!   a bit-identity check of every merged stream against the single-box
//!   reference — the "parallel rounds change nothing but the clock"
//!   contract;
//! - **obs** — tracing overhead: the same walk and serve workloads timed
//!   with the tracer disabled and then fully enabled into a
//!   [`cgte_obs::NoopSink`] at detail level. The traced/disabled rate
//!   ratios are internal (both sides from one box, back to back), so the
//!   regression gate always compares them — they pin the claim that
//!   instrumentation costs ~0 when tracing is off.
//!
//! The JSON schema is documented in `EXPERIMENTS.md` (§ benchmark
//! harness). Timings are wall-clock; `available_parallelism` is recorded
//! so a 1-core CI box's flat speedups are interpretable — and so the
//! [`crate::check`] regression gate knows which metrics are comparable
//! across machines.

use cgte_eval::{run_experiment, ExperimentConfig, Target};
use cgte_graph::generators::{
    par_barabasi_albert, par_chung_lu, par_configuration_model_erased, par_gnp,
    par_planted_partition, powerlaw_degree_sequence, powerlaw_weights, scale_to_mean,
    PlantedConfig,
};
use cgte_graph::store::{write_bundle, Loader, Validate};
use cgte_graph::{Graph, Partition};
use cgte_sampling::{AnySampler, MetropolisHastingsWalk, NodeSampler, RandomWalk};
use cgte_serve::client::Client;
use cgte_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Options for one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// CI-sized problem sizes (seconds instead of minutes).
    pub quick: bool,
    /// Base RNG seed for every timed workload.
    pub seed: u64,
    /// Thread counts to measure (the first must be 1 — the serial
    /// reference everything is compared against).
    pub threads: Vec<usize>,
    /// Where to write the JSON report.
    pub out: PathBuf,
    /// Directory for the load section's `.cgteg` store (`--cache-dir`);
    /// a temp directory is used when unset.
    pub cache_dir: Option<PathBuf>,
    /// Node count of the load section's headline graph. The default
    /// (1,000,000) is used even at `--quick` so every committed report
    /// records the huge-tier load-vs-regen ratio; tests shrink it.
    pub load_nodes: usize,
    /// Open-connection counts for the `serve_open` section (clamped to
    /// the process fd budget at run time); tests shrink them.
    pub open_conns: Vec<usize>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            quick: false,
            seed: 0x2012_5EED,
            threads: vec![1, 2, 8],
            out: PathBuf::from("BENCH_PR10.json"),
            cache_dir: None,
            load_nodes: 1_000_000,
            open_conns: vec![1_000, 10_000],
        }
    }
}

struct TimedRun {
    threads: usize,
    secs: f64,
    rate: f64,
}

struct BuildEntry {
    generator: String,
    nodes: usize,
    edges: usize,
    runs: Vec<TimedRun>,
    bit_identical: bool,
}

struct WalkEntry {
    sampler: String,
    steps_per_walker: usize,
    runs: Vec<TimedRun>,
}

struct EstimateEntry {
    nodes: usize,
    replications: usize,
    max_size: usize,
    targets: usize,
    runs: Vec<TimedRun>,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Serial (threads = 1) measurements are best-of-N: the minimum of a few
/// repetitions approximates the noise-free capability of the machine,
/// which is what the `--check` gate needs — a single-shot timing of a
/// millisecond-scale quick workload swings ±40% with scheduler noise and
/// would fail the gate on phantom regressions. Multi-threaded runs stay
/// single-shot (they only feed `best_speedup`, which never gates on the
/// noisy 1-core case).
const SERIAL_REPS: usize = 3;

/// Runs `f` `reps` times; returns the last result and the minimum
/// wall-clock seconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(secs(start));
        out = Some(r);
    }
    (out.expect("at least one rep"), best)
}

/// Times `run(traced)` `reps` times per side, with the tracer off and with
/// a [`cgte_obs::NoopSink`] installed at [`cgte_obs::LEVEL_DETAIL`],
/// alternating the sides ABBA (off, traced, traced, off, …) so a drift in
/// host speed lands on both. The sink is installed and shut down around
/// each traced rep, outside its timed window. Returns each side's last
/// result and best time, `(off, traced)`.
fn best_of_off_traced<T>(reps: usize, mut run: impl FnMut(bool) -> T) -> ((T, f64), (T, f64)) {
    let mut off = (None, f64::INFINITY);
    let mut traced = (None, f64::INFINITY);
    for i in 0..2 * reps.max(1) {
        let is_traced = matches!(i % 4, 1 | 2);
        if is_traced {
            cgte_obs::install(
                std::sync::Arc::new(cgte_obs::NoopSink),
                cgte_obs::LEVEL_DETAIL,
            );
        }
        let start = Instant::now();
        let r = run(is_traced);
        let dt = secs(start);
        if is_traced {
            cgte_obs::shutdown();
        }
        let side = if is_traced { &mut traced } else { &mut off };
        side.0 = Some(r);
        side.1 = side.1.min(dt);
    }
    let last = |side: (Option<T>, f64)| (side.0.expect("at least one rep"), side.1);
    (last(off), last(traced))
}

/// Wall-clock speedup for fixed-size workloads (build, estimate): the
/// same work at every thread count, so time ratios are the right metric.
fn speedup(runs: &[TimedRun]) -> f64 {
    let t1 = runs.iter().find(|r| r.threads == 1);
    let best = runs.iter().map(|r| r.secs).fold(f64::INFINITY, f64::min);
    match t1 {
        Some(r1) if best > 0.0 => r1.secs / best,
        _ => 1.0,
    }
}

/// Throughput speedup for workloads that scale with the thread count
/// (the walk section runs `t` walkers of `steps` each): best aggregate
/// rate over the serial rate. Comparing wall-clock there would divide
/// times of different-sized workloads and could never show scaling.
fn rate_speedup<'a>(runs: impl IntoIterator<Item = &'a TimedRun>) -> f64 {
    let runs: Vec<&TimedRun> = runs.into_iter().collect();
    let t1 = runs.iter().find(|r| r.threads == 1);
    let best = runs.iter().map(|r| r.rate).fold(0.0f64, f64::max);
    match t1 {
        Some(r1) if r1.rate > 0.0 => best / r1.rate,
        _ => 1.0,
    }
}

fn bench_build(name: &str, opts: &BenchOptions, build: impl Fn(usize) -> Graph) -> BuildEntry {
    let mut runs = Vec::new();
    let mut reference: Option<Graph> = None;
    let mut identical = true;
    for &t in &opts.threads {
        let reps = if t == 1 { SERIAL_REPS } else { 1 };
        let (g, dt) = best_of(reps, || build(t));
        runs.push(TimedRun {
            threads: t,
            secs: dt,
            rate: g.num_edges() as f64 / dt.max(1e-9),
        });
        match &reference {
            None => reference = Some(g),
            Some(r) => identical &= &g == r,
        }
    }
    let g = reference.expect("at least one thread count");
    eprintln!(
        "build/{name}: {} nodes, {} edges, serial {:.2}s, speedup {:.2}x, bit-identical: {identical}",
        g.num_nodes(),
        g.num_edges(),
        runs[0].secs,
        speedup(&runs),
    );
    BuildEntry {
        generator: name.to_string(),
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        runs,
        bit_identical: identical,
    }
}

fn bench_walks(g: &Graph, opts: &BenchOptions) -> Vec<WalkEntry> {
    // Even at --quick the walk workload must run long enough to time
    // stably (tens of ms is timer + cache-warmth noise, which makes the
    // --check gate flaky on quiet regressions).
    let steps = if opts.quick { 1_000_000 } else { 2_000_000 };
    let samplers: [(&str, AnySampler); 2] = [
        ("rw", AnySampler::Rw(RandomWalk::new())),
        ("mhrw", AnySampler::Mhrw(MetropolisHastingsWalk::new())),
    ];
    samplers
        .into_iter()
        .map(|(name, sampler)| {
            let mut runs = Vec::new();
            for &t in &opts.threads {
                let reps = if t == 1 { SERIAL_REPS } else { 1 };
                let ((), dt) = best_of(reps, || {
                    crossbeam::scope(|scope| {
                        for w in 0..t {
                            let sampler = &sampler;
                            scope.spawn(move |_| {
                                let mut rng = StdRng::seed_from_u64(
                                    opts.seed ^ (w as u64).wrapping_mul(0x9E37_79B9),
                                );
                                let mut buf = Vec::with_capacity(steps);
                                sampler.sample_into(g, steps, &mut rng, &mut buf);
                                buf.len()
                            });
                        }
                    })
                    .expect("walker panicked");
                });
                runs.push(TimedRun {
                    threads: t,
                    secs: dt,
                    rate: (steps * t) as f64 / dt.max(1e-9),
                });
            }
            eprintln!(
                "walk/{name}: {steps} steps/walker, serial {:.0} steps/s",
                runs[0].rate
            );
            WalkEntry {
                sampler: name.to_string(),
                steps_per_walker: steps,
                runs,
            }
        })
        .collect()
}

struct LoadEntry {
    nodes: usize,
    edges: usize,
    write_secs: f64,
    load_secs: f64,
    mmap_secs: f64,
    regen_secs: f64,
    identical: bool,
    mmap_identical: bool,
    mapped: bool,
}

impl LoadEntry {
    fn load_rate(&self) -> f64 {
        self.edges as f64 / self.load_secs.max(1e-9)
    }

    fn mmap_rate(&self) -> f64 {
        self.edges as f64 / self.mmap_secs.max(1e-9)
    }

    fn regen_rate(&self) -> f64 {
        self.edges as f64 / self.regen_secs.max(1e-9)
    }

    /// Load-vs-regenerate speedup — an internal ratio, so it stays
    /// comparable across machines (both timings come from the same box,
    /// and both sides run on a single core).
    fn speedup(&self) -> f64 {
        self.regen_secs / self.load_secs.max(1e-9)
    }

    /// Mapped-vs-heap load speedup — the zero-copy path's headline.
    /// Internal ratio for the same reason as [`LoadEntry::speedup`].
    fn mmap_vs_heap(&self) -> f64 {
        self.load_secs / self.mmap_secs.max(1e-9)
    }
}

/// Times the disk-store round trip of the headline Chung–Lu graph:
/// serialize to `.cgteg`, load it back along the scenario cache's
/// trusted path, regenerate from scratch for comparison, and verify the
/// loaded CSR is bit-identical to the generated one. The graph is built
/// once by the caller and shared with the serve section.
fn bench_load(opts: &BenchOptions, w: &[f64], g: &Graph) -> Result<LoadEntry, String> {
    let start = Instant::now();
    let staged = Staged::new(
        opts,
        format!("bench-headline-{}-{}", opts.load_nodes, opts.seed),
        g,
        None,
    )?;
    let write_secs = secs(start);
    let path = staged.path();

    let loader = Loader::open(&path).validate(Validate::Trusted);
    let (loaded, load_secs) = best_of(SERIAL_REPS, || {
        loader
            .clone()
            .load_bundle()
            .map_err(|e| format!("cannot load {path:?}: {e}"))
    });
    let loaded = loaded?;

    // The zero-copy leg: same file, same validation level, through the
    // mapped path. Each rep pays the full mapped-load cost — open, map,
    // checksum verification against the mapped bytes, O(1) CSR checks —
    // so the mmap-vs-heap ratio compares complete loads, not a cached
    // handle. On platforms without mmap support the loader falls back to
    // the heap decode and `mapped` records it.
    let (mapped_graph, mmap_secs) = best_of(SERIAL_REPS, || {
        loader
            .clone()
            .mmap(true)
            .load_graph()
            .map_err(|e| format!("cannot mmap-load {path:?}: {e}"))
    });
    let mapped_graph = mapped_graph?;

    // Regenerate with threads=1: the `.cgteg` load is inherently serial,
    // and the checker treats load-vs-regen as a machine-independent
    // ratio, so both sides must use one core regardless of the host —
    // otherwise the committed ratio would shrink on bigger machines and
    // trip the gate as a phantom regression.
    let (regen, regen_secs) = best_of(SERIAL_REPS, || par_chung_lu(w, opts.seed, 1));

    let identical = loaded.graph == regen && &loaded.graph == g;
    let mmap_identical = mapped_graph == loaded.graph && &mapped_graph == g;
    let entry = LoadEntry {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        write_secs,
        load_secs,
        mmap_secs,
        regen_secs,
        identical,
        mmap_identical,
        mapped: mapped_graph.is_mapped(),
    };
    eprintln!(
        "load: {} edges, write {:.2}s, load {:.2}s vs regen {:.2}s = {:.1}x, bit-identical: {identical}",
        entry.edges, entry.write_secs, entry.load_secs, entry.regen_secs, entry.speedup(),
    );
    eprintln!(
        "load/mmap: {:.4}s vs heap {:.2}s = {:.1}x, mapped: {}, bit-identical: {mmap_identical}",
        entry.mmap_secs,
        entry.load_secs,
        entry.mmap_vs_heap(),
        entry.mapped,
    );
    Ok(entry)
}

struct SnapshotEntry {
    nodes: usize,
    categories: usize,
    samples: usize,
    bytes: usize,
    write_secs: f64,
    restore_secs: f64,
    identical: bool,
}

impl SnapshotEntry {
    fn write_rate(&self) -> f64 {
        self.samples as f64 / self.write_secs.max(1e-9)
    }

    fn restore_rate(&self) -> f64 {
        self.samples as f64 / self.restore_secs.max(1e-9)
    }
}

/// Times the `.cgtes` session-snapshot round trip that the fault-tolerant
/// serving tier leans on: serialize a warm observation stream to an
/// in-memory snapshot (what `POST /sessions/{id}/snapshot` writes), then
/// decode and replay it back into a live stream (what a restore after a
/// shard crash does), and verify the round trip is bit-identical. Both
/// sides are inherently serial, so the rates are plain serial
/// throughputs.
fn bench_snapshot(opts: &BenchOptions) -> SnapshotEntry {
    use cgte_graph::store::Container;
    use cgte_sampling::snapshot::{
        read_snapshot, stream_from_container, stream_sections, write_snapshot,
    };
    use cgte_sampling::{DesignKind, ObservationContext, ObservationStream};

    let cfg = PlantedConfig::scaled(if opts.quick { 60 } else { 20 }, 20, 0.5);
    let pg = par_planted_partition(&cfg, opts.seed, 0).expect("feasible planted config");
    let samples = if opts.quick { 50_000 } else { 200_000 };
    let rw = RandomWalk::new();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5AA7);
    let nodes = rw.sample(&pg.graph, samples, &mut rng);
    let ctx = ObservationContext::new(&pg.graph, &pg.partition);
    let mut stream = ObservationStream::new(pg.partition.num_categories());
    stream.ingest_sampler(&ctx, &nodes, &rw, DesignKind::Weighted);

    let (bytes, write_secs) = best_of(SERIAL_REPS, || {
        let mut c = Container::new();
        for s in stream_sections(&stream) {
            c.push(s);
        }
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &c).expect("in-memory snapshot write");
        buf
    });
    let (restored, restore_secs) = best_of(SERIAL_REPS, || {
        let c = read_snapshot(&bytes[..]).expect("snapshot decodes");
        stream_from_container(&c, &ctx).expect("snapshot restores")
    });
    let entry = SnapshotEntry {
        nodes: pg.graph.num_nodes(),
        categories: pg.partition.num_categories(),
        samples: stream.len(),
        bytes: bytes.len(),
        write_secs,
        restore_secs,
        identical: restored == stream,
    };
    eprintln!(
        "snapshot: {} samples, {} bytes, write {:.0} samples/s, restore {:.0} samples/s, bit-identical: {}",
        entry.samples,
        entry.bytes,
        entry.write_rate(),
        entry.restore_rate(),
        entry.identical,
    );
    entry
}

struct ServeRun {
    timed: TimedRun,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
}

struct ServeEntry {
    nodes: usize,
    edges: usize,
    categories: usize,
    rounds: usize,
    steps_per_ingest: usize,
    runs: Vec<ServeRun>,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A graph (+ `main` partition) bundle staged as `NAME.cgteg` in the
/// store directory the bench servers and loaders read: `--cache-dir` when
/// set, where the file stays, and otherwise a per-process temp directory
/// (concurrent bench runs on a shared box must not truncate each other's
/// files), where the file is removed on drop.
struct Staged {
    dir: PathBuf,
    name: String,
    keep: bool,
}

impl Staged {
    fn new(
        opts: &BenchOptions,
        name: String,
        g: &Graph,
        partition: Option<&Partition>,
    ) -> Result<Staged, String> {
        let dir = opts.cache_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("cgte-bench-store-{}", std::process::id()))
        });
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let staged = Staged {
            dir,
            name,
            keep: opts.cache_dir.is_some(),
        };
        let path = staged.path();
        let mut out = BufWriter::new(
            File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?,
        );
        write_bundle(&mut out, g, partition)
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        Ok(staged)
    }

    fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.cgteg", self.name))
    }

    /// Boots a server with `threads` workers over this store directory on
    /// an ephemeral localhost port.
    fn serve(&self, threads: usize) -> Result<Server, String> {
        Server::bind(&ServeConfig {
            cache_dir: self.dir.clone(),
            addr: "127.0.0.1:0".to_string(),
            threads,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("cannot bind a bench server: {e}"))
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        if !self.keep {
            std::fs::remove_file(self.path()).ok();
            std::fs::remove_dir(&self.dir).ok();
        }
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// One request that must answer 200.
fn call(c: &mut Client, method: &str, path: &str, body: &str) -> Result<(), String> {
    let (st, resp) = c
        .request(method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    if st != 200 {
        return Err(format!("{method} {path} failed ({st}): {resp}"));
    }
    Ok(())
}

/// Opens an RW session on `graph`; returns its id.
fn open_session(c: &mut Client, graph: &str, seed: u64) -> Result<String, String> {
    let (st, body) = c
        .request(
            "POST",
            "/sessions",
            &format!("{{\"graph\":\"{graph}\",\"sampler\":\"rw\",\"seed\":{seed}}}"),
        )
        .map_err(|e| format!("POST /sessions: {e}"))?;
    if st != 200 {
        return Err(format!("cannot open a session on {graph} ({st}): {body}"));
    }
    body.split("\"session\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .map(str::to_string)
        .ok_or_else(|| format!("no session id in {body}"))
}

/// Loads `graph` and builds its neighbor-category index outside every
/// timed window: the first session on a fresh server pays for both.
fn warm_up(addr: SocketAddr, graph: &str) -> Result<(), String> {
    let mut c = connect(addr)?;
    let id = open_session(&mut c, graph, 1)?;
    call(
        &mut c,
        "POST",
        &format!("/sessions/{id}/ingest"),
        "{\"steps\":10}",
    )
}

fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Benchmarks the online estimation service against the warm headline
/// graph staged in `store` (graph + top-50 partition): a server is
/// booted per configured worker count, and `t` concurrent keep-alive
/// clients each run a scripted session — `rounds` iterations of (ingest
/// a walk budget, read the estimate) — while every request's wall-clock
/// latency is recorded. Reported: sustained requests/sec plus p50/p99
/// latency. The server performs zero graph builds (loads only), which is
/// the disk tier's contract.
fn bench_serve(
    store: &Staged,
    g: &Graph,
    categories: usize,
    opts: &BenchOptions,
) -> Result<ServeEntry, String> {
    // Thousands of requests per run: with Nagle disabled a request is
    // ~0.1 ms, and the gate needs hundreds of milliseconds of sustained
    // traffic for stable rates and percentiles.
    let rounds = if opts.quick { 1000 } else { 2500 };
    let steps = if opts.quick { 500 } else { 1000 };
    let ingest = format!("{{\"steps\":{steps}}}");
    let mut runs = Vec::new();
    for &t in &opts.threads {
        let server = store.serve(t)?;
        let addr = server.addr();
        warm_up(addr, &store.name)?;
        let start = Instant::now();
        let latencies: Vec<Vec<f64>> = crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..t)
                .map(|i| {
                    let ingest = &ingest;
                    scope.spawn(move |_| -> Result<Vec<f64>, String> {
                        let mut lat = Vec::with_capacity(2 * rounds + 1);
                        let mut c = connect(addr)?;
                        let t0 = Instant::now();
                        let id = open_session(&mut c, &store.name, 1000 + i as u64)?;
                        lat.push(elapsed_ms(t0));
                        for _ in 0..rounds {
                            let t0 = Instant::now();
                            call(&mut c, "POST", &format!("/sessions/{id}/ingest"), ingest)?;
                            lat.push(elapsed_ms(t0));
                            let t0 = Instant::now();
                            call(&mut c, "GET", &format!("/sessions/{id}/estimate"), "")?;
                            lat.push(elapsed_ms(t0));
                        }
                        Ok(lat)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bench client panicked"))
                .collect::<Result<_, _>>()
        })
        .expect("crossbeam scope failed")?;
        let secs = secs(start);
        server.shutdown();
        server.join();
        let mut all: Vec<f64> = latencies.into_iter().flatten().collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let requests = all.len();
        runs.push(ServeRun {
            timed: TimedRun {
                threads: t,
                secs,
                rate: requests as f64 / secs.max(1e-9),
            },
            requests,
            p50_ms: percentile(&all, 0.50),
            p99_ms: percentile(&all, 0.99),
        });
    }
    let first = &runs[0];
    eprintln!(
        "serve: {} nodes, {categories} cats, {} req @ t=1: {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms",
        g.num_nodes(),
        first.requests,
        first.timed.rate,
        first.p50_ms,
        first.p99_ms,
    );
    Ok(ServeEntry {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        categories,
        rounds,
        steps_per_ingest: steps,
        runs,
    })
}

struct ServeOpenRun {
    requested_conns: usize,
    open_conns: usize,
    requests: usize,
    secs: f64,
    rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

struct ServeOpenEntry {
    target_rps: f64,
    drivers: usize,
    steps_per_ingest: usize,
    runs: Vec<ServeOpenRun>,
}

/// The soft `RLIMIT_NOFILE` from `/proc/self/limits`, if readable.
fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Opens up to `n` idle keep-alive connections, stopping early (without
/// failing) when the fd budget runs out.
fn open_idle_conns(addr: SocketAddr, n: usize) -> Vec<std::net::TcpStream> {
    let mut conns = Vec::with_capacity(n);
    for _ in 0..n {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => conns.push(s),
            Err(_) => break, // EMFILE or backlog pressure: run with what we got
        }
    }
    conns
}

/// Polls `/healthz` until the server-side open-connection gauge reaches
/// `want` (or a timeout passes) so measurements start only after every
/// client-side connect has actually been accepted.
fn wait_for_connections(addr: SocketAddr, want: usize) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut c = connect(addr)?;
    loop {
        let (st, body) = c
            .request("GET", "/healthz", "")
            .map_err(|e| format!("healthz poll failed: {e}"))?;
        if st != 200 {
            return Err(format!("healthz failed ({st}): {body}"));
        }
        let gauge = body
            .split("\"connections\":")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| format!("no connections gauge in {body}"))?;
        if gauge >= want {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("only {gauge}/{want} connections accepted"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The open-loop load section: holds `opts.open_conns` keep-alive
/// connections open while 4 driver threads replay the serve section's
/// request mix at the closed-loop `t = 1` rate (`target_rps`) on a
/// deterministic arrival schedule — request `k` fires at `t0 + k/rate`,
/// and its latency is measured from that scheduled instant into a
/// [`cgte_obs::hist::Histogram`] (µs buckets), so a server that falls
/// behind accrues queueing delay instead of quietly slowing the clients.
fn bench_serve_open(
    store: &Staged,
    opts: &BenchOptions,
    target_rps: f64,
    steps: usize,
) -> Result<ServeOpenEntry, String> {
    use cgte_obs::hist::Histogram;

    // Each connection costs two fds in-process (client + server side);
    // leave headroom for the store, the report and epoll plumbing.
    let fd_budget = fd_soft_limit()
        .map(|soft| soft.saturating_sub(256) / 2)
        .unwrap_or(usize::MAX);
    let drivers = 4usize;
    let rate = target_rps.max(50.0);
    // Enough requests for a stable rate, bounded so an overload (server
    // slower than the schedule) cannot run the section for minutes.
    let requests = ((rate * 2.0) as usize).clamp(400, 8_000);
    let per_driver = requests.div_ceil(drivers);

    let mut runs = Vec::new();
    for &requested in &opts.open_conns {
        let conns_target = requested.min(fd_budget);
        let server = store.serve(2)?;
        let addr = server.addr();
        warm_up(addr, &store.name)?;
        // Park the open-connection population (minus the driver conns).
        let parked = open_idle_conns(addr, conns_target.saturating_sub(drivers));
        let open_conns = parked.len() + drivers;
        wait_for_connections(addr, parked.len())?;

        let t0 = Instant::now();
        let hists: Vec<Histogram> = crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..drivers)
                .map(|i| {
                    scope.spawn(move |_| -> Result<Histogram, String> {
                        let mut hist = Histogram::new();
                        let mut c = connect(addr)?;
                        let id = open_session(&mut c, &store.name, 2000 + i as u64)?;
                        let ingest = format!("{{\"steps\":{steps}}}");
                        for j in 0..per_driver {
                            // Global arrival schedule, interleaved
                            // across drivers: request k fires at k/rate.
                            let k = j * drivers + i;
                            let sched = t0 + Duration::from_secs_f64(k as f64 / rate);
                            let now = Instant::now();
                            if sched > now {
                                std::thread::sleep(sched - now);
                            }
                            if j % 2 == 0 {
                                call(&mut c, "POST", &format!("/sessions/{id}/ingest"), &ingest)?;
                            } else {
                                call(&mut c, "GET", &format!("/sessions/{id}/estimate"), "")?;
                            }
                            hist.record(sched.elapsed().as_micros() as u64);
                        }
                        Ok(hist)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver panicked"))
                .collect::<Result<_, _>>()
        })
        .expect("crossbeam scope failed")?;
        let secs = secs(t0);
        drop(parked);
        server.shutdown();
        server.join();
        let mut merged = Histogram::new();
        for h in &hists {
            merged.merge(h);
        }
        let total = merged.count() as usize;
        let run = ServeOpenRun {
            requested_conns: requested,
            open_conns,
            requests: total,
            secs,
            rate: total as f64 / secs.max(1e-9),
            p50_ms: merged.quantile(0.50) as f64 / 1e3,
            p99_ms: merged.quantile(0.99) as f64 / 1e3,
        };
        eprintln!(
            "serve_open: {} conns ({} requested), {} req @ target {:.0} req/s: {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms",
            run.open_conns, requested, run.requests, rate, run.rate, run.p50_ms, run.p99_ms,
        );
        runs.push(run);
    }
    Ok(ServeOpenEntry {
        target_rps: rate,
        drivers,
        steps_per_ingest: steps,
        runs,
    })
}

struct ClusterEntry {
    shards: usize,
    walkers: usize,
    steps_per_walker: usize,
    batch: usize,
    bit_identical: bool,
    runs: Vec<TimedRun>,
}

/// Benchmarks the sharded coordinator: a fixed workload (16 walkers over
/// 4 local shards, every shard a real `cgte-serve` process-internal
/// server on its own port) driven once per configured `--round-threads`
/// pool size. The workload is identical at every pool size — placement,
/// merging and checkpoint cadence all live on the coordinator thread —
/// so wall-clock ratios are the right scaling metric, and every merged
/// stream is checked bit-identical against [`single_box_reference`].
///
/// [`single_box_reference`]: cgte_serve::cluster::single_box_reference
fn bench_cluster(opts: &BenchOptions) -> Result<ClusterEntry, String> {
    use cgte_sampling::ObservationContext;
    use cgte_serve::cluster::{run_cluster, single_box_reference, ClusterConfig, RetryPolicy};

    // Even at --quick the run must drive enough HTTP round trips to time
    // stably (a few hundred requests; a tens-of-ms window is timer noise
    // and would make the --check gate flaky).
    let shards_n = 4;
    let walkers = 16;
    let steps = if opts.quick { 4_000 } else { 12_000 };
    let batch = if opts.quick { 250 } else { 500 };

    let pcfg = PlantedConfig::scaled(if opts.quick { 60 } else { 20 }, 20, 0.5);
    let pg = par_planted_partition(&pcfg, opts.seed, 0).expect("feasible planted config");
    let store = Staged::new(
        opts,
        format!("cluster-planted-{}-{}", pg.graph.num_nodes(), opts.seed),
        &pg.graph,
        Some(&pg.partition),
    )?;
    let servers: Vec<Server> = (0..shards_n)
        .map(|_| store.serve(2))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();

    let cfg = ClusterConfig {
        partition: Some("main".to_string()),
        walkers,
        steps_per_walker: steps,
        batch,
        snapshot_every: 2,
        seed: opts.seed,
        policy: RetryPolicy {
            request_timeout: Duration::from_secs(10),
            ..RetryPolicy::default()
        },
        ..ClusterConfig::new(&store.name)
    };
    let ctx = ObservationContext::new(&pg.graph, &pg.partition);
    let reference =
        single_box_reference(&cfg, &pg.graph, &pg.partition, &ctx).map_err(|e| e.to_string())?;

    // Warm every shard (graph load + neighbor-category index) outside the
    // timed windows with a one-round mini-run.
    {
        let mut warm = cfg.clone();
        warm.walkers = shards_n;
        warm.steps_per_walker = batch;
        run_cluster(&warm, &addrs, &ctx).map_err(|e| format!("cluster warm-up failed: {e}"))?;
    }

    let mut runs = Vec::new();
    let mut identical = true;
    for &t in &opts.threads {
        let mut cfg_t = cfg.clone();
        cfg_t.round_threads = t;
        let reps = if t == 1 { SERIAL_REPS } else { 1 };
        let (run, dt) = best_of(reps, || run_cluster(&cfg_t, &addrs, &ctx));
        let run = run.map_err(|e| format!("cluster bench run failed: {e}"))?;
        if run.degraded || run.shards_alive != shards_n {
            return Err(format!(
                "cluster bench degraded: {}/{} walkers, {}/{} shards",
                run.walkers_completed, walkers, run.shards_alive, shards_n
            ));
        }
        identical &= run.stream == reference;
        runs.push(TimedRun {
            threads: t,
            secs: dt,
            rate: (walkers * steps) as f64 / dt.max(1e-9),
        });
    }
    for s in servers {
        s.shutdown();
        s.join();
    }
    let entry = ClusterEntry {
        shards: shards_n,
        walkers,
        steps_per_walker: steps,
        batch,
        bit_identical: identical,
        runs,
    };
    eprintln!(
        "cluster: {shards_n} shards × {walkers} walkers, serial {:.2}s, speedup {:.2}x, bit-identical: {identical}",
        entry.runs[0].secs,
        speedup(&entry.runs),
    );
    Ok(entry)
}

fn bench_estimate(opts: &BenchOptions) -> EstimateEntry {
    // A laptop-scale planted graph: estimate throughput is dominated by
    // walking + observation, not graph size.
    let scale_div = if opts.quick { 60 } else { 10 };
    let cfg = PlantedConfig::scaled(scale_div, 20, 0.5);
    let pg = par_planted_partition(&cfg, opts.seed, 0).expect("feasible planted config");
    let sizes = if opts.quick {
        vec![100, 500]
    } else {
        vec![100, 1_000, 10_000]
    };
    let max_size = *sizes.iter().max().unwrap();
    let replications = if opts.quick { 8 } else { 40 };
    let ncat = pg.partition.num_categories() as u32;
    let targets: Vec<Target> = (0..ncat).map(Target::Size).collect();
    let sampler = AnySampler::Rw(RandomWalk::new().burn_in(max_size / 10));
    let mut runs = Vec::new();
    for &t in &opts.threads {
        let cfg = ExperimentConfig::new(sizes.clone(), replications)
            .seed(opts.seed)
            .threads(t);
        let reps = if t == 1 { SERIAL_REPS } else { 1 };
        let (res, dt) = best_of(reps, || {
            run_experiment(&pg.graph, &pg.partition, &sampler, &targets, &cfg)
        });
        assert!(!res.entries().is_empty(), "experiment produced no series");
        runs.push(TimedRun {
            threads: t,
            secs: dt,
            rate: (replications * max_size) as f64 / dt.max(1e-9),
        });
    }
    eprintln!(
        "estimate: {} nodes, {replications} reps × |S|={max_size}, serial {:.0} samples/s",
        pg.graph.num_nodes(),
        runs[0].rate
    );
    EstimateEntry {
        nodes: pg.graph.num_nodes(),
        replications,
        max_size,
        targets: targets.len(),
        runs,
    }
}

/// One workload timed twice: tracer fully disabled (level 0, the
/// production default) and fully enabled into a [`cgte_obs::NoopSink`]
/// at [`cgte_obs::LEVEL_DETAIL`]. The noop-sink run is a *superset* of
/// the disabled run's work — every level gate passes and every record is
/// rendered — so `traced_ratio ≈ 1` bounds the disabled-tracing overhead
/// from above.
struct ObsWorkload {
    off_secs: f64,
    traced_secs: f64,
    off_rate: f64,
    traced_rate: f64,
}

impl ObsWorkload {
    /// Traced rate over disabled rate — an internal ratio (both sides
    /// from one box within one run), so the gate always compares it.
    fn traced_ratio(&self) -> f64 {
        self.traced_rate / self.off_rate.max(1e-9)
    }
}

struct ObsEntry {
    walk_steps: usize,
    walk: ObsWorkload,
    serve_rounds: usize,
    serve_requests: usize,
    serve: ObsWorkload,
}

/// Measures the tracing tax on the two hot paths the ISSUE pins: raw
/// walk steps/sec (the sampler inner loop runs under serve's request
/// spans) and serve requests/sec (every request opens a span and ingest
/// emits a `serve.walk` event). Runs **last** in the harness: it
/// installs a process-global sink, and although it shuts the tracer down
/// afterwards, no other section should ever time against a live tracer.
fn bench_obs(g: &Graph, opts: &BenchOptions) -> Result<ObsEntry, String> {
    assert_eq!(cgte_obs::level(), 0, "tracer must start disabled");

    // --- walk steps/sec, disabled vs noop-traced -------------------------
    // 4× the walk section's budget: the two sides differ by a couple of
    // percent at most, so each timed window must be hundreds of
    // milliseconds for the ratio to be signal rather than scheduler
    // noise (the gate compares it across PRs).
    let steps = if opts.quick { 4_000_000 } else { 8_000_000 };
    let reps = SERIAL_REPS + 2;
    let sampler = RandomWalk::new();
    let run_walk = |_traced| {
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x0B5);
        let mut buf = Vec::with_capacity(steps);
        sampler.sample_into(g, steps, &mut rng, &mut buf);
        buf.len()
    };
    let ((_, walk_off_secs), (_, walk_traced_secs)) = best_of_off_traced(reps, run_walk);
    let walk = ObsWorkload {
        off_secs: walk_off_secs,
        traced_secs: walk_traced_secs,
        off_rate: steps as f64 / walk_off_secs.max(1e-9),
        traced_rate: steps as f64 / walk_traced_secs.max(1e-9),
    };

    // --- serve requests/sec, disabled vs noop-traced ---------------------
    // A small planted graph keeps this section seconds-scale: the point
    // is the per-request delta, which is size-independent.
    let cfg = PlantedConfig::scaled(if opts.quick { 60 } else { 20 }, 20, 0.5);
    let pg = par_planted_partition(&cfg, opts.seed, 0).expect("feasible planted config");
    let store = Staged::new(
        opts,
        format!("obs-planted-{}-{}", pg.graph.num_nodes(), opts.seed),
        &pg.graph,
        Some(&pg.partition),
    )?;
    let rounds = if opts.quick { 400 } else { 1200 };
    let server = store.serve(1)?;
    let mut client = connect(server.addr())?;
    // One scripted session: open, then `rounds` × (ingest, estimate).
    let requests = 1 + 2 * rounds;
    let mut run_serve = |seed: u64| -> Result<(), String> {
        let id = open_session(&mut client, &store.name, seed)?;
        let ingest = format!("/sessions/{id}/ingest");
        let estimate = format!("/sessions/{id}/estimate");
        for _ in 0..rounds {
            call(&mut client, "POST", &ingest, "{\"steps\":200}")?;
            call(&mut client, "GET", &estimate, "")?;
        }
        Ok(())
    };
    // Warm-up (graph load + neighbor-category index) outside both windows.
    run_serve(1)?;
    let ((off, serve_off_secs), (traced, serve_traced_secs)) =
        best_of_off_traced(SERIAL_REPS, |traced| {
            run_serve(if traced { 200 } else { 100 })
        });
    off.and(traced)?;
    server.shutdown();
    server.join();
    let serve = ObsWorkload {
        off_secs: serve_off_secs,
        traced_secs: serve_traced_secs,
        off_rate: requests as f64 / serve_off_secs.max(1e-9),
        traced_rate: requests as f64 / serve_traced_secs.max(1e-9),
    };
    let entry = ObsEntry {
        walk_steps: steps,
        walk,
        serve_rounds: rounds,
        serve_requests: requests,
        serve,
    };
    eprintln!(
        "obs: walk {:.0} steps/s off vs {:.0} traced (ratio {:.3}); serve {:.0} req/s off vs {:.0} traced (ratio {:.3})",
        entry.walk.off_rate,
        entry.walk.traced_rate,
        entry.walk.traced_ratio(),
        entry.serve.off_rate,
        entry.serve.traced_rate,
        entry.serve.traced_ratio(),
    );
    Ok(entry)
}

fn runs_json(runs: &[TimedRun], rate_key: &str) -> String {
    let items: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"threads\":{},\"secs\":{:.6},\"{rate_key}\":{:.1}}}",
                r.threads, r.secs, r.rate
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Runs the full harness and writes the JSON report. Returns the JSON, or
/// `Err` naming the first identity check that failed (no report is
/// written then).
pub fn run_bench(opts: &BenchOptions) -> Result<String, String> {
    assert!(
        opts.threads.first() == Some(&1),
        "the first thread count must be 1 (the serial reference)"
    );
    assert!(
        opts.threads.iter().all(|&t| t >= 1),
        "thread counts must be positive"
    );
    let seed = opts.seed;
    let quick = opts.quick;

    // --- build rates ------------------------------------------------------
    let cl_n = if quick { 100_000 } else { 1_000_000 };
    let mut w = powerlaw_weights(
        cl_n,
        2.5,
        2.0,
        (cl_n as f64).sqrt(),
        &mut StdRng::seed_from_u64(seed),
    );
    scale_to_mean(&mut w, 10.0);
    let mut builds = Vec::new();
    builds.push(bench_build("chung_lu", opts, |t| par_chung_lu(&w, seed, t)));
    let gnp_n = if quick { 100_000 } else { 1_000_000 };
    builds.push(bench_build("gnp", opts, |t| {
        par_gnp(gnp_n, 10.0 / gnp_n as f64, seed, t)
    }));
    let ba_n = if quick { 30_000 } else { 300_000 };
    builds.push(bench_build("barabasi_albert", opts, |t| {
        par_barabasi_albert(ba_n, 4, seed, t).expect("valid BA parameters")
    }));
    let cm_n = if quick { 30_000 } else { 300_000 };
    let mut deg = powerlaw_degree_sequence(cm_n, 2.5, 2, 200, &mut StdRng::seed_from_u64(seed));
    if deg.iter().sum::<usize>() % 2 != 0 {
        deg[0] += 1;
    }
    builds.push(bench_build("configuration", opts, |t| {
        par_configuration_model_erased(&deg, seed, t).expect("even degree sum")
    }));
    let planted_cfg = if quick {
        PlantedConfig::scaled(30, 10, 0.5)
    } else {
        PlantedConfig::scaled_up(3, 10, 0.5)
    };
    builds.push(bench_build("planted", opts, |t| {
        par_planted_partition(&planted_cfg, seed, t)
            .expect("feasible planted config")
            .graph
    }));

    // --- walk + estimate throughput --------------------------------------
    let walk_graph = par_chung_lu(&w, seed, 0);
    let walks = bench_walks(&walk_graph, opts);
    let estimate = bench_estimate(opts);

    // --- headline graph (always full-size, even at --quick) ---------------
    // Built once, shared by the load and serve sections.
    let mut headline_w = powerlaw_weights(
        opts.load_nodes,
        2.5,
        2.0,
        (opts.load_nodes as f64).sqrt(),
        &mut StdRng::seed_from_u64(seed),
    );
    scale_to_mean(&mut headline_w, 10.0);
    let headline = par_chung_lu(&headline_w, seed, 0);

    // --- disk-store load throughput ---------------------------------------
    let load = bench_load(opts, &headline_w, &headline)?;

    // --- session-snapshot round-trip throughput ---------------------------
    let snapshot = bench_snapshot(opts);

    // --- serve request throughput + latency, then open-loop load ---------
    // Both sections serve the headline graph with a top-50 stand-in
    // partition from one staged bundle.
    let partition = cgte_datasets::standin_partition(
        &headline,
        50,
        false,
        &mut StdRng::seed_from_u64(seed ^ 0x5E7E),
    );
    let store = Staged::new(
        opts,
        format!("serve-headline-{}-{seed}", headline.num_nodes()),
        &headline,
        Some(&partition),
    )?;
    let serve = bench_serve(&store, &headline, partition.num_categories(), opts)?;
    // The open-loop schedule fires at the closed-loop t = 1 rate.
    let serve_open = bench_serve_open(
        &store,
        opts,
        serve.runs[0].timed.rate,
        serve.steps_per_ingest,
    )?;
    drop(store);

    // --- sharded coordinator wall-clock at each round-pool size -----------
    let cluster = bench_cluster(opts)?;

    // --- tracing overhead (must run last: installs the global tracer) -----
    let obs = bench_obs(&walk_graph, opts)?;

    // --- identity checks: a timing of a wrong result is no measurement ----
    let mut flags = builds
        .iter()
        .map(|b| {
            (
                format!("build/{}/bit_identical", b.generator),
                b.bit_identical,
            )
        })
        .chain([
            ("load/identical".to_string(), load.identical),
            ("load/mmap_identical".to_string(), load.mmap_identical),
            ("snapshot/identical".to_string(), snapshot.identical),
            ("cluster/bit_identical".to_string(), cluster.bit_identical),
        ]);
    if let Some((flag, _)) = flags.find(|(_, ok)| !ok) {
        return Err(format!(
            "{flag} is false: the bench computed a wrong result, so it reports no timings"
        ));
    }

    // --- report -----------------------------------------------------------
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema\": \"cgte-bench/1\",\n  \"pr\": \"PR10\",\n  \"quick\": {},\n  \"seed\": {},\n  \"available_parallelism\": {},\n  \"threads\": [{}],\n",
        quick,
        seed,
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        opts.threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    json.push_str("  \"build\": [\n");
    for (i, b) in builds.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"generator\":\"{}\",\"nodes\":{},\"edges\":{},\"bit_identical\":{},\"best_speedup\":{:.3},\"runs\":{}}}{}",
            b.generator,
            b.nodes,
            b.edges,
            b.bit_identical,
            speedup(&b.runs),
            runs_json(&b.runs, "edges_per_sec"),
            if i + 1 < builds.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"walk\": [\n");
    for (i, e) in walks.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"sampler\":\"{}\",\"steps_per_walker\":{},\"best_speedup\":{:.3},\"runs\":{}}}{}",
            e.sampler,
            e.steps_per_walker,
            rate_speedup(&e.runs),
            runs_json(&e.runs, "steps_per_sec"),
            if i + 1 < walks.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"estimate\": {{\"nodes\":{},\"replications\":{},\"max_size\":{},\"targets\":{},\"best_speedup\":{:.3},\"runs\":{}}},\n",
        estimate.nodes,
        estimate.replications,
        estimate.max_size,
        estimate.targets,
        speedup(&estimate.runs),
        runs_json(&estimate.runs, "samples_per_sec"),
    );
    let _ = writeln!(
        json,
        "  \"load\": {{\"generator\":\"chung_lu\",\"nodes\":{},\"edges\":{},\"write_secs\":{:.6},\"load_secs\":{:.6},\"mmap_secs\":{:.6},\"regen_secs\":{:.6},\"load_edges_per_sec\":{:.1},\"mmap_edges_per_sec\":{:.1},\"regen_edges_per_sec\":{:.1},\"speedup_vs_regen\":{:.3},\"mmap_vs_heap\":{:.3},\"identical\":{},\"mmap_identical\":{},\"mapped\":{}}},",
        load.nodes,
        load.edges,
        load.write_secs,
        load.load_secs,
        load.mmap_secs,
        load.regen_secs,
        load.load_rate(),
        load.mmap_rate(),
        load.regen_rate(),
        load.speedup(),
        load.mmap_vs_heap(),
        load.identical,
        load.mmap_identical,
        load.mapped,
    );
    let _ = writeln!(
        json,
        "  \"snapshot\": {{\"nodes\":{},\"categories\":{},\"samples\":{},\"bytes\":{},\"write_secs\":{:.6},\"restore_secs\":{:.6},\"write_samples_per_sec\":{:.1},\"restore_samples_per_sec\":{:.1},\"identical\":{}}},",
        snapshot.nodes,
        snapshot.categories,
        snapshot.samples,
        snapshot.bytes,
        snapshot.write_secs,
        snapshot.restore_secs,
        snapshot.write_rate(),
        snapshot.restore_rate(),
        snapshot.identical,
    );
    let serve_runs: Vec<String> = serve
        .runs
        .iter()
        .map(|r| {
            format!(
                "{{\"threads\":{},\"secs\":{:.6},\"requests\":{},\"requests_per_sec\":{:.1},\"p50_ms\":{:.4},\"p99_ms\":{:.4}}}",
                r.timed.threads, r.timed.secs, r.requests, r.timed.rate, r.p50_ms, r.p99_ms
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "  \"serve\": {{\"nodes\":{},\"edges\":{},\"categories\":{},\"rounds\":{},\"steps_per_ingest\":{},\"best_speedup\":{:.3},\"runs\":[{}]}},",
        serve.nodes,
        serve.edges,
        serve.categories,
        serve.rounds,
        serve.steps_per_ingest,
        rate_speedup(serve.runs.iter().map(|r| &r.timed)),
        serve_runs.join(","),
    );
    let open_runs: Vec<String> = serve_open
        .runs
        .iter()
        .map(|r| {
            format!(
                "{{\"requested_conns\":{},\"open_conns\":{},\"requests\":{},\"secs\":{:.6},\"achieved_rps\":{:.1},\"p50_ms\":{:.4},\"p99_ms\":{:.4}}}",
                r.requested_conns, r.open_conns, r.requests, r.secs, r.rate, r.p50_ms, r.p99_ms
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "  \"serve_open\": {{\"target_rps\":{:.1},\"drivers\":{},\"steps_per_ingest\":{},\"runs\":[{}]}},",
        serve_open.target_rps,
        serve_open.drivers,
        serve_open.steps_per_ingest,
        open_runs.join(","),
    );
    let _ = writeln!(
        json,
        "  \"cluster\": {{\"shards\":{},\"walkers\":{},\"steps_per_walker\":{},\"batch\":{},\"bit_identical\":{},\"best_speedup\":{:.3},\"runs\":{}}},",
        cluster.shards,
        cluster.walkers,
        cluster.steps_per_walker,
        cluster.batch,
        cluster.bit_identical,
        speedup(&cluster.runs),
        runs_json(&cluster.runs, "samples_per_sec"),
    );
    let _ = write!(
        json,
        "  \"obs\": {{\"walk_steps\":{},\"walk_off_secs\":{:.6},\"walk_traced_secs\":{:.6},\"walk_steps_per_sec_off\":{:.1},\"walk_steps_per_sec_traced\":{:.1},\"walk_traced_ratio\":{:.4},\"serve_rounds\":{},\"serve_requests\":{},\"serve_off_secs\":{:.6},\"serve_traced_secs\":{:.6},\"serve_requests_per_sec_off\":{:.1},\"serve_requests_per_sec_traced\":{:.1},\"serve_traced_ratio\":{:.4}}}\n}}\n",
        obs.walk_steps,
        obs.walk.off_secs,
        obs.walk.traced_secs,
        obs.walk.off_rate,
        obs.walk.traced_rate,
        obs.walk.traced_ratio(),
        obs.serve_rounds,
        obs.serve_requests,
        obs.serve.off_secs,
        obs.serve.traced_secs,
        obs.serve.off_rate,
        obs.serve.traced_rate,
        obs.serve.traced_ratio(),
    );

    std::fs::write(&opts.out, &json).map_err(|e| format!("cannot write {:?}: {e}", opts.out))?;
    eprintln!("wrote {}", opts.out.display());
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_reports() {
        let dir = std::env::temp_dir().join("cgte-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let opts = BenchOptions {
            quick: true,
            seed: 7,
            threads: vec![1, 2],
            out: dir.join("bench.json"),
            cache_dir: Some(dir.clone()),
            // Tests run unoptimized; the committed reports use the real
            // 1M-node headline via the release binary.
            load_nodes: 20_000,
            // Likewise shrunk: the committed reports park 1k/10k
            // connections via the release binary.
            open_conns: vec![48],
        };
        let json = run_bench(&opts).unwrap();
        // The gate reads back everything the harness wrote: 5 builds,
        // 2 walks, estimate, 3 load, 2 snapshot, 3 serve, 2 per open-conns
        // count, cluster and 2 obs metrics — plus the 5 build speedups and
        // the cluster speedup on a multi-core box.
        let multicore = std::thread::available_parallelism().map_or(1, |p| p.get()) > 1;
        let want = 19 + 2 * opts.open_conns.len() + if multicore { 6 } else { 0 };
        let out = crate::check::check_reports(&json, &json).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!((out.compared, out.skipped), (want, 0));
        // The obs section must leave the process-global tracer disabled,
        // or everything after a bench run would pay for tracing.
        assert_eq!(cgte_obs::level(), 0);
        let back = std::fs::read_to_string(&opts.out).unwrap();
        assert_eq!(back, json);
        // With --cache-dir the staged store files stay.
        let kept = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .any(|p| p.extension().is_some_and(|x| x == "cgteg"));
        assert!(kept, "--cache-dir keeps the headline store file");
    }
}
