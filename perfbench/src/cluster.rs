//! `cluster_rw`: `run_cluster` over in-process `cgte-serve` shards on the
//! headline graph, random-walk walkers, checkpointed every few rounds.
//!
//! The run repeats whole cluster runs (same cluster seed) until
//! `--seconds` have passed. Per run, a "round" (every walker ingests one
//! batch, plus a checkpoint download when due) is the ingest unit, and the
//! time until the merged stream's estimate exists is the estimate unit.
//! Every run's merged stream must equal `single_box_reference`.

use crate::fixture::Fixture;
use crate::replay::Decomposed;
use crate::trace::{per_sample, Layers, Tracer};
use crate::{derive_seed, median, percentile, percentile_json, sorted, Report, RunCtx};
use cgte_core::{estimate_stream_into, StarSizeOptions, StreamEstimate};
use cgte_graph::store::{partition_from_container, Loader, Validate};
use cgte_graph::{Graph, Partition};
use cgte_sampling::snapshot::{read_snapshot, stream_from_container};
use cgte_sampling::{NeighborCategoryIndex, ObservationContext, ObservationStream};
use cgte_serve::client::Client;
use cgte_serve::cluster::{
    derive_walker_seed, run_cluster_with, single_box_reference, ClusterConfig, ClusterEvent,
    ClusterRun, RetryClient, RetryPolicy,
};
use cgte_serve::registry::Registry;
use cgte_serve::session::{build_sampler, Session, SessionSpec};
use cgte_serve::{ServeConfig, Server};
use std::time::{Duration, Instant};

struct Shape {
    shards: usize,
    shard_workers: usize,
    round_threads: usize,
    walkers: usize,
    steps_per_walker: usize,
    batch: usize,
    snapshot_every: usize,
    setup_reps: usize,
    rtt_probes: usize,
}

impl Shape {
    fn new(toy: bool) -> Shape {
        let mut s = Shape {
            shards: 2,
            shard_workers: 1,
            round_threads: crate::nproc().clamp(1, 2),
            walkers: 2,
            steps_per_walker: 60_000,
            batch: 500,
            snapshot_every: 4,
            setup_reps: 3,
            rtt_probes: 200,
        };
        if toy {
            s.steps_per_walker = 2_000;
            s.batch = 100;
            s.setup_reps = 2;
            s.rtt_probes = 20;
        }
        s
    }

    fn config(&self, fx: &Fixture, seed: u64) -> ClusterConfig {
        ClusterConfig {
            partition: Some("main".to_string()),
            walkers: self.walkers,
            steps_per_walker: self.steps_per_walker,
            batch: self.batch,
            snapshot_every: self.snapshot_every,
            round_threads: self.round_threads,
            seed: derive_seed(seed, 0xC1, 0),
            policy: RetryPolicy {
                request_timeout: Duration::from_secs(30),
                ..RetryPolicy::default()
            },
            ..ClusterConfig::new(fx.name.clone())
        }
    }
}

/// The coordinator's local copy of the graph (what `cgte cluster` loads
/// from its own store to validate and merge shard logs).
struct Local {
    graph: Graph,
    partition: Partition,
    index: NeighborCategoryIndex,
}

impl Local {
    fn ctx(&self) -> ObservationContext<'_> {
        ObservationContext::with_index(&self.graph, &self.partition, &self.index)
    }
}

fn load_local(fx: &Fixture) -> Result<Local, String> {
    let loaded = Loader::open(fx.path())
        .validate(Validate::Full)
        .mmap(true)
        .load()
        .map_err(|e| format!("cannot load {}: {e}", fx.path().display()))?;
    let partition = partition_from_container(&loaded.rest, "main", loaded.graph.num_nodes())
        .map_err(|e| e.to_string())?
        .ok_or("fixture has no main partition")?;
    let index = NeighborCategoryIndex::build(&loaded.graph, &partition);
    Ok(Local {
        graph: loaded.graph,
        partition,
        index,
    })
}

fn bind_shards(fx: &Fixture, shape: &Shape) -> Result<Vec<Server>, String> {
    (0..shape.shards)
        .map(|_| {
            Server::bind(&ServeConfig {
                cache_dir: fx.dir.clone(),
                addr: "127.0.0.1:0".to_string(),
                threads: shape.shard_workers,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("cannot bind shard: {e}"))
        })
        .collect()
}

fn stop(shards: Vec<Server>) {
    for s in shards {
        s.shutdown();
        s.join();
    }
}

fn addrs(shards: &[Server]) -> Vec<String> {
    shards.iter().map(|s| s.addr().to_string()).collect()
}

/// Requests the shards have handled, from their own `/metrics` counter
/// (scrapes are not counted there).
fn shard_requests(shards: &[Server]) -> Result<u64, String> {
    let mut total = 0;
    for s in shards {
        let mut c = Client::connect(s.addr()).map_err(|e| e.to_string())?;
        let (st, body) = c
            .request("GET", "/metrics", "")
            .map_err(|e| e.to_string())?;
        if st != 200 {
            return Err(format!("/metrics answered {st}"));
        }
        total += body
            .lines()
            .find_map(|l| l.strip_prefix("cgte_serve_requests_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or("no cgte_serve_requests_total in /metrics")?;
    }
    Ok(total)
}

/// One timed cluster run.
struct Timed {
    run: ClusterRun,
    /// Wall time of each round (from the previous round's end).
    rounds_ms: Vec<f64>,
    /// Run start until the merged stream's estimate exists.
    estimate_ms: f64,
    requests: u64,
}

fn timed_run(
    cfg: &ClusterConfig,
    shards: &[Server],
    ctx: &ObservationContext<'_>,
    est: &mut StreamEstimate,
) -> Result<Timed, String> {
    let before = shard_requests(shards)?;
    let mut rounds_ms = Vec::new();
    let t0 = Instant::now();
    let mut last = t0;
    let run = run_cluster_with(cfg, &addrs(shards), ctx, |ev| {
        if let ClusterEvent::RoundDone { .. } = ev {
            let now = Instant::now();
            rounds_ms.push((now - last).as_secs_f64() * 1e3);
            last = now;
        }
    })
    .map_err(|e| format!("cluster run failed: {e}"))?;
    estimate_stream_into(
        run.stream.star(),
        run.stream.induced(),
        ctx.graph().num_nodes() as f64,
        &StarSizeOptions::default(),
        true,
        est,
    );
    let estimate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let requests = shard_requests(shards)? - before;
    Ok(Timed {
        run,
        rounds_ms,
        estimate_ms,
        requests,
    })
}

/// Failed operations of one run: retries, missing walkers or shards, and
/// a merged stream that differs from the single-box reference.
fn account(r: &mut Report, t: &Timed, reference: &ObservationStream, shape: &Shape) {
    r.attempted += t.requests;
    r.failed += t.run.retries;
    if t.run.degraded || t.run.shards_alive != shape.shards {
        r.mismatch(&format!(
            "degraded run: {}/{} walkers, {}/{} shards",
            t.run.walkers_completed, shape.walkers, t.run.shards_alive, shape.shards
        ));
    }
    if &t.run.stream != reference {
        r.mismatch("merged stream differs from single_box_reference");
    }
}

/// One set-up: bind the shards, load the coordinator's copy (and build its
/// index), and warm every shard (graph load + index) with a one-round run.
fn set_up(
    fx: &Fixture,
    shape: &Shape,
    cfg: &ClusterConfig,
) -> Result<(Vec<Server>, Local, f64), String> {
    let t0 = Instant::now();
    let shards = bind_shards(fx, shape)?;
    let local = load_local(fx)?;
    let ctx = local.ctx();
    let mut warm = cfg.clone();
    warm.walkers = shape.shards;
    warm.steps_per_walker = shape.batch;
    run_cluster_with(&warm, &addrs(&shards), &ctx, |_| {})
        .map_err(|e| format!("cluster warm-up failed: {e}"))?;
    drop(ctx);
    Ok((shards, local, t0.elapsed().as_secs_f64()))
}

pub fn run(ctx: &RunCtx, fx: &Fixture) -> Result<Report, String> {
    let shape = Shape::new(ctx.toy);
    let cfg = shape.config(fx, ctx.seed);
    if ctx.traced {
        return traced(ctx, fx, &shape, &cfg);
    }
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..shape.setup_reps {
        let (shards, local, secs) = set_up(fx, &shape, &cfg)?;
        setups.push(secs);
        if rep + 1 < shape.setup_reps {
            stop(shards);
        } else {
            kept = Some((shards, local));
        }
    }
    let (shards, local) = kept.expect("at least one set-up");
    let octx = local.ctx();
    let mut est = StreamEstimate::new(octx.num_categories());

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut runs = Vec::new();
    while runs.is_empty() || Instant::now() < deadline {
        runs.push(timed_run(&cfg, &shards, &octx, &mut est)?);
    }
    let rss = crate::peak_rss_mb();
    stop(shards);

    let reference = single_box_reference(&cfg, &local.graph, &local.partition, &octx)
        .map_err(|e| e.to_string())?;
    for t in &runs {
        account(&mut r, t, &reference, &shape);
    }
    // Rates and latencies are taken per run; the reported figure is their
    // median over the runs.
    let rounds = sorted(runs.iter().flat_map(|t| t.rounds_ms.clone()).collect());
    let estimates = sorted(runs.iter().map(|t| t.estimate_ms).collect());
    let samples = (shape.walkers * shape.steps_per_walker) as f64;
    let per_run = |f: &dyn Fn(&Timed) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());

    r.metric("setup_s", median(&setups), "s");
    r.metric(
        "samples_per_s",
        per_run(&|t| samples / (t.estimate_ms / 1e3)),
        "samples/s",
    );
    r.metric(
        "requests_per_s",
        per_run(&|t| t.requests as f64 / (t.estimate_ms / 1e3)),
        "req/s",
    );
    // A run's ingest latency is its mean round time: checkpoint rounds
    // are a quarter of all rounds, so the round-time median sits on
    // whichever mode scheduling noise favours.
    r.metric(
        "ingest_p50_ms",
        per_run(&|t| t.rounds_ms.iter().sum::<f64>() / t.rounds_ms.len() as f64),
        "ms",
    );
    r.metric("estimate_p50_ms", percentile(&estimates, 0.5), "ms");
    r.metric("peak_rss_mb", rss, "MB");
    r.detail("round_ms", percentile_json(&rounds));
    r.detail("run_estimate_ms", percentile_json(&estimates));
    r.detail("runs", runs.len().to_string());
    r.detail("setup_s_all", format!("{setups:?}"));
    r.detail("shape", shape_json(&shape));
    Ok(r)
}

fn shape_json(shape: &Shape) -> String {
    format!(
        "{{\"shards\": {}, \"shard_workers\": {}, \"round_threads\": {}, \"walkers\": {}, \"steps_per_walker\": {}, \"batch\": {}, \"snapshot_every\": {}}}",
        shape.shards,
        shape.shard_workers,
        shape.round_threads,
        shape.walkers,
        shape.steps_per_walker,
        shape.batch,
        shape.snapshot_every
    )
}

/// The traced run: the cluster run untraced and with per-round spans (the
/// difference is the tracing overhead), fresh-connection `/healthz` round
/// trips to a shard, and an in-process replay of every walker's rounds on
/// the run's checkpoint schedule — session ingest, snapshot encode,
/// checkpoint validation replay, final replay and merge — one span per
/// layer call.
fn traced(
    ctx: &RunCtx,
    fx: &Fixture,
    shape: &Shape,
    cfg: &ClusterConfig,
) -> Result<Report, String> {
    let mut r = Report::default();
    let mut layers = Layers::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    let reg = Registry::new(&fx.dir);
    let t0 = Instant::now();
    let lg = reg.get(&fx.name).map_err(|e| e.msg)?;
    layers.store_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let index = lg.index(0, shape.shard_workers);
    layers.index_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let p = &lg.partitions[0].1;
    let octx = ObservationContext::with_index(&lg.graph, p, &index);
    let mut est = StreamEstimate::new(octx.num_categories());

    let (shards, _local, _) = set_up(fx, shape, cfg)?;
    let plain = timed_run(cfg, &shards, &octx, &mut est)?;
    let t0 = Instant::now();
    let mut root = Some(tracer.begin("cluster.round", None));
    let traced_run = run_cluster_with(cfg, &addrs(&shards), &octx, |ev| {
        if let ClusterEvent::RoundDone { .. } = ev {
            if let Some(s) = root.take() {
                tracer.end(s);
            }
            root = Some(tracer.begin("cluster.round", None));
        }
    })
    .map_err(|e| format!("cluster run failed: {e}"))?;
    let traced_wall = t0.elapsed().as_secs_f64();
    if let Some(s) = root.take() {
        tracer.end(s);
    }
    let mut probe = RetryClient::new(shards[0].addr().to_string(), cfg.policy.clone(), 0);
    for _ in 0..shape.rtt_probes {
        let s = tracer.begin("serve.cluster.shard_rtt", None);
        r.attempted += 1;
        if !matches!(probe.get("/healthz"), Ok((200, _))) {
            r.failed += 1;
        }
        tracer.end(s);
    }
    stop(shards);

    let reference = single_box_reference(cfg, &lg.graph, p, &octx).map_err(|e| e.to_string())?;
    account(&mut r, &plain, &reference, shape);
    if traced_run.stream != reference {
        r.mismatch("traced merged stream differs from single_box_reference");
    }

    // Replay every walker on the run's checkpoint schedule. Walkers move
    // in lockstep, so round `i` of every walker is cluster round `i`.
    let mut finals = Vec::new();
    let (mut checkpoints, mut checkpoint_bytes, mut replayed) = (0u64, 0u64, 0u64);
    for w in 0..shape.walkers {
        let seed = derive_walker_seed(cfg.seed, w);
        let spec = SessionSpec {
            graph: fx.name.clone(),
            partition: cfg.partition.clone(),
            sampler: cfg.sampler.clone(),
            design: None,
            seed,
            burn_in: cfg.burn_in,
            thinning: cfg.thinning,
        };
        let mut s = Session::open(format!("w{w}"), lg.clone(), &spec, shape.shard_workers)
            .map_err(|e| e.msg)?;
        let (sampler, design) =
            build_sampler(&lg.graph, p, &cfg.sampler, None, cfg.burn_in, cfg.thinning)
                .map_err(|e| e.msg)?;
        let mut d = Decomposed::new(sampler, design, seed, p.num_categories());
        let mut done = 0;
        let mut round = 0;
        let mut last_bytes = Vec::new();
        let mut last_stream = None;
        while done < shape.steps_per_walker {
            let batch = shape.batch.min(shape.steps_per_walker - done);
            let root = tracer.begin("walker.round", None);
            let sp = tracer.begin("serve.session.ingest", Some(root));
            done += s.ingest_steps(batch).map_err(|e| e.msg)?;
            tracer.end(sp);
            let sp = tracer.begin("replay.ingest", Some(root));
            d.ingest_steps(&octx, &mut tracer, Some(sp), batch)?;
            tracer.end(sp);
            let boundary = (round + 1) % shape.snapshot_every == 0;
            if boundary || done >= shape.steps_per_walker {
                let sp = tracer.begin("sampling.snapshot.encode", Some(root));
                last_bytes = s.snapshot_bytes();
                tracer.end(sp);
                let sp = tracer.begin("sampling.snapshot.replay", Some(root));
                let stream = read_snapshot(&last_bytes[..])
                    .and_then(|c| stream_from_container(&c, &octx))
                    .map_err(|e| e.to_string())?;
                tracer.end(sp);
                checkpoints += 1;
                checkpoint_bytes += last_bytes.len() as u64;
                replayed += stream.len() as u64;
                last_stream = Some(stream);
            }
            tracer.end(root);
            round += 1;
        }
        if last_stream.as_ref().map(ObservationStream::log) != Some(d.star.log()) {
            r.mismatch("layer decomposition diverged from the session");
        }
        finals.push(last_bytes);
    }
    let mut merged = ObservationStream::new(octx.num_categories());
    for bytes in &finals {
        let sp = tracer.begin("sampling.snapshot.replay", None);
        let stream = read_snapshot(&bytes[..])
            .and_then(|c| stream_from_container(&c, &octx))
            .map_err(|e| e.to_string())?;
        tracer.end(sp);
        replayed += stream.len() as u64;
        let sp = tracer.begin("sampling.stream.merge", None);
        merged.merge(&octx, &stream);
        tracer.end(sp);
    }
    let sp = tracer.begin("core.stream.estimate", None);
    estimate_stream_into(
        merged.star(),
        merged.induced(),
        lg.graph.num_nodes() as f64,
        &StarSizeOptions::default(),
        true,
        &mut est,
    );
    tracer.end(sp);
    if merged != reference {
        r.mismatch("replayed merge differs from single_box_reference");
    }

    let delivered = (shape.walkers * shape.steps_per_walker) as u64;
    let ingest = tracer.total("serve.session.ingest");
    let encode = tracer.total("sampling.snapshot.encode");
    let replay = tracer.total("sampling.snapshot.replay");
    let merge = tracer.total("sampling.stream.merge");
    let core = tracer.total("core.stream.estimate");
    let rtt = tracer.total("serve.cluster.shard_rtt");
    let plain_wall = plain.estimate_ms / 1e3;
    let transport_ms = rtt.mean_us() / 1e3 * plain.requests as f64;
    let capacity_ms = plain_wall * 1e3 * shape.round_threads as f64;

    layers.walk_ns_per_sample = per_sample(tracer.total("sampling.walk"), delivered);
    layers.star_ns_per_sample = per_sample(tracer.total("sampling.observe.star"), delivered);
    layers.induced_ns_per_sample = per_sample(tracer.total("sampling.observe.induced"), delivered);
    layers.estimate_us = core.mean_us();
    layers.session_ingest_us = ingest.mean_us();
    layers.transport_share = transport_ms / capacity_ms;
    layers.requests = plain.requests as f64;
    layers.requests_failed = plain.run.retries as f64;
    layers.snapshot_encode_ms = encode.total_ms();
    layers.snapshot_replay_ns_per_sample = per_sample(replay, replayed);
    layers.merge_ns_per_sample = per_sample(merge, delivered);
    layers.shard_rtt_us = rtt.mean_us();
    layers.checkpoints = checkpoints as f64;
    layers.checkpoint_bytes = checkpoint_bytes as f64;
    layers.replayed_per_sample = replayed as f64 / delivered as f64;
    layers.retries = plain.run.retries as f64;
    layers.layer_share = (ingest.total_ms()
        + encode.total_ms()
        + replay.total_ms()
        + merge.total_ms()
        + core.total_ms()
        + transport_ms)
        / capacity_ms;
    layers.overhead_share = traced_wall / plain_wall - 1.0;
    layers.traced_samples_per_s = delivered as f64 / traced_wall;
    layers.emit(&mut r);

    let path = ctx.trace_path();
    std::fs::create_dir_all(path.parent().expect("trace dir"))
        .and_then(|()| tracer.write_jsonl(&path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    r.detail("trace_file", crate::json_str(&path.display().to_string()));
    r.detail("self_ms", tracer.self_ms_json());
    r.detail("untraced_run_s", crate::num(plain_wall));
    r.detail("traced_run_s", crate::num(traced_wall));
    r.detail("shape", shape_json(shape));
    Ok(r)
}
