//! `experiment_fig4`: the built-in Fig. 4 scenario (`cgte run --builtin
//! fig4`), the batch NRMSE path from the scenario scheduler through
//! `cgte_eval::run_experiment`.
//!
//! `run.py` times `cgte run` itself. This module provides the two parts
//! that need the library: the cold store fill that is the workload's
//! set-up (the plan's build jobs, through the real scheduler and cache),
//! and the traced run's replay of every experiment job with one span per
//! layer call — `sample_into`, the star and induced pushes behind
//! `ObservationStream::push`, `estimate_stream_into`, and the NRMSE
//! record — on the same jobs, seeds and thread count.

use crate::trace::{per_sample, Layers, Tracer};
use crate::{json_str, num, Args};
use cgte_core::{estimate_stream_into, Design, StarSizeOptions, StreamEstimate};
use cgte_eval::{EstimatorKind, Target};
use cgte_graph::CategoryGraph;
use cgte_sampling::{InducedAccumulator, NodeSampler, ObservationContext, StarAccumulator};
use cgte_scenarios::cache::BuiltGraph;
use cgte_scenarios::plan::{DesignChoice, ResolvedExperiment, ResolvedSampler, SamplerKind};
use cgte_scenarios::runner::{build_sampler, resolve_targets};
use cgte_scenarios::{
    build_plan, builtin_scenario, parse_scn, resolve_scenario, run_plan, JobKind, Plan,
    ResourceCache, RunOptions, Scale,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn scale(toy: bool) -> Scale {
    if toy {
        Scale::Quick
    } else {
        Scale::Default
    }
}

fn plan_for(toy: bool) -> Result<(Plan, &'static str), String> {
    let src = builtin_scenario("fig4").ok_or("no built-in fig4 scenario")?;
    let doc = parse_scn(src).map_err(|e| e.to_string())?;
    let scenario = resolve_scenario(&doc, scale(toy), None).map_err(|e| e.to_string())?;
    Ok((build_plan(&scenario).map_err(|e| e.to_string())?, src))
}

struct ExpJob {
    graph_key: String,
    sampler: ResolvedSampler,
    exp: ResolvedExperiment,
}

fn experiment_jobs(plan: &Plan) -> Vec<ExpJob> {
    plan.jobs
        .iter()
        .filter_map(|j| match &j.kind {
            JobKind::Experiment {
                graph_key,
                sampler,
                exp,
            } => Some(ExpJob {
                graph_key: graph_key.clone(),
                sampler: sampler.clone(),
                exp: exp.clone(),
            }),
            _ => None,
        })
        .collect()
}

fn build_keys(plan: &Plan) -> Vec<String> {
    plan.jobs
        .iter()
        .filter_map(|j| match &j.kind {
            JobKind::Build { key } => Some(key.clone()),
            _ => None,
        })
        .collect()
}

/// Retained samples one run draws: every replication draws its largest
/// prefix size.
fn samples(jobs: &[ExpJob]) -> u64 {
    jobs.iter()
        .map(|j| (j.exp.replications * j.exp.sizes.iter().max().copied().unwrap_or(0)) as u64)
        .sum()
}

/// `fig4-fill`: the cold store fill — the plan's build jobs through the
/// scheduler, persisted to `--cache-dir`. Prints one JSON line.
pub fn cmd_fill(args: &Args) -> Result<(), String> {
    let toy = args.toy()?;
    let dir = PathBuf::from(args.str("cache-dir")?);
    let threads: usize = args.num("threads")?;
    let (plan, src) = plan_for(toy)?;
    let builds_only = Plan {
        jobs: plan
            .jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::Build { .. }))
            .cloned()
            .collect(),
        ..plan.clone()
    };
    let cache = ResourceCache::with_disk(&dir);
    let opts = RunOptions {
        scale: scale(toy),
        threads,
        quiet: true,
        cache_dir: Some(dir),
        ..RunOptions::default()
    };
    let t0 = Instant::now();
    run_plan(&builds_only, &cache, &opts, src).map_err(|e| e.to_string())?;
    let fill_s = t0.elapsed().as_secs_f64();
    let jobs = experiment_jobs(&plan);
    println!(
        "{{\"fill_s\": {}, \"builds\": {}, \"samples\": {}, \"experiment_jobs\": {}, \"jobs\": {}}}",
        num(fill_s),
        cache.stats().builds,
        samples(&jobs),
        jobs.len(),
        plan.jobs.len()
    );
    Ok(())
}

/// Squared-error sums and counts per (estimator, target), as the runner
/// accumulates them.
struct Accum {
    sums: HashMap<(EstimatorKind, Target), Vec<f64>>,
    counts: HashMap<(EstimatorKind, Target), Vec<usize>>,
}

impl Accum {
    fn record(&mut self, kind: EstimatorKind, t: Target, i: usize, estimate: f64, truth: f64) {
        self.sums.get_mut(&(kind, t)).expect("tracked key")[i] += (estimate - truth).powi(2);
        self.counts.get_mut(&(kind, t)).expect("tracked key")[i] += 1;
    }
}

/// Replays one experiment job (the body of `run_experiment` with one
/// worker) with spans around every layer call.
fn replay_job(job: &ExpJob, built: &BuiltGraph, t: &mut Tracer) -> Result<u64, String> {
    let root = t.begin("eval.experiment.job", None);
    let sp = t.begin("eval.experiment.context", Some(root));
    let targets = resolve_targets(&job.exp.targets, built, job.exp.max_weight_targets)
        .map_err(|e| e.to_string())?;
    let max_size = *job.exp.sizes.iter().max().ok_or("job without sizes")?;
    let sampler = build_sampler(&job.sampler, built, max_size).map_err(|e| e.to_string())?;
    let design = match (job.exp.design, job.sampler.kind) {
        (DesignChoice::Uniform, _) | (DesignChoice::Auto, SamplerKind::Uis) => Design::Uniform,
        _ => Design::Weighted,
    };
    let g = &built.graph;
    let p = built.partition();
    let exact = CategoryGraph::exact(g, p);
    let truth: HashMap<Target, f64> = targets
        .iter()
        .map(|&tg| {
            let v = match tg {
                Target::Size(c) => exact.size(c),
                Target::Weight(a, b) => exact.weight(a, b),
            };
            (tg, v)
        })
        .collect();
    let n_sizes = job.exp.sizes.len();
    let keys: Vec<(EstimatorKind, Target)> = targets
        .iter()
        .flat_map(|&tg| {
            cgte_eval::ALL_ESTIMATORS
                .iter()
                .filter(move |k| k.applies_to(tg))
                .map(move |&k| (k, tg))
        })
        .collect();
    let mut acc = Accum {
        sums: keys.iter().map(|&k| (k, vec![0.0; n_sizes])).collect(),
        counts: keys.iter().map(|&k| (k, vec![0; n_sizes])).collect(),
    };
    let ctx = ObservationContext::new(g, p);
    t.end(sp);

    let mut schedule: Vec<(usize, usize)> = job
        .exp
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i))
        .collect();
    schedule.sort_unstable();
    let track_weights = targets.iter().any(|tg| matches!(tg, Target::Weight(..)));
    let population = g.num_nodes() as f64;
    let c = p.num_categories();
    let mut star = StarAccumulator::new(c);
    let mut induced = InducedAccumulator::new(c);
    let mut est = StreamEstimate::new(c);
    let mut nodes = Vec::new();
    let mut weights = Vec::new();
    for rep in 0..job.exp.replications {
        let rr = t.begin("eval.experiment.replication", Some(root));
        let mut rng = StdRng::seed_from_u64(job.exp.seed.wrapping_add(rep as u64));
        let sp = t.begin("eval.experiment.draw", Some(rr));
        sampler.sample_into(g, max_size, &mut rng, &mut nodes);
        t.end(sp);
        star.reset();
        induced.reset();
        let mut pos = 0;
        for &(size, idx) in &schedule {
            let push = t.begin("eval.experiment.push", Some(rr));
            let seg = &nodes[pos..size];
            weights.clear();
            weights.extend(seg.iter().map(|&v| match design {
                Design::Uniform => 1.0,
                Design::Weighted => sampler.weight_of(g, v),
            }));
            let sp = t.begin("sampling.observe.star", Some(push));
            for (&v, &w) in seg.iter().zip(&weights) {
                star.push(&ctx, v, w);
            }
            t.end(sp);
            let sp = t.begin("sampling.observe.induced", Some(push));
            for (&v, &w) in seg.iter().zip(&weights) {
                induced.push(&ctx, v, w);
            }
            t.end(sp);
            t.end(push);
            pos = size;

            let sp = t.begin("eval.experiment.snapshot", Some(rr));
            estimate_stream_into(
                &star,
                &induced,
                population,
                &StarSizeOptions::default(),
                track_weights,
                &mut est,
            );
            t.end(sp);
            let sp = t.begin("eval.experiment.record", Some(rr));
            for &tg in &targets {
                let tr = truth[&tg];
                match tg {
                    Target::Size(cat) => {
                        let ci = cat as usize;
                        acc.record(
                            EstimatorKind::InducedSize,
                            tg,
                            idx,
                            est.sizes_induced[ci],
                            tr,
                        );
                        let s = est.sizes_star[ci].unwrap_or(0.0);
                        acc.record(EstimatorKind::StarSize, tg, idx, s, tr);
                    }
                    Target::Weight(a, b) => {
                        let wi = est.weights_induced.get(a, b);
                        acc.record(EstimatorKind::InducedWeight, tg, idx, wi, tr);
                        let ws = est.weights_star.get(a, b);
                        acc.record(EstimatorKind::StarWeight, tg, idx, ws, tr);
                    }
                }
            }
            t.end(sp);
        }
        t.end(rr);
    }
    t.end(root);
    Ok((job.exp.replications * max_size) as u64)
}

/// `fig4-replay`: fills a cold store with one span per build, loads it
/// back with one span per load, then replays every experiment job on
/// `--threads` workers. Prints the layer metrics as one JSON line;
/// `run.py` adds the engine's busy share, the layer coverage and the
/// tracing overhead from its own `cgte run`.
pub fn cmd_replay(args: &Args) -> Result<(), String> {
    let toy = args.toy()?;
    let dir = PathBuf::from(args.str("cache-dir")?);
    let threads: usize = args.num::<usize>("threads")?.max(1);
    let data = PathBuf::from(args.str("data")?);
    let (plan, _) = plan_for(toy)?;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    let cold = ResourceCache::with_disk(&dir);
    for key in build_keys(&plan) {
        let spec = &plan.graphs[&key];
        let sp = tracer.begin("scenarios.cache.build", None);
        cold.resource_threads(spec, threads)
            .map_err(|e| e.to_string())?;
        tracer.end(sp);
    }
    let warm = ResourceCache::with_disk(&dir);
    let mut graphs: HashMap<String, Arc<BuiltGraph>> = HashMap::new();
    for key in build_keys(&plan) {
        let sp = tracer.begin("graph.store.load", None);
        let r = warm
            .resource_threads(&plan.graphs[&key], threads)
            .map_err(|e| e.to_string())?;
        graphs.insert(key, Arc::clone(r.as_graph().map_err(|e| e.to_string())?));
        tracer.end(sp);
    }

    let jobs = experiment_jobs(&plan);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let results: Vec<Result<(Tracer, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut t = Tracer::new(epoch);
                    let mut drawn = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(job) = jobs.get(i) else { break };
                        drawn += replay_job(job, &graphs[&job.graph_key], &mut t)?;
                    }
                    Ok((t, drawn))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let replay_s = t0.elapsed().as_secs_f64();
    let mut drawn = 0;
    for r in results {
        let (t, d) = r?;
        tracer.absorb(t);
        drawn += d;
    }

    let draw = tracer.total("eval.experiment.draw");
    let star = tracer.total("sampling.observe.star");
    let induced = tracer.total("sampling.observe.induced");
    let snapshot = tracer.total("eval.experiment.snapshot");
    let record = tracer.total("eval.experiment.record");
    let push = tracer.total("eval.experiment.push");
    let context = tracer.total("eval.experiment.context");
    let layers = Layers {
        store_load_ms: tracer.total("graph.store.load").total_ms(),
        cache_build_ms: tracer.total("scenarios.cache.build").total_ms(),
        cache_builds: cold.stats().builds as f64,
        walk_ns_per_sample: per_sample(draw, drawn),
        star_ns_per_sample: per_sample(star, drawn),
        induced_ns_per_sample: per_sample(induced, drawn),
        estimate_us: snapshot.mean_us(),
        draw_ms: draw.total_ms(),
        push_ms: push.total_ms(),
        snapshot_ms: snapshot.total_ms(),
        record_ms: record.total_ms(),
        ..Layers::default()
    };
    let mut report = crate::Report::default();
    layers.emit(&mut report);

    let path = data.join("traces").join(format!(
        "experiment_fig4-{}.jsonl",
        if toy { "toy" } else { "full" }
    ));
    std::fs::create_dir_all(path.parent().expect("trace dir"))
        .and_then(|()| tracer.write_jsonl(&path))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, _)| format!("\"{n}\": {}", num(*v)))
        .collect();
    let covered_ms = context.total_ms()
        + draw.total_ms()
        + push.total_ms()
        + snapshot.total_ms()
        + record.total_ms();
    println!(
        "{{\"metrics\": {{{}}}, \"replay_s\": {}, \"covered_ms\": {}, \"samples\": {drawn}, \"trace_file\": {}, \"self_ms\": {}}}",
        metrics.join(", "),
        num(replay_s),
        num(covered_ms),
        json_str(&path.display().to_string()),
        tracer.self_ms_json()
    );
    Ok(())
}
