//! `cgte` — command-line pipeline for coarse-grained topology estimation.
//!
//! Subcommands:
//!
//! - `generate` — synthesize a graph + categories to edge-list files;
//! - `ingest`   — convert a text edge list (+ categories) to the binary
//!   `.cgteg` graph container;
//! - `info`     — inspect a `.cgteg` container (sections, graph stats);
//! - `sample`   — draw a node sample from a graph with any sampler;
//! - `exact`    — compute the exact category graph and export it;
//! - `estimate` — sample, estimate the category graph, and export it;
//! - `run`      — execute a declarative `.scn` experiment scenario (or a
//!   built-in one) on the parallel scenario engine;
//! - `bench`    — the performance harness, with a `--check` regression
//!   gate against a committed baseline report.
//!
//! Run `cgte help` for usage. Arguments are `--key value` pairs; parsing is
//! deliberately dependency-free.

use cgte_core::{CategoryGraphEstimator, Design, SizeMethod, StarSizeOptions};
use cgte_datasets::{
    read_categories, read_edgelist, standin, standin_partition, write_categories, write_edgelist,
    StandinKind,
};
use cgte_graph::generators::{planted_partition, PlantedConfig};
use cgte_graph::{CategoryGraph, Graph, Partition};
use cgte_sampling::{
    AnySampler, MetropolisHastingsWalk, NodeSampler, RandomWalk, StarSample, Swrw,
    UniformIndependence,
};
use cgte_viz::{to_csv_edges, to_dot, to_graphml, to_json, top_edges_report, ExportOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

const USAGE: &str = "\
cgte — coarse-grained topology estimation via graph sampling

USAGE:
  cgte generate planted  --k K --alpha A [--scale D] [--seed S] --graph G.txt --cats C.txt
  cgte generate standin  --kind texas|neworleans|p2p|epinions [--scale D] [--top-k 50]
                         [--seed S] --graph G.txt --cats C.txt
  cgte ingest            --graph G.txt [--cats C.txt] --out F.cgteg
  cgte info              F.cgteg [--sections true]
  cgte sample            --graph G.txt --sampler uis|rw|mhrw|swrw [--cats C.txt] [--n N]
                         [--burn-in B] [--thinning T] [--seed S] [--out S.txt]
  cgte exact             --graph G.txt --cats C.txt [--format dot|json|graphml|csv|report]
                         [--top-k K] [--out F]
  cgte estimate          --graph G.txt --cats C.txt --sampler uis|rw|mhrw|swrw [--n N]
                         [--design uniform|weighted] [--sizes induced|star] [--seed S]
                         [--ci LEVEL] [--boot REPS]
                         [--format dot|json|graphml|csv|report] [--top-k K] [--out F]
  cgte run               SCENARIO.scn | --builtin NAME|all [--quick | --full | --huge]
                         [--seed S] [--threads N] [--csv DIR] [--out DIR] [--resume]
                         [--cache-dir DIR] [--mmap true|false]
                         [--trace FILE.jsonl] [--trace-level N]
  cgte serve             --cache-dir DIR [--port P] [--addr HOST:PORT] [--threads N]
                         [--session-ttl SECS] [--max-sessions N] [--mmap true|false]
                         [--request-timeout-ms MS] [--max-body-bytes N]
                         [--trace FILE.jsonl] [--trace-level N]
  cgte cluster           --cache-dir DIR --graph NAME --shards H:P,H:P[,…]
                         [--partition NAME] [--sampler uis|rw|mhrw|swrw]
                         [--design uniform|weighted] [--seed S] [--burn-in B]
                         [--thinning T] [--walkers W] [--steps N] [--batch B]
                         [--snapshot-every R] [--round-threads N]
                         [--timeout-ms MS] [--retries R] [--verify true]
                         [--trace FILE.jsonl] [--trace-level N]
  cgte trace summarize   FILE.jsonl
  cgte metrics check     FILE.txt | -
  cgte bench             [--quick] [--seed S] [--threads 1,2,8] [--out FILE.json]
                         [--cache-dir DIR] [--check BASELINE.json]
  cgte help

`cgte ingest` converts a SNAP-style text edge list (plus an optional node
category file) into the checksummed binary .cgteg container; `cgte info`
prints a container's table of contents and derived graph statistics from
the section headers alone (no CSR payload is read). Scenario files load
.cgteg graphs with `generator = \"file\"`.

`--mmap true` (on run and serve; serve defaults to it) loads .cgteg
graphs through the zero-copy mapped path: v2 CSR payloads are borrowed
from a shared read-only mapping after checksum verification instead of
being decoded onto the heap. Results are bit-identical either way; v1
files silently fall back to the heap decode.

`cgte run` executes a declarative experiment scenario: graphs, samplers,
sweeps, prefix sizes and targets described in a TOML-like .scn file (see
EXPERIMENTS.md), scheduled as a parallel job DAG with a shared graph cache.
With --cache-dir every built graph is persisted under its content key, so
a warm run performs zero graph builds (stderr reports builds/loads/hits).
Built-in scenarios: fig3 fig4 fig5 fig6 fig7 table1 table2
ablation_model_based ablation_swrw ablation_thinning huge.

`cgte serve` runs the online estimation service: an HTTP/1.1 API over the
.cgteg store directory (open sampling sessions, stream node batches or
walk budgets in, read category-graph estimates at any prefix — with
bootstrap CIs via ?ci=0.95). Sessions can be checkpointed to durable
.cgtes snapshots and restored bit-exactly (POST /sessions/{id}/snapshot,
POST /sessions/restore); GET /metrics exposes Prometheus counters. On a
warm cache the server performs zero graph builds; see EXPERIMENTS.md for
endpoints and JSON shapes.

`cgte cluster` coordinates a sharded run over N `cgte serve` processes:
walk budget fanned out as per-seed walkers, sessions checkpointed every
--snapshot-every rounds, dead shards circuit-broken and their walkers
restored onto survivors, and the merged estimate pinned bit-exact against
the local single-box path (--verify true asserts it and exits non-zero on
any mismatch). --round-threads N drives each round's per-walker HTTP
trips on N pool workers — the merged result is bit-identical at any N.
A dead shard is probed half-open at every checkpoint boundary; when it
answers again, walkers rebalance back onto it. The JSON report on stdout
includes degraded/coverage fields when walkers could not complete.

`cgte estimate --ci 0.95` additionally prints per-category bootstrap
percentile confidence intervals for the size estimates to stderr.

`--trace FILE.jsonl` (on serve, cluster and run) writes structured spans
and events — request handling, cluster rounds/retries/breaker
transitions, server-side walk statistics, scenario jobs and cache
hits — as one JSON object per line. `--trace-level` selects detail:
1 = coarse spans only, 2 = + lifecycle/retry/cache events (default),
3 = fine. `cgte trace summarize` aggregates such a file into a
per-span-name count/total/p50/p90/p99 latency table. `cgte metrics
check` parses a Prometheus text exposition (a /metrics scrape saved to
a file, or `-` for stdin) and validates it: TYPE/HELP declarations,
finite values, histogram bucket monotonicity and _sum/_count
consistency.

`cgte bench` times graph build rate, .cgteg load rate, walk steps/sec,
estimate throughput, serve request throughput/latency, open-loop served
latency with thousands of idle keep-alive connections parked (the
`serve_open` section) and the sharded coordinator's wall-clock at each
thread count (the `cluster` section drives a fixed 4-shard, 16-walker
run at every --round-threads size) and writes a machine-readable JSON
report (default BENCH_PR10.json; see EXPERIMENTS.md for the schema).
The `obs` section pins the tracing-disabled overhead of the
instrumentation (ratios ~1.0). A run whose bit-identity checks fail
exits with an error and writes no report. With --check it compares the
fresh report against a committed baseline and fails on a >25%
per-metric regression (warns over 10%); the baseline must carry every
gated section, and --out must name a different file (the default --out
is BENCH_PR10.json, so pass --out when checking against it).
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliError = Box<dyn std::error::Error>;

/// Parses `--key value` pairs after the subcommand words.
struct Args {
    map: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, CliError> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Args { map })
    }

    /// Fails on the first flag outside `known`, so a misspelled or
    /// retired flag is an error instead of silently ignored.
    fn only(&self, known: &[&str]) -> Result<(), CliError> {
        let unknown = self.map.keys().filter(|k| !known.contains(&k.as_str()));
        match unknown.min() {
            None => Ok(()),
            Some(k) => Err(format!("unknown flag --{k}\n{USAGE}").into()),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}").into())
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid --{key} {v:?}: {e}").into()),
        }
    }
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("generate") => {
            let kind = argv.get(1).map(String::as_str).unwrap_or("");
            let args = Args::parse(&argv[2..])?;
            cmd_generate(kind, &args)
        }
        Some("ingest") => cmd_ingest(&Args::parse(&argv[1..])?),
        Some("info") => cmd_info(&argv[1..]),
        Some("sample") => cmd_sample(&Args::parse(&argv[1..])?),
        Some("exact") => cmd_exact(&Args::parse(&argv[1..])?),
        Some("estimate") => cmd_estimate(&Args::parse(&argv[1..])?),
        Some("run") => cmd_run(&argv[1..]),
        Some("serve") => cmd_serve(&Args::parse(&argv[1..])?),
        Some("cluster") => cmd_cluster(&Args::parse(&argv[1..])?),
        Some("trace") => cmd_trace(&argv[1..]),
        Some("metrics") => cmd_metrics(&argv[1..]),
        Some("bench") => cmd_bench(&argv[1..]),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}").into()),
    };
    // Flush + drop the trace sink (a no-op when --trace was not given),
    // so the last buffered JSONL records hit disk on every exit path.
    cgte_obs::shutdown();
    result
}

/// Installs the JSONL trace sink when `--trace FILE` was given.
/// `--trace-level` defaults to 2 (coarse spans + lifecycle detail).
fn install_trace(path: Option<&str>, level: u8) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    if level == 0 {
        return Err("--trace-level must be 1, 2 or 3".into());
    }
    let sink = cgte_obs::JsonlSink::create(std::path::Path::new(path))
        .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
    cgte_obs::install(std::sync::Arc::new(sink), level);
    Ok(())
}

/// `cgte trace summarize FILE.jsonl` — aggregates a trace into a
/// per-span-name latency table.
fn cmd_trace(argv: &[String]) -> Result<(), CliError> {
    match (argv.first().map(String::as_str), argv.get(1)) {
        (Some("summarize"), Some(path)) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
            let summary = cgte_obs::summarize::summarize(BufReader::new(file))?;
            print!("{}", summary.render());
            Ok(())
        }
        _ => Err(format!("usage: cgte trace summarize FILE.jsonl\n{USAGE}").into()),
    }
}

/// `cgte metrics check FILE` — validates a Prometheus text exposition
/// (`-` reads stdin). Exit code 1 with every violation on stderr.
fn cmd_metrics(argv: &[String]) -> Result<(), CliError> {
    match (argv.first().map(String::as_str), argv.get(1)) {
        (Some("check"), Some(path)) => {
            let text = if path == "-" {
                let mut s = String::new();
                std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)?;
                s
            } else {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?
            };
            match cgte_obs::promtext::validate(&text) {
                Ok(stats) => {
                    println!(
                        "metrics ok: {} families, {} samples, {} histograms",
                        stats.families, stats.samples, stats.histograms
                    );
                    Ok(())
                }
                Err(errors) => {
                    for e in &errors {
                        eprintln!("metrics: {e}");
                    }
                    Err(format!("exposition invalid ({} violation(s))", errors.len()).into())
                }
            }
        }
        _ => Err(format!("usage: cgte metrics check FILE|-\n{USAGE}").into()),
    }
}

fn load_graph(path: &str) -> Result<Graph, CliError> {
    Ok(read_edgelist(BufReader::new(File::open(path)?))?)
}

fn load_partition(path: &str, num_nodes: usize) -> Result<Partition, CliError> {
    Ok(read_categories(
        BufReader::new(File::open(path)?),
        num_nodes,
    )?)
}

fn save(path: Option<&str>, content: &str) -> Result<(), CliError> {
    match path {
        Some(p) => {
            let mut f = BufWriter::new(File::create(p)?);
            f.write_all(content.as_bytes())?;
            Ok(())
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn cmd_generate(kind: &str, args: &Args) -> Result<(), CliError> {
    let seed: u64 = args.parse_or("seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (graph, partition) = match kind {
        "planted" => {
            let k: usize = args.parse_or("k", 20)?;
            let alpha: f64 = args.parse_or("alpha", 0.5)?;
            let scale: usize = args.parse_or("scale", 1)?;
            let cfg = if scale == 1 {
                PlantedConfig::paper(k, alpha)
            } else {
                PlantedConfig::scaled(scale, k, alpha)
            };
            let pg = planted_partition(&cfg, &mut rng)?;
            (pg.graph, pg.partition)
        }
        "standin" => {
            let kind = match args.required("kind")? {
                "texas" => StandinKind::FacebookTexas,
                "neworleans" => StandinKind::FacebookNewOrleans,
                "p2p" => StandinKind::P2p,
                "epinions" => StandinKind::Epinions,
                other => return Err(format!("unknown standin kind {other:?}").into()),
            };
            let scale: usize = args.parse_or("scale", 1)?;
            let top_k: usize = args.parse_or("top-k", 50)?;
            let g = standin(kind, scale, &mut rng);
            let p = standin_partition(&g, top_k, false, &mut rng);
            (g, p)
        }
        other => return Err(format!("unknown generator {other:?}\n{USAGE}").into()),
    };
    let gpath = args.required("graph")?;
    let cpath = args.required("cats")?;
    write_edgelist(&graph, BufWriter::new(File::create(gpath)?))?;
    write_categories(&partition, BufWriter::new(File::create(cpath)?))?;
    eprintln!(
        "wrote {} nodes, {} edges, {} categories to {gpath} / {cpath}",
        graph.num_nodes(),
        graph.num_edges(),
        partition.num_categories()
    );
    Ok(())
}

fn cmd_ingest(args: &Args) -> Result<(), CliError> {
    let gpath = args.required("graph")?;
    let opath = args.required("out")?;
    let edges = BufReader::new(File::open(gpath)?);
    let cats = match args.get("cats") {
        Some(p) => Some(BufReader::new(File::open(p)?)),
        None => None,
    };
    let out = BufWriter::new(File::create(opath)?);
    let bundle = cgte_datasets::edgelist_to_cgteg(edges, cats, out)?;
    eprintln!(
        "ingested {} nodes, {} edges{} into {opath}",
        bundle.graph.num_nodes(),
        bundle.graph.num_edges(),
        match &bundle.partition {
            Some(p) => format!(", {} categories", p.num_categories()),
            None => String::new(),
        }
    );
    Ok(())
}

fn cmd_info(argv: &[String]) -> Result<(), CliError> {
    use cgte_graph::store::Loader;
    let path = argv
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("`info` needs a .cgteg file path")?;
    let args = Args::parse(&argv[1..])?;
    let show_sections: bool = args.parse_or("sections", true)?;
    // Table-of-contents scan only: O(metadata) I/O, so `info` on a
    // million-node store entry answers instantly without decoding any
    // CSR payload.
    let summary = Loader::open(path).summary()?;
    println!(
        "{path}: cgteg v{}, {} section(s)",
        summary.version,
        summary.sections.len()
    );
    if show_sections {
        for (name, count, bytes) in &summary.sections {
            println!("  {name:<24} x {count:>10}  ({bytes} bytes)");
        }
    }
    if let Some(kind) = &summary.kind {
        println!("kind: {kind}");
    }
    if let Some(key) = &summary.key {
        println!("key:  {key}");
    }
    if let (Some(n), Some(m)) = (summary.num_nodes, summary.num_edges) {
        let mean = if n > 0 {
            2.0 * m as f64 / n as f64
        } else {
            0.0
        };
        println!("graph: {n} nodes, {m} edges, mean degree {mean:.2}");
    }
    for name in &summary.partitions {
        println!("partition {name}");
    }
    Ok(())
}

fn make_sampler(
    name: &str,
    args: &Args,
    g: &Graph,
    p: Option<&Partition>,
) -> Result<AnySampler, CliError> {
    let burn: usize = args.parse_or("burn-in", 0)?;
    let thin: usize = args.parse_or("thinning", 1)?;
    Ok(match name {
        "uis" => AnySampler::Uis(UniformIndependence),
        "rw" => AnySampler::Rw(RandomWalk::new().burn_in(burn).thinning(thin)),
        "mhrw" => AnySampler::Mhrw(MetropolisHastingsWalk::new().burn_in(burn).thinning(thin)),
        "swrw" => {
            let p = p.ok_or("--sampler swrw needs --cats")?;
            let s = Swrw::equal_category_target(g, p)
                .ok_or("cannot build S-WRW (empty partition?)")?
                .burn_in(burn)
                .thinning(thin);
            AnySampler::Swrw(s)
        }
        other => return Err(format!("unknown sampler {other:?}").into()),
    })
}

fn cmd_sample(args: &Args) -> Result<(), CliError> {
    let g = load_graph(args.required("graph")?)?;
    let n: usize = args.parse_or("n", 1000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    // S-WRW stratifies by category, so it (alone) needs the partition.
    let p = match args.get("cats") {
        Some(path) => Some(load_partition(path, g.num_nodes())?),
        None => None,
    };
    let sampler = make_sampler(args.required("sampler")?, args, &g, p.as_ref())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = sampler.sample(&g, n, &mut rng);
    let mut out = String::with_capacity(nodes.len() * 8);
    out.push_str("# cgte node sample\n");
    for v in nodes {
        out.push_str(&format!("{v}\n"));
    }
    save(args.get("out"), &out)
}

fn export(cg: &CategoryGraph, args: &Args) -> Result<(), CliError> {
    let top_k: usize = args.parse_or("top-k", 0)?;
    let opts = ExportOptions {
        top_k,
        ..Default::default()
    };
    let content = match args.get("format").unwrap_or("report") {
        "dot" => to_dot(cg, &opts),
        "json" => to_json(cg, &opts),
        "graphml" => to_graphml(cg, &opts),
        "csv" => to_csv_edges(cg, &opts),
        "report" => top_edges_report(cg, &opts, if top_k == 0 { 20 } else { top_k }),
        other => return Err(format!("unknown format {other:?}").into()),
    };
    save(args.get("out"), &content)
}

fn cmd_run(argv: &[String]) -> Result<(), CliError> {
    let mut scenario_path: Option<String> = None;
    let mut builtin: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_level = 2u8;
    let mut opts = cgte_scenarios::RunOptions::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a file path")?.clone());
            }
            "--trace-level" => {
                let v = it.next().ok_or("--trace-level needs 1, 2 or 3")?;
                trace_level = v
                    .parse()
                    .map_err(|e| format!("invalid --trace-level {v:?}: {e}"))?;
            }
            "--quick" => opts.scale = cgte_scenarios::Scale::Quick,
            "--full" => opts.scale = cgte_scenarios::Scale::Full,
            "--huge" => opts.scale = cgte_scenarios::Scale::Huge,
            "--resume" => opts.resume = true,
            "--builtin" => {
                builtin = Some(
                    it.next()
                        .ok_or("--builtin needs a scenario name (or `all`)")?
                        .clone(),
                );
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs an integer")?;
                opts.seed = Some(
                    v.parse()
                        .map_err(|e| format!("invalid --seed {v:?}: {e}"))?,
                );
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs an integer")?;
                opts.threads = v
                    .parse()
                    .map_err(|e| format!("invalid --threads {v:?}: {e}"))?;
            }
            "--csv" => {
                opts.csv_dir = Some(it.next().ok_or("--csv needs a directory")?.into());
            }
            "--out" => {
                opts.out_dir = Some(it.next().ok_or("--out needs a directory")?.into());
            }
            "--cache-dir" => {
                opts.cache_dir = Some(it.next().ok_or("--cache-dir needs a directory")?.into());
            }
            "--mmap" => {
                let v = it.next().ok_or("--mmap needs true or false")?;
                opts.mmap = v
                    .parse()
                    .map_err(|e| format!("invalid --mmap {v:?}: {e}"))?;
            }
            other if !other.starts_with("--") && scenario_path.is_none() => {
                scenario_path = Some(other.to_string());
            }
            other => return Err(format!("unknown `run` argument {other:?}\n{USAGE}").into()),
        }
    }
    if opts.resume && opts.out_dir.is_none() {
        return Err("--resume requires --out DIR (the run directory holding the manifest)".into());
    }
    install_trace(trace_path.as_deref(), trace_level)?;
    // The `cache: builds=… loads=… hits=…` stderr lines are a stable,
    // grep-able contract: CI's warm-cache job asserts `builds=0` on them.
    match (scenario_path, builtin) {
        (Some(path), None) => {
            let stats = cgte_scenarios::run_scenario_path(std::path::Path::new(&path), &opts)?;
            eprintln!(
                "run complete: cache: builds={} loads={} hits={}",
                stats.builds, stats.loads, stats.hits
            );
            Ok(())
        }
        (None, Some(name)) if name == "all" => {
            let mut total = cgte_scenarios::CacheStats::default();
            for name in cgte_scenarios::builtin_names() {
                eprintln!("=== {name} ===");
                // Each scenario gets its own run subdirectory: manifests
                // are per-scenario (fingerprinted), so they cannot share
                // one directory. The graph cache directory, by contrast,
                // is shared — content keys are global.
                let mut per = opts.clone();
                per.out_dir = opts.out_dir.as_ref().map(|d| d.join(name));
                let stats = cgte_scenarios::run_builtin(name, &per)?;
                eprintln!(
                    "[{name}] cache: builds={} loads={} hits={}",
                    stats.builds, stats.loads, stats.hits
                );
                total.builds += stats.builds;
                total.loads += stats.loads;
                total.hits += stats.hits;
            }
            eprintln!(
                "total cache: builds={} loads={} hits={}",
                total.builds, total.loads, total.hits
            );
            Ok(())
        }
        (None, Some(name)) => {
            let stats = cgte_scenarios::run_builtin(&name, &opts)?;
            eprintln!(
                "run complete: cache: builds={} loads={} hits={}",
                stats.builds, stats.loads, stats.hits
            );
            Ok(())
        }
        (Some(_), Some(_)) => Err("pass either a scenario file or --builtin, not both".into()),
        (None, None) => {
            Err(format!("`run` needs a scenario file or --builtin NAME\n{USAGE}").into())
        }
    }
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    args.only(&[
        "cache-dir",
        "port",
        "addr",
        "threads",
        "session-ttl",
        "max-sessions",
        "mmap",
        "request-timeout-ms",
        "max-body-bytes",
        "trace",
        "trace-level",
    ])?;
    let cache_dir = args.required("cache-dir")?;
    let addr = match (args.get("addr"), args.get("port")) {
        (Some(_), Some(_)) => return Err("pass either --addr or --port, not both".into()),
        (Some(a), None) => a.to_string(),
        (None, Some(p)) => {
            let port: u16 = p
                .parse()
                .map_err(|e| format!("invalid --port {p:?}: {e}"))?;
            format!("127.0.0.1:{port}")
        }
        (None, None) => "127.0.0.1:7171".to_string(),
    };
    let threads: usize = args.parse_or("threads", 4)?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let defaults = cgte_serve::ServeConfig::default();
    let session_ttl_secs = match args.get("session-ttl") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|e| format!("invalid --session-ttl {v:?}: {e}"))?,
        ),
    };
    let max_sessions: usize = args.parse_or("max-sessions", defaults.max_sessions)?;
    if max_sessions == 0 {
        return Err("--max-sessions must be positive".into());
    }
    let mmap: bool = args.parse_or("mmap", defaults.mmap)?;
    let request_timeout_ms: u64 =
        args.parse_or("request-timeout-ms", defaults.request_timeout_ms)?;
    if request_timeout_ms == 0 {
        return Err("--request-timeout-ms must be positive".into());
    }
    let max_body_bytes: usize = args.parse_or("max-body-bytes", defaults.max_body_bytes)?;
    if max_body_bytes == 0 {
        return Err("--max-body-bytes must be positive".into());
    }
    let cfg = cgte_serve::ServeConfig {
        cache_dir: cache_dir.into(),
        addr,
        threads,
        session_ttl_secs,
        max_sessions,
        mmap,
        request_timeout_ms,
        max_body_bytes,
    };
    install_trace(args.get("trace"), args.parse_or("trace-level", 2u8)?)?;
    cgte_serve::run(&cfg)?;
    Ok(())
}

fn cmd_cluster(args: &Args) -> Result<(), CliError> {
    use cgte_serve::cluster::{self, ClusterConfig, RetryPolicy};

    let cache_dir = args.required("cache-dir")?;
    let graph_name = args.required("graph")?.to_string();
    let shards: Vec<String> = args
        .required("shards")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if shards.is_empty() {
        return Err("--shards needs at least one HOST:PORT".into());
    }
    let timeout_ms: u64 = args.parse_or("timeout-ms", 5000)?;
    let policy = RetryPolicy {
        request_timeout: std::time::Duration::from_millis(timeout_ms),
        connect_timeout: std::time::Duration::from_millis(timeout_ms.clamp(100, 1000)),
        max_retries: args.parse_or("retries", 3u32)?,
        ..RetryPolicy::default()
    };
    let cfg = ClusterConfig {
        graph: graph_name.clone(),
        partition: args.get("partition").map(str::to_string),
        sampler: args.get("sampler").unwrap_or("rw").to_string(),
        design: args.get("design").map(str::to_string),
        seed: args.parse_or("seed", 42u64)?,
        burn_in: args.parse_or("burn-in", 0usize)?,
        thinning: args.parse_or("thinning", 1usize)?,
        walkers: args.parse_or("walkers", 4usize)?,
        steps_per_walker: args.parse_or("steps", 1000usize)?,
        batch: args.parse_or("batch", 250usize)?,
        snapshot_every: args.parse_or("snapshot-every", 1usize)?,
        round_threads: args.parse_or("round-threads", 1usize)?,
        policy,
        jitter_seed: args.parse_or("jitter-seed", 0u64)?,
    };
    if cfg.round_threads == 0 {
        return Err("--round-threads must be positive".into());
    }
    let verify: bool = args.parse_or("verify", false)?;
    install_trace(args.get("trace"), args.parse_or("trace-level", 2u8)?)?;

    // The coordinator's local view of the shared store: used both to
    // merge the downloaded logs and to pin the result against the
    // single-box reference.
    let registry = cgte_serve::registry::Registry::new(cache_dir);
    let loaded = registry.get(&graph_name).map_err(|e| e.msg)?;
    let part_idx = match &cfg.partition {
        Some(name) => loaded
            .partition_idx(name)
            .ok_or_else(|| format!("graph {graph_name:?} has no partition {name:?}"))?,
        None => 0,
    };
    if loaded.partitions.is_empty() {
        return Err(format!("graph {graph_name:?} has no partitions").into());
    }
    let index = loaded.index(part_idx, 4);
    let partition = &loaded.partitions[part_idx].1;
    let ctx = cgte_sampling::ObservationContext::with_index(&loaded.graph, partition, &index);

    // Progress diagnostics go to stderr — stdout stays pure JSON for
    // machine consumers.
    let run = cluster::run_cluster_with(&cfg, &shards, &ctx, |ev| match ev {
        cluster::ClusterEvent::ShardDead { shard } => {
            eprintln!("cgte cluster: shard {shard} unresponsive; redistributing its walkers");
        }
        cluster::ClusterEvent::WalkerMoved { walker, from, to } => {
            eprintln!("cgte cluster: walker {walker} reassigned shard {from} -> {to}");
        }
        cluster::ClusterEvent::ShardRejoined { shard } => {
            eprintln!("cgte cluster: shard {shard} rejoined; rebalancing walkers back");
        }
        cluster::ClusterEvent::RoundDone { .. } => {}
    })?;
    eprintln!(
        "cgte cluster: {}/{} walkers complete, {}/{} shards alive, {} retries, {} reassignments, {} rounds",
        run.walkers_completed,
        run.walkers_total,
        run.shards_alive,
        run.shards_total,
        run.retries,
        run.reassignments,
        run.rounds,
    );
    let mut verified = true;
    if verify {
        if run.degraded {
            return Err(format!(
                "--verify failed: run degraded ({}/{} walkers complete)",
                run.walkers_completed, run.walkers_total
            )
            .into());
        }
        let reference = cluster::single_box_reference(&cfg, &loaded.graph, partition, &ctx)?;
        verified = run.stream == reference;
        if !verified {
            return Err(
                "--verify failed: merged cluster stream differs from the single-box reference"
                    .into(),
            );
        }
        eprintln!("cgte cluster: verified bit-exact against the single-box path");
    }

    // Estimate over the merged stream — the same pure snapshot function
    // the server and the batch runner use.
    let population = loaded.graph.num_nodes() as f64;
    let mut est = cgte_core::StreamEstimate::new(run.stream.num_categories());
    cgte_core::estimate_stream_into(
        run.stream.star(),
        run.stream.induced(),
        population,
        &StarSizeOptions::default(),
        true,
        &mut est,
    );
    let sizes_star: Vec<String> = est
        .sizes_star
        .iter()
        .map(|s| s.map_or("null".to_string(), |v| format!("{v:?}")))
        .collect();
    let sizes_induced: Vec<String> = est.sizes_induced.iter().map(|v| format!("{v:?}")).collect();
    println!(
        "{{\"graph\":\"{}\",\"walkers\":{},\"walkers_completed\":{},\"degraded\":{},\"coverage\":{},\"shards_alive\":{},\"shards_total\":{},\"retries\":{},\"reassignments\":{},\"rounds\":{},\"verified\":{},\"len\":{},\"sizes\":{{\"star\":[{}],\"induced\":[{}]}}}}",
        graph_name,
        run.walkers_total,
        run.walkers_completed,
        run.degraded,
        run.coverage,
        run.shards_alive,
        run.shards_total,
        run.retries,
        run.reassignments,
        run.rounds,
        if verify { verified.to_string() } else { "null".to_string() },
        run.stream.len(),
        sizes_star.join(","),
        sizes_induced.join(","),
    );
    if run.degraded && !verify {
        eprintln!(
            "cgte cluster: WARNING — degraded result, coverage {:.1}%",
            run.coverage * 100.0
        );
    }
    Ok(())
}

fn cmd_bench(argv: &[String]) -> Result<(), CliError> {
    let mut opts = cgte_bench::harness::BenchOptions::default();
    let mut baseline: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--cache-dir" => {
                opts.cache_dir = Some(it.next().ok_or("--cache-dir needs a directory")?.into());
            }
            "--check" => {
                baseline = Some(
                    it.next()
                        .ok_or("--check needs a baseline JSON path")?
                        .clone(),
                );
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs an integer")?;
                opts.seed = v
                    .parse()
                    .map_err(|e| format!("invalid --seed {v:?}: {e}"))?;
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or("--threads needs a comma list, e.g. 1,2,8")?;
                opts.threads = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("invalid --threads entry {s:?}: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if opts.threads.first() != Some(&1) || opts.threads.contains(&0) {
                    return Err(
                        "--threads must start with 1 (the serial reference) and contain only positive counts"
                            .into(),
                    );
                }
            }
            "--out" => {
                opts.out = it.next().ok_or("--out needs a file path")?.into();
            }
            other => return Err(format!("unknown `bench` argument {other:?}\n{USAGE}").into()),
        }
    }
    // The baseline is read before the harness writes `--out`: were they
    // one file, the gate would compare the fresh report with itself.
    let baseline = match baseline {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read baseline {path:?}: {e}"))?;
            let canonical = (
                std::path::Path::new(&path).canonicalize(),
                opts.out.canonicalize(),
            );
            if matches!(canonical, (Ok(a), Ok(b)) if a == b) {
                return Err(format!(
                    "--out {:?} and --check {path:?} name the same file: the run would \
                     overwrite its own baseline; write the report elsewhere",
                    opts.out
                )
                .into());
            }
            Some((path, text))
        }
        None => None,
    };
    let report = cgte_bench::harness::run_bench(&opts)?;
    if let Some((path, baseline_text)) = baseline {
        let outcome = cgte_bench::check::check_reports(&report, &baseline_text)?;
        for w in &outcome.warnings {
            eprintln!("bench-check WARN: {w}");
        }
        for f in &outcome.failures {
            eprintln!("bench-check FAIL: {f}");
        }
        eprintln!(
            "bench-check: {} metric(s) compared against {path}: {} failure(s), {} warning(s)",
            outcome.compared,
            outcome.failures.len(),
            outcome.warnings.len()
        );
        if !outcome.failures.is_empty() {
            return Err(format!(
                "performance regression: {} metric(s) degraded more than {:.0}% vs {path}",
                outcome.failures.len(),
                (1.0 - cgte_bench::check::FAIL_RATIO) * 100.0
            )
            .into());
        }
    }
    Ok(())
}

fn cmd_exact(args: &Args) -> Result<(), CliError> {
    let g = load_graph(args.required("graph")?)?;
    let p = load_partition(args.required("cats")?, g.num_nodes())?;
    let cg = CategoryGraph::exact(&g, &p);
    export(&cg, args)
}

fn cmd_estimate(args: &Args) -> Result<(), CliError> {
    let g = load_graph(args.required("graph")?)?;
    let p = load_partition(args.required("cats")?, g.num_nodes())?;
    let n: usize = args.parse_or("n", 1000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let sampler = make_sampler(args.required("sampler")?, args, &g, Some(&p))?;
    let design = match args.get("design").unwrap_or("weighted") {
        "uniform" => Design::Uniform,
        "weighted" => Design::Weighted,
        other => return Err(format!("unknown design {other:?}").into()),
    };
    let size_method = match args.get("sizes").unwrap_or("star") {
        "induced" => SizeMethod::Induced,
        "star" => SizeMethod::Star(StarSizeOptions::default()),
        other => return Err(format!("unknown size method {other:?}").into()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = sampler.sample(&g, n, &mut rng);
    let star = StarSample::observe_sampler(&g, &p, &nodes, &sampler);
    // Uniform designs reinterpret the draw with unit weights — the same
    // rule CategoryGraphEstimator applies internally.
    let star = match design {
        Design::Uniform => star.with_unit_weights(),
        Design::Weighted => star,
    };
    let est = CategoryGraphEstimator::new(design)
        .size_method(size_method)
        .estimate_star(&star, g.num_nodes() as f64);
    eprintln!(
        "estimated category graph: {} categories, {} edges from |S| = {n}",
        est.num_categories(),
        est.num_edges()
    );
    if let Some(level_raw) = args.get("ci") {
        let level: f64 = level_raw
            .parse()
            .map_err(|e| format!("invalid --ci {level_raw:?}: {e}"))?;
        if !(level > 0.0 && level < 1.0) {
            return Err(format!("--ci must be in (0, 1), got {level}").into());
        }
        let reps: usize = args.parse_or("boot", 200)?;
        if reps == 0 {
            return Err("--boot must be positive".into());
        }
        let population = g.num_nodes() as f64;
        let opts = StarSizeOptions::default();
        eprintln!(
            "bootstrap {:.0}% percentile CIs for category sizes ({reps} replicates):",
            level * 100.0
        );
        // One deterministic stream, separate from the sampling stream.
        let mut boot_rng = StdRng::seed_from_u64(seed ^ 0xB007_57AB);
        let induced = matches!(size_method, SizeMethod::Induced).then(|| star.to_induced(&g, &p));
        for c in 0..p.num_categories() as u32 {
            let line = match &induced {
                Some(induced) => cgte_core::bootstrap::bootstrap_induced(
                    induced,
                    reps,
                    level,
                    &mut boot_rng,
                    |s| cgte_core::category_size::induced_size(s, c, population),
                ),
                None => {
                    cgte_core::bootstrap::bootstrap_star(&star, reps, level, &mut boot_rng, |s| {
                        cgte_core::category_size::star_size(s, c, population, &opts)
                    })
                }
            };
            match line {
                Some(s) => eprintln!(
                    "  |C{c}|: mean {:.2}, sd {:.2}, ci [{:.2}, {:.2}] ({} defined replicates)",
                    s.mean, s.std_dev, s.ci.0, s.ci.1, s.replicates
                ),
                None => eprintln!("  |C{c}|: undefined on every replicate"),
            }
        }
    }
    export(&est, args)
}
