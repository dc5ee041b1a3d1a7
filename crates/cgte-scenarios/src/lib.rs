//! Declarative experiment scenarios for the paper's evaluation (§6–§7).
//!
//! The paper's evaluation is a large cross-product — sampling designs ×
//! observation scenarios × estimators × graph families × growing prefix
//! sizes. This crate turns each cell of that product into **data**: a small
//! TOML-like `.scn` file describes the graph specs, sampler grid, estimator
//! settings, prefix sizes, replications and seed, with sweep syntax
//! (`thinning = [1, 2, 5]`) that expands to a job matrix. The engine then:
//!
//! 1. **parses** the scenario ([`parse`], [`spec`]) with line-numbered
//!    errors and scale selectors (`scale(quick, default, full)`);
//! 2. **plans** a job DAG ([`plan`]): one build job per distinct graph
//!    spec, one runnable job per matrix cell, dependencies wired from
//!    consumers to builders;
//! 3. **schedules** the DAG ([`schedule`]) onto `--threads`-bounded workers
//!    over `crossbeam` channels, deduplicating graph construction through a
//!    content-keyed [`cache::ResourceCache`] shared by every job;
//! 4. **persists** every job's series as CSV + JSON under a run directory
//!    with a manifest ([`artifact`]), so `--resume` re-executes only
//!    incomplete jobs;
//! 5. **reports** ([`report`], [`builtins`]): the paper's ten figures and
//!    tables are embedded built-in scenarios (`cgte run --builtin NAME`)
//!    whose reporters reproduce the original table output byte-for-byte.
//!
//! See `EXPERIMENTS.md` at the repository root for the `.scn` format
//! reference and the default-scale outputs of every built-in scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod builtins;
pub mod cache;
pub mod parse;
pub mod plan;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod spec;
pub mod stages;
pub mod value;

pub use builtins::{builtin_names, builtin_scenario, run_builtin};
pub use cache::{CacheStats, ResourceCache};
pub use parse::{parse_scn, ScnDoc};
pub use plan::{build_plan, Job, JobKind, Plan};
pub use report::{fmt_nrmse, log_sizes, Emitter};
pub use runner::{JobOutput, NamedSeries, ReportSection};
pub use schedule::run_plan;
pub use spec::{resolve_scenario, Scenario};
pub use value::Value;

use std::path::PathBuf;

/// Run scale selected on the command line; the three parameter tiers
/// the figure binaries historically supported, plus the million-node
/// `huge` tier served by the parallel generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test parameters (CI-sized, seconds).
    Quick,
    /// Laptop-scale defaults (graphs scaled down ~10×).
    Default,
    /// The paper's parameters.
    Full,
    /// Million-node scale tier (1M–2M-node graphs, built by the parallel
    /// generators). `scale(...)` selectors with only three arguments fall
    /// back to their `full` value at this tier.
    Huge,
}

impl Scale {
    /// Display name, as used in manifests and progress lines.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
            Scale::Huge => "huge",
        }
    }
}

/// Engine options of the `cgte run` subcommand.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Parameter tier.
    pub scale: Scale,
    /// Base seed override; `None` uses the scenario file's `seed` key.
    pub seed: Option<u64>,
    /// Where reporters dump CSV series and SVG plots (the legacy `--csv`).
    pub csv_dir: Option<PathBuf>,
    /// Scheduler worker threads (0 = all available cores).
    pub threads: usize,
    /// Run directory for job artifacts + manifest; `None` keeps results
    /// in memory only (no `--resume` support).
    pub out_dir: Option<PathBuf>,
    /// Skip jobs already completed in `out_dir`'s manifest.
    pub resume: bool,
    /// Suppress per-job progress lines on stderr.
    pub quiet: bool,
    /// Persistent graph-store directory (the `--cache-dir` disk tier):
    /// every built resource is saved as a `.cgteg` under its content key,
    /// and warm runs load instead of rebuilding (`builds == 0`).
    pub cache_dir: Option<PathBuf>,
    /// Serve `.cgteg` loads (disk tier and `file =` sources) through the
    /// zero-copy mapped loader. Results are bit-identical to heap loads;
    /// only load cost changes. Does not affect run fingerprints.
    pub mmap: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: Scale::Default,
            seed: None,
            csv_dir: None,
            threads: 0,
            out_dir: None,
            resume: false,
            quiet: false,
            cache_dir: None,
            mmap: false,
        }
    }
}

/// Any error surfaced by the scenario engine: parse errors carry the
/// offending line number, everything else a plain message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// 1-based line in the `.scn` source, when the error is tied to one.
    pub line: Option<usize>,
    /// Human-readable description.
    pub msg: String,
}

impl EngineError {
    /// An error anchored to a scenario-file line.
    pub fn at(line: usize, msg: impl Into<String>) -> Self {
        EngineError {
            line: Some(line),
            msg: msg.into(),
        }
    }

    /// An error with no source location.
    pub fn msg(msg: impl Into<String>) -> Self {
        EngineError {
            line: None,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::msg(e.to_string())
    }
}

/// Parses and runs a scenario from a string, using the builtin reporter
/// when `text` is one of the embedded scenarios, and the generic reporter
/// otherwise. Returns the cache statistics of the run.
pub fn run_scenario_str(text: &str, opts: &RunOptions) -> Result<CacheStats, EngineError> {
    let doc = parse_scn(text)?;
    let scenario = resolve_scenario(&doc, opts.scale, opts.seed)?;
    // A builtin reporter expects the builtin's exact job ids, so it is
    // selected only when the source *is* the embedded scenario — a user
    // file that merely reuses a builtin's name gets the generic reporter.
    let reporter = builtins::builtin_scenario(&scenario.name)
        .filter(|&src| src == text)
        .and_then(|_| builtins::reporter_for(&scenario.name));
    run_resolved(text, scenario, opts, reporter)
}

/// Parses and runs a scenario from a file path.
pub fn run_scenario_path(
    path: &std::path::Path,
    opts: &RunOptions,
) -> Result<CacheStats, EngineError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| EngineError::msg(format!("cannot read {path:?}: {e}")))?;
    run_scenario_str(&text, opts)
}

fn run_resolved(
    source: &str,
    scenario: Scenario,
    opts: &RunOptions,
    reporter: Option<builtins::Reporter>,
) -> Result<CacheStats, EngineError> {
    let plan = build_plan(&scenario)?;
    let cache = match &opts.cache_dir {
        Some(dir) => ResourceCache::with_disk(dir),
        None => ResourceCache::new(),
    }
    .mmap(opts.mmap);
    let outputs = run_plan(&plan, &cache, opts, source)?;
    let ctx = report::RunContext {
        plan: &plan,
        outputs: &outputs,
        emitter: Emitter {
            csv_dir: opts.csv_dir.clone(),
        },
        scale: opts.scale,
    };
    match reporter {
        Some(r) => r(&ctx)?,
        None => report::generic_report(&ctx)?,
    }
    Ok(cache.stats())
}
