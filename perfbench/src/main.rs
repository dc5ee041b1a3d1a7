//! `perfbench` — the repository benchmark's measuring program.
//!
//! `run.py` builds this binary and the `cgte` binary, then calls it:
//!
//! ```text
//! perfbench prepare     --scale full|toy --data DIR
//! perfbench run         --workload serve_ingest|serve_query|cluster_rw
//!                       --seed N --seconds S --trace 0|1 --scale full|toy --data DIR
//! perfbench fig4-fill   --cache-dir DIR --scale full|toy --threads T
//! perfbench fig4-replay --cache-dir DIR --scale full|toy --threads T --data DIR
//! ```
//!
//! `run` prints one JSON result line on stdout (the last line); details
//! (sample counts behind every percentile, environment, session caps) go
//! to stderr and to `DIR/results/`. The `experiment_fig4` workload's timed
//! runs spawn `cgte run` from `run.py`; this binary fills its store and
//! replays its layer calls for the traced run.

mod cluster;
mod fig4;
mod fixture;
mod replay;
mod serve;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Parsed `--key value` arguments after the subcommand.
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = argv.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Args { map })
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.str(key)?;
        v.parse().map_err(|_| format!("invalid --{key} {v:?}"))
    }

    fn toy(&self) -> Result<bool, String> {
        match self.str("scale")? {
            "full" => Ok(false),
            "toy" => Ok(true),
            other => Err(format!("--scale must be full or toy, got {other:?}")),
        }
    }
}

/// One workload's result: the printed result line plus details.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra `"key": json` members for stderr and the results file.
    pub details: Vec<(String, String)>,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            details: Vec::new(),
        }
    }
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn detail(&mut self, key: &str, json: impl Into<String>) {
        self.details.push((key.to_string(), json.into()));
    }

    /// A failed output check: recorded as a failed operation and as an
    /// incorrect run, with the reason kept in the details.
    pub fn mismatch(&mut self, what: &str) {
        eprintln!("perfbench: check failed: {what}");
        self.correct = false;
        self.failed += 1;
        self.detail("check_failed", json_str(what));
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn details_json(&self) -> String {
        let members: Vec<String> = self
            .details
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

/// A JSON number; non-finite values (never expected) become 0 and mark
/// the run incorrect through [`Report::result_line`].
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// SplitMix64 finaliser: every seed the benchmark derives goes through it.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A derived seed that survives a JSON number round trip (53 bits).
pub fn derive_seed(seed: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ mix64((a << 32) | b)) & ((1u64 << 53) - 1)
}

/// Percentile of an ascending slice, interpolated linearly between the
/// two nearest ranks (0 when empty). Interpolation keeps the figure from
/// jumping between the modes of a gappy distribution.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Number of sub-windows a timed window of `wall` seconds is split into
/// (about one second each).
pub fn windows(wall: f64) -> usize {
    (wall.round() as usize).max(1)
}

/// The median over one-second sub-windows of a per-window statistic:
/// `at[i]` is event `i`'s completion time (seconds since the window
/// started), `vals[i]` its value, and `stat` gets one sub-window's values
/// and its length. A burst of outside load then moves one sub-window, not
/// the reported figure.
pub fn windowed(at: &[f64], vals: &[f64], wall: f64, stat: impl Fn(&[f64], f64) -> f64) -> f64 {
    median(&per_window(at, vals, wall, stat))
}

/// The per-sub-window values behind [`windowed`].
pub fn per_window(
    at: &[f64],
    vals: &[f64],
    wall: f64,
    stat: impl Fn(&[f64], f64) -> f64,
) -> Vec<f64> {
    let n = windows(wall);
    let len = wall / n as f64;
    let mut buckets = vec![Vec::new(); n];
    for (&t, &v) in at.iter().zip(vals) {
        buckets[((t / len) as usize).min(n - 1)].push(v);
    }
    buckets.iter().map(|b| stat(b, len)).collect()
}

/// `{"p50": …, "p99": …, "n": …}` with the sample count behind both.
pub fn percentile_json(sorted: &[f64]) -> String {
    format!(
        "{{\"p50\": {}, \"p99\": {}, \"n\": {}}}",
        num(percentile(sorted, 0.5)),
        num(percentile(sorted, 0.99)),
        sorted.len()
    )
}

/// Peak resident set size of this process so far, in MB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of `struct rusage` on 64-bit
    // Linux (two timevals followed by fourteen longs), the pointer is to a
    // live, writable value, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut r) };
    if rc == 0 {
        r.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// `nproc` and the CPU model, recorded with every result.
pub fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("{{\"nproc\": {nproc}, \"cpu\": {}}}", json_str(&cpu))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Common settings of one `run` invocation.
pub struct RunCtx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub toy: bool,
    pub data: PathBuf,
}

impl RunCtx {
    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.data.join("traces").join(format!(
            "{}-{}-{}.jsonl",
            self.workload,
            if self.toy { "toy" } else { "full" },
            self.seed
        ))
    }
}

fn write_results(ctx: &RunCtx, report: &Report) {
    let dir = ctx.data.join("results");
    let path = dir.join(format!(
        "{}-{}-{}-trace{}.json",
        ctx.workload,
        if ctx.toy { "toy" } else { "full" },
        ctx.seed,
        u8::from(ctx.traced)
    ));
    let body = format!(
        "{{\"result\": {}, \"details\": {}}}\n",
        report.result_line(),
        report.details_json()
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let ctx = RunCtx {
        workload: args.str("workload")?.to_string(),
        seed: args.num("seed")?,
        seconds: args.num("seconds")?,
        traced: match args.str("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        toy: args.toy()?,
        data: PathBuf::from(args.str("data")?),
    };
    let fx = fixture::Fixture::at(&ctx.data, ctx.toy);
    if !fx.path().exists() {
        return Err(format!(
            "graph fixture {} is missing; run `perfbench prepare` first",
            fx.path().display()
        ));
    }
    let mut report = match ctx.workload.as_str() {
        "serve_ingest" => serve::run(&ctx, &fx, serve::Kind::Ingest)?,
        "serve_query" => serve::run(&ctx, &fx, serve::Kind::Query)?,
        "cluster_rw" => cluster::run(&ctx, &fx)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    report.detail("workload", json_str(&ctx.workload));
    report.detail("seed", ctx.seed.to_string());
    report.detail("environment", environment());
    eprintln!("perfbench: details {}", report.details_json());
    write_results(&ctx, &report);
    println!("{}", report.result_line());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench prepare|run|fig4-fill|fig4-replay [--key value]...");
        std::process::exit(2);
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "prepare" => fixture::prepare(Path::new(args.str("data")?), args.toy()?),
        "run" => cmd_run(&args),
        "fig4-fill" => fig4::cmd_fill(&args),
        "fig4-replay" => fig4::cmd_replay(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
