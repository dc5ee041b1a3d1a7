//! The CI performance-regression gate: `cgte bench --check BASELINE.json`.
//!
//! Compares a freshly produced harness report against a committed
//! baseline, metric by metric, with ratio thresholds: a metric that drops
//! below [`FAIL_RATIO`] (>25 % regression) fails the gate, below
//! [`WARN_RATIO`] (>10 %) warns. The gated metrics are the rows of one
//! table, `GATES`; a report missing any section or field a row reads
//! is unusable input, baseline and current report alike.
//!
//! **Machine normalization.** Absolute throughputs (edges/sec,
//! steps/sec, samples/sec) are only meaningful between comparable
//! machines, and thread-scaling figures are only meaningful on equal
//! core counts — so those metrics are compared **only when both reports
//! record the same `available_parallelism`** (the committed baseline and
//! CI's runners, or two runs on one developer box). Internal ratios —
//! the load section's `speedup_vs_regen` and the obs section's
//! traced/disabled rate ratios, where both timings come from the same
//! box within one run — are machine-independent and are always
//! compared. Reports from different tiers (`quick` flag
//! mismatch) are never comparable: the workloads differ, so the checker
//! refuses with instructions to regenerate the baseline.

use cgte_scenarios::artifact::{parse_json, Json};

/// A metric at or below this fraction of its baseline fails the gate
/// (0.75 = a regression of more than 25 %).
pub const FAIL_RATIO: f64 = 0.75;
/// A metric at or below this fraction of its baseline warns
/// (0.90 = a regression of more than 10 %).
pub const WARN_RATIO: f64 = 0.90;
/// Latencies below this many milliseconds are clamped up to it before
/// the gate ratio: at the tens-of-microseconds scale a "25 % regression"
/// is scheduler/timer noise (a 70 µs vs 100 µs p50 is the same service),
/// while any regression a user could notice pushes well past the floor
/// and still fails.
pub const LATENCY_FLOOR_MS: f64 = 0.5;
/// Floor for the open-loop (`serve_open`) tail latencies. Under an
/// open-loop schedule the p99 is bounded by the schedule duration
/// itself (~2 s at the default `requests = 2 × rate`), and on a
/// contended host a moment of CPU steal mid-schedule queues hundreds of
/// scheduled arrivals — legitimately placing the tail anywhere under
/// that bound run-to-run. Only a tail at the scale of the whole
/// schedule is signal (the server fell behind by the entire run), so
/// both sides clamp up to the schedule scale first; the stable
/// regression gate for this section is `achieved_rps`.
pub const OPEN_LOOP_LATENCY_FLOOR_MS: f64 = 2_000.0;

/// How a metric travels between machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricClass {
    /// Absolute throughput — comparable only on matching machines.
    Absolute,
    /// Internal ratio (both sides measured in one run on one box) —
    /// always comparable.
    Ratio,
}

/// Which way a metric improves. The gate ratio is oriented so that
/// `< 1` always means "got worse".
#[derive(Debug, Clone, Copy)]
enum Better {
    /// Throughputs and ratios: current / baseline.
    Higher,
    /// Latencies: baseline / current, both sides first clamped up to
    /// `floor` milliseconds (see [`LATENCY_FLOOR_MS`]).
    Lower { floor: f64 },
}

/// The objects of a section a gate reads, each with the tag that
/// replaces `{}` in the gate's name.
#[derive(Debug, Clone, Copy)]
enum Over {
    /// The section itself (an object).
    Section,
    /// Every entry of an array section, tagged by this key.
    Entries(&'static str),
    /// Every entry of the section's `runs`, tagged by this key.
    Runs(&'static str),
}

/// Where the gated number sits in each object [`Over`] yields.
#[derive(Debug, Clone, Copy)]
enum At {
    /// A number under this key.
    Key(&'static str),
    /// This key of the serial (`threads == 1`) entry of `runs`.
    Serial(&'static str),
}

/// One row of the gate table.
struct Gate {
    /// Metric name; its first path component is the report section, and
    /// `{}` stands for the tag of each object [`Over`] yields.
    name: &'static str,
    over: Over,
    at: At,
    class: MetricClass,
    better: Better,
    /// Read only from reports recorded on more than one core: on a
    /// 1-core box any recorded speedup is scheduler/timer noise around
    /// 1.0 and would make the gate flaky.
    multicore_only: bool,
}

impl Gate {
    fn section(&self) -> &'static str {
        self.name.split('/').next().unwrap_or(self.name)
    }
}

const fn gate(
    name: &'static str,
    over: Over,
    at: At,
    class: MetricClass,
    better: Better,
    multicore_only: bool,
) -> Gate {
    Gate {
        name,
        over,
        at,
        class,
        better,
        multicore_only,
    }
}

use At::{Key, Serial};
use Better::{Higher, Lower};
use MetricClass::{Absolute, Ratio};
use Over::{Entries, Runs, Section};

const CLOSED: Better = Lower {
    floor: LATENCY_FLOOR_MS,
};
const OPEN: Better = Lower {
    floor: OPEN_LOOP_LATENCY_FLOOR_MS,
};

/// Every metric the gate compares. Absolute rows gate only between
/// matching machines; Ratio rows (both sides timed back to back on one
/// box within one run) always gate — `load/mmap_vs_heap` collapsing
/// means the zero-copy path stopped being cheaper than a heap decode,
/// an `obs` ratio collapsing means tracing got expensive relative to the
/// hot path it instruments, and `cluster/best_speedup` is the round
/// pool's wall-clock ratio. The `.cgtes` round trip (`snapshot`) is
/// inherently serial, so its rates are plain serial throughputs.
#[rustfmt::skip]
static GATES: [Gate; 18] = [
    //   name                                 over                      at                                 class     better  multicore_only
    gate("build/{}/edges_per_sec@1",          Entries("generator"),     Serial("edges_per_sec"),           Absolute, Higher, false),
    gate("build/{}/best_speedup",             Entries("generator"),     Key("best_speedup"),               Absolute, Higher, true),
    gate("walk/{}/steps_per_sec@1",           Entries("sampler"),       Serial("steps_per_sec"),           Absolute, Higher, false),
    gate("estimate/samples_per_sec@1",        Section,                  Serial("samples_per_sec"),         Absolute, Higher, false),
    gate("load/edges_per_sec",                Section,                  Key("load_edges_per_sec"),         Absolute, Higher, false),
    gate("load/speedup_vs_regen",             Section,                  Key("speedup_vs_regen"),           Ratio,    Higher, false),
    gate("load/mmap_vs_heap",                 Section,                  Key("mmap_vs_heap"),               Ratio,    Higher, false),
    gate("snapshot/write_samples_per_sec",    Section,                  Key("write_samples_per_sec"),      Absolute, Higher, false),
    gate("snapshot/restore_samples_per_sec",  Section,                  Key("restore_samples_per_sec"),    Absolute, Higher, false),
    gate("serve/requests_per_sec@1",          Section,                  Serial("requests_per_sec"),        Absolute, Higher, false),
    gate("serve/p50_ms@1",                    Section,                  Serial("p50_ms"),                  Absolute, CLOSED, false),
    gate("serve/p99_ms@1",                    Section,                  Serial("p99_ms"),                  Absolute, CLOSED, false),
    gate("serve_open/achieved_rps@{}",        Runs("requested_conns"),  Key("achieved_rps"),               Absolute, Higher, false),
    gate("serve_open/p99_ms@{}",              Runs("requested_conns"),  Key("p99_ms"),                     Absolute, OPEN,   false),
    gate("cluster/samples_per_sec@1",         Section,                  Serial("samples_per_sec"),         Absolute, Higher, false),
    gate("cluster/best_speedup",              Section,                  Key("best_speedup"),               Ratio,    Higher, true),
    gate("obs/walk_traced_ratio",             Section,                  Key("walk_traced_ratio"),          Ratio,    Higher, false),
    gate("obs/serve_traced_ratio",            Section,                  Key("serve_traced_ratio"),         Ratio,    Higher, false),
];

struct Metric {
    name: String,
    value: f64,
    gate: &'static Gate,
}

struct Extracted {
    quick: bool,
    parallelism: f64,
    metrics: Vec<Metric>,
}

/// The checker's verdict.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Metrics that regressed beyond [`FAIL_RATIO`] (plus structural
    /// problems such as a metric disappearing from the report).
    pub failures: Vec<String>,
    /// Metrics that regressed beyond [`WARN_RATIO`] but not enough to
    /// fail.
    pub warnings: Vec<String>,
    /// Number of metrics actually compared.
    pub compared: usize,
    /// Metrics skipped because the machines are not comparable
    /// (`available_parallelism` mismatch).
    pub skipped: usize,
}

fn get<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing key {key:?}"))
}

fn num(v: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    match get(v, key, ctx)? {
        Json::Num(x) => Ok(*x),
        other => Err(format!("{ctx}: {key} is not a number ({other:?})")),
    }
}

/// The entries of the array `list`, each tagged by its `tag` key.
fn tagged<'a>(list: &'a Json, tag: &str, ctx: &str) -> Result<Vec<(String, &'a Json)>, String> {
    let Json::Arr(entries) = list else {
        return Err(format!("{ctx}: expected an array tagged by {tag:?}"));
    };
    entries
        .iter()
        .map(|e| match get(e, tag, ctx)? {
            Json::Str(s) => Ok((s.clone(), e)),
            Json::Num(x) => Ok((x.to_string(), e)),
            other => Err(format!(
                "{ctx}: {tag} is not a string or number ({other:?})"
            )),
        })
        .collect()
}

impl Over {
    fn objects<'a>(self, section: &'a Json, ctx: &str) -> Result<Vec<(String, &'a Json)>, String> {
        match self {
            Over::Section => Ok(vec![(String::new(), section)]),
            Over::Entries(tag) => tagged(section, tag, ctx),
            Over::Runs(tag) => tagged(get(section, "runs", ctx)?, tag, ctx),
        }
    }
}

impl At {
    fn read(self, obj: &Json, ctx: &str) -> Result<f64, String> {
        match self {
            At::Key(key) => num(obj, key, ctx),
            At::Serial(key) => {
                let runs = tagged(get(obj, "runs", ctx)?, "threads", ctx)?;
                let (_, serial) = runs
                    .into_iter()
                    .find(|(threads, _)| threads == "1")
                    .ok_or_else(|| format!("{ctx}: no threads=1 run"))?;
                num(serial, key, ctx)
            }
        }
    }
}

fn extract(report: &str, label: &str) -> Result<Extracted, String> {
    let v = parse_json(report).map_err(|e| format!("{label}: invalid JSON: {e}"))?;
    let schema = get(&v, "schema", label)?;
    if !matches!(schema, Json::Str(s) if s == "cgte-bench/1") {
        return Err(format!("{label}: unsupported schema {schema:?}"));
    }
    let quick = matches!(get(&v, "quick", label)?, Json::Bool(true));
    let parallelism = num(&v, "available_parallelism", label)?;
    let mut metrics = Vec::new();
    for gate in GATES.iter() {
        if gate.multicore_only && parallelism <= 1.0 {
            continue;
        }
        let section = gate.section();
        let obj = v
            .get(section)
            .ok_or_else(|| format!("{label}: missing section {section:?}"))?;
        let ctx = format!("{label}: {section}");
        for (tag, obj) in gate.over.objects(obj, &ctx)? {
            metrics.push(Metric {
                name: gate.name.replace("{}", &tag),
                value: gate.at.read(obj, &ctx)?,
                gate,
            });
        }
    }
    Ok(Extracted {
        quick,
        parallelism,
        metrics,
    })
}

/// Compares a current harness report against a baseline report. `Err` is
/// reserved for unusable input (bad JSON, a missing section or field,
/// tier mismatch); regressions land in the returned [`CheckOutcome`].
pub fn check_reports(current: &str, baseline: &str) -> Result<CheckOutcome, String> {
    let cur = extract(current, "current report")?;
    let base = extract(baseline, "baseline")?;
    if cur.quick != base.quick {
        return Err(format!(
            "tier mismatch: current quick={}, baseline quick={} — the workloads differ; \
             regenerate the baseline at the gate's tier",
            cur.quick, base.quick
        ));
    }
    let same_machine = cur.parallelism == base.parallelism;
    let mut out = CheckOutcome::default();
    for bm in &base.metrics {
        if bm.gate.class == MetricClass::Absolute && !same_machine {
            out.skipped += 1;
            continue;
        }
        let Some(cm) = cur.metrics.iter().find(|m| m.name == bm.name) else {
            out.failures.push(format!(
                "{}: present in baseline but missing from the current report",
                bm.name
            ));
            continue;
        };
        if !(bm.value.is_finite() && bm.value > 0.0) {
            out.skipped += 1;
            continue;
        }
        out.compared += 1;
        let ratio = match bm.gate.better {
            Better::Higher => cm.value / bm.value,
            Better::Lower { floor } => bm.value.max(floor) / cm.value.max(floor),
        };
        let line = format!(
            "{}: {:.1} vs baseline {:.1} (ratio {:.3})",
            bm.name, cm.value, bm.value, ratio
        );
        if ratio < FAIL_RATIO {
            out.failures.push(line);
        } else if ratio < WARN_RATIO {
            out.warnings.push(line);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names of every metric the gate reads from `report`.
    fn gated_names(report: &str) -> Vec<String> {
        let report = extract(report, "report").unwrap();
        report.metrics.into_iter().map(|m| m.name).collect()
    }

    /// A schema-complete report shaped like the committed baseline (five
    /// generators, two samplers, two open-loop connection counts). Each
    /// gated value is its base value scaled by `scale(name)`: throughputs
    /// and ratios multiply, latencies divide, so a factor `< 1` always
    /// degrades.
    fn synthetic(parallelism: usize, scale: impl Fn(&str) -> f64) -> String {
        let up = |name: &str, base: f64| base * scale(name);
        let down = |name: &str, base: f64| base / scale(name);
        let build: Vec<String> = ["chung_lu", "gnp", "barabasi_albert", "configuration", "planted"]
            .iter()
            .map(|g| {
                format!(
                    r#"    {{"generator":"{g}","nodes":1000,"edges":5000,"bit_identical":true,"best_speedup":{:.3},"runs":[{{"threads":1,"secs":0.5,"edges_per_sec":{:.1}}},{{"threads":2,"secs":0.4,"edges_per_sec":12000.0}}]}}"#,
                    up(&format!("build/{g}/best_speedup"), 1.2),
                    up(&format!("build/{g}/edges_per_sec@1"), 10000.0),
                )
            })
            .collect();
        let walk: Vec<String> = ["rw", "mhrw"]
            .iter()
            .map(|s| {
                format!(
                    r#"    {{"sampler":"{s}","steps_per_walker":1000,"best_speedup":1.0,"runs":[{{"threads":1,"secs":0.1,"steps_per_sec":{:.1}}}]}}"#,
                    up(&format!("walk/{s}/steps_per_sec@1"), 50000.0),
                )
            })
            .collect();
        // p99 above OPEN_LOOP_LATENCY_FLOOR_MS, so a degraded tail
        // exercises the open-loop gate past its clamp.
        let open: Vec<String> = [(1000, 790.0, 2_400.0), (10000, 760.0, 4_000.0)]
            .iter()
            .map(|&(conns, rps, p99)| {
                format!(
                    r#"{{"requested_conns":{conns},"open_conns":{conns},"requests":1600,"secs":2.0,"achieved_rps":{:.1},"p50_ms":2.0000,"p99_ms":{:.4}}}"#,
                    up(&format!("serve_open/achieved_rps@{conns}"), rps),
                    down(&format!("serve_open/p99_ms@{conns}"), p99),
                )
            })
            .collect();
        format!(
            r#"{{
  "schema": "cgte-bench/1",
  "pr": "PR10",
  "quick": true,
  "seed": 7,
  "available_parallelism": {parallelism},
  "threads": [1,2],
  "build": [
{build}
  ],
  "walk": [
{walk}
  ],
  "estimate": {{"nodes":100,"replications":2,"max_size":10,"targets":3,"best_speedup":1.0,"runs":[{{"threads":1,"secs":0.1,"samples_per_sec":{e1:.1}}}]}},
  "load": {{"generator":"chung_lu","nodes":1000,"edges":5000,"write_secs":0.1,"load_secs":0.01,"mmap_secs":0.001,"regen_secs":0.5,"load_edges_per_sec":{l1:.1},"mmap_edges_per_sec":5000000.0,"regen_edges_per_sec":10000.0,"speedup_vs_regen":{lr:.3},"mmap_vs_heap":{lm:.3},"identical":true,"mmap_identical":true,"mapped":true}},
  "snapshot": {{"nodes":1000,"categories":10,"samples":50000,"bytes":1200000,"write_secs":0.01,"restore_secs":0.02,"write_samples_per_sec":{sw:.1},"restore_samples_per_sec":{sr:.1},"identical":true}},
  "serve": {{"nodes":1000,"edges":5000,"categories":10,"rounds":25,"steps_per_ingest":200,"best_speedup":1.0,"runs":[{{"threads":1,"secs":1.0,"requests":100,"requests_per_sec":{s1:.1},"p50_ms":{p50:.4},"p99_ms":{p99:.4}}}]}},
  "serve_open": {{"target_rps":800.0,"drivers":4,"steps_per_ingest":200,"runs":[{open}]}},
  "cluster": {{"shards":4,"walkers":16,"steps_per_walker":400,"batch":100,"bit_identical":true,"best_speedup":{cs:.3},"runs":[{{"threads":1,"secs":1.0,"samples_per_sec":{c1:.1}}},{{"threads":2,"secs":0.6,"samples_per_sec":10600.0}}]}},
  "obs": {{"walk_steps":1000000,"walk_off_secs":0.1,"walk_traced_secs":0.1,"walk_steps_per_sec_off":10000000.0,"walk_steps_per_sec_traced":10000000.0,"walk_traced_ratio":{ow:.4},"serve_rounds":400,"serve_requests":801,"serve_off_secs":0.1,"serve_traced_secs":0.1,"serve_requests_per_sec_off":8000.0,"serve_requests_per_sec_traced":8000.0,"serve_traced_ratio":{os:.4}}}
}}
"#,
            build = build.join(",\n"),
            walk = walk.join(",\n"),
            open = open.join(","),
            e1 = up("estimate/samples_per_sec@1", 20000.0),
            l1 = up("load/edges_per_sec", 500000.0),
            lr = up("load/speedup_vs_regen", 50.0),
            lm = up("load/mmap_vs_heap", 10.0),
            sw = up("snapshot/write_samples_per_sec", 5_000_000.0),
            sr = up("snapshot/restore_samples_per_sec", 2_500_000.0),
            s1 = up("serve/requests_per_sec@1", 800.0),
            p50 = down("serve/p50_ms@1", 2.0),
            p99 = down("serve/p99_ms@1", 9.0),
            cs = up("cluster/best_speedup", 1.7),
            c1 = up("cluster/samples_per_sec@1", 6400.0),
            ow = up("obs/walk_traced_ratio", 1.0),
            os = up("obs/serve_traced_ratio", 0.99),
        )
    }

    /// Every Absolute metric scaled by `f`, every Ratio metric by `ratio_f`.
    fn report(parallelism: usize, f: f64, ratio_f: f64) -> String {
        synthetic(parallelism, |name| {
            let ratio = GATES
                .iter()
                .any(|g| g.class == MetricClass::Ratio && g.name == name);
            if ratio {
                ratio_f
            } else {
                f
            }
        })
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(1, 1.0, 1.0);
        let out = check_reports(&r, &r).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        assert!(out.compared >= 5, "compared {} metrics", out.compared);
        assert_eq!(out.skipped, 0);
    }

    #[test]
    fn every_gated_metric_fails_alone_when_degraded() {
        // The gate's reach: 23 names on one core (5 builds, 2 walks,
        // estimate, 3 load, 2 snapshot, 3 serve, 2 × 2 serve_open,
        // cluster, 2 obs), plus the 6 speedups on a multi-core box.
        for (parallelism, want) in [(1, 23), (8, 29)] {
            let base = report(parallelism, 1.0, 1.0);
            let names = gated_names(&base);
            assert_eq!(names.len(), want, "{names:?}");
            for name in &names {
                let degraded = synthetic(parallelism, |n| if n == name { 0.5 } else { 1.0 });
                let out = check_reports(&degraded, &base).unwrap();
                assert_eq!(out.compared, want, "{name}");
                assert_eq!(out.failures.len(), 1, "{name}: {:?}", out.failures);
                assert!(
                    out.failures[0].starts_with(&format!("{name}: ")),
                    "{name}: {:?}",
                    out.failures
                );
            }
        }
    }

    #[test]
    fn committed_baseline_gates_23_metrics() {
        let base = include_str!("../../../BENCH_PR10.json");
        let out = check_reports(base, base).unwrap();
        assert_eq!((out.compared, out.skipped), (23, 0));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        // From a 4-core box only the machine-independent ratios compare.
        let multicore = base.replace(
            "\"available_parallelism\": 1,",
            "\"available_parallelism\": 4,",
        );
        let out = check_reports(&multicore, base).unwrap();
        assert_eq!((out.compared, out.skipped), (4, 19));
        let degraded = multicore
            .replace("\"speedup_vs_regen\":22.080", "\"speedup_vs_regen\":1.0")
            .replace("\"mmap_vs_heap\":4.451", "\"mmap_vs_heap\":1.0")
            .replace("\"walk_traced_ratio\":0.9988", "\"walk_traced_ratio\":0.1")
            .replace(
                "\"serve_traced_ratio\":1.0053",
                "\"serve_traced_ratio\":0.1",
            );
        let out = check_reports(&degraded, base).unwrap();
        let mut failed: Vec<&str> = out
            .failures
            .iter()
            .map(|f| f.split(':').next().unwrap())
            .collect();
        failed.sort_unstable();
        assert_eq!(
            failed,
            [
                "load/mmap_vs_heap",
                "load/speedup_vs_regen",
                "obs/serve_traced_ratio",
                "obs/walk_traced_ratio"
            ]
        );
    }

    #[test]
    fn missing_section_or_field_is_unusable_input() {
        let full = report(1, 1.0, 1.0);
        let no_section = full.replace("\"serve_open\":", "\"serve_open_retired\":");
        let err = check_reports(&full, &no_section).unwrap_err();
        assert!(err.starts_with("baseline:"), "{err}");
        assert!(err.contains("\"serve_open\""), "{err}");
        let err = check_reports(&no_section, &full).unwrap_err();
        assert!(err.starts_with("current report:"), "{err}");
        assert!(err.contains("\"serve_open\""), "{err}");
        let no_field = full.replace("\"mmap_vs_heap\":", "\"mmap_retired\":");
        let err = check_reports(&full, &no_field).unwrap_err();
        assert!(
            err.contains("load") && err.contains("\"mmap_vs_heap\""),
            "{err}"
        );
    }

    /// A baseline whose section or field `key` is renamed away is refused
    /// with `key` named; with both sides complete, each of `gated` (read at
    /// `parallelism` cores) fails alone when degraded.
    fn required_and_gated(key: &str, parallelism: usize, gated: &[&str]) {
        let full = report(parallelism, 1.0, 1.0);
        let base = full.replace(&format!("\"{key}\":"), "\"retired\":");
        let err = check_reports(&full, &base).unwrap_err();
        assert!(
            err.starts_with("baseline:") && err.contains(&format!("\"{key}\"")),
            "{err}"
        );
        for name in gated {
            let degraded = synthetic(parallelism, |n| if n == *name { 0.5 } else { 1.0 });
            let out = check_reports(&degraded, &full).unwrap();
            assert!(
                out.failures
                    .iter()
                    .any(|f| f.starts_with(&format!("{name}: "))),
                "{name}: {:?}",
                out.failures
            );
        }
    }

    // The `prN_baseline_without_*` tests are named after the baselines
    // that predate a section or field. Such a baseline is no longer
    // accepted: it is refused with the missing key named.

    #[test]
    fn pr5_baseline_without_snapshot_section_is_accepted() {
        let gated = ["snapshot/restore_samples_per_sec"];
        required_and_gated("snapshot", 1, &gated);
    }

    #[test]
    fn pr6_baseline_without_obs_section_is_accepted() {
        required_and_gated("obs", 1, &["obs/serve_traced_ratio"]);
    }

    #[test]
    fn pr7_baseline_without_cluster_section_is_accepted() {
        required_and_gated("cluster", 1, &["cluster/samples_per_sec@1"]);
        // On machines that can scale, the round-pool speedup gates too.
        required_and_gated("cluster", 8, &["cluster/best_speedup"]);
    }

    #[test]
    fn pr8_baseline_without_mmap_ratio_is_accepted() {
        required_and_gated("mmap_vs_heap", 1, &["load/mmap_vs_heap"]);
    }

    #[test]
    fn pr9_baseline_without_serve_open_section_is_accepted() {
        let gated = ["serve_open/achieved_rps@10000", "serve_open/p99_ms@1000"];
        required_and_gated("serve_open", 1, &gated);
        // A baseline still carrying the retired idle-CPU object (as
        // BENCH_PR10.json does) gates cleanly: unknown keys are ignored.
        let current = report(1, 1.0, 1.0);
        let base = current.replace(
            "]},\n  \"cluster\"",
            "],\"idle\":{\"event_conns\":1000,\"ratio\":100.0}},\n  \"cluster\"",
        );
        assert_ne!(base, current);
        let out = check_reports(&current, &base).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn speedups_gate_only_on_multicore_machines() {
        // On matching multi-core boxes best_speedup gates…
        let out = check_reports(&report(8, 1.0, 1.0), &report(8, 1.0, 1.0)).unwrap();
        assert!(out.compared >= 6, "compared {} metrics", out.compared);
        let degraded = check_reports(&report(8, 0.7, 1.0), &report(8, 1.0, 1.0)).unwrap();
        assert!(degraded.failures.iter().any(|f| f.contains("best_speedup")));
        // …on 1-core boxes it is never extracted (speedups there are
        // timer noise, and gating on them makes CI flaky).
        let single = check_reports(&report(1, 0.7, 1.0), &report(1, 1.0, 1.0)).unwrap();
        assert!(single.failures.iter().all(|f| !f.contains("best_speedup")));
    }

    #[test]
    fn small_regression_only_warns() {
        // 15% down: past the warn line, short of the fail line.
        let out = check_reports(&report(1, 0.85, 0.85), &report(1, 1.0, 1.0)).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.warnings.len(), out.compared, "every metric warns");
    }

    #[test]
    fn synthetically_degraded_report_fails_the_gate() {
        // The acceptance test: a >25% throughput regression must fail.
        let out = check_reports(&report(1, 0.70, 1.0), &report(1, 1.0, 1.0)).unwrap();
        assert!(
            !out.failures.is_empty(),
            "a 30% regression must produce failures"
        );
        assert!(
            out.failures.iter().any(|f| f.contains("edges_per_sec")),
            "the degraded build throughput is named: {:?}",
            out.failures
        );
        // The internal load ratio was untouched, so it is not among them.
        assert!(out.failures.iter().all(|f| !f.contains("speedup_vs_regen")));
    }

    #[test]
    fn improvements_never_fail() {
        let out = check_reports(&report(1, 1.5, 1.5), &report(1, 1.0, 1.0)).unwrap();
        assert!(out.failures.is_empty());
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn absolute_metrics_skipped_across_machines_but_ratios_still_gate() {
        // Baseline from a 1-core box, current from an 8-core box: every
        // absolute throughput is skipped (machine-normalized via
        // available_parallelism), yet a collapsed internal load ratio
        // still fails the gate.
        let out = check_reports(&report(8, 0.5, 0.5), &report(1, 1.0, 1.0)).unwrap();
        assert_eq!(out.skipped, 19, "absolute metrics skipped");
        assert_eq!(
            out.compared, 4,
            "only the machine-independent ratios are compared (2 load + 2 obs)"
        );
        assert!(
            out.failures.iter().any(|f| f.contains("speedup_vs_regen")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn latency_regressions_gate_inverted() {
        // f = 0.7 makes every throughput 30% lower AND every latency
        // ~43% higher; both directions must fail, with the latency
        // failures carrying the serve p50/p99 names.
        let out = check_reports(&report(1, 0.7, 1.0), &report(1, 1.0, 1.0)).unwrap();
        assert!(out.failures.iter().any(|f| f.contains("serve/p99_ms")));
        assert!(out.failures.iter().any(|f| f.contains("serve/p50_ms")));
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("serve/requests_per_sec")),
            "{:?}",
            out.failures
        );
        // A latency *improvement* (current lower than baseline) passes.
        let out = check_reports(&report(1, 1.3, 1.0), &report(1, 1.0, 1.0)).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
    }

    #[test]
    fn microsecond_latency_jitter_is_floored() {
        // 70 µs vs 103 µs is scheduler noise, not a regression: both
        // sides clamp to the floor and the gate stays green. A genuine
        // multi-millisecond regression still fails.
        let base = report(1, 1.0, 1.0).replace("\"p50_ms\":2.0000", "\"p50_ms\":0.0700");
        let cur = report(1, 1.0, 1.0).replace("\"p50_ms\":2.0000", "\"p50_ms\":0.1030");
        let out = check_reports(&cur, &base).unwrap();
        assert!(
            out.failures.iter().all(|f| !f.contains("p50_ms")),
            "{:?}",
            out.failures
        );
        let bad = report(1, 1.0, 1.0).replace("\"p50_ms\":2.0000", "\"p50_ms\":9.0000");
        let out = check_reports(&bad, &base).unwrap();
        assert!(
            out.failures.iter().any(|f| f.contains("p50_ms")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn missing_metric_is_a_failure() {
        let base = report(1, 1.0, 1.0);
        let current = base.replace("{\"sampler\":\"rw\"", "{\"sampler\":\"other\"");
        let out = check_reports(&current, &base).unwrap();
        assert!(
            out.failures.iter().any(|f| f.contains("missing")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn tier_mismatch_is_unusable_input() {
        let base = report(1, 1.0, 1.0);
        let current = base.replace("\"quick\": true", "\"quick\": false");
        let err = check_reports(&current, &base).unwrap_err();
        assert!(err.contains("tier mismatch"), "{err}");
    }

    #[test]
    fn garbage_input_is_an_error_not_a_panic() {
        assert!(check_reports("not json", &report(1, 1.0, 1.0)).is_err());
        assert!(check_reports(&report(1, 1.0, 1.0), "{}").is_err());
    }
}
