//! The CI performance-regression gate: `cgte bench --check BASELINE.json`.
//!
//! Compares a freshly produced harness report against a committed
//! baseline, metric by metric, with ratio thresholds: a metric that drops
//! below [`FAIL_RATIO`] (>25 % regression) fails the gate, below
//! [`WARN_RATIO`] (>10 %) warns.
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

struct Metric {
    name: String,
    value: f64,
    class: MetricClass,
    /// Most metrics are throughputs (bigger is better); latency metrics
    /// (`p50_ms`, `p99_ms`) invert — the gate ratio is computed so that
    /// `< 1` always means "got worse".
    higher_is_better: bool,
    /// Latency floor: both sides clamp up to this before the gate
    /// ratio (see [`LATENCY_FLOOR_MS`]). Unused for throughputs.
    floor: f64,
}

impl Metric {
    fn throughput(name: String, value: f64, class: MetricClass) -> Metric {
        Metric {
            name,
            value,
            class,
            higher_is_better: true,
            floor: 0.0,
        }
    }

    fn latency(name: String, value: f64) -> Metric {
        Metric::latency_floored(name, value, LATENCY_FLOOR_MS)
    }

    fn latency_floored(name: String, value: f64, floor: f64) -> Metric {
        Metric {
            name,
            value,
            class: MetricClass::Absolute,
            higher_is_better: false,
            floor,
        }
    }
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

fn text<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    match get(v, key, ctx)? {
        Json::Str(s) => Ok(s),
        other => Err(format!("{ctx}: {key} is not a string ({other:?})")),
    }
}

fn arr<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], String> {
    match get(v, key, ctx)? {
        Json::Arr(a) => Ok(a),
        other => Err(format!("{ctx}: {key} is not an array ({other:?})")),
    }
}

/// The serial (threads == 1) rate of a `runs` array.
fn serial_rate(entry: &Json, rate_key: &str, ctx: &str) -> Result<f64, String> {
    for run in arr(entry, "runs", ctx)? {
        if num(run, "threads", ctx)? == 1.0 {
            return num(run, rate_key, ctx);
        }
    }
    Err(format!("{ctx}: no threads=1 run"))
}

fn extract(report: &str, label: &str) -> Result<Extracted, String> {
    let v = parse_json(report).map_err(|e| format!("{label}: invalid JSON: {e}"))?;
    let schema = text(&v, "schema", label)?;
    if schema != "cgte-bench/1" {
        return Err(format!("{label}: unsupported schema {schema:?}"));
    }
    let quick = matches!(get(&v, "quick", label)?, Json::Bool(true));
    let parallelism = num(&v, "available_parallelism", label)?;
    let mut metrics = Vec::new();

    for entry in arr(&v, "build", label)? {
        let generator = text(entry, "generator", label)?;
        let ctx = format!("{label}: build/{generator}");
        metrics.push(Metric::throughput(
            format!("build/{generator}/edges_per_sec@1"),
            serial_rate(entry, "edges_per_sec", &ctx)?,
            MetricClass::Absolute,
        ));
        // Thread-scaling figures are meaningful only when the machine can
        // actually scale: on a 1-core box any recorded speedup is
        // scheduler/timer noise and would make the gate flaky.
        if parallelism > 1.0 {
            metrics.push(Metric::throughput(
                format!("build/{generator}/best_speedup"),
                num(entry, "best_speedup", &ctx)?,
                MetricClass::Absolute,
            ));
        }
    }
    for entry in arr(&v, "walk", label)? {
        let sampler = text(entry, "sampler", label)?;
        let ctx = format!("{label}: walk/{sampler}");
        metrics.push(Metric::throughput(
            format!("walk/{sampler}/steps_per_sec@1"),
            serial_rate(entry, "steps_per_sec", &ctx)?,
            MetricClass::Absolute,
        ));
    }
    let estimate = get(&v, "estimate", label)?;
    metrics.push(Metric::throughput(
        "estimate/samples_per_sec@1".into(),
        serial_rate(estimate, "samples_per_sec", &format!("{label}: estimate"))?,
        MetricClass::Absolute,
    ));
    // Reports written before the load section existed (PR3) simply
    // contribute no load metrics.
    if let Some(load) = v.get("load") {
        let ctx = format!("{label}: load");
        metrics.push(Metric::throughput(
            "load/edges_per_sec".into(),
            num(load, "load_edges_per_sec", &ctx)?,
            MetricClass::Absolute,
        ));
        metrics.push(Metric::throughput(
            "load/speedup_vs_regen".into(),
            num(load, "speedup_vs_regen", &ctx)?,
            MetricClass::Ratio,
        ));
        // Reports written before the mapped load path existed (PR8 and
        // earlier) simply contribute no mmap metric. Like the regen
        // ratio, mapped-vs-heap load time is internal (both sides timed
        // back to back on one box within one run), so it always gates —
        // a collapsing ratio means the zero-copy path stopped being
        // cheaper than a full heap decode.
        if load.get("mmap_vs_heap").is_some() {
            metrics.push(Metric::throughput(
                "load/mmap_vs_heap".into(),
                num(load, "mmap_vs_heap", &ctx)?,
                MetricClass::Ratio,
            ));
        }
    }
    // Reports written before the snapshot section existed simply
    // contribute no snapshot metrics. Both rates are serial absolute
    // throughputs (the `.cgtes` round trip is inherently single-core).
    if let Some(snapshot) = v.get("snapshot") {
        let ctx = format!("{label}: snapshot");
        metrics.push(Metric::throughput(
            "snapshot/write_samples_per_sec".into(),
            num(snapshot, "write_samples_per_sec", &ctx)?,
            MetricClass::Absolute,
        ));
        metrics.push(Metric::throughput(
            "snapshot/restore_samples_per_sec".into(),
            num(snapshot, "restore_samples_per_sec", &ctx)?,
            MetricClass::Absolute,
        ));
    }
    // Reports written before the serve section existed (PR4 and earlier)
    // simply contribute no serve metrics. Latencies gate inverted: a
    // higher p50/p99 than baseline is the regression.
    if let Some(serve) = v.get("serve") {
        let ctx = format!("{label}: serve");
        metrics.push(Metric::throughput(
            "serve/requests_per_sec@1".into(),
            serial_rate(serve, "requests_per_sec", &ctx)?,
            MetricClass::Absolute,
        ));
        metrics.push(Metric::latency(
            "serve/p50_ms@1".into(),
            serial_rate(serve, "p50_ms", &ctx)?,
        ));
        metrics.push(Metric::latency(
            "serve/p99_ms@1".into(),
            serial_rate(serve, "p99_ms", &ctx)?,
        ));
    }
    // Reports written before the serve_open section existed (PR9 and
    // earlier) simply contribute no open-loop metrics. Per-connection-
    // count throughput and tail latency are absolute (machine-matched).
    // An `idle` object in older reports is ignored.
    if let Some(serve_open) = v.get("serve_open") {
        let ctx = format!("{label}: serve_open");
        for run in arr(serve_open, "runs", &ctx)? {
            let conns = num(run, "requested_conns", &ctx)? as u64;
            metrics.push(Metric::throughput(
                format!("serve_open/achieved_rps@{conns}"),
                num(run, "achieved_rps", &ctx)?,
                MetricClass::Absolute,
            ));
            metrics.push(Metric::latency_floored(
                format!("serve_open/p99_ms@{conns}"),
                num(run, "p99_ms", &ctx)?,
                OPEN_LOOP_LATENCY_FLOOR_MS,
            ));
        }
    }
    // Reports written before the cluster section existed (PR7 and
    // earlier) simply contribute no cluster metrics. The serial
    // coordinator rate is an absolute throughput; the round-pool speedup
    // is an internal wall-clock ratio (both sides timed back to back on
    // one box within one run) — but like every speedup it is only
    // extracted on machines that can actually scale, since a 1-core
    // box's recorded speedup is scheduler noise around 1.0.
    if let Some(cluster) = v.get("cluster") {
        let ctx = format!("{label}: cluster");
        metrics.push(Metric::throughput(
            "cluster/samples_per_sec@1".into(),
            serial_rate(cluster, "samples_per_sec", &ctx)?,
            MetricClass::Absolute,
        ));
        if parallelism > 1.0 {
            metrics.push(Metric::throughput(
                "cluster/best_speedup".into(),
                num(cluster, "best_speedup", &ctx)?,
                MetricClass::Ratio,
            ));
        }
    }
    // Reports written before the obs section existed (PR6 and earlier)
    // simply contribute no obs metrics. Both traced/disabled ratios are
    // internal (off and noop-traced timed back to back on one box), so
    // they gate across machines — a collapsing ratio means tracing got
    // expensive relative to the hot path it instruments.
    if let Some(obs) = v.get("obs") {
        let ctx = format!("{label}: obs");
        metrics.push(Metric::throughput(
            "obs/walk_traced_ratio".into(),
            num(obs, "walk_traced_ratio", &ctx)?,
            MetricClass::Ratio,
        ));
        metrics.push(Metric::throughput(
            "obs/serve_traced_ratio".into(),
            num(obs, "serve_traced_ratio", &ctx)?,
            MetricClass::Ratio,
        ));
    }
    Ok(Extracted {
        quick,
        parallelism,
        metrics,
    })
}

/// Compares a current harness report against a baseline report. `Err` is
/// reserved for unusable input (bad JSON, tier mismatch); regressions
/// land in the returned [`CheckOutcome`].
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
        if bm.class == MetricClass::Absolute && !same_machine {
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
        // Oriented so < 1 always means "got worse": current/baseline for
        // throughputs, baseline/current for latencies (the latter floored
        // at [`LATENCY_FLOOR_MS`] — see its docs).
        let ratio = if bm.higher_is_better {
            cm.value / bm.value
        } else {
            bm.value.max(bm.floor) / cm.value.max(bm.floor)
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

    /// A minimal but schema-complete report with every rate scaled by
    /// `f` (except the internal load ratio, scaled by `ratio_f`).
    fn report(parallelism: usize, f: f64, ratio_f: f64) -> String {
        format!(
            r#"{{
  "schema": "cgte-bench/1",
  "pr": "PR4",
  "quick": true,
  "seed": 7,
  "available_parallelism": {parallelism},
  "threads": [1,2],
  "build": [
    {{"generator":"chung_lu","nodes":1000,"edges":5000,"bit_identical":true,"best_speedup":{sp:.3},"runs":[{{"threads":1,"secs":0.5,"edges_per_sec":{b1:.1}}},{{"threads":2,"secs":0.4,"edges_per_sec":{b2:.1}}}]}}
  ],
  "walk": [
    {{"sampler":"rw","steps_per_walker":1000,"best_speedup":1.0,"runs":[{{"threads":1,"secs":0.1,"steps_per_sec":{w1:.1}}}]}}
  ],
  "estimate": {{"nodes":100,"replications":2,"max_size":10,"targets":3,"best_speedup":1.0,"runs":[{{"threads":1,"secs":0.1,"samples_per_sec":{e1:.1}}}]}},
  "load": {{"generator":"chung_lu","nodes":1000,"edges":5000,"write_secs":0.1,"load_secs":0.01,"mmap_secs":0.001,"regen_secs":0.5,"load_edges_per_sec":{l1:.1},"mmap_edges_per_sec":5000000.0,"regen_edges_per_sec":10000.0,"speedup_vs_regen":{lr:.3},"mmap_vs_heap":{lm:.3},"identical":true,"mmap_identical":true,"mapped":true}},
  "snapshot": {{"nodes":1000,"categories":10,"samples":50000,"bytes":1200000,"write_secs":0.01,"restore_secs":0.02,"write_samples_per_sec":{sw:.1},"restore_samples_per_sec":{sr:.1},"identical":true}},
  "serve": {{"nodes":1000,"edges":5000,"categories":10,"rounds":25,"steps_per_ingest":200,"best_speedup":1.0,"runs":[{{"threads":1,"secs":1.0,"requests":100,"requests_per_sec":{s1:.1},"p50_ms":{p50:.4},"p99_ms":{p99:.4}}}]}},
  "serve_open": {{"target_rps":800.0,"drivers":4,"steps_per_ingest":200,"runs":[{{"requested_conns":1000,"open_conns":1000,"requests":1600,"secs":2.0,"achieved_rps":{so1:.1},"p50_ms":{sop50:.4},"p99_ms":{sop99:.4}}},{{"requested_conns":10000,"open_conns":9800,"requests":1600,"secs":2.1,"achieved_rps":{so2:.1},"p50_ms":{sop50:.4},"p99_ms":{sop99b:.4}}}]}},
  "cluster": {{"shards":4,"walkers":16,"steps_per_walker":400,"batch":100,"bit_identical":true,"best_speedup":{cs:.3},"runs":[{{"threads":1,"secs":1.0,"samples_per_sec":{c1:.1}}},{{"threads":2,"secs":0.6,"samples_per_sec":{c2:.1}}}]}},
  "obs": {{"walk_steps":1000000,"walk_off_secs":0.1,"walk_traced_secs":0.1,"walk_steps_per_sec_off":10000000.0,"walk_steps_per_sec_traced":10000000.0,"walk_traced_ratio":{ow:.4},"serve_rounds":400,"serve_requests":801,"serve_off_secs":0.1,"serve_traced_secs":0.1,"serve_requests_per_sec_off":8000.0,"serve_requests_per_sec_traced":8000.0,"serve_traced_ratio":{os:.4}}}
}}
"#,
            sp = 1.2 * f,
            b1 = 10000.0 * f,
            b2 = 12000.0 * f,
            w1 = 50000.0 * f,
            e1 = 20000.0 * f,
            l1 = 500000.0 * f,
            lr = 50.0 * ratio_f,
            lm = 10.0 * ratio_f,
            sw = 5_000_000.0 * f,
            sr = 2_500_000.0 * f,
            s1 = 800.0 * f,
            so1 = 790.0 * f,
            so2 = 760.0 * f,
            sop50 = 2.0 / f,
            // Above OPEN_LOOP_LATENCY_FLOOR_MS so the degraded-report
            // tests exercise the open-loop tail gate past its clamp.
            sop99 = 2_400.0 / f,
            sop99b = 4_000.0 / f,
            cs = 1.7 * ratio_f,
            c1 = 6400.0 * f,
            c2 = 10600.0 * f,
            // Latencies move inversely with throughput: a degraded report
            // (f < 1) has *higher* p50/p99.
            p50 = 2.0 / f,
            p99 = 9.0 / f,
            ow = 1.0 * ratio_f,
            os = 0.99 * ratio_f,
        )
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
        assert!(out.skipped > 0, "absolute metrics skipped");
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
    fn pr4_baseline_without_serve_section_is_accepted() {
        let base = {
            let r = report(1, 1.0, 1.0);
            let head = r.split("  \"serve\":").next().unwrap().to_string();
            format!("{}\n}}\n", head.trim_end().trim_end_matches(','))
        };
        let out = check_reports(&report(1, 1.0, 1.0), &base).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn pr5_baseline_without_snapshot_section_is_accepted() {
        // A baseline committed before the snapshot section existed must
        // not fail the gate: the current report's extra snapshot metrics
        // are simply not compared until the baseline is regenerated.
        let base = report(1, 1.0, 1.0).replace("\"snapshot\":", "\"snapshot_unused\":");
        let out = check_reports(&report(1, 1.0, 1.0), &base).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        // And the section does gate once both sides carry it: a collapsed
        // restore rate fails.
        let degraded = report(1, 1.0, 1.0).replace(
            "\"restore_samples_per_sec\":2500000.0",
            "\"restore_samples_per_sec\":100.0",
        );
        let out = check_reports(&degraded, &report(1, 1.0, 1.0)).unwrap();
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("snapshot/restore_samples_per_sec")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn pr6_baseline_without_obs_section_is_accepted() {
        // A baseline committed before the obs section existed must not
        // fail the gate; once both sides carry it, a collapsed tracing
        // ratio (tracing suddenly costing 60% of the hot path) fails.
        let base = report(1, 1.0, 1.0).replace("\"obs\":", "\"obs_unused\":");
        let out = check_reports(&report(1, 1.0, 1.0), &base).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let degraded = report(1, 1.0, 1.0).replace(
            "\"serve_traced_ratio\":0.9900",
            "\"serve_traced_ratio\":0.4000",
        );
        let out = check_reports(&degraded, &report(1, 1.0, 1.0)).unwrap();
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("obs/serve_traced_ratio")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn pr7_baseline_without_cluster_section_is_accepted() {
        // A baseline committed before the cluster section existed must
        // not fail the gate.
        let base = report(1, 1.0, 1.0).replace("\"cluster\":", "\"cluster_unused\":");
        let out = check_reports(&report(1, 1.0, 1.0), &base).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        // Once both sides carry it, a collapsed coordinator rate fails…
        let degraded =
            report(1, 1.0, 1.0).replace("\"samples_per_sec\":6400.0", "\"samples_per_sec\":100.0");
        let out = check_reports(&degraded, &report(1, 1.0, 1.0)).unwrap();
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("cluster/samples_per_sec")),
            "{:?}",
            out.failures
        );
        // …and on machines that can scale, a collapsed round-pool
        // speedup gates as an internal wall-clock ratio.
        let degraded =
            report(8, 1.0, 1.0).replace("\"best_speedup\":1.700", "\"best_speedup\":1.000");
        let out = check_reports(&degraded, &report(8, 1.0, 1.0)).unwrap();
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("cluster/best_speedup")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn pr8_baseline_without_mmap_ratio_is_accepted() {
        // A baseline committed before the mapped load path existed must
        // not fail the gate: its load section simply lacks the key.
        let base = report(1, 1.0, 1.0).replace("\"mmap_vs_heap\":", "\"mmap_unused\":");
        let out = check_reports(&report(1, 1.0, 1.0), &base).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        // Once both sides carry it, a collapsed mapped-vs-heap ratio
        // fails — even across machines (it is an internal ratio).
        let degraded =
            report(8, 1.0, 1.0).replace("\"mmap_vs_heap\":10.000", "\"mmap_vs_heap\":2.000");
        let out = check_reports(&degraded, &report(1, 1.0, 1.0)).unwrap();
        assert!(
            out.failures.iter().any(|f| f.contains("load/mmap_vs_heap")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn pr9_baseline_without_serve_open_section_is_accepted() {
        // A baseline committed before the open-loop section existed must
        // not fail the gate.
        let base = report(1, 1.0, 1.0).replace("\"serve_open\":", "\"serve_open_unused\":");
        let out = check_reports(&report(1, 1.0, 1.0), &base).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        // Once both sides carry it, a collapsed open-loop rate or a blown
        // tail at a specific connection count fails, named per count.
        let degraded = report(1, 0.7, 1.0);
        let out = check_reports(&degraded, &report(1, 1.0, 1.0)).unwrap();
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("serve_open/achieved_rps@10000")),
            "{:?}",
            out.failures
        );
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("serve_open/p99_ms@1000")),
            "{:?}",
            out.failures
        );
        // A baseline still carrying the retired idle-CPU object (as
        // BENCH_PR10.json does) gates cleanly against one without it.
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
    fn missing_metric_is_a_failure() {
        let base = report(1, 1.0, 1.0);
        let current = base
            .replace("\"walk/", "\"wxlk/")
            .replace("{\"sampler\":\"rw\"", "{\"sampler\":\"other\"");
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
    fn pr3_baseline_without_load_section_is_accepted() {
        let base = {
            let r = report(1, 1.0, 1.0);
            // Strip the load section the way a PR3-era report lacks it.
            let head = r.split("  \"load\":").next().unwrap().to_string();
            format!("{}\n}}\n", head.trim_end().trim_end_matches(','))
        };
        let out = check_reports(&report(1, 1.0, 1.0), &base).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn garbage_input_is_an_error_not_a_panic() {
        assert!(check_reports("not json", &report(1, 1.0, 1.0)).is_err());
        assert!(check_reports(&report(1, 1.0, 1.0), "{}").is_err());
    }
}
