#!/usr/bin/env python3
"""Repository benchmark: serve_ingest, serve_query, experiment_fig4, cluster_rw.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

It builds the `perfbench` measuring program (this directory's own Cargo
package) and the `cgte` binary from source into $CARGO_TARGET_DIR
(default `.bench_build`), generates the workload's inputs from --seed,
measures for --seconds, checks the program's outputs, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Details (sample counts behind every
percentile, environment, shapes) go to stderr and to
$CARGO_TARGET_DIR/perfbench-data/results/. --self-test runs every workload
in both modes at toy scale and checks names, units and output checks.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_ingest", "serve_query", "experiment_fig4", "cluster_rw")
# Scheduler threads of `cgte run` (at most the 2 cores the benchmark targets).
FIG4_THREADS = 2
# Longest any child process may run before it is killed.
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(target):
    """Builds both binaries; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "cgte-cli", "--bin", "cgte"],
    )
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(target, "release", "perfbench"), os.path.join(target, "release", "cgte")


def run_child(cmd):
    """Runs a child to completion (killed after CHILD_TIMEOUT_S); returns stdout."""
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                       timeout=CHILD_TIMEOUT_S, text=True)
    if r.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd[:3]), r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % " ".join(cmd[:3]))
    return json.loads(lines[-1])


def percentile(values, q):
    """Percentile interpolated between the two nearest ranks, as the Rust
    side computes it."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def cgte_run(cgte, store, toy, scratch):
    """One `cgte run --builtin fig4` against a warm store: wall time, peak
    RSS (from wait4), stdout digest, per-job times and cache counters."""
    cmd = [cgte, "run", "--builtin", "fig4", "--threads", str(FIG4_THREADS), "--cache-dir", store]
    if toy:
        cmd.append("--quick")
    out_path = os.path.join(scratch, "fig4.stdout")
    err_path = os.path.join(scratch, "fig4.stderr")
    with open(out_path, "wb") as so, open(err_path, "wb") as se:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=so, stderr=se)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, rusage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    with open(err_path) as f:
        err = f.read()
    jobs = [(kind, int(ms)) for kind, ms in
            re.findall(r"^\[\d+/\d+\] (build|run)/\S+ \((\d+) ms", err, re.M)]
    cache = re.search(r"run complete: cache: builds=(\d+) loads=(\d+)", err)
    return {
        "exit": p.returncode,
        "wall_s": wall,
        "rss_mb": rusage.ru_maxrss / 1024.0,
        "digest": digest,
        "jobs": jobs,
        "builds": int(cache.group(1)) if cache else -1,
        "loads": int(cache.group(2)) if cache else -1,
    }


def fig4_failures(run, want_digest):
    """Failed operations of one `cgte run`: exit status, a store build in a
    warm run, and a stdout that differs from the committed digest."""
    problems = []
    if run["exit"] != 0:
        problems.append("cgte run exited with %d" % run["exit"])
    if run["builds"] != 0:
        problems.append("warm run built %d graph(s)" % run["builds"])
    if run["digest"] != want_digest:
        problems.append("stdout digest %s != committed %s" % (run["digest"], want_digest))
    return problems


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            cpu = m.group(1).strip() if m else cpu
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def experiment_fig4(args, bench, cgte, data, toy):
    scale = "toy" if toy else "full"
    with open(os.path.join(HERE, "fig4-%s.sha256" % scale)) as f:
        want = f.read().split()[0]
    scratch = os.path.join(data, "fig4")
    os.makedirs(scratch, exist_ok=True)
    if args.trace:
        return fig4_traced(bench, cgte, data, toy, scratch, want)

    # Set-up: cold store fills; the last one is the warm store timed runs use.
    fills = []
    for rep in range(2 if toy else 3):
        store = os.path.join(scratch, "store")
        shutil.rmtree(store, ignore_errors=True)
        fills.append(run_child([bench, "fig4-fill", "--cache-dir", store, "--scale", scale,
                                "--threads", str(FIG4_THREADS)]))
    fill = fills[-1]
    runs = []
    deadline = time.perf_counter() + args.seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(cgte_run(cgte, store, toy, scratch))

    problems = [p for r in runs for p in fig4_failures(r, want)]
    for p in problems:
        log("perfbench: check failed: " + p)
    run_jobs = [[ms for kind, ms in r["jobs"] if kind == "run"] for r in runs]
    job_ms = [ms for jobs in run_jobs for ms in jobs]
    walls = [r["wall_s"] for r in runs]
    wall_ms = [w * 1e3 for w in walls]
    metrics = {
        "setup_s": statistics.median(f["fill_s"] for f in fills),
        "samples_per_s": fill["samples"] * len(runs) / sum(walls),
        "requests_per_s": fill["jobs"] * len(runs) / sum(walls),
        # A run's ingest latency is its mean experiment-job time: the
        # twelve jobs differ up to 15x in size, so their median jumps
        # between jobs as the two scheduler workers pair them differently.
        "ingest_p50_ms": statistics.median(statistics.mean(jobs) for jobs in run_jobs),
        "estimate_p50_ms": percentile(wall_ms, 0.5),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }
    details = {
        "runs": len(runs),
        "run_s": walls,
        "job_ms": {"p50": percentile(job_ms, 0.5), "p99": percentile(job_ms, 0.99),
                   "n": len(job_ms)},
        "setup_s_all": [f["fill_s"] for f in fills],
        "fill_builds": [f["builds"] for f in fills],
        "samples_per_run": fill["samples"],
        "jobs_per_run": fill["jobs"],
        "threads": FIG4_THREADS,
        "problems": problems,
    }
    # Every fill must build each graph of the plan exactly once.
    bad_fill = sum(1 for f in fills if f["builds"] != f["jobs"] - f["experiment_jobs"])
    attempted = len(runs) * fill["jobs"] + len(fills)
    return (not problems and not bad_fill), attempted, len(problems) + bad_fill, metrics, details


def fig4_traced(bench, cgte, data, toy, scratch, want):
    store = os.path.join(scratch, "trace-store")
    shutil.rmtree(store, ignore_errors=True)
    rep = run_child([bench, "fig4-replay", "--cache-dir", store, "--scale",
                     "toy" if toy else "full", "--threads", str(FIG4_THREADS), "--data", data])
    run = cgte_run(cgte, store, toy, scratch)
    problems = fig4_failures(run, want)
    for p in problems:
        log("perfbench: check failed: " + p)
    all_ms = sum(ms for _, ms in run["jobs"])
    exp_ms = sum(ms for kind, ms in run["jobs"] if kind == "run")
    metrics = dict(rep["metrics"])
    metrics["scenarios.engine.busy_share"] = all_ms / (run["wall_s"] * 1e3 * FIG4_THREADS)
    metrics["trace.layer_share"] = rep["covered_ms"] / exp_ms if exp_ms else 0.0
    metrics["trace.overhead_share"] = rep["replay_s"] / run["wall_s"] - 1.0
    metrics["trace.samples_per_s"] = rep["samples"] / rep["replay_s"]
    details = {
        "untraced_run_s": run["wall_s"],
        "traced_replay_s": rep["replay_s"],
        "job_ms_total": all_ms,
        "trace_file": rep["trace_file"],
        "self_ms": rep["self_ms"],
        "threads": FIG4_THREADS,
        "problems": problems,
    }
    return not problems, len(run["jobs"]) + 1, len(problems), metrics, details


def measure(args, bench, cgte, spec):
    """Runs one workload; returns the result object."""
    toy = args.scale == "toy"
    data = os.path.join(target_dir(), "perfbench-data")
    os.makedirs(data, exist_ok=True)
    if args.workload == "experiment_fig4":
        correct, attempted, failed, values, details = experiment_fig4(args, bench, cgte, data, toy)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        details["environment"] = environment()
        log("perfbench: details " + json.dumps(details))
        os.makedirs(os.path.join(data, "results"), exist_ok=True)
        result = {"correct": correct, "attempted": max(1, attempted), "failed": failed,
                  "metrics": metrics}
        path = os.path.join(data, "results", "experiment_fig4-%s-%d-trace%d.json"
                            % (args.scale, args.seed, args.trace))
        with open(path, "w") as f:
            json.dump({"result": result, "details": details}, f)
        return result
    run_child([bench, "prepare", "--scale", args.scale, "--data", data])
    return run_child([bench, "run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--scale", args.scale, "--data", data])


def validate(result, spec, trace):
    """The result must carry exactly the BENCHMARK.json metrics, with their units."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if sorted(got) != sorted(m["name"] for m in wanted):
        raise BenchError("metric names differ from BENCHMARK.json: %s"
                         % sorted(set(got) ^ {m["name"] for m in wanted}))
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            raise BenchError("unit of %s is %s, BENCHMARK.json says %s"
                             % (m["name"], got[m["name"]]["unit"], m["unit"]))
        if not isinstance(got[m["name"]]["value"], (int, float)):
            raise BenchError("value of %s is not a number" % m["name"])


def self_test(bench, cgte, spec):
    """Every workload in both modes at toy scale."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1.0, trace=trace,
                                      scale="toy")
            t0 = time.perf_counter()
            result = measure(args, bench, cgte, spec)
            validate(result, spec, trace)
            passed = result["correct"] and result["failed"] == 0
            ok &= passed
            log("self-test %-16s trace=%d %s (%d attempted, %.1f s)" % (
                workload, trace, "ok" if passed else "FAILED", result["attempted"],
                time.perf_counter() - t0))
    print(json.dumps({"self_test": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        spec = load_spec()
        bench, cgte = build(target_dir())
        if args.self_test:
            return self_test(bench, cgte, spec)
        result = measure(args, bench, cgte, spec)
        validate(result, spec, args.trace)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
