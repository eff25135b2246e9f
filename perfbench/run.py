#!/usr/bin/env python3
"""The mcloud benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds the
repository in Release under .bench_build/ (perfbench/CMakeLists.txt); later
runs rebuild incrementally. Scratch files, per-run result files and span
files go under .bench_out/; nothing is read or written outside the tree.

Workloads (perfbench/NOTES.md says why each exists and what it predicts):

  batch-resident  mcloudctl generate ... OUT.v2, then mcloudctl analyze OUT.v2
  grow-bounded    mcloudctl grow --max-memory-mb 64 DIR (two-phase)
  fleet-faults    mcloudctl simulate --fail-rate 0.01 --loss-burst 0.01
  live-replay     mcloudload --spawn mcloudd --connections 3 over a
                  pre-generated trace, open loop at 40000 req/s (above
                  capacity); the traced run adds 10000 req/s for latency

Every iteration of a run takes a different input derived from --seed (the
first one is --seed itself), so one run averages over several inputs; the
same seed always gives the same inputs.

--trace 0 times untraced child processes of the real commands and reports
the end-to-end metrics. --trace 1 runs each input once untraced and once
through perfbench_trace, which calls the same library functions inside
spans, and reports the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"

THREADS = 4
BATCH_USERS = 10000          # mobile users; PC-only users are a third more
GROW_BUDGET_MB = 64          # the smallest budget mcloudctl grow accepts
# Mobile-only: PC-only users' multi-GB uploads make the simulated work of
# one population vary tenfold from seed to seed.
FLEET_POPULATION = ["--users", "400", "--pc", "0"]
FLEET_FAULTS = ["--fail-rate", "0.01", "--loss-burst", "0.01"]
# A fixed-length time prefix of a mobile-only population. With chunk bodies
# capped at 16 KiB its PUT bytes stay well under mcloudd's 256 MiB body
# store, so GETs are served from the chunk index.
LIVE_USERS = 1000
LIVE_REQUESTS = 20000
LIVE_CONNECTIONS = 3
LIVE_CHUNK_KB = 16
LIVE_OVERLOAD_QPS = 40000    # over twice what one mcloudd loop serves
LIVE_LATENCY_QPS = 10000     # about half of that capacity
CHILD_TIMEOUT_S = 150

# Outputs pinned for the first input of --seed 42 at the sizes above. A
# change to any of them is a change of library output, not of speed.
GOLDEN_SEED = 42
GOLDEN = {
    "trace_fingerprint": "4ecb0c7318acd221",
    "findings_md5": "d88bfa58ad20c262b7c7e7490621a262",
    "fleet_report_md5": "0174cda3dc186a0693fdff8177d5b0c5",
}

# Input sizes vary from seed to seed, so peak RSS is scaled linearly to one
# nominal input: trace records (batch, grow), chunk attempts (fleet), MB of
# PUT bodies, which mcloudd keeps in memory (live).
NOMINAL_SIZE = {
    "batch-resident": 4_000_000,
    "grow-bounded": 4_000_000,
    "fleet-faults": 1_000_000,
    "live-replay": 100,
}


class BenchError(Exception):
    """Set-up failure: the run cannot produce a result at all."""


# --------------------------------------------------------------------------
# Child processes

class Child:
    def __init__(self, code, wall, rss_mb, out, err):
        self.code, self.wall, self.rss_mb = code, wall, rss_mb
        self.out, self.err = out, err


def _become_subreaper():
    """Orphaned grandchildren (an mcloudd whose mcloudload died) are
    re-parented to this process, so they can be killed and reaped."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_child(argv, out_path, timeout=CHILD_TIMEOUT_S):
    """Run argv to completion in its own process group. Wall time is taken
    around fork/exec/wait; peak RSS comes from wait4, and is the largest of
    the child and every descendant it waited for (mcloudd under
    mcloudload)."""
    out_path = Path(out_path)
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=CHILD_ENV,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


def find_int(pattern, text):
    m = re.search(pattern, text)
    return int(m.group(1)) if m else None


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def tree_bytes(path):
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def sub_seed(seed, i):
    return seed if i == 0 else (seed * 1_000_003 + i) % (1 << 63)


# --------------------------------------------------------------------------
# Build and provenance

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not an mcloud source tree "
                         "(no CMakeLists.txt or src/)")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "wb") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(THREADS),
                      "--target", "mcloudctl", "mcloudd", "mcloudload",
                      "perfbench_trace"])
        for step in steps:
            r = subprocess.run([str(a) for a in step], stdout=log,
                               stderr=subprocess.STDOUT, cwd=ROOT,
                               stdin=subprocess.DEVNULL, timeout=850)
            if r.returncode != 0:
                tail = log_path.read_text(errors="replace")[-3000:]
                raise BenchError(f"build failed ({step[:2]}):\n{tail}")
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    build_type = find_str(r"CMAKE_BUILD_TYPE:\w+=(\S*)", cache)
    if build_type != "Release":
        raise BenchError(f"build type is {build_type!r}, not Release: "
                         f"remove {BUILD} and rerun")
    return build_type


def find_float(pattern, text):
    m = re.search(pattern, text)
    return float(m.group(1)) if m else None


def find_str(pattern, text):
    m = re.search(pattern, text)
    return m.group(1) if m else None


def provenance(build_type):
    describe = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            describe = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file()
            and "__pycache__" not in p.parts)
        for p in files:
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "threads": THREADS,
            "git_describe": describe,
            "source_sha256": digest.hexdigest()[:16],
            "build_type": build_type}


# --------------------------------------------------------------------------
# One workload run

class Run:
    """Accumulates operations, failures and output checks for one run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.work = OUT / "work" / workload
        self.attempted = 0
        self.failed = 0
        self.checks = []
        # Outputs of the first input, compared in final_checks.
        self.findings = ""
        self.fingerprint = None
        self.fleet_report = ""
        self.live_trace = None

    def op(self, ok, what, count=1, failed=None):
        """Count `count` operations; `failed` of them failed (all of them
        when ok is false and no number is given)."""
        self.attempted += count
        bad = failed if failed is not None else (0 if ok else count)
        self.failed += bad
        if bad:
            self.checks.append({"check": what, "ok": False,
                                "detail": f"{bad} of {count} failed"})

    def check(self, ok, what, detail=""):
        """An output check: one attempted operation, failed on mismatch."""
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"check": what, "ok": bool(ok),
                            "detail": str(detail)})

    def prepare(self, i):
        d = self.work / f"input{i}"
        d.mkdir(parents=True)
        return d


def ctl():
    return BUILD / "mcloud" / "tools" / "mcloudctl"


def generate_and_analyze(run, d, seed):
    g = run_child([ctl(), "generate", "--users", BATCH_USERS, "--threads",
                   THREADS, "--seed", seed, d / "trace.v2"], d / "gen.out")
    a = run_child([ctl(), "analyze", d / "trace.v2", "--threads", THREADS],
                  d / "analyze.out")
    records = find_int(r"wrote (\d+) records", g.err) or 0
    run.op(g.code == 0 and records > 0, f"generate seed {seed}")
    run.op(a.code == 0 and a.out != "", f"analyze seed {seed}")
    fp = find_str(r"trace fingerprint: ([0-9a-f]+)", g.err)
    disk = tree_bytes(d / "trace.v2") if records else 0
    return g, a, records, fp, disk


def grow(run, d, seed):
    c = run_child([ctl(), "grow", "--users", BATCH_USERS, "--threads",
                   THREADS, "--seed", seed, "--max-memory-mb",
                   GROW_BUDGET_MB, d / "parts"], d / "grow.out")
    records = find_int(r"wrote (\d+) records", c.err) or 0
    run.op(c.code == 0 and records > 0, f"grow seed {seed}")
    return c, records


def simulate(run, d, seed):
    c = run_child([ctl(), "simulate", *FLEET_FAULTS, *FLEET_POPULATION,
                   "--threads", THREADS, "--seed", seed], d / "simulate.out")
    attempts = find_int(r"\((\d+) attempts /", c.out) or 0
    delivered = find_int(r"/ (\d+) delivered", c.out) or 0
    ok = (c.code == 0 and attempts >= delivered > 0
          and "success by device" in c.out)
    run.op(ok, f"simulate seed {seed}")
    return c, attempts


def live_input(d, seed):
    path = d / "live.bin"
    c = run_child([BUILD / "perfbench_trace", "live-input", "--users",
                   LIVE_USERS, "--seed", seed, "--threads", THREADS,
                   "--requests", LIVE_REQUESTS, "--out", path],
                  d / "liveinput.out")
    if c.code != 0:
        raise BenchError(f"live input generation failed: {c.err[-500:]}")
    return path


def mcloudload(run, d, trace, qps, tag):
    tools = BUILD / "mcloud" / "tools"
    report_path = d / f"load-{tag}.json"
    c = run_child([tools / "mcloudload", "--trace", trace, "--spawn",
                   tools / "mcloudd", "--connections", LIVE_CONNECTIONS,
                   "--max-chunk-kb", LIVE_CHUNK_KB, "--qps", qps,
                   "--server-log", d / f"server-{tag}.bin",
                   "--json", report_path], d / f"load-{tag}.out")
    requests = find_int(r"(\d+) requests \(", c.out) or 0
    report = json.loads(report_path.read_text()) if report_path.is_file() else {}
    ok = report.get("ok", 0)
    failed = max(requests - ok, 0) + report.get("verify_failures", 0)
    if c.code != 0 or "live log check ok" not in c.out or requests == 0:
        failed = max(requests, 1)
    run.op(failed == 0, f"mcloudload {tag} at {qps} req/s",
           count=max(requests, 1), failed=failed)
    return {"child": c, "req_s": report.get("achieved_qps", 0),
            "p50_ms": report.get("latency_p50_s", 0) * 1e3,
            "p99_ms": report.get("latency_p99_s", 0) * 1e3,
            "upload_mb": find_float(r"([\d.]+) MB to upload", c.out) or 0,
            "samples": ok}


# Untraced iterations. Each returns the iteration's end-to-end figures plus
# the command breakdown the traced mode reports; "size" is the input size
# that peak RSS is scaled by.

def set_up(run, i):
    """An iteration's set-up: a fresh directory and one start of mcloudctl,
    which pages the binary in."""
    t0 = time.perf_counter()
    d = run.prepare(i)
    run_child([ctl(), "help"], d / "warm.out")
    return sub_seed(run.seed, i), d, time.perf_counter() - t0


def iter_batch_resident(run, i):
    seed, d, setup = set_up(run, i)
    g, a, records, fp, disk = generate_and_analyze(run, d, seed)
    if i == 0:
        run.findings = a.out
        run.fingerprint = fp
    return {"setup_s": setup, "throughput": records / (g.wall + a.wall),
            "cmd.peak_rss_mb": max(g.rss_mb, a.rss_mb), "size": records,
            "cmd.generate_s": g.wall, "cmd.analyze_s": a.wall,
            "untraced_s": g.wall + a.wall,
            "trace.bytes_per_record": disk / max(records, 1)}


def iter_grow_bounded(run, i):
    seed, d, setup = set_up(run, i)
    c, records = grow(run, d, seed)
    if i == 0:
        run.findings = c.out
    return {"setup_s": setup, "throughput": records / c.wall,
            "cmd.peak_rss_mb": c.rss_mb, "size": records,
            "cmd.grow_s": c.wall, "untraced_s": c.wall,
            "rss_over_budget": c.rss_mb / GROW_BUDGET_MB,
            "trace.bytes_per_record":
                tree_bytes(d / "parts") / max(records, 1)}


def iter_fleet_faults(run, i):
    seed, d, setup = set_up(run, i)
    c, attempts = simulate(run, d, seed)
    if i == 0:
        run.fleet_report = c.out
    return {"setup_s": setup, "throughput": attempts / c.wall,
            "cmd.peak_rss_mb": c.rss_mb, "size": attempts,
            "cmd.simulate_s": c.wall, "untraced_s": c.wall}


def iter_live_replay(run, i, latency=False):
    t0 = time.perf_counter()
    d = run.prepare(i)
    trace = run.live_trace = live_input(d, sub_seed(run.seed, i))
    setup = time.perf_counter() - t0
    over = mcloudload(run, d, trace, LIVE_OVERLOAD_QPS, "overload")
    row = {"setup_s": setup, "throughput": over["req_s"],
           "cmd.peak_rss_mb": over["child"].rss_mb, "size": over["upload_mb"],
           "live.req_s": over["req_s"], "untraced_s": over["child"].wall}
    if latency:
        lat = mcloudload(run, d, trace, LIVE_LATENCY_QPS, "latency")
        row.update({"live.p50_ms": lat["p50_ms"], "live.p99_ms": lat["p99_ms"],
                    "live.latency_samples": lat["samples"],
                    "untraced_s": row["untraced_s"] + lat["child"].wall})
    return row


ITERATIONS = {
    "batch-resident": iter_batch_resident,
    "grow-bounded": iter_grow_bounded,
    "fleet-faults": iter_fleet_faults,
    "live-replay": iter_live_replay,
}


# --------------------------------------------------------------------------
# Traced pass

def traced(run, i, threads=THREADS):
    seed = sub_seed(run.seed, i)
    d = run.work / f"traced{i}-{threads}t"
    d.mkdir(parents=True, exist_ok=True)
    spans = OUT / "spans" / f"{run.workload}-seed{run.seed}-input{i}-{threads}t.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    argv = [BUILD / "perfbench_trace", run.workload, "--seed", seed,
            "--threads", threads, "--dir", d, "--spans", spans]
    argv += {
        "batch-resident": ["--users", BATCH_USERS],
        "grow-bounded": ["--users", BATCH_USERS,
                         "--max-memory-mb", GROW_BUDGET_MB],
        "fleet-faults": [*FLEET_POPULATION, *FLEET_FAULTS],
        "live-replay": ["--trace", run.live_trace, "--connections",
                        LIVE_CONNECTIONS, "--max-chunk-kb", LIVE_CHUNK_KB,
                        "--qps", f"{LIVE_OVERLOAD_QPS},{LIVE_LATENCY_QPS}"],
    }[run.workload]
    c = run_child(argv, d / "traced.out")
    lines = c.out.strip().splitlines()
    metrics = json.loads(lines[-1]) if c.code == 0 and lines else {}
    run.op(c.code == 0 and metrics.get("build.ndebug") == 1,
           f"traced pass seed {seed} at {threads} threads")
    if run.workload == "live-replay" and metrics:
        requests = int(metrics.get("live.requests", 0))
        run.op(True, "traced replay", count=max(requests, 1),
               failed=int(metrics.get("live.failures", 1)))
    metrics["traced.child_s"] = c.wall
    return metrics


def trace_iteration(run, i):
    row = ITERATIONS[run.workload](run, i, **(
        {"latency": True} if run.workload == "live-replay" else {}))
    layers = traced(run, i)
    # The untraced run measured the trace's size on disk already.
    layers.pop("trace.bytes_per_record", None)
    row.update(layers)
    row["unattributed_s"] = row["untraced_s"] - layers.get(
        "traced.top_level_s", 0)
    row["tracing_overhead"] = layers.get("traced.child_s", 0) / row[
        "untraced_s"]
    if run.workload == "batch-resident":
        one = traced(run, i, threads=1)
        if layers.get("workload.generate_s") and layers.get("analysis.run_s"):
            row["workload.speedup_4t"] = (one.get("workload.generate_s", 0)
                                          / layers["workload.generate_s"])
            row["analysis.speedup_4t"] = (one.get("analysis.run_s", 0)
                                          / layers["analysis.run_s"])
    return row


# --------------------------------------------------------------------------
# Output checks that need the whole run

def final_checks(run):
    d = run.work / "check"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    golden = run.seed == GOLDEN_SEED
    if run.workload == "batch-resident":
        # The out-of-core path must print the same findings, byte for byte.
        c, _ = grow(run, d, run.seed)
        run.check(c.out == run.findings and run.findings,
                  "resident findings == grow findings",
                  md5(run.findings))
        if golden:
            run.check(run.fingerprint == GOLDEN["trace_fingerprint"],
                      "golden trace fingerprint", run.fingerprint)
            run.check(md5(run.findings) == GOLDEN["findings_md5"],
                      "golden findings", md5(run.findings))
    elif run.workload == "grow-bounded":
        _, a, _, _, _ = generate_and_analyze(run, d, run.seed)
        run.check(a.out == run.findings and run.findings,
                  "grow findings == resident findings", md5(run.findings))
        if golden:
            run.check(md5(run.findings) == GOLDEN["findings_md5"],
                      "golden findings", md5(run.findings))
    elif run.workload == "fleet-faults" and golden:
        run.check(md5(run.fleet_report) == GOLDEN["fleet_report_md5"],
                  "golden availability report", md5(run.fleet_report))
    shutil.rmtree(run.work, ignore_errors=True)


def metric_units(trace):
    """name -> unit of the metrics a run reports, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, units):
    run = Run(workload, seed)
    rows = []
    t0 = time.perf_counter()
    while not rows or time.perf_counter() - t0 < seconds:
        i = len(rows)
        row = (trace_iteration(run, i) if trace
               else ITERATIONS[workload](run, i))
        row["peak_rss_mb_scaled"] = (row["cmd.peak_rss_mb"]
                                     * NOMINAL_SIZE[workload]
                                     / max(row["size"], 1))
        rows.append(row)
        # Outside every timed span: the next set-up starts from an empty
        # directory whatever this input left behind, and with no writeback
        # of this input's files still pending.
        shutil.rmtree(run.work, ignore_errors=True)
        os.sync()
    final_checks(run)
    metrics = {}
    for name, unit in units.items():
        values = [r[name] for r in rows if name in r]
        metrics[name] = {"value": statistics.median(values) if values else 0,
                         "unit": unit}
    result = {"correct": run.failed == 0 and all(c["ok"] for c in run.checks),
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return result, {"iterations": rows, "checks": run.checks}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*ITERATIONS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    try:
        units = metric_units(args.trace)
        build_type = build()
        OUT.mkdir(exist_ok=True)
        (OUT / "tmp").mkdir(exist_ok=True)
        prov = provenance(build_type)
        print(json.dumps({"provenance": prov}), flush=True)
        workloads = list(ITERATIONS) if args.workload == "all" else [
            args.workload]
        results = {}
        for w in workloads:
            result, detail = run_workload(w, args.seed, args.seconds,
                                          args.trace, units)
            results[w] = result
            record = OUT / "results" / (
                f"{w}-seed{args.seed}-trace{args.trace}.json")
            record.parent.mkdir(exist_ok=True)
            record.write_text(json.dumps(
                {"workload": w, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "provenance": prov, **result,
                 **detail}, indent=1))
            if len(workloads) > 1:
                print(json.dumps({"workload": w, **result}), flush=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


CHILD_ENV = dict(os.environ, TMPDIR=str(OUT / "tmp"))

if __name__ == "__main__":
    _become_subreaper()
    sys.exit(main())
