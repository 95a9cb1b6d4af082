#!/usr/bin/env python3
"""Map-production benchmark: builds the benchmark binary from the checkout's sources
and runs one workload, or (--smoke) checks the whole benchmark quickly.

    python3 mapbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0
    python3 mapbench/run.py --smoke

The last line of standard output is the result JSON; build output and
diagnostics go to standard error. Everything the benchmark writes lives
under .bench_build/ at the root of the checkout.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mapbench")
BINARY = os.path.join(BUILD, "mapbench")
WORKLOADS = ("paper_grid", "explore_cached", "sharded_tiles")
RUN_LIMIT_S = 170  # a run must end within 180 s
BUILD_JOBS = "4"
# Compiler and benchmark temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def log(msg):
    print("mapbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; serialized across concurrent runs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no repository sources next to the benchmark (src/ missing)")
        return False
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV, check=False).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return os.access(BINARY, os.X_OK)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(args, limit_s):
    """Runs the benchmark binary in its own process group; kills the group on timeout.
    Returns (exit code, stdout)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, env=ENV,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark binary exceeded %.0f s; killed" % limit_s)
        return 1, ""
    return proc.returncode, out


def run_workload(workload, seed, seconds, trace, smoke, limit_s):
    """One benchmark run. Returns the parsed result and the stdout lines, or
    None when the binary failed or its result breaks the output contract."""
    work = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work-dir", work]
    if trace:
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    if smoke:
        args.append("--smoke")
    try:
        code, out = run_binary(args, limit_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("benchmark binary failed (exit %d)" % code)
        return None, lines
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("its last output line is not JSON")
        return None, lines
    want = expected_metrics(trace)
    got = result.get("metrics", {})
    bad = [n for n, u in want.items() if got.get(n, {}).get("unit") != u]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or bad:
        log("result breaks the output contract: %s" % (bad or sorted(result)))
        return None, lines
    return result, lines


def smoke():
    """A few requests per workload, traced and untraced: every named metric
    printed with its unit, no failed request, the layer calls accounting
    for the serial paper_grid replay, and the seeded cells.rmc reproducible
    byte for byte."""
    ok = True

    def check(cond, what):
        nonlocal ok
        ok = ok and cond
        print("%s  %s" % ("PASS" if cond else "FAIL", what), flush=True)

    with open(os.path.join(HERE, "ledger.json")) as f:
        ledger = json.load(f)
    layer_names = set(expected_metrics(True))
    check(set(ledger["per_layer"]) == layer_names,
          "ledger.json maps every per_layer metric to its end-to-end metric")
    check(sorted(ledger["workloads"]) == sorted(WORKLOADS),
          "ledger.json records every workload")
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = run_workload(workload, 7, 1, trace, True, RUN_LIMIT_S)
            label = "%s trace=%d" % (workload, trace)
            check(result is not None, label + ": every metric with its unit")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0,
                  label + ": correct, failed_share 0 (%d/%d)"
                  % (result["failed"], result["attempted"]))
            if trace and workload == "paper_grid":
                m = result["metrics"]
                gap = m["ledger.unattributed_share"]["value"]
                check(gap <= 0.05,
                      label + ": layers account for the replayed request "
                      "within 5%% (%.2f%% unattributed)" % (100 * gap))
                # One untraced and one traced request, back to back: host
                # noise alone can move this by a few percent, so the smoke
                # test reports it and the full traced run is the check.
                print("INFO  %s: layer self times vs core.request_s: %.2f%% "
                      "apart" % (label, 100 * m["ledger.addup_error"]["value"]),
                      flush=True)
    files = []
    for i in range(2):
        work = os.path.join(BUILD, "work", "seedcache-%d-%d" % (os.getpid(), i))
        path = os.path.join(BUILD, "work", "cells-%d-%d.rmc" % (os.getpid(), i))
        code, _ = run_binary(["--emit-seed-cache", path, "--seed", "7",
                              "--work-dir", work], RUN_LIMIT_S)
        shutil.rmtree(work, ignore_errors=True)
        files.append(path if code == 0 and os.path.isfile(path) else None)
    same = None not in files
    if same:
        with open(files[0], "rb") as a, open(files[1], "rb") as b:
            same = a.read() == b.read()
    for path in files:
        if path:
            os.remove(path)
    check(same, "seeded cells.rmc is byte-identical across generations")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")
    start = time.monotonic()
    if not build():
        return 2
    if a.smoke:
        return 0 if smoke() else 1
    # The first run in a checkout also builds; the run itself still gets at
    # least a minute.
    limit = max(RUN_LIMIT_S - (time.monotonic() - start), 60)
    result, lines = run_workload(a.workload, a.seed, a.seconds, a.trace == 1,
                                 False, limit)
    if result is None:
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
