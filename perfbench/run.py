#!/usr/bin/env python3
"""The sbg benchmark: one command for every workload in BENCHMARK.json.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S
                             [--trace 0|1]

Builds perfbench/ (and with it the sbg library, from the repository root)
into .bench_build/, runs the workload as a fresh process with a fixed op
count in its own temp dir, checks its outputs and prints every metric by
name and unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the named workload, measured
with tracing off; "all" runs every workload in turn and prefixes each
metric with its workload. --trace 1 is the per-layer profile: every
workload runs once more with spans on, each in its own fresh process, and
every per-layer metric is reported (the layers of all workloads, whichever
is named). The exit code is non-zero when any output check failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sbg_perfbench")
MAX_THREADS = 4  # OpenMP threads and client connections

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
sys.path.insert(0, HERE)
import stats  # noqa: E402


def _terminate(signum, _frame):
    # Unwind instead of dying at once, so the running workload process is
    # killed and waited for and its temp dir is removed.
    raise SystemExit(128 + signum)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the benchmark program; build output goes to
    stderr so that stdout stays the benchmark's own."""
    jobs = str(min(MAX_THREADS, os.cpu_count() or 1))
    tmp = os.path.join(BUILD, "tmp")  # the compiler's temp files
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "sbg_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))


def isolated_env(tmp):
    """The caller's environment minus every SBG_*/OMP_* knob, with all of
    the library's on-disk state (ingest cache, tune store, ooc spills,
    temp files) pointed into this run's own directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SBG_", "OMP_", "GOMP_"))}
    env.update(SBG_CACHE_DIR=tmp, SBG_TUNE_PATH=os.path.join(tmp, "tune.json"),
               SBG_OOC_DIR=tmp, TMPDIR=tmp)
    return env


def documented_params(workload):
    """The numeric parameters perfbench/workloads.json records for a
    workload: its "common" entries merged with its own "parameters"."""
    with open(os.path.join(HERE, "workloads.json")) as f:
        doc = json.load(f)
    return dict(doc["common"], **doc["workloads"][workload]["parameters"])


def run_workload(workload, seed, seconds, trace, threads, timeout):
    tmp = tempfile.mkdtemp(prefix="run-%s-" % workload, dir=BUILD)
    try:
        out = os.path.join(tmp, "raw.json")
        cmd = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--threads", str(threads), "--tmp-dir", tmp, "--out", out]
        proc = subprocess.run(cmd, env=isolated_env(tmp), stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError("%s exited with %d" % (workload,
                                                      proc.returncode))
        with open(out) as f:
            raw = json.load(f)
        problems = stats.check_params(raw["params"],
                                      documented_params(workload))
        if problems:
            raise RuntimeError("%s: %s" % (workload, "; ".join(problems)))
        return raw
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def show(workload, metrics):
    for name, (value, unit) in metrics.items():
        print("%-12s %-34s %14.6g %s" % (workload, name, value, unit))


def main():
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads + ["all"]:
        log("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(workloads)))
        return 2
    if args.seconds < 1 or args.seed < 0:
        log("--seconds must be >= 1 and --seed >= 0")
        return 2

    try:
        build()
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 1

    threads = min(MAX_THREADS, os.cpu_count() or 1)
    started = time.monotonic()
    try:
        if args.trace:
            # The traced workloads run one after another and share the
            # run's time limit (building is not counted).
            raws = {}
            for w in workloads:
                left = 170 - (time.monotonic() - started)
                raws[w] = run_workload(w, args.seed, args.seconds, True,
                                       threads, max(left, 1))
            results = [("layers", stats.per_layer(raws), spec["per_layer"])]
        else:
            raws, results = {}, []
            for w in workloads if args.workload == "all" else [args.workload]:
                raws[w] = run_workload(w, args.seed, args.seconds, False,
                                       threads, 170)
                results.append((w, stats.end_to_end(raws[w]),
                                spec["end_to_end"]))
    except (OSError, RuntimeError, subprocess.TimeoutExpired,
            ValueError, KeyError, ZeroDivisionError) as e:
        log("run failed: %s" % e)
        return 1

    problems = [p for _, metrics, wanted in results
                for p in stats.check_against_spec(metrics, wanted)]
    for p in problems:
        log(p)
    if problems:
        return 1

    attempted = sum(r["attempted"] for r in raws.values())
    failed = sum(r["failed"] for r in raws.values())
    for w, r in raws.items():
        for e in r["errors"]:
            log("%s: %s" % (w, e))
        show(w, stats.workload_detail(r))
    for label, m, _ in results:
        show(label, m)
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {label + "/" + name: v
                   for label, m, _ in results for name, v in m.items()}
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
