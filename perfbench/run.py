#!/usr/bin/env python3
"""End-to-end benchmark of the Figure-8 pipeline (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload fig8_local --seed 1 --seconds 10 --trace 0

builds the benchmark from the repository's sources into .bench_build/ (first
run only), runs the workload, and prints check notes followed by one JSON
line as the last line of standard output.

Other modes:
    --selftest   reference-evaluator self-test, plus a run whose output has one
                 detection dropped, which must fail
    --compare    two sets of runs of the same code; reports per workload and
                 end-to-end metric whether the two medians agree, in either
                 direction, within the bounds of BENCHMARK.json, and each
                 set's quartile spread
                 (--runs N per set, --workloads a,b, --seconds S)
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds once; later calls are a no-op make check."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the repository sources (src/) are not here; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return False
    rc = subprocess.call(
        ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
         "perfbench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr)
    return rc == 0


def run_once(workload, seed, seconds, trace, inject=None, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    run_dir = os.path.join(RUNS, "%d-%s-%d" % (os.getpid(), workload, seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--dir", run_dir]
    if inject:
        cmd += ["--inject", inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170,
                              universal_newlines=True)
        out, rc = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:
        out, rc = e.stdout or "", 124
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if echo:
        for line in lines:
            print(line)
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return rc, result


def selftest():
    ok = subprocess.call([os.path.join(BUILD, "perfbench_selftest")]) == 0
    rc, result = run_once("cep_local", 1, 2, False, inject="drop_detection",
                          echo=False)
    dropped_fails = rc != 0 and result is not None and result["correct"] is False
    print("%s: a run with one detection dropped exits non-zero (rc=%d)"
          % ("ok  " if dropped_fails else "FAIL", rc))
    rc, result = run_once("cep_local", 1, 2, False, echo=False)
    clean_passes = rc == 0 and result is not None and result["correct"] is True
    print("%s: the same run unmodified passes (rc=%d)"
          % ("ok  " if clean_passes else "FAIL", rc))
    return 0 if ok and dropped_fails and clean_passes else 1


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    agree = True
    for workload in workloads:
        # The two sets alternate run by run, so a slow stretch of the machine
        # lands in both instead of biasing one.
        sets = [{m["name"]: [] for m in metrics} for _ in range(2)]
        for i in range(args.runs):
            for which in range(2):
                rc, result = run_once(workload, 100 * which + i + 1, seconds,
                                      False, echo=False)
                if rc != 0 or result is None:
                    print("%s set %d run %d failed (rc=%d)" % (workload, which, i, rc))
                    return 1
                for m in metrics:
                    sets[which][m["name"]].append(result["metrics"][m["name"]]["value"])
        print("== %s (%d runs per set, %ds)" % (workload, args.runs, seconds))
        for m in metrics:
            a, b = sets[0][m["name"]], sets[1][m["name"]]
            ma, mb = statistics.median(a), statistics.median(b)
            # Two sets of the same code agree only if their medians are close
            # in both directions; a better second set is a disagreement too.
            differ = abs(mb - ma) / ma
            within = differ <= m["bound"]
            # Each set's spread must stay within the bound too; setup_s is
            # one cold set-up per run, and only its median is compared.
            sa, sb = quartile_spread(a), quartile_spread(b)
            steady = m["name"] == "setup_s" or max(sa, sb) <= m["bound"]
            agree = agree and within and steady
            print("  %-14s median %12.4f -> %12.4f  differ by %5.1f%% (bound %4.1f%%) "
                  "%s  spread %5.1f%% / %5.1f%%%s"
                  % (m["name"], ma, mb, 100 * differ, 100 * m["bound"],
                     "agree" if within else "DISAGREE", 100 * sa, 100 * sb,
                     "" if steady else "  SPREAD OVER BOUND"))
    return 0 if agree else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    if not build():
        return 2
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(args)
    if not args.workload or args.seconds < 1:
        parser.error("--workload and --seconds are required")
    rc, result = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None and rc == 0:
        rc = 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
