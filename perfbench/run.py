#!/usr/bin/env python3
"""Build and run the fpopt benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --rate-rps 1200 --p99-limit-ms 50 \
        --workload exact_fp3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/. The measuring program prints its result; this script
checks that the metric names and units are exactly the ones BENCHMARK.json
declares for the run's kind (end_to_end for --trace 0, per_layer for
--trace 1) and prints the result as the last line of stdout. Raw samples of
every run are kept in .bench_build/samples/.

--selftest builds, runs the program's own checks (replay guard, bimodality
guard), then every workload in reduced-size smoke mode, traced and
untraced, and checks every metric named in BENCHMARK.json is emitted with
its unit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "cmake")
BINARY = os.path.join(BUILD, "fpbench")
SAMPLES = os.path.join(".bench_build", "samples")
WORKLOADS = ("exact_fp3", "bounded_fp4", "service_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build fpbench (a no-op when up to date); output goes
    to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "fpbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_fpbench(args_list):
    """Run fpbench; return its parsed result line or None."""
    os.makedirs(SAMPLES, exist_ok=True)
    try:
        proc = subprocess.run([BINARY] + args_list + ["--samples-dir", SAMPLES],
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"fpbench exited with {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("fpbench printed no result line")
        return None


def metric_problems(result, trace):
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"undeclared metric {n}" for n in got if n not in want]
    problems += [f"{n}: unit {got[n]!r}, declared {u!r}" for n, u in want.items()
                 if n in got and got[n] != u]
    return problems


def selftest(passthrough):
    failures = 0
    if subprocess.run([BINARY, "--selftest"], stderr=sys.stderr).returncode != 0:
        failures += 1
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_fpbench(["--workload", workload, "--seed", "1", "--seconds", "3",
                                 "--trace", str(trace), "--smoke"] + passthrough)
            problems = ["no result"] if result is None else metric_problems(result, trace)
            if result is not None and not result["correct"]:
                problems.append("checks failed")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            log(f"selftest: smoke {workload} trace={trace}: {status}")
            failures += bool(problems)
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate-rps", type=float,
                        help="service_mixed: offered load of the fixed-rate phase")
    parser.add_argument("--p99-limit-ms", type=float,
                        help="service_mixed: latency limit of the rate ladder")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.selftest:
        return selftest(["--rate-rps", "1000", "--p99-limit-ms", "50"])
    if args.workload is None:
        parser.error("--workload is required")
    if args.rate_rps is None or args.p99_limit_ms is None:
        parser.error("--rate-rps and --p99-limit-ms are required (BENCHMARK.json sets them)")
    passthrough = ["--rate-rps", repr(args.rate_rps), "--p99-limit-ms", repr(args.p99_limit_ms)]
    result = run_fpbench(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", repr(args.seconds), "--trace", str(args.trace)]
                        + passthrough)
    if result is None:
        return 1
    problems = metric_problems(result, args.trace)
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
