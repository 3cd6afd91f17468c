#!/usr/bin/env python3
"""Run every workload of the pipeline benchmark in sets; record the ledger.

    python3 bench_pipeline/ledger.py [--workloads tick,vwap,load,serve,interp]
        [--sets 2] [--runs 5] [--trace-runs 1] [--seconds S]
        [--first-seed 1] [--out FILE]

A set runs each workload --runs times with seeds first-seed, first-seed+1,
..., reversing the workload order on every other run. After the sets, each
workload gets --trace-runs traced runs (seed first-seed). For every
workload and end-to-end metric the table shows each set's median, its
spread (distance between the first and third quartile as a share of the
median) and, with two or more sets, how much worse the last set's median is
than the first's; a '!' marks a spread or drift above the metric's bound
from BENCHMARK.json. Tracing overhead is the traced runs' events/s against
the untraced median. --out writes everything, with the git revision and
hardware, as one JSON record. Exits 1 if any run failed.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench_pipeline", "run.py")
BUILD = os.path.join(ROOT, ".bench_build")


def run_once(workload, seed, seconds, trace, expected):
    """One run's result line, marked incorrect unless it reports exactly
    the metric names `expected`."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    if set(result["metrics"]) != set(expected):
        print("%s: metrics differ from BENCHMARK.json: %s" %
              (workload, sorted(set(result["metrics"]) ^ set(expected))),
              file=sys.stderr)
        result["correct"] = False
    result["seed"] = seed
    result["exit_code"] = proc.returncode
    result["wall_s"] = wall_s
    return result


def summarize(runs, names):
    """Median and quartile spread of each metric over `runs`."""
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if not values:
            continue
        median = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median)
        out[name] = {"median": median, "spread": spread, "n": len(values)}
    return out


def worse_by(first, last, better):
    """Share by which `last` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (last - first) / abs(first)
    return change if better == "lower" else -change


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def hardware():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], text=True,
                                 stdout=subprocess.PIPE).stdout
        compiler = version.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "compiler": compiler, "os": platform.platform()}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL).stdout.strip() or \
            "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="tick,vwap,load,serve,interp")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}

    record = {
        "git_sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "hardware": None,
        "settings": {"seconds": seconds, "sets": args.sets,
                     "runs": args.runs, "trace_runs": args.trace_runs,
                     "first_seed": args.first_seed},
        "metrics": {"end_to_end": spec["end_to_end"],
                    "per_layer": spec["per_layer"]},
        "workloads": {w: {"sets": [], "traced": []} for w in workloads},
    }
    ok = True
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else list(reversed(workloads))
            for w in order:
                result = run_once(w, args.first_seed + r, seconds, 0, e2e)
                ok = ok and result["correct"] and result["exit_code"] == 0
                runs[w].append(result)
                print("set %d run %d %-6s correct=%s %.1fs" %
                      (s + 1, r + 1, w, result["correct"], result["wall_s"]),
                      file=sys.stderr)
        for w in workloads:
            record["workloads"][w]["sets"].append(
                {"runs": runs[w], "summary": summarize(runs[w], e2e)})
    for w in workloads:
        for r in range(args.trace_runs):
            result = run_once(w, args.first_seed + r, seconds, 1, per_layer)
            ok = ok and result["correct"] and result["exit_code"] == 0
            record["workloads"][w]["traced"].append(result)
        traced = summarize(record["workloads"][w]["traced"], per_layer)
        record["workloads"][w]["traced_summary"] = traced
        sets = record["workloads"][w]["sets"]
        if sets and "trace.events_per_s" in traced and \
                "events_per_s" in sets[0]["summary"]:
            untraced = statistics.median(
                [st["summary"]["events_per_s"]["median"] for st in sets])
            record["workloads"][w]["tracing_overhead"] = \
                1 - traced["trace.events_per_s"]["median"] / untraced
    record["hardware"] = hardware()

    print("%-7s %-14s %-9s %14s %8s %8s  %s" %
          ("work", "metric", "unit", "median", "spread", "drift", "bound"))
    for w in workloads:
        sets = record["workloads"][w]["sets"]
        for name, m in e2e.items():
            if not sets or name not in sets[0]["summary"]:
                continue
            first = sets[0]["summary"][name]
            last = sets[-1]["summary"][name]
            spread = max(st["summary"][name]["spread"] for st in sets)
            drift = worse_by(first["median"], last["median"], m["better"])
            flag = "!" if spread > m["bound"] or drift > m["bound"] else ""
            print("%-7s %-14s %-9s %14.4f %7.1f%% %7.1f%%  %.0f%% %s" %
                  (w, name, m["unit"], last["median"], 100 * spread,
                   100 * drift, 100 * m["bound"], flag))
        if "tracing_overhead" in record["workloads"][w]:
            print("%-7s tracing overhead %.1f%% of events/s" %
                  (w, 100 * record["workloads"][w]["tracing_overhead"]))
    print("hardware: %s" % json.dumps(record["hardware"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
