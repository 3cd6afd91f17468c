#!/usr/bin/env python3
"""Build and run one workload of the pipeline benchmark.

    python3 bench_pipeline/run.py --workload tick|vwap|load|serve|interp \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first call configures a Release build
of bench_pipeline/ in .bench_build/ and builds the benchmark binary (about
a minute on 4 cores); later calls only bring it up to date. Build output
goes to stderr, so the binary's report, whose last line is the JSON result,
is all that reaches stdout. The exit code is the binary's: 0 only when every
operation and output check succeeded.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "bench_pipeline")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_pipeline")


def build():
    """Configure (once) and build the binary; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "bench_pipeline", "-j", jobs],
        stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tick", "vwap", "load", "serve", "interp"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("bench_pipeline: build failed", file=sys.stderr)
        return 1
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    scratch = os.path.join(BUILD, "scratch", "%s-%d" % (args.workload,
                                                         os.getpid()))
    # A terminated runner stops the binary too and waits for it to end.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = subprocess.Popen([
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join(results, args.workload),
        "--scratch", scratch])
    try:
        return bench.wait()
    finally:
        if bench.poll() is None:
            bench.terminate()
            bench.wait()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
