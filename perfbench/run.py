#!/usr/bin/env python3
"""Builds and runs the serving benchmark (perfbench/servebench).

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_nets --seed 1 --seconds 25 --trace 0

The first run configures and builds the program from source into
.bench_build/ (Release); later runs rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. With
--trace 1 the Chrome trace of the run is written to
.bench_build/traces/<workload>-seed<seed>.json.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "servebench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no repository sources next to {bench_dir.name}/ (need CMakeLists.txt and src/)", 2)
    build_dir = root / ".bench_build"
    build(bench_dir, build_dir)

    command = [str(build_dir / "servebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=root)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
