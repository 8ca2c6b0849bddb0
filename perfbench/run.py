#!/usr/bin/env python3
"""Run one pulpclass benchmark workload.

    python3 perfbench/run.py --workload build-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark package (perfbench/,
which compiles ../src) into $CARGO_TARGET_DIR or .bench_build, runs the
benchmark program (pulpc_perf), checks that every metric it prints is
declared in BENCHMARK.json, and passes its result line through as the
last line of stdout. Exits non-zero when an output check fails, and
without a result line when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full checkout")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pulpc_perf",
                    "-j", "4"], stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "pulpc_perf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    work_dir = os.path.join(build_dir, "perfbench-work", f"run-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--data-dir", HERE, "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    finally:
        # Keep only the span files of traced runs.
        if os.path.isdir(work_dir):
            for name in os.listdir(work_dir):
                if name != "traces":
                    shutil.rmtree(os.path.join(work_dir, name))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no result line (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != wanted:
        fail(f"metrics differ from BENCHMARK.json: printed {sorted(printed)}")
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        print("perfbench: run failed its output checks", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
