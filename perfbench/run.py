#!/usr/bin/env python3
"""Build and run the filter-path benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the jrf library it
links) with CMake into $CARGO_TARGET_DIR, default .bench_build, then runs
the driver binary. Everything the driver prints except its last line is
passed through as a log; the last line printed here is one JSON object
with "correct", "attempted", "failed" and "metrics", where metrics are the
end_to_end (trace 0) or per_layer (trace 1) metrics BENCHMARK.json names.
Build output goes to stderr. Exits non-zero without a result when the
build fails, the driver fails, or a declared metric is missing.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> None:
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, cwd=ROOT)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Unix socket paths are short-lived and must fit sun_path, so they are
    # named relative to the checkout root the driver runs in.
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--socket-dir", os.path.relpath(build_dir, ROOT)]
    if args.trace == "1":
        command += ["--spans", str(build_dir /
                                   f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print(f"perfbench: driver exited {done.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    measured = json.loads(lines[-1])

    metrics = {}
    for m in declared:
        got = measured["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float))
                or not math.isfinite(got["value"])):
            print(f"perfbench: metric {m['name']} missing or malformed: "
                  f"{got}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted = int(measured["attempted"])
    failed = int(measured["failed"])
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
