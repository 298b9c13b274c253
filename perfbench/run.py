#!/usr/bin/env python3
"""Build and run the layered Recoil benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload decode_fleet --seed 1 --seconds 10 --trace 0

Builds `perfbench` (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
runs the workload, keeps the full result file and, for traced runs, the
Chrome trace under <build root>/results/, and prints as the last line of
standard output one JSON object: correct, attempted, failed and metrics.
Untraced runs report the end_to_end metrics of BENCHMARK.json, traced runs
its per_layer metrics. Exits nonzero when the build fails, when an output is
not bit-exact, or when the result lacks a metric BENCHMARK.json names.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("decode_fleet", "hot_serve", "loopback_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    exe = build_dir / "perfbench"
    return exe if exe.exists() else None


def load_spec():
    for path in (Path.cwd() / "BENCHMARK.json", BENCH_DIR.parent / "BENCHMARK.json"):
        if path.exists():
            return json.loads(path.read_text())
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if spec is None:
        log("BENCHMARK.json not found")
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    exe = build(build_root)
    if exe is None:
        log("build failed")
        return 2

    results = build_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = results / f"{stem}.json"
    trace_out = results / f"{stem}.trace.json"
    work = build_root / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--workdir", str(work)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        sys.stdout.flush()
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not out.exists():
        log(f"{args.workload} wrote no result (exit code {code})")
        return code or 1

    result = json.loads(out.read_text())
    section, wanted = (("per_layer", spec["per_layer"]) if args.trace
                       else ("end_to_end", spec["end_to_end"]))
    measured = result[section]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            log(f"result lacks {section} metric {m['name']}")
            return 1
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} differs from BENCHMARK.json {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    line = {"correct": bool(result["correct"]) and code == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
