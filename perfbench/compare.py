#!/usr/bin/env python3
"""Compare two sets of perfbench result files.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by perfbench/run.py (by default
under .bench_build/results/), one per workload, seed and trace flag; copy a
run's results aside before measuring the other commit. For every workload and
end-to-end metric of BENCHMARK.json the tool prints each side's median and
quartiles over its untraced runs and a verdict:

  better / worse  the medians differ by more than the metric's bound
  unchanged       they differ by no more than the bound
  unresolved      either side's quartile spread, as a share of its median,
                  is wider than the bound, unless every run of one side beats
                  every run of the other

It then prints the median of every per-layer metric over the traced runs of
each side and the change between them.
"""

import json
import statistics
import sys
from pathlib import Path


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        r = json.loads(path.read_text())
        if "workload" not in r:
            continue
        traced = r.get("host", {}).get("trace") == "1"
        runs.setdefault((r["workload"], traced), []).append(r)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def values(runs, section, name):
    return [r[section][name]["value"] for r in runs
            if name in r.get(section, {}) and r[section][name]["value"] is not None]


def verdict(base, new, bound, higher_better):
    bm, bq1, bq3 = summary(base)
    nm, nq1, nq3 = summary(new)
    sign = 1 if higher_better else -1
    change = sign * (nm - bm) / bm if bm else 0.0
    spread = max((bq3 - bq1) / bm if bm else 0.0, (nq3 - nq1) / nm if nm else 0.0)
    if spread > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return change, "better"
        if max(sign * v for v in new) < min(sign * v for v in base):
            return change, "worse"
        return change, "unresolved"
    if change > bound:
        return change, "better"
    if change < -bound:
        return change, "worse"
    return change, "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    base, new = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'workload':13} {'metric':18} {'unit':6} {'base median [q1, q3] n':>36}"
          f" {'new median [q1, q3] n':>36} {'change':>8}  verdict")
    for w in workloads:
        b_runs, n_runs = base.get((w, False), []), new.get((w, False), [])
        for m in spec["end_to_end"]:
            bv = values(b_runs, "end_to_end", m["name"])
            nv = values(n_runs, "end_to_end", m["name"])
            if not bv or not nv:
                print(f"{w:13} {m['name']:18} {m['unit']:6} {'(no runs on one side)':>36}")
                continue
            change, v = verdict(bv, nv, m["bound"], m["better"] == "higher")
            bs, ns = summary(bv), summary(nv)
            fmt = "{:.5g} [{:.5g}, {:.5g}] n={}"
            print(f"{w:13} {m['name']:18} {m['unit']:6} {fmt.format(*bs, len(bv)):>36}"
                  f" {fmt.format(*ns, len(nv)):>36} {100 * change:+7.2f}%  {v}"
                  f" (bound {100 * m['bound']:.0f}%)")

    print(f"\nper-layer medians over traced runs (change is new / base - 1)")
    for w in workloads:
        b_runs, n_runs = base.get((w, True), []), new.get((w, True), [])
        if not b_runs or not n_runs:
            print(f"{w}: no traced runs on one side")
            continue
        print(f"{w} ({len(b_runs)} base, {len(n_runs)} new traced runs)")
        for m in spec["per_layer"]:
            bv = values(b_runs, "per_layer", m["name"])
            nv = values(n_runs, "per_layer", m["name"])
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            delta = f"{100 * (nm / bm - 1):+8.2f}%" if bm else "     n/a"
            print(f"  {m['name']:32} {m['unit']:6} {bm:14.6g} {nm:14.6g} {delta}"
                  f"  ({m['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
