#!/usr/bin/env python3
"""Compare two host-benchmark reports against BENCHMARK.json's bounds.

    python3 hostbench/run.py --workload all --seed 1 --seconds 10 \\
        --trace 0 --report base.json        # on the parent commit
    python3 hostbench/run.py ... --report new.json   # on the change
    python3 hostbench/compare.py base.json new.json

Refuses (exit 3) when the two reports carry different host
fingerprints: CPU count, CPU model, compiler, build type and worker
threads must all match, or no number compares. Otherwise prints, per
workload and end-to-end metric, both values and the change, and exits 1
when any metric got worse by more than its bound, or when the
simulated-statistics digests differ (the two commits simulated
different things). Per-layer metrics are printed without a verdict.
"""
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "jrs-hostbench-v1":
        sys.exit(f"{path}: not a jrs-hostbench-v1 report")
    return report


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if base["fingerprint"] != new["fingerprint"]:
        print("REFUSED: host fingerprints differ; these results do not "
              "compare", file=sys.stderr)
        print(f"  {argv[1]}: {json.dumps(base['fingerprint'])}",
              file=sys.stderr)
        print(f"  {argv[2]}: {json.dumps(new['fingerprint'])}",
              file=sys.stderr)
        return 3
    with open(BENCHMARK) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    base_runs = {r["workload"]: r for r in base["runs"]}
    for run in new["runs"]:
        old = base_runs.get(run["workload"])
        if old is None:
            print(f"{run['workload']}: not in {argv[1]}")
            continue
        if old["sim_digest"] != run["sim_digest"]:
            print(f"{run['workload']}: SIMULATED STATISTICS DIFFER "
                  f"({old['sim_digest']} -> {run['sim_digest']})")
            worse += 1
        for name, m in sorted(run["metrics"].items()):
            if name not in old["metrics"]:
                continue
            a, b = old["metrics"][name]["value"], m["value"]
            change = (b - a) / a if a else 0.0
            verdict = ""
            if name in bounds:
                rule = bounds[name]
                loss = change if rule["better"] == "lower" else -change
                verdict = "WORSE" if loss > rule["bound"] else "ok"
                worse += verdict == "WORSE"
            print(f"{run['workload']:10s} {name:30s} {a:14.6g} -> "
                  f"{b:14.6g} {m['unit']:6s} {change:+7.1%} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
