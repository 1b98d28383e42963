#!/usr/bin/env python3
"""Tiny-size self-check of the host benchmark.

    python3 hostbench/selfcheck.py

Builds the benchmark, then for every workload in BENCHMARK.json runs it
at tinyArg for one second and asserts that:
  - the last line is the result object, correct, with exactly the
    end-to-end metrics (--trace 0) or per-layer metrics (--trace 1),
    each in the unit BENCHMARK.json gives;
  - the report prints every metric with its unit and sample count, and
    the host fingerprint;
  - a traced run writes Chrome trace JSON whose spans carry a task id
    and a parent;
  - an injected output mismatch fails the run (non-zero exit,
    "correct": false);
  - sweep_cold and replay of one seed simulate identical statistics.
Exits 1 on the first failed assertion. Takes a few minutes.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = "3"


def bench(*args):
    cmd = [str(run.BINARY), "--seed", SEED, "--seconds", "1",
           "--tiny"] + list(args)
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, lines, result, p.stderr


def check(cond, what):
    if not cond:
        print(f"selfcheck FAILED: {what}")
        sys.exit(1)


def check_metrics(workload, lines, result, spec):
    names = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    check(set(got) == set(names),
          f"{workload}: metrics {sorted(got)} != {sorted(names)}")
    for name, unit in names.items():
        check(got[name]["unit"] == unit,
              f"{workload} {name}: unit {got[name]['unit']} != {unit}")
        check(isinstance(got[name]["value"], (int, float)),
              f"{workload} {name}: value is not a number")
        pattern = re.compile(rf"^  {workload} {re.escape(name)} = \S+ "
                             rf"{re.escape(unit)}  \[.*\b(of|over) \d+")
        check(any(pattern.match(line) for line in lines),
              f"{workload} {name}: no report line with unit and count")


def main():
    check(run.build(), "build failed")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    digests = {}
    for w in (x["name"] for x in spec["workloads"]):
        code, lines, result, err = bench("--workload", w, "--trace", "0")
        check(code == 0 and result and result["correct"],
              f"{w}: plain run failed (exit {code}) {err[-500:]}")
        check(result["attempted"] >= 1 and result["failed"] == 0,
              f"{w}: attempted/failed wrong")
        check(any(line.startswith("hostbench fingerprint {") and
                  all(k in line for k in ("nproc", "cpu_model",
                                          "compiler", "build_type"))
                  for line in lines), f"{w}: no host fingerprint")
        check_metrics(w, lines, result, spec["end_to_end"])
        digests[w] = next(line.split()[-1] for line in lines
                          if line.startswith(f"  {w} sim_digest "))

        trace = run.BUILD / f"selfcheck-{w}.json"
        code, lines, result, err = bench("--workload", w, "--trace", "1",
                                         "--trace-out", str(trace))
        check(code == 0 and result and result["correct"],
              f"{w}: traced run failed (exit {code}) {err[-500:]}")
        check_metrics(w, lines, result, spec["per_layer"])
        events = json.loads(trace.read_text())["traceEvents"]
        ours = [e for e in events if e.get("cat") == "hostbench"]
        check(ours and all("task" in e["args"] and "parent" in e["args"]
                           for e in ours),
              f"{w}: trace spans lack task/parent")

        code, lines, result, _ = bench("--workload", w, "--trace", "0",
                                       "--inject-mismatch")
        check(code != 0 and result and not result["correct"]
              and result["failed"] >= 1
              and any("MISMATCH" in line for line in lines),
              f"{w}: injected mismatch did not fail the run")
        print(f"selfcheck {w}: ok")
    check(digests["sweep_cold"] == digests["replay"],
          "sweep_cold and replay simulated different statistics")
    print("selfcheck: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
