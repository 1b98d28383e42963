#!/usr/bin/env python3
"""Compare a paper figure's printed table with its checked-in golden.

    paper_golden.py GOLDEN_DIR NAMES [--json] [--update] -- CMD [ARG...]

Runs CMD and compares its stdout with GOLDEN_DIR/<name>.txt. NAMES is
one name, or several joined by commas: a command that prints several
figures is compared with their goldens concatenated in that order.
Only the timing lines (`sweep: ...`, `sweep cold ...`) are dropped
before the comparison; every other byte must match.

With --json the command also gets `--json FILE`, and the written
jrs-sweep-result-v1 document must carry the points of
GOLDEN_DIR/<name>.json: the same labels in the same order, with the
same trace keys, event counts and metric values. Seconds, wall time and
job count are host facts and are not compared.

--update writes the goldens from this run instead of comparing.
Exit status: 0 on a match, 1 on a mismatch or a failed command.
"""
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

TIMING = re.compile(r"^sweep(:| cold )")


def points(doc):
    """The compared part of a sweep result: one entry per point."""
    return [
        {
            "label": p["label"],
            "trace": p["trace"],
            "events": p["events"],
            "metrics": p["metrics"],
        }
        for p in doc["points"]
    ]


def show_diff(what, want, got):
    sys.stderr.write(f"{what} differs from the golden:\n")
    diff = difflib.unified_diff(
        want.splitlines(True), got.splitlines(True), "golden", "actual"
    )
    sys.stderr.writelines(list(diff)[:80])


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    opts, cmd = argv[:split], argv[split + 1:]
    if len(opts) < 2 or not cmd:
        sys.exit(__doc__)
    golden_dir, names = opts[0], opts[1].split(",")
    flags = set(opts[2:])
    if flags - {"--json", "--update"}:
        sys.exit(__doc__)
    want_json = "--json" in flags
    update = "--update" in flags
    if want_json and len(names) != 1:
        sys.exit("--json compares one grid at a time")

    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "result.json")
        if want_json:
            cmd = cmd + ["--json", json_path]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.stderr.write(f"{' '.join(cmd)}: exit {run.returncode}\n")
            return 1
        got = "".join(
            line for line in run.stdout.splitlines(True)
            if not TIMING.match(line)
        )
        got_points = None
        if want_json:
            with open(json_path) as f:
                got_points = points(json.load(f))

    txt_paths = [os.path.join(golden_dir, n + ".txt") for n in names]
    json_path = os.path.join(golden_dir, names[0] + ".json")
    if update:
        if len(names) != 1:
            sys.exit("--update writes one golden at a time")
        with open(txt_paths[0], "w") as f:
            f.write(got)
        if want_json:
            with open(json_path, "w") as f:
                json.dump(got_points, f, indent=1)
                f.write("\n")
        return 0

    want = ""
    for path in txt_paths:
        with open(path) as f:
            want += f.read()
    ok = True
    if got != want:
        show_diff("stdout", want, got)
        ok = False
    if want_json:
        with open(json_path) as f:
            want_points = json.load(f)
        if got_points != want_points:
            show_diff(
                "sweep JSON points",
                json.dumps(want_points, indent=1),
                json.dumps(got_points, indent=1),
            )
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
