"""Record the benchmark's results to one JSON file.

Run from the repository root:

    python3 tools/bench_record.py --out BENCH_<n>.json

For every workload in BENCHMARK.json this runs the benchmark command twice,
one run after another, each as its own process: an end-to-end run
(--seconds 40 --trace 0) and a traced per-layer run (--seconds 1 --trace 1).
The file written holds, per run, its arguments, its last output line (the
JSON result), its host calibration (the `host.calib_s start=... end=...`
figures) and, for the end-to-end run, the median host probe, plus the git
commit and whether tracked files had uncommitted changes.

Exit codes: 0 every run correct with no failed job, 1 a run reported
`"correct": false` or failed jobs, or gave no result; the file is written
either way.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys

from gitrev import ROOT, git

SEED = 1  # the order seed of every run, as in the CI smoke step
RUNS = (("end_to_end", ["--seconds", "40", "--trace", "0"]),
        ("per_layer", ["--seconds", "1", "--trace", "1"]))
CALIB = re.compile(r"host\.calib_s start=(\S+) end=(\S+)")
PROBE = re.compile(r"host probe median (\S+) s")


def run_one(command: list, workload: str, extra: list) -> dict:
    """One benchmark run; its result, or an error entry when it gave none."""
    args = ["--workload", workload, "--seed", str(SEED)] + extra
    proc = subprocess.run(command + args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    entry = {"args": args, "exit_code": proc.returncode}
    try:
        entry["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        entry["error"] = (proc.stderr or proc.stdout).strip()[-2000:]
        return entry
    calib = CALIB.search(proc.stdout)
    if calib:
        entry["host_calib_s"] = {"start": float(calib[1]), "end": float(calib[2])}
    probe = PROBE.search(proc.stdout)
    if probe:
        entry["host_probe_median_s"] = float(probe[1])
    return entry


def passed(entry: dict) -> bool:
    result = entry.get("result")
    return (entry["exit_code"] == 0 and result is not None
            and result.get("correct") is True and result.get("failed") == 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write, relative to the root")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"commit": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "command": bench["command"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {}
        for name, extra in RUNS:
            entry = run_one(bench["command"], workload, extra)
            ok = ok and passed(entry)
            runs[name] = entry
            print(f"{workload} {name}: {'ok' if passed(entry) else 'FAILED'}", flush=True)
        record["workloads"][workload] = runs
    (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
