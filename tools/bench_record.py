"""Record the benchmark's results to one JSON file.

Run from the repository root:

    python3 tools/bench_record.py --out BENCH_<n>.json

For every workload in BENCHMARK.json this runs the benchmark command twice,
one run after another, each as its own process: an end-to-end run
(--seconds run_seconds of BENCHMARK.json, --trace 0) and a traced per-layer
run (--seconds 1 --trace 1). Each run goes through tools/bench_pairs.py's
run_once, which decides whether it passed. The file written holds, per run,
its arguments and, for a passing run, its last output line (the JSON
result), its host calibration (the `host.calib_s start=... end=...`
figures) and, for the end-to-end run, the median host probe; a failed run
holds instead run_once's error, which names the exit code, `correct` and
`failed`, or gives the tail of the output. The file also holds the git
commit and whether tracked files had uncommitted changes.

Exit codes: 0 every run passed, 1 a run reported `"correct": false` or
failed jobs, exited nonzero, or gave no result; the file is written either
way.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from bench_pairs import RunFailed, load_benchmark, run_once
from gitrev import ROOT, git

SEED = 1  # the order seed of every run, as in the CI smoke step
CALIB = re.compile(r"host\.calib_s start=(\S+) end=(\S+)")
PROBE = re.compile(r"host probe median (\S+) s")


def run_one(command: list, workload: str, extra: list) -> dict:
    """One benchmark run; its result and host figures, or an error entry when it failed."""
    args = ["--workload", workload, "--seed", str(SEED)] + extra
    try:
        result, output = run_once(command, ROOT, args)
    except RunFailed as exc:
        return {"args": args, "error": str(exc)}
    entry = {"args": args, "result": result}
    calib = CALIB.search(output)
    if calib:
        entry["host_calib_s"] = {"start": float(calib[1]), "end": float(calib[2])}
    probe = PROBE.search(output)
    if probe:
        entry["host_probe_median_s"] = float(probe[1])
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write, relative to the root")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    runs = (("end_to_end", ["--seconds", str(bench["run_seconds"]), "--trace", "0"]),
            ("per_layer", ["--seconds", "1", "--trace", "1"]))
    record = {"commit": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "command": bench["command"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        record["workloads"][workload] = entries = {}
        for name, extra in runs:
            entries[name] = entry = run_one(bench["command"], workload, extra)
            ok = ok and "error" not in entry
            print(f"{workload} {name}: {'FAILED' if 'error' in entry else 'ok'}", flush=True)
    (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
