"""Time one benchmark pool, pass by pass, in this process.

Run from the repository root:

    python3 tools/pool_pass.py --workload newton_smooth
    python3 tools/pool_pass.py --workload newton_prox --passes 1

BLAS is pinned to one thread before numpy is imported. The pool of the
workload (perfbench/workloads.py) is built as tools/trace_digest.py builds
it: each job's instance, solver config and start. Then one warm-up pass and
--passes timed passes each solve every job once, in pool order.

It prints one row per (family, n) of the pool and a total: the jobs, the
best and the median seconds per pass, the median minor page faults per
pass, getrusage(RUSAGE_SELF).ru_minflt read around each solve, the trace
records per pass (one per iterate, summed over the jobs' traces; a pass
repeats the same solves, so every pass has as many) and the best seconds
per pass over those records, in microseconds. These are the figures of the
solves alone, without the imports and the set-up that a benchmark run's
whole-process count holds. No figure is checked.

Exit codes: 0 table printed, 2 unknown workload or moprox source not found.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from gitrev import ROOT
from trace_digest import BLAS_THREAD_VARS, workload_runs


def pass_figures(mp, runs, keys, passes: int) -> dict:
    """key -> (seconds, faults, records) per timed pass, summed over that key's jobs.

    runs holds (problem, config, x0) per job and keys its group; one
    untimed warm-up pass runs first.
    """
    figures = defaultdict(lambda: ([0.0] * passes, [0] * passes, [0] * passes))
    for p in range(-1, passes):
        for (problem, cfg, x0), key in zip(runs, keys):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            trace = mp.solver.solve(problem, cfg, x0)
            seconds = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if p >= 0:
                figures[key][0][p] += seconds
                figures[key][1][p] += faults
                figures[key][2][p] += len(trace.records)
    return figures


def format_table(figures: dict, jobs: dict) -> list:
    """The table's lines: a header, one row per key in order, and the total."""
    passes = len(next(iter(figures.values()))[0])
    total = tuple([sum(f[i][p] for f in figures.values()) for p in range(passes)]
                  for i in range(3))
    lines = [f"{'family/n':<16} {'jobs':>5} {'best s/pass':>12} {'median s/pass':>14} "
             f"{'minflt/pass':>12} {'records/pass':>13} {'µs/record':>10}"]
    for key, (seconds, faults, records) in [*figures.items(), ("total", total)]:
        count = sum(jobs.values()) if key == "total" else jobs[key]
        per_pass = statistics.median(records)
        lines.append(f"{key:<16} {count:>5} {min(seconds):>12.4f} "
                     f"{statistics.median(seconds):>14.4f} "
                     f"{statistics.median(faults):>12.0f} {per_pass:>13.0f} "
                     f"{1e6 * min(seconds) / per_pass:>10.1f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--passes", type=int, default=5, help="timed passes (default 5)")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose moprox and pools to time (default: this one)")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be >= 1")
    root = args.root.resolve()
    if not (root / "src" / "moprox" / "__init__.py").is_file():
        print(f"pool_pass: no moprox source under {root / 'src'}", file=sys.stderr)
        return 2
    # pin BLAS before numpy (imported by the modules below) loads it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import moprox.cli
    import moprox.solver
    import moprox.zoo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"pool_pass: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    jobs = workloads.pool(workloads.WORKLOADS[args.workload])
    runs = list(workload_runs(moprox, jobs))
    keys = [f"{job.cell.family}/{job.cell.n}" for job in jobs]
    counts = {key: keys.count(key) for key in dict.fromkeys(keys)}
    print(f"{args.workload}: {len(jobs)} jobs, timed passes {args.passes} after 1 warm-up",
          flush=True)
    figures = pass_figures(moprox, runs, keys, args.passes)
    for line in format_table({key: figures[key] for key in counts}, counts):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
