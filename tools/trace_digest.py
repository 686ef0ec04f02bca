"""Print a digest of every benchmark pool's solver traces.

Run from the repository root:

    python3 tools/trace_digest.py

For each workload of perfbench/workloads.py this solves every job of its
fixed pool as perfbench does (zoo.generate_instance on the job's spec,
cli.build_solver_config on its solver section, solver.solve from its
start), with BLAS pinned to one thread before numpy is imported. It prints
one line per workload: the count of each status, and the records, snaps
and passes summed over the pool, then a SHA-1 over each job's status and
message and over every record's k, step, theta, direction norm, gap,
snaps, passes, halvings and the bytes of x, objectives and weights.

Two checkouts that print the same lines ran the same iterations to the
last bit. The bits depend on the BLAS build, so compare lines taken on
one host only.

Exit codes: 0 digest printed, 2 moprox source not found.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def digest_pool(mp, np, jobs) -> str:
    """The workload's line: status counts, summed costs and the SHA-1."""
    sha = hashlib.sha1()
    statuses = Counter()
    records = snaps = passes = 0
    for job in jobs:
        problem = mp.zoo.generate_instance(mp.zoo.InstanceSpec(**job.spec_kwargs))
        cfg = mp.cli.build_solver_config({"solver": job.solver_section()},
                                         default_ell=problem.lip_grad)
        trace = mp.solver.solve(problem, cfg, job.x0)
        statuses[trace.status.value] += 1
        records += len(trace.records)
        snaps += trace.snaps
        passes += trace.passes
        sha.update(f"{trace.status.value}|{trace.message}\n".encode())
        for r in trace.records:
            sha.update(repr((r.k, r.step, r.theta, r.direction_norm, r.gap,
                             r.snaps, r.passes, r.halvings)).encode())
            for a in (r.x, r.objectives, r.weights):
                sha.update(np.ascontiguousarray(a, dtype=float).tobytes())
    counts = " ".join(f"{s}={c}" for s, c in sorted(statuses.items()))
    return (f"jobs={len(jobs)} {counts} records={records} snaps={snaps} "
            f"passes={passes} sha1={sha.hexdigest()}")


def main() -> int:
    # pin BLAS before numpy (imported by the modules below) loads it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "moprox" / "__init__.py").is_file():
        print(f"trace_digest: no moprox source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np

    import moprox.cli
    import moprox.solver
    import moprox.zoo
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        print(f"{name}: {digest_pool(moprox, np, workloads.pool(workload))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
