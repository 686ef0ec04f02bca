"""Print a digest of every benchmark pool's solver traces.

Run from the repository root:

    python3 tools/trace_digest.py
    python3 tools/trace_digest.py --against HEAD~1

For each workload of perfbench/workloads.py this solves every job of its
fixed pool as perfbench does (zoo.generate_instance on the job's spec,
cli.build_solver_config on its solver section, solver.solve from its
start), with BLAS pinned to one thread before numpy is imported
(load_checkout, which tools/pool_pass.py shares). Two last lines solve the
135 cells of the A01 whole-grid acceptance test (a01_runs, which
tests/test_acceptance.py iterates) from the starts PCG64(b + cell index):
a01_grid for b = 1000, 2000, ..., 10000 (1,350 solves) and a01_sweep for
b = 11000, 12000, ..., 60000 (6,750 solves), together the 8,100-run A01
sweep, every one of which ends critical_reached. They cover the dual
loop's rare paths, which the pools seldom take: faces whose Newton system
is singular (m > n + 1) and supergradient steps.
It prints one line per pool: the count of each status, the records, snaps
and passes summed over the pool, how many critical_reached jobs stopped by
each kind of stop (stop_kind: eps, dual_bound or precision_limit), then a
SHA-1 over each job's status and message and over every record's k, step,
theta, direction norm, gap, snaps, passes, halvings and the bytes of x,
objectives and weights, and a values_sha1 over the same without the snaps
and passes.

Two checkouts that print the same lines ran the same iterations to the
last bit. Two whose lines differ but whose values_sha1 agree reached the
same iterates, steps, gaps and weights at other costs, as a change that
only removes work does. The bits depend on the BLAS build, so compare
lines taken on one host only. --against REV does that comparison: it
checks REV out by `git worktree add` into a temporary directory, removed
at exit, digests that checkout and this one, each in its own process, and
prints per workload both lines and `same`, `DIFFERS` or, when only the
costs differ, `DIFFERS (values_sha1 same)`. --root DIR digests the
checkout at DIR in place of this one.

Exit codes: 0 digest printed (with --against: every line the same), 1 a
line differs, 2 moprox source not found, a digest run failed, or git
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from gitrev import ROOT, checkout

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def load_checkout(root: Path, tool: str):
    """(moprox, numpy, workloads) imported from the checkout at root, or None.

    BLAS is pinned to one thread before numpy loads, and root's src and
    perfbench go first on sys.path. When root holds no moprox source it
    prints so on stderr, prefixed by the tool's name, and returns None.
    """
    if not (root / "src" / "moprox" / "__init__.py").is_file():
        print(f"{tool}: no moprox source under {root / 'src'}", file=sys.stderr)
        return None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np

    import moprox.cli  # the package imports its solver and zoo
    import workloads

    return moprox, np, workloads


def workload_runs(mp, jobs):
    """(problem, config, x0) of each job of a workload pool, as perfbench builds them."""
    for job in jobs:
        problem = mp.zoo.generate_instance(mp.zoo.InstanceSpec(**job.spec_kwargs))
        yield problem, mp.cli.build_solver_config({"solver": job.solver_section()},
                                                  default_ell=problem.lip_grad), job.x0


def a01_runs(mp, np, bases=range(1000, 10001, 1000)):
    """(problem, config, x0) of the A01 whole-grid cells, from one start per base.

    The 135 cells are zero, l1 and box terms x m in {2, 3, 4, 5, 8} x n in
    {2, 10, 50} x cond in {1, 1e2, 1e4}, cell i seeded i, and each starts
    from PCG64(b + i) for each base b; the bases default to a01_grid's.
    test_a01_whole_grid_one_step_termination solves them from base 1000.
    """
    cfg = mp.solver.SolverConfig(eps=1e-9, tol_gap=1e-12)
    cells = []
    for kind, family in (("zero", "quadratic"), ("l1", "quadratic_l1"),
                         ("box", "quadratic_box")):
        for m in (2, 3, 4, 5, 8):
            for n in (2, 10, 50):
                for cond in (1.0, 1e2, 1e4):
                    spec = mp.zoo.InstanceSpec(family=family, n=n, m=m, cond=cond,
                                               rho=0.1 if kind == "l1" else 0.0,
                                               seed=len(cells))
                    cells.append((kind, spec, mp.zoo.generate_instance(spec)))
    for base in bases:
        for index, (kind, spec, problem) in enumerate(cells):
            rng = np.random.Generator(np.random.PCG64(base + index))
            x0 = (rng.uniform(spec.lo, spec.hi, spec.n) if kind == "box"
                  else 2.0 * rng.standard_normal(spec.n))
            yield problem, cfg, x0


# the trace message that begins with each prefix names the stop; a
# critical_reached trace with no message stopped at ||d|| < eps
STOP_PREFIXES = (("dual_bound", "certified critical by the dual bound"),
                 ("precision_limit", "stopped at the precision limit"))
STOP_KINDS = ("eps", *(kind for kind, _ in STOP_PREFIXES))


def stop_kind(trace) -> str:
    """How a critical_reached trace stopped, one of STOP_KINDS, read from its message."""
    return next((kind for kind, prefix in STOP_PREFIXES
                 if trace.message.startswith(prefix)), "eps")


def digest_pool(mp, np, runs) -> str:
    """The pool's line: status counts, summed costs, stop kinds and the two SHA-1s.

    runs yields (problem, config, x0) for each solve.
    """
    sha, values = hashlib.sha1(), hashlib.sha1()
    statuses, stops = Counter(), Counter()
    jobs = records = snaps = passes = 0
    for problem, cfg, x0 in runs:
        trace = mp.solver.solve(problem, cfg, x0)
        jobs += 1
        statuses[trace.status.value] += 1
        if trace.status is mp.solver.Status.CRITICAL_REACHED:
            stops[stop_kind(trace)] += 1
        records += len(trace.records)
        snaps += trace.snaps
        passes += trace.passes
        head = f"{trace.status.value}|{trace.message}\n".encode()
        sha.update(head)
        values.update(head)
        for r in trace.records:
            sha.update(repr((r.k, r.step, r.theta, r.direction_norm, r.gap,
                             r.snaps, r.passes, r.halvings)).encode())
            values.update(repr((r.k, r.step, r.theta, r.direction_norm, r.gap,
                                r.halvings)).encode())
            for a in (r.x, r.objectives, r.weights):
                raw = np.ascontiguousarray(a, dtype=float).tobytes()
                sha.update(raw)
                values.update(raw)
    counts = " ".join(f"{s}={c}" for s, c in sorted(statuses.items()))
    kinds = " ".join(f"stop_{kind}={stops[kind]}" for kind in STOP_KINDS)
    return (f"jobs={jobs} {counts} records={records} snaps={snaps} "
            f"passes={passes} {kinds} sha1={sha.hexdigest()} "
            f"values_sha1={values.hexdigest()}")


def digest(root: Path) -> int:
    """Print the digest lines of the checkout at root."""
    loaded = load_checkout(root, "trace_digest")
    if loaded is None:
        return 2
    moprox, np, workloads = loaded
    for name, workload in workloads.WORKLOADS.items():
        runs = workload_runs(moprox, workloads.pool(workload))
        print(f"{name}: {digest_pool(moprox, np, runs)}", flush=True)
    print(f"a01_grid: {digest_pool(moprox, np, a01_runs(moprox, np))}", flush=True)
    sweep = a01_runs(moprox, np, range(11000, 60001, 1000))
    print(f"a01_sweep: {digest_pool(moprox, np, sweep)}", flush=True)
    return 0


def parse_lines(text: str) -> dict:
    """Workload name -> its digest line, from the output of a digest run."""
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _values_sha1(line: str):
    """The values_sha1 field of a digest line, or None when it has none."""
    return next((f for f in line.split() if f.startswith("values_sha1=")), None)


def compare(against: dict, here: dict, label: str) -> tuple:
    """(lines, exit code) comparing two parse_lines maps, workload by workload.

    label names the against side. A workload that one side lacks differs;
    lines that differ with equal values_sha1 say so.
    """
    lines, differs = [], False
    for name in [*against, *(k for k in here if k not in against)]:
        a, h = against.get(name, "(none)"), here.get(name, "(none)")
        differs |= a != h
        verdict = "same" if a == h else "DIFFERS"
        if a != h and _values_sha1(a) is not None and _values_sha1(a) == _values_sha1(h):
            verdict += " (values_sha1 same)"
        lines += [f"{name} @{label}: {a}", f"{name} @checkout: {h}", f"{name}: {verdict}"]
    return lines, 1 if differs else 0


def _run_digest(root: Path) -> str:
    """The digest lines of the checkout at root, from a fresh process."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--root",
                           str(root)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"digest of {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def against(rev: str) -> int:
    """Digest REV, checked out in a temporary worktree, and this checkout; compare."""
    try:
        with checkout(rev) as (full, other):
            texts = [_run_digest(other), _run_digest(ROOT)]
    except subprocess.CalledProcessError as exc:
        print(f"trace_digest: git: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"trace_digest: {exc}", file=sys.stderr)
        return 2
    lines, code = compare(*map(parse_lines, texts), label=full[:12])
    print("\n".join(lines))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV",
                    help="git revision to digest beside this checkout and compare")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout to digest (default: this one)")
    args = ap.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    return digest(args.root.resolve())


if __name__ == "__main__":
    sys.exit(main())
