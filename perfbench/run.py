"""Solve benchmark for moprox: time to a Pareto-critical point.

Run from the repository root:

    python3 perfbench/run.py --workload newton_prox --seed 1 --seconds 40 --trace 0

Each job mirrors `moprox solve`: zoo.generate_instance builds the instance,
solver.solve runs from the job's start, cli.write_trace_csv writes the
trace. One client runs one job at a time in this process (a closed loop),
with BLAS pinned to one thread before numpy is imported. The job pool is
fixed per workload (workloads.py); --seed sets the order in which it is
solved. Whole passes over the pool run while the next one is predicted to
fit in --seconds; at least one always runs. Every job's output is checked
from outside the solver (checks.py). End-to-end times are host-adjusted
wall times (see PROBE_REF_S); the raw figures are printed beside them.

--trace 0 prints the end-to-end metrics. --trace 1 runs the first half of
the pool's replicas twice per job, untraced and then traced, and prints
the per-layer metrics; spans are written to .perfbench/ at exit. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A job counts as failed there when the program raised or its output failed
a check; a job that honestly stops short of criticality is unsolved and
counts in fail_frac and against solved_per_s instead.

Exit codes: 0 result printed, 2 usage error or moprox source not found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10
# The host this benchmark was tuned on, a 2-core 2.0 GHz Xeon VM shared with
# other tenants, changes speed by up to 1.8x for seconds to minutes at a
# time. Every job and set-up is therefore bracketed by two probes
# (HostProbe), and its end-to-end time is its wall time scaled by
# PROBE_REF_S over the mean of the two: seconds on a host where the probe
# takes PROBE_REF_S, its median there. Raw wall times are printed beside.
# Over 7 runs of the same pool this cut the interquartile spread of summed
# job time from 18-22% of the median to 5-6%.
PROBE_REF_S = 0.0136
MIN_JOB_S = 0.1
MAX_REPEATS = 15
MIN_SETUP_S = 0.5
SETUP_REPEATS = (3, 15)


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def import_moprox():
    """Import moprox from this checkout's src/, or None when it is absent."""
    src = ROOT / "src"
    if not (src / "moprox" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import moprox.cli
    import moprox.problems
    import moprox.solver
    import moprox.subproblem
    import moprox.zoo

    return moprox


class HostProbe:
    """Times a fixed run of the benchmark's own simplex solver (checks.py).

    Like the solver's dual loop it makes small numpy calls from a Python
    loop, but it runs no moprox code, so no change to the program moves it.
    Each reading is the median of three timings, which keeps one disturbed
    timing from rescaling a whole job.
    """

    def __init__(self, np, checks):
        rng = np.random.Generator(np.random.PCG64(5))
        self._args = (rng.standard_normal((3, 10)),
                      types.SimpleNamespace(spec_kwargs={"family": "quadratic_l1",
                                                         "rho": 0.1}),
                      rng.standard_normal(10), [np.full(3, 1.0 / 3.0)])
        self._solve = checks.criticality_residual
        self._once()  # warm-up, not kept
        self.last = self.read()
        self.seconds = [self.last]

    def _once(self) -> float:
        t0 = time.perf_counter()
        self._solve(*self._args)
        return time.perf_counter() - t0

    def read(self) -> float:
        return statistics.median(self._once() for _ in range(3))

    def adjust(self, fn):
        """Run fn, then read the probe; return (result, scale to PROBE_REF_S).

        The reading taken after one timed interval serves as the one before
        the next: the host's speed changes over seconds, not milliseconds.
        """
        result = fn()
        before, self.last = self.last, self.read()
        self.seconds.append(self.last)
        return result, PROBE_REF_S / (0.5 * (before + self.last))

    def calibrate(self) -> float:
        return statistics.median(self._once() for _ in range(7))


class Runner:
    """Runs and checks jobs; keeps the per-job outcomes."""

    def __init__(self, mp, checks, host):
        self.mp = mp
        self.checks = checks
        self.host = host
        self.job_s = []  # host-adjusted, see PROBE_REF_S
        self.raw_s = []
        self.solved = 0
        self.wrong = []
        self.unsolved = []

    def generate(self, job):
        # looked up on the module so that a traced run sees the hook
        return self.mp.zoo.generate_instance(self.mp.zoo.InstanceSpec(**job.spec_kwargs))

    def set_up(self, jobs):
        """Generate every instance of the pool; returns (problems, raw s, adjusted s)."""
        def generate_all():
            t0 = time.perf_counter()
            problems = [self.generate(job) for job in jobs]
            return problems, time.perf_counter() - t0

        (problems, seconds), scale = self.host.adjust(generate_all)
        return problems, seconds, seconds * scale

    def solve(self, job, problem, csv_path):
        """Solve and write the CSV, timed together; returns (trace, seconds)."""
        cfg = self.mp.cli.build_solver_config({"solver": job.solver_section()},
                                              default_ell=problem.lip_grad)
        t0 = time.perf_counter()
        trace = self.mp.solver.solve(problem, cfg, job.x0)
        self.mp.cli.write_trace_csv(csv_path, trace, problem.m, problem.n)
        return trace, time.perf_counter() - t0

    def run(self, job, problem, csv_path):
        """Solve, check and record one job; returns its trace, or None if it raised.

        A job that finishes in under MIN_JOB_S is solved again, up to
        MAX_REPEATS times in all, and its time is the median of those
        solves: single timings of jobs of a few ms swing with the host's
        speed. Every repeat must write the same CSV bytes.
        """
        def solve_repeated():
            trace, seconds = self.solve(job, problem, csv_path)
            first = csv_path.read_bytes()
            runs = [seconds]
            same = True
            while sum(runs) < MIN_JOB_S and len(runs) < MAX_REPEATS:
                runs.append(self.solve(job, problem, csv_path)[1])
                same = same and csv_path.read_bytes() == first
            return trace, statistics.median(runs), same

        try:
            (trace, seconds, same), scale = self.host.adjust(solve_repeated)
        except Exception as exc:  # a raise is a wrong output; keep measuring
            self.job_s.append(float("nan"))
            self.raw_s.append(float("nan"))
            self.wrong.append(f"{job.label}: raised {type(exc).__name__}: {exc}")
            return None
        table = self.mp.cli.read_trace_csv(csv_path)
        critical = self.mp.solver.Status.CRITICAL_REACHED
        wrong = self.checks.check_job(job, problem, trace, table, critical)
        if not same:
            wrong.append("a repeated solve wrote a different CSV")
        self.raw_s.append(seconds)
        self.job_s.append(seconds * scale)
        if wrong:
            self.wrong.append(f"{job.label}: {'; '.join(wrong)}")
        elif trace.status is critical:
            self.solved += 1
        else:
            self.unsolved.append(f"{job.label}: {trace.status.value}")
        return trace

    @property
    def attempted(self) -> int:
        return len(self.job_s)

    def fail_frac(self) -> float:
        return 1.0 - self.solved / self.attempted


def hd_quantile(np, values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics. Job times cluster with wide gaps between clusters, and
    a single order statistic jumps across a gap when two jobs swap ranks."""
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_untraced(args, np, jobs, runner):
    """Set up, then solve whole passes over the pool; returns end-to-end metrics."""
    # set up the whole pool again and again, at least SETUP_REPEATS[0] times
    # and for MIN_SETUP_S, and report the median
    setup_raw, setup_adjusted = [], []
    while len(setup_raw) < SETUP_REPEATS[0] or (
            sum(setup_raw) < MIN_SETUP_S and len(setup_raw) < SETUP_REPEATS[1]):
        problems, raw, adjusted = runner.set_up(jobs)
        setup_raw.append(raw)
        setup_adjusted.append(adjusted)

    csv_path = OUT_DIR / "trace.csv"
    rng = np.random.Generator(np.random.PCG64(args.seed))
    started = time.perf_counter()
    pass_s = []
    while not pass_s or (time.perf_counter() - started
                         + statistics.mean(pass_s) <= args.seconds):
        t0 = time.perf_counter()
        for i in rng.permutation(len(jobs)):
            runner.run(jobs[i], problems[i], csv_path)
        pass_s.append(time.perf_counter() - t0)

    # the tail is the highest percentile with TAIL_BEYOND jobs of one pass
    # beyond it; fixing it by the pool size keeps extra passes on a faster
    # program from moving it
    times = [t for t in runner.job_s if math.isfinite(t)]
    raw = [t for t in runner.raw_s if math.isfinite(t)]
    pct = 100.0 * (len(jobs) - TAIL_BEYOND) / len(jobs)
    tail_value = hd_quantile(np, times, pct / 100.0)
    p50 = hd_quantile(np, times, 0.5)
    solved_per_s = runner.solved / sum(times)
    setup_s = statistics.median(setup_adjusted)
    print(f"solved_per_s={solved_per_s:.6g} 1/s ({runner.solved} solved / "
          f"{sum(times):.4g} job s) | solve_s_p50={p50:.6g} s (n={len(times)}) | "
          f"solve_s_tail={tail_value:.6g} s (p{pct:.4g}, n={len(times)}) | "
          f"fail_frac={runner.fail_frac():.4g} "
          f"({runner.attempted - runner.solved}/{runner.attempted}) | "
          f"setup_s={setup_s:.6g} s (median of {len(setup_raw)}, {len(jobs)} "
          f"instances each) | passes={len(pass_s)}")
    print(f"raw wall time: solved_per_s={runner.solved / sum(raw):.6g} "
          f"solve_s_p50={hd_quantile(np, raw, 0.5):.6g} "
          f"solve_s_tail={hd_quantile(np, raw, pct / 100.0):.6g} "
          f"setup_s={statistics.median(setup_raw):.6g} | host probe median "
          f"{statistics.median(runner.host.seconds):.6g} s, reference {PROBE_REF_S} s")
    return {
        "solved_per_s": metric(solved_per_s, "1/s"),
        "solve_s_p50": metric(p50, "s"),
        "solve_s_tail": metric(tail_value, "s"),
        "setup_s": metric(setup_s, "s"),
    }


def run_traced(args, np, workload, jobs, runner, tracing):
    """Each job untraced, then traced; returns the per-layer metrics."""
    half = math.ceil(workload.replicas / 2)
    subset = [job for job in jobs if job.replica < half]
    order = np.random.Generator(np.random.PCG64(args.seed)).permutation(len(subset))
    tracer = tracing.Tracer()
    untraced_csv = OUT_DIR / "trace-untraced.csv"
    traced_csv = OUT_DIR / "trace-traced.csv"
    untraced_s = traced_s = 0.0
    absent = []
    for count, i in enumerate(order):
        job = subset[i]
        problem = runner.generate(job)
        if runner.run(job, problem, untraced_csv) is None:
            continue
        seconds = runner.raw_s[-1]
        tracer.current_job = count
        with tracing.Hooks(tracer) as hooks:
            absent = hooks.absent
            traced_problem = tracer.call("job.setup", runner.generate, job)
            _, traced_seconds = tracer.call(
                "job.solve", runner.solve, job, traced_problem, traced_csv)
        if untraced_csv.read_bytes() != traced_csv.read_bytes():
            runner.wrong.append(f"{job.label}: traced rerun wrote a different CSV")
        else:
            untraced_s += seconds
            traced_s += traced_seconds
            tracer.counts["cli.trace_bytes"] += traced_csv.stat().st_size

    tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    layers = tracer.layer_times()
    counts = tracer.counts

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def seconds_in(name):
        return layers.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    directions = calls("subproblem.solve_direction")
    snaps = counts["subproblem.snaps"]
    steps = counts["solver.outer_steps"]
    out = {
        "subproblem.snaps": metric(snaps, "count"),
        "subproblem.snaps_per_direction": metric(ratio(snaps, directions), "snaps/call"),
        "subproblem.solve_direction.calls": metric(directions, "count"),
        "subproblem.solve_direction.s": metric(seconds_in("subproblem.solve_direction"), "s"),
        "subproblem.solve_direction.failed": metric(
            counts["subproblem.solve_direction.failed"], "count"),
        "subproblem.self_s": metric(self_s("subproblem.solve_direction"), "s"),
        "subproblem.inner_minimize.s": metric(seconds_in("subproblem.inner_minimize"), "s"),
        "subproblem.inner_minimize.failed": metric(
            counts["subproblem.inner_minimize.failed"], "count"),
        "subproblem.inner_iters": metric(counts["subproblem.inner_iters"], "count"),
        "subproblem.inner_iters_per_snap": metric(
            ratio(counts["subproblem.inner_iters"], snaps), "iters/snap"),
        "subproblem.certificate.s": metric(seconds_in("subproblem.certificate"), "s"),
        "problems.eval_smooth.calls": metric(calls("problems.eval_smooth"), "count"),
        "problems.eval_smooth.s": metric(seconds_in("problems.eval_smooth"), "s"),
        "problems.eval_full.calls": metric(calls("problems.eval_full"), "count"),
        "problems.eval_full.s": metric(seconds_in("problems.eval_full"), "s"),
        "solver.solve.s": metric(seconds_in("solver.solve"), "s"),
        "solver.outer_steps": metric(steps, "count"),
        "solver.armijo_backtrack.calls": metric(calls("solver.armijo_backtrack"), "count"),
        "solver.armijo_backtrack.s": metric(seconds_in("solver.armijo_backtrack"), "s"),
        "solver.armijo_backtrack.failed": metric(
            counts["solver.armijo_backtrack.failed"], "count"),
        "solver.halvings": metric(counts["solver.halvings"], "count"),
        "solver.halvings_per_step": metric(ratio(counts["solver.halvings"], steps),
                                           "halvings/step"),
        "solver.self_s": metric(self_s("solver.solve"), "s"),
        "zoo.generate_instance.s": metric(seconds_in("zoo.generate_instance"), "s"),
        "cli.write_trace_csv.s": metric(seconds_in("cli.write_trace_csv"), "s"),
        "cli.trace_bytes": metric(counts["cli.trace_bytes"], "bytes"),
        "trace.overhead_frac": metric(ratio(traced_s - untraced_s, untraced_s), "frac"),
        "fail_frac": metric(runner.fail_frac(), "frac"),
    }
    if absent:
        print("absent hooks (their metrics read 0): " + ", ".join(absent))
    print(f"traced jobs={len(subset)} of pool={len(jobs)} | untraced solve+csv "
          f"{untraced_s:.4g} s, traced {traced_s:.4g} s | directions={directions} "
          f"snaps={snaps} outer_steps={steps} halvings={counts['solver.halvings']} "
          f"eval_smooth={calls('problems.eval_smooth')} "
          f"eval_full={calls('problems.eval_full')}")
    return out


def main(argv=None) -> int:
    # pin BLAS before numpy (imported by the modules below) loads it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np

    import checks
    import tracing
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    mp = import_moprox()
    if mp is None:
        print(f"perfbench: no moprox source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    jobs = workloads.pool(workload)
    host = HostProbe(np, checks)
    runner = Runner(mp, checks, host)

    calib_start = host.calibrate()
    if args.trace:
        metrics = run_traced(args, np, workload, jobs, runner, tracing)
    else:
        metrics = run_untraced(args, np, jobs, runner)
    calib_end = host.calibrate()
    if args.trace:
        metrics["host.calib_s"] = metric(calib_start, "s")
        metrics["host.calib_drift"] = metric(calib_end / calib_start - 1.0, "frac")

    blas = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} solved={runner.solved} "
          f"unsolved={len(runner.unsolved)} wrong={len(runner.wrong)} | "
          f"host.calib_s start={calib_start:.6g} end={calib_end:.6g} | {blas}")
    for line in runner.unsolved:
        print(f"unsolved: {line}")
    for line in runner.wrong:
        print(f"WRONG: {line}")
    print(json.dumps({"correct": not runner.wrong, "attempted": runner.attempted,
                      "failed": len(runner.wrong), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
