"""tools/trace_digest.py's --against comparison, on canned digest lines, its
stop kinds and its A01 runs; nothing is solved."""

import re
import types

import numpy as np

import moprox.solver
import moprox.zoo
import trace_digest

PARENT = """\
grad_smooth: jobs=24 critical_reached=24 records=2968 snaps=4885 passes=4885 stop_eps=0 stop_dual_bound=0 stop_precision_limit=24 sha1=0258bf8a
newton_prox: jobs=48 critical_reached=48 records=96 snaps=444 passes=909 stop_eps=47 stop_dual_bound=1 stop_precision_limit=0 sha1=4a26f600
newton_smooth: jobs=32 critical_reached=32 records=173 snaps=744 passes=744 stop_eps=18 stop_dual_bound=9 stop_precision_limit=5 sha1=a65a2627
"""


def test_lines_are_read_per_workload():
    lines = trace_digest.parse_lines(PARENT)
    assert list(lines) == ["grad_smooth", "newton_prox", "newton_smooth"]
    assert lines["newton_prox"] == ("jobs=48 critical_reached=48 records=96 snaps=444 "
                                    "passes=909 stop_eps=47 stop_dual_bound=1 "
                                    "stop_precision_limit=0 sha1=4a26f600")


def test_equal_digests_print_same_and_exit_0():
    lines, code = trace_digest.compare(trace_digest.parse_lines(PARENT),
                                       trace_digest.parse_lines(PARENT), label="f84e03f87e07")
    assert code == 0
    assert len(lines) == 9
    assert lines[:3] == [
        "grad_smooth @f84e03f87e07: jobs=24 critical_reached=24 records=2968 snaps=4885 "
        "passes=4885 stop_eps=0 stop_dual_bound=0 stop_precision_limit=24 sha1=0258bf8a",
        "grad_smooth @checkout: jobs=24 critical_reached=24 records=2968 snaps=4885 "
        "passes=4885 stop_eps=0 stop_dual_bound=0 stop_precision_limit=24 sha1=0258bf8a",
        "grad_smooth: same"]
    assert [line for line in lines if not line.startswith(tuple(
        f"{w} @" for w in ("grad_smooth", "newton_prox", "newton_smooth")))] == [
        "grad_smooth: same", "newton_prox: same", "newton_smooth: same"]


def test_one_differing_sha_prints_differs_and_exits_1():
    # the same counts with other bits, as a change of block memory order gave
    changed = PARENT.replace("sha1=4a26f600", "sha1=c5d3153a")
    lines, code = trace_digest.compare(trace_digest.parse_lines(PARENT),
                                       trace_digest.parse_lines(changed), label="HEAD")
    assert code == 1
    verdicts = [line for line in lines if line.endswith(("same", "DIFFERS"))]
    assert verdicts == ["grad_smooth: same", "newton_prox: DIFFERS", "newton_smooth: same"]
    assert "newton_prox @checkout: jobs=48 critical_reached=48 records=96 snaps=444 " \
           "passes=909 stop_eps=47 stop_dual_bound=1 stop_precision_limit=0 " \
           "sha1=c5d3153a" in lines


def test_stop_kinds_count_the_critical_jobs_by_their_messages():
    # the solver's three critical stops, told apart by the trace message, and
    # a failed job, which has no stop kind; solve is stubbed by canned traces
    Status, cfg = moprox.solver.Status, moprox.solver.SolverConfig()
    traces = [moprox.solver.SolveTrace((), status, cfg, message) for status, message in (
        (Status.CRITICAL_REACHED, ""),
        (Status.CRITICAL_REACHED, "certified critical by the dual bound: phi = -1e-19"),
        (Status.CRITICAL_REACHED, "stopped at the precision limit: sigma*theta = -1e-17"),
        (Status.CRITICAL_REACHED, ""),
        (Status.SUBPROBLEM_FAILURE, "direction subproblem stopped with duality gap 1"))]
    assert [trace_digest.stop_kind(t) for t in traces[:3]] == list(trace_digest.STOP_KINDS)
    solver = types.SimpleNamespace(Status=Status, solve=lambda *run: traces.pop(0))
    line = trace_digest.digest_pool(types.SimpleNamespace(solver=solver), np,
                                    [(None, None, None)] * 5)
    assert line.startswith("jobs=5 critical_reached=4 subproblem_failure=1 records=0 "
                           "snaps=0 passes=0 stop_eps=2 stop_dual_bound=1 "
                           "stop_precision_limit=1 sha1=")
    # CI's all-critical test reads the status counts before records=
    assert re.match(r"jobs=([0-9]+) critical_reached=\1 records=",
                    PARENT.splitlines()[2].split(": ", 1)[1])


def test_a_workload_missing_on_one_side_differs():
    here = "\n".join(PARENT.splitlines()[:2]) + "\nextra: jobs=1\n"
    lines, code = trace_digest.compare(trace_digest.parse_lines(PARENT),
                                       trace_digest.parse_lines(here), label="HEAD")
    assert code == 1
    assert "newton_smooth @checkout: (none)" in lines
    assert "extra @HEAD: (none)" in lines
    assert lines[-1] == "extra: DIFFERS"
    assert "newton_smooth: DIFFERS" in lines


def test_a01_grid_is_the_acceptance_grid_from_ten_start_seeds():
    # the cells of test_a01_whole_grid_one_step_termination, from the starts
    # PCG64(b + cell index), b = 1000, 2000, ..., 10000
    runs = list(trace_digest.a01_runs(moprox, np))
    assert len(runs) == 1350
    problem, cfg, x0 = runs[0]
    assert (problem.n, problem.m, cfg.eps, cfg.tol_gap) == (2, 2, 1e-9, 1e-12)
    assert np.array_equal(x0, 2.0 * np.random.Generator(np.random.PCG64(1000))
                          .standard_normal(2))
    problem, _, x0 = runs[-1]  # b = 10000, the last box cell
    assert (problem.n, problem.m) == (50, 8) and (problem.nonsmooth.lo == -1.0).all()
    assert np.array_equal(x0, np.random.Generator(np.random.PCG64(10134))
                          .uniform(-1.0, 1.0, 50))


def test_a01_sweep_runs_the_grid_from_fifty_more_bases():
    # with a01_grid, the 8,100-run A01 sweep: PCG64(b + cell index) for b =
    # 11000, 12000, ..., 60000
    runs = list(trace_digest.a01_runs(moprox, np, range(11000, 60001, 1000)))
    assert len(runs) == 6750
    problem, _, x0 = runs[0]
    assert (problem.n, problem.m) == (2, 2)
    assert np.array_equal(x0, 2.0 * np.random.Generator(np.random.PCG64(11000))
                          .standard_normal(2))
    problem, _, x0 = runs[-1]
    assert (problem.n, problem.m) == (50, 8) and (problem.nonsmooth.lo == -1.0).all()
    assert np.array_equal(x0, np.random.Generator(np.random.PCG64(60134))
                          .uniform(-1.0, 1.0, 50))


def test_lines_that_differ_only_in_costs_say_their_values_are_the_same():
    # fewer snaps and passes, the same iterates: the sha1 differs and the
    # values_sha1 does not
    parent = PARENT.replace("sha1=4a26f600", "sha1=4a26f600 values_sha1=9e3d7c01")
    cheaper = parent.replace("snaps=444 passes=909", "snaps=430 passes=890").replace(
        "sha1=4a26f600 ", "sha1=77b0e512 ")
    lines, code = trace_digest.compare(trace_digest.parse_lines(parent),
                                       trace_digest.parse_lines(cheaper), label="HEAD")
    assert code == 1
    assert "newton_prox: DIFFERS (values_sha1 same)" in lines
    assert "grad_smooth: same" in lines
    other = cheaper.replace("values_sha1=9e3d7c01", "values_sha1=0d41c2aa")
    lines, _ = trace_digest.compare(trace_digest.parse_lines(parent),
                                    trace_digest.parse_lines(other), label="HEAD")
    assert "newton_prox: DIFFERS" in lines


def test_values_sha1_leaves_out_the_snaps_and_passes():
    # two canned traces of the same iterates at other costs
    Status, cfg = moprox.solver.Status, moprox.solver.SolverConfig()

    def trace(snaps, passes):
        record = moprox.solver.TraceRecord(
            k=0, x=np.zeros(2), objectives=np.ones(2), direction_norm=0.0, theta=0.0,
            step=0.0, weights=np.full(2, 0.5), gap=0.0, snaps=snaps, passes=passes)
        return moprox.solver.SolveTrace((record,), Status.CRITICAL_REACHED, cfg)

    lines = []
    for costs in ((3, 5), (2, 4)):
        solver = types.SimpleNamespace(Status=Status, solve=lambda *run, c=costs: trace(*c))
        lines.append(trace_digest.digest_pool(types.SimpleNamespace(solver=solver), np,
                                              [(None, None, None)]))
    fields = [dict(f.split("=", 1) for f in line.split()) for line in lines]
    assert fields[0]["sha1"] != fields[1]["sha1"]
    assert fields[0]["values_sha1"] == fields[1]["values_sha1"]
