"""tools/trace_digest.py's --against comparison, on canned digest lines, and its
A01 runs; nothing is solved."""

import numpy as np

import moprox.solver
import moprox.zoo
import trace_digest

PARENT = """\
grad_smooth: jobs=24 critical_reached=24 records=2968 snaps=4885 passes=4885 sha1=0258bf8a
newton_prox: jobs=48 critical_reached=48 records=96 snaps=444 passes=909 sha1=4a26f600
newton_smooth: jobs=32 critical_reached=32 records=173 snaps=744 passes=744 sha1=a65a2627
"""


def test_lines_are_read_per_workload():
    lines = trace_digest.parse_lines(PARENT)
    assert list(lines) == ["grad_smooth", "newton_prox", "newton_smooth"]
    assert lines["newton_prox"] == ("jobs=48 critical_reached=48 records=96 snaps=444 "
                                    "passes=909 sha1=4a26f600")


def test_equal_digests_print_same_and_exit_0():
    lines, code = trace_digest.compare(trace_digest.parse_lines(PARENT),
                                       trace_digest.parse_lines(PARENT), label="f84e03f87e07")
    assert code == 0
    assert len(lines) == 9
    assert lines[:3] == [
        "grad_smooth @f84e03f87e07: jobs=24 critical_reached=24 records=2968 snaps=4885 "
        "passes=4885 sha1=0258bf8a",
        "grad_smooth @checkout: jobs=24 critical_reached=24 records=2968 snaps=4885 "
        "passes=4885 sha1=0258bf8a",
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
           "passes=909 sha1=c5d3153a" in lines


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
