"""End-to-end acceptance checks for the solver's documented guarantees.

Each test covers one numbered property at its stated tolerance and prints a
single [A..] PASS/FAIL line (visible with -s or in captured output). Traces
produced along the way are collected in a registry; the descent-bound
property A02 runs over all of them, so it is defined last in the file.
"""

import json
import time
from math import ceil

import numpy as np
import pytest

from moprox import (
    InsufficientDataError,
    InstanceSpec,
    NonsmoothTerm,
    ProblemInstance,
    SolverConfig,
    Status,
    attach_nonsmooth,
    check_descent_bound,
    criticality_measure,
    decreasing_tail,
    estimate_order,
    eval_full,
    eval_smooth,
    generate_instance,
    iterate_errors,
    refine_reference,
    solve,
    tau_check,
)
from moprox.cli import main as cli_main, read_trace_csv
from moprox.subproblem import solve_direction
from moprox.zoo import quadratic_objective

from conftest import grid_min_theta, lse_hessian_lipschitz

# every (label, problem, trace) produced by the tests below; A02 sweeps it
REGISTRY = []


def _register(label, problem, trace):
    REGISTRY.append((label, problem, trace))


def _report(tag, ok, detail=""):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}" + (f" {detail}" if detail else "")
    print(line)
    assert ok, line


def _grid_cells():
    cells = []
    for n in (2, 10, 50):
        for m in (2, 3):
            for cond in (1.0, 1e2, 1e4):
                for kind in ("zero", "l1"):
                    cells.append((n, m, cond, kind))
    return cells


def _lse_spec(seed, m=2):
    return InstanceSpec(family="logsumexp", n=10, m=m, mu=1.0, seed=seed)


def _lse_run(prob, x0):
    """Solve to direction norm 1e-12 and refine a high-accuracy reference
    point for error analysis; returns (trace, reference)."""
    tr = solve(prob, SolverConfig(eps=1e-12, tol_gap=1e-13), x0)
    assert tr.status is Status.CRITICAL_REACHED
    ref = refine_reference(
        prob, tr.final_x, eps=1e-13,
        config=SolverConfig(eps=1e-13, tol_gap=1e-14, max_outer=50))
    return tr, ref


@pytest.fixture(scope="module")
def lse_runs():
    """Five seeded soft-max runs with their reference points."""
    runs = []
    for seed in range(5):
        prob = generate_instance(_lse_spec(seed))
        rng = np.random.Generator(np.random.PCG64(500 + seed))
        tr, ref = _lse_run(prob, 3.0 * rng.standard_normal(10))
        _register(f"lse-{seed}", prob, tr)
        runs.append((prob, tr, ref))
    return runs


def test_a01_quadratic_grid_one_step_termination():
    # 20 seeded quadratic instances drawn from the n x m x cond x nonsmooth
    # grid: the first step must be accepted at t = 1 and land at a point
    # with criticality measure at most 1e-5, all within a 10 s budget
    t_start = time.monotonic()
    cells = _grid_cells()
    picks = sorted(set(range(0, 36, 2)) | {1, 35})
    assert len(picks) == 20
    worst = 0.0
    for idx in picks:
        n, m, cond, kind = cells[idx]
        family = "quadratic" if kind == "zero" else "quadratic_l1"
        rho = 0.1 if kind == "l1" else 0.0
        spec = InstanceSpec(family=family, n=n, m=m, cond=cond, rho=rho,
                            seed=idx)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(1000 + idx))
        x0 = 2.0 * rng.standard_normal(n)
        cfg = SolverConfig(eps=1e-9, tol_gap=1e-12)
        tr = solve(prob, cfg, x0)
        _register(f"grid-{idx}", prob, tr)
        assert tr.status is Status.CRITICAL_REACHED, (idx, tr.status, tr.message)
        assert tr.records[0].step == 1.0, (idx, tr.records[0].step)
        crit = criticality_measure(prob, tr.records[1].x, tol_gap=1e-12)
        worst = max(worst, crit)
        assert crit <= 1e-5, (idx, crit)
    elapsed = time.monotonic() - t_start
    assert elapsed < 10.0, elapsed
    _report("A01", True,
            f"20 grid cells, first step t=1, worst one-step criticality "
            f"{worst:.3e} <= 1e-5, {elapsed:.2f}s")


def test_a01_whole_grid_one_step_termination():
    # every cell of zero/l1/box x m in {2, 3, 4, 5, 8} x n in {2, 10, 50} x
    # cond in {1, 1e2, 1e4}: one unit step reaches a point with criticality
    # measure at most 1e-5. With n = 2 and m >= 3 the Pareto set is 2-D, so
    # a start can already be critical; such a run has one record, checked
    # there instead.
    families = {"zero": "quadratic", "l1": "quadratic_l1", "box": "quadratic_box"}
    cfg = SolverConfig(eps=1e-9, tol_gap=1e-12)
    worst, cells = 0.0, 0
    for kind in families:
        for m in (2, 3, 4, 5, 8):
            for n in (2, 10, 50):
                for cond in (1.0, 1e2, 1e4):
                    spec = InstanceSpec(family=families[kind], n=n, m=m, cond=cond,
                                        rho=0.1 if kind == "l1" else 0.0, seed=cells)
                    prob = generate_instance(spec)
                    rng = np.random.Generator(np.random.PCG64(1000 + cells))
                    x0 = (rng.uniform(spec.lo, spec.hi, n) if kind == "box"
                          else 2.0 * rng.standard_normal(n))
                    tr = solve(prob, cfg, x0)
                    _register(f"whole-grid-{cells}", prob, tr)
                    label = (kind, m, n, cond)
                    assert tr.status is Status.CRITICAL_REACHED, (label, tr.message)
                    if len(tr.records) > 1:
                        assert tr.records[0].step == 1.0, (label, tr.records[0].step)
                    x1 = tr.records[min(1, len(tr.records) - 1)].x
                    crit = criticality_measure(prob, x1, tol_gap=1e-12)
                    assert crit <= 1e-5, (label, crit)
                    worst = max(worst, crit)
                    cells += 1
    assert cells == 135
    _report("A01", True,
            f"all {cells} cells of the whole grid, first step t=1, worst "
            f"one-step criticality {worst:.3e} <= 1e-5")


def test_a03_logged_decrease_reverified_from_csv(tmp_path):
    # accepted steps must satisfy F_i(x_{k+1}) - F_i(x_k) <= t * sigma * theta
    # exactly as logged: the CSV stores 17-significant-digit floats, so the
    # recheck reproduces the solver's own arithmetic bit for bit
    sigma = 0.1
    configs = [
        ("unit-steps", {"family": "logsumexp", "n": 10, "m": 2, "mu": 1.0,
                        "seed": 0}, {"seed": 500, "scale": 3.0}, 1e-12),
        ("backtracked", {"family": "logsumexp", "n": 10, "m": 2, "mu": 0.01,
                         "seed": 0}, {"seed": 500, "scale": 6.0}, 1e-10),
    ]
    checked_rows = 0
    saw_partial_step = False
    for label, instance, x0_cfg, eps in configs:
        cfg = {
            "instance": instance,
            "solver": {"eps": eps, "tol_gap": 1e-13, "sigma": sigma},
            "run": {"x0": x0_cfg, "trace_csv": f"{label}.csv"},
        }
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli_main(["solve", "--config", str(cfg_path),
                         "--out", str(tmp_path)])
        assert code == 0, label
        data = read_trace_csv(tmp_path / f"{label}.csv")
        m = sum(1 for k in data if k.startswith("F_"))
        fvals = np.column_stack([data[f"F_{i + 1}"] for i in range(m)])
        accepted = np.flatnonzero(data["t"] > 0.0)
        assert accepted.size >= 5, label
        for k in accepted:
            decrease = fvals[k + 1] - fvals[k]
            bound = data["t"][k] * sigma * data["theta"][k]
            assert np.all(decrease <= bound), (label, k, decrease, bound)
            checked_rows += 1
            if data["t"][k] < 1.0:
                saw_partial_step = True
    assert saw_partial_step
    _report("A03", True,
            f"{checked_rows} accepted steps rechecked from CSV with zero slack")


def test_a04_unit_steps_after_burn_in(lse_runs):
    # on the regularized soft-max runs, every step after the first 20% of
    # iterations must be the full step t = 1
    for prob, tr, _ in lse_runs:
        steps = [r.step for r in tr.records if r.step > 0.0]
        cut = ceil(0.2 * len(steps))
        late = steps[cut:]
        assert late, steps
        assert all(s == 1.0 for s in late), steps
    _report("A04", True,
            f"all steps beyond the 20% burn-in are t=1 on {len(lse_runs)} runs")


def test_a05_superlinear_tail(lse_runs):
    # error ratios e_{k+1}/e_k over the asymptotic tail must be strictly
    # decreasing, and the fitted convergence order must reach 1.5
    qs = []
    for prob, tr, ref in lse_runs:
        errors = iterate_errors(tr, ref)
        floor = 1e-12 * (1.0 + float(np.linalg.norm(ref)))
        tail = decreasing_tail(errors, noise_floor=floor)
        ratios = tail[1:] / tail[:-1]
        assert np.all(np.diff(ratios) < 0.0), ratios
        q, _ = estimate_order(errors, noise_floor=floor)
        assert q >= 1.5, q
        qs.append(q)
    _report("A05", True,
            f"tail ratios strictly decreasing, fitted orders "
            f"{min(qs):.2f}..{max(qs):.2f} >= 1.5")


def test_a06_quadratic_error_constant(lse_runs):
    # e_{k+1} <= C e_k^2 over the tail with C at most 10 L2/mu, and the
    # final measured ratio within a factor 10 of L2/mu
    for seed, (prob, tr, ref) in enumerate(lse_runs):
        errors = iterate_errors(tr, ref)
        floor = 1e-12 * (1.0 + float(np.linalg.norm(ref)))
        tail = decreasing_tail(errors, noise_floor=floor)
        cks = tail[1:] / tail[:-1] ** 2
        l2mu = lse_hessian_lipschitz(_lse_spec(seed)) / prob.mu
        assert np.max(cks) <= 10.0 * l2mu, (np.max(cks), l2mu)
        final = float(cks[-1])
        assert 0.1 * l2mu <= final <= 10.0 * l2mu, (final, l2mu)
    _report("A06", True,
            "tail satisfies e_{k+1} <= C e_k^2 with C within 10 L2/mu")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", (2, 3, 5, 8))
@pytest.mark.parametrize("term", ("l1", "box"))
def test_a05_a06_rates_with_l1_and_box(term, m, seed):
    # the A05 and A06 claims with g = 0.1 ||x||_1 or the box [-1, 1]^10:
    # tail ratios strictly decreasing, fitted order >= 1.5 and
    # e_{k+1} <= C e_k^2 with C at most 10 L2/mu; a run too short for a
    # tail must have terminated at the reference point instead
    spec = _lse_spec(seed, m)
    if term == "l1":
        g = NonsmoothTerm.scaled_l1(0.1)
    else:
        g = NonsmoothTerm.box(np.full(10, -1.0), np.full(10, 1.0))
    prob = attach_nonsmooth(generate_instance(spec), g)
    x0 = 3.0 * np.random.Generator(np.random.PCG64(500 + seed)).standard_normal(10)
    if term == "box":
        x0 = np.clip(x0, -1.0, 1.0)
    tr, ref = _lse_run(prob, x0)
    _register(f"lse-{term}-m{m}-{seed}", prob, tr)
    errors = iterate_errors(tr, ref)
    floor = 1e-12 * (1.0 + float(np.linalg.norm(ref)))
    try:
        tail = decreasing_tail(errors, noise_floor=floor)
    except InsufficientDataError:
        assert errors[-1] <= floor, (errors, floor)
        _report("A05/A06", True, f"{term} m={m} seed={seed}: finite termination "
                f"after {len(tr.records)} records, error {errors[-1]:.1e}")
        return
    ratios = tail[1:] / tail[:-1]
    assert np.all(np.diff(ratios) < 0.0), ratios
    q, _ = estimate_order(errors, noise_floor=floor)
    assert q >= 1.5, q
    l2mu = lse_hessian_lipschitz(spec) / prob.mu
    c_max = float(np.max(tail[1:] / tail[:-1] ** 2))
    assert c_max <= 10.0 * l2mu, (c_max, l2mu)
    _report("A05/A06", True, f"{term} m={m} seed={seed}: order {q:.2f} >= 1.5, "
            f"max C {c_max:.2f} <= 10 L2/mu = {10.0 * l2mu:.2f}")


def test_a07_step_to_error_ratios(lse_runs):
    # the ratios ||x_{k+1} - x_k|| / ||x_k - x*|| must enter and stay inside
    # the two-sided bracket for eps = (1 - sigma) mu, and the final
    # measurable ratio must sit within 0.05 of 1 when the errors span at
    # least four orders of magnitude
    near_one_checked = 0
    for prob, tr, ref in lse_runs:
        eps = (1.0 - tr.config.sigma) * prob.mu
        verdicts = tau_check(tr, ref, prob.mu, eps)
        for v in verdicts:
            if v.applicable:
                assert v.passed, (v.name, v.margin, v.detail)
            if v.name == "final_tau_near_one" and v.applicable:
                near_one_checked += 1
    assert near_one_checked >= 1
    _report("A07", True,
            f"tau inside bracket on all runs; final tau near 1 on "
            f"{near_one_checked} runs spanning >= 4 orders")


def test_a08_direction_matches_brute_force():
    # on instances small enough to scan (n <= 2, m <= 3), the subproblem
    # optimum must match a shrinking-grid brute force within 1e-4 and the
    # duality gap certificate must hold at 1e-12 on every state
    fams = ("quadratic", "quadratic_l1", "quadratic_box")
    worst = 0.0
    for s in range(25):
        n = 1 + s % 2
        m = 1 + s % 3
        family = fams[s % 3]
        kw = {}
        if family == "quadratic_l1":
            kw["rho"] = 0.2
        if family == "quadratic_box":
            kw["lo"], kw["hi"] = -0.6, 0.6
        spec = InstanceSpec(family=family, n=n, m=m, cond=8.0, seed=s, **kw)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(8000 + s))
        x = 0.5 * rng.standard_normal(n)
        if family == "quadratic_box":
            x = np.clip(x, -0.55, 0.55)
        res = solve_direction(prob, x, tol_gap=1e-12)
        assert res.gap <= 1e-12, (s, res.gap)
        want = grid_min_theta(prob, x)
        err = abs(res.theta - want)
        worst = max(worst, err)
        assert err <= 1e-4, (s, res.theta, want)
    _report("A08", True,
            f"25 states: worst |theta - brute force| {worst:.2e} <= 1e-4, "
            f"all gaps <= 1e-12")


def test_a09_criticality_classifier():
    # ten constructed critical points must measure <= 1e-8 and ten random
    # noncritical points must measure >= 1e-3
    crit_vals = []
    for seed in (11, 12):
        spec = InstanceSpec(family="quadratic", n=4, m=2, cond=10.0, seed=seed)
        prob = generate_instance(spec)
        se0 = eval_smooth(prob, np.zeros(4))
        hessians, minus_grads = se0.hessians, -se0.gradients
        for w in (0.0, 0.25, 0.75, 1.0):
            # minimizer of the w-weighted scalarization is Pareto critical
            a_w = w * hessians[0] + (1.0 - w) * hessians[1]
            b_w = w * minus_grads[0] + (1.0 - w) * minus_grads[1]
            x_w = np.linalg.solve(a_w, b_w)
            crit_vals.append(criticality_measure(prob, x_w))
    for seed in (21, 22):
        # l1 weight above the gradient norm puts the origin in the dead zone
        rng = np.random.Generator(np.random.PCG64(seed))
        mat = rng.standard_normal((3, 3))
        a = mat @ mat.T + 3.0 * np.eye(3)
        b = rng.standard_normal(3)
        rho = 1.5 * float(np.max(np.abs(b)))
        prob = ProblemInstance(
            n=3, m=1, smooth=(quadratic_objective(a, b),),
            nonsmooth=NonsmoothTerm.scaled_l1(rho),
            mu=float(np.linalg.eigvalsh(a).min()))
        crit_vals.append(criticality_measure(prob, np.zeros(3)))
    assert len(crit_vals) == 10
    assert max(crit_vals) <= 1e-8, crit_vals

    noncrit_vals = []
    for s in range(10):
        spec = InstanceSpec(family="quadratic", n=4, m=2, cond=10.0,
                            seed=30 + s)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(9100 + s))
        x = 2.0 + rng.standard_normal(4)
        noncrit_vals.append(criticality_measure(prob, x))
    assert min(noncrit_vals) >= 1e-3, noncrit_vals
    _report("A09", True,
            f"10 critical points measure <= {max(crit_vals):.1e}; 10 "
            f"noncritical measure >= {min(noncrit_vals):.1e}")


def test_a10_metric_advantage_under_ill_conditioning():
    # at condition number 1e4 the curvature metric must reach ||d|| < 1e-8
    # within two iterations while the scaled-identity metric needs at least
    # fifty times as many, all inside a 30 s budget
    t_start = time.monotonic()
    spec = InstanceSpec(family="quadratic", n=20, m=2, cond=1e4, seed=3)
    prob = generate_instance(spec)
    x0 = np.random.Generator(np.random.PCG64(5)).standard_normal(20)
    tr_newton = solve(prob, SolverConfig(eps=1e-8, tol_gap=1e-12), x0)
    _register("metric-newton", prob, tr_newton)
    assert tr_newton.status is Status.CRITICAL_REACHED
    assert tr_newton.steps_taken <= 2, tr_newton.steps_taken

    cap = 100 * tr_newton.steps_taken
    tr_grad = solve(prob, SolverConfig(variant="gradient", ell=prob.lip_grad,
                                       eps=1e-8, tol_gap=1e-12,
                                       max_outer=cap), x0)
    _register("metric-gradient", prob, tr_grad)
    if tr_grad.status is Status.CRITICAL_REACHED:
        ratio = tr_grad.steps_taken / tr_newton.steps_taken
        assert ratio >= 50.0, ratio
        detail = f"{tr_newton.steps_taken} vs {tr_grad.steps_taken} iterations"
    else:
        # still above the norm target after 100x the iterations
        assert tr_grad.status is Status.MAX_ITERS
        detail = (f"{tr_newton.steps_taken} vs > {cap} iterations "
                  f"(cap reached)")
    elapsed = time.monotonic() - t_start
    assert elapsed < 30.0, elapsed
    _report("A10", True, f"{detail}, {elapsed:.2f}s")


def test_a11_weighted_descent_dominates_probes():
    # at every unit-step iteration of every run here, the weighted objective
    # at the successor must dominate 20 random probes by the squared metric
    # distance, with margin no worse than -1e-8
    runs = [
        ("quadratic", 0.0, 16, 2),
        ("quadratic", 0.0, 17, 3),
        ("quadratic_l1", 0.2, 16, 2),
        ("quadratic_l1", 0.5, 18, 2),
        ("quadratic_l1", 1.0, 19, 3),
    ]
    total_unit_steps = 0
    worst = np.inf
    for run_idx, (family, rho, seed, m) in enumerate(runs):
        spec = InstanceSpec(family=family, n=6, m=m, cond=100.0, rho=rho,
                            seed=seed)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(seed))
        tr = solve(prob, SolverConfig(eps=1e-10, tol_gap=1e-12),
                   2.0 * rng.standard_normal(6))
        _register(f"probe-{run_idx}", prob, tr)
        assert tr.status is Status.CRITICAL_REACHED
        for i, rec in enumerate(tr.records[:-1]):
            if rec.step != 1.0:
                continue
            total_unit_steps += 1
            x_next = tr.records[i + 1].x
            lam = rec.weights
            a_w = np.tensordot(lam, eval_smooth(prob, rec.x).hessians, axes=1)
            f_next = float(lam @ eval_full(prob, x_next))
            probe_rng = np.random.Generator(
                np.random.PCG64(9000 + 100 * run_idx + i))
            probes = x_next + probe_rng.standard_normal((20, 6))
            for z in probes:
                f_z = float(lam @ eval_full(prob, z))
                diff = x_next - z
                margin = (f_z - 0.5 * float(diff @ (a_w @ diff))) - f_next
                worst = min(worst, margin)
                assert margin >= -1e-8, (run_idx, i, margin)
    assert total_unit_steps >= 5
    _report("A11", True,
            f"{total_unit_steps} unit-step iterations x 20 probes, worst "
            f"margin {worst:.2e} >= -1e-8")


def test_a02_descent_bound_holds_on_every_trace():
    # theta_k <= -(mu/2) ||d_k||^2 + 1e-8 at every iteration of every run
    # collected above (grid runs, soft-max runs, metric comparison, probe
    # runs); defined last so the registry is complete
    assert len(REGISTRY) >= 30, len(REGISTRY)
    worst = np.inf
    for label, prob, tr in REGISTRY:
        v = check_descent_bound(tr, prob.mu)
        if not v.applicable:
            continue
        worst = min(worst, v.margin)
        assert v.passed, (label, v.margin, v.detail)
    _report("A02", True,
            f"{len(REGISTRY)} traces, worst descent-bound slack {worst:.2e}")
