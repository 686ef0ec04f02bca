"""The zoo's stacked oracles: the same bits as one closure per objective,
Hessians only when asked for, and shape checks on any stacked oracle."""

import dataclasses

import numpy as np
import pytest

from moprox import (
    EvaluationError,
    InstanceSpec,
    NonsmoothTerm,
    ProblemInstance,
    SmoothObjective,
    SolverConfig,
    Status,
    eval_full,
    eval_smooth,
    generate_instance,
    solve,
)
from moprox.subproblem import Metric, solve_direction
from moprox.zoo import FAMILIES


def _quadratic_reference(A, b, x):
    Ax = A @ x
    return 0.5 * float(x @ Ax) - float(b @ x), Ax - b, A


def _logsumexp_reference(rows, offsets, mu, center, x):
    t = rows @ x + offsets
    tmax = float(np.max(t))
    w = np.exp(t - tmax)
    total = float(np.sum(w))
    p = w / total
    diff = x - center
    value = tmax + np.log(total) + 0.5 * mu * float(diff @ diff)
    mean_row = rows.T @ p
    grad = mean_row + mu * diff
    dev = (rows - mean_row) * np.sqrt(p)[:, None]
    hess = dev.T @ dev.copy()
    hess[np.diag_indices(x.size)] += mu
    return value, grad, hess


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _reference_oracles(spec):
    """One closure per objective of spec's instance, from the same draws."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    oracles = []
    for _ in range(spec.m):
        if spec.family == "logsumexp":
            rows = 0.9 * rng.standard_normal((5, spec.n))
            offsets = 0.5 * rng.standard_normal(5)
            center = 0.5 * rng.standard_normal(spec.n)
            oracles.append(lambda x, a=(rows, offsets, spec.mu, center):
                           _logsumexp_reference(*a, x))
            continue
        if spec.n == 1:
            a = np.array([[spec.mu]])
        else:
            q = _random_orthogonal(rng, spec.n)
            eigs = spec.mu * spec.cond ** rng.random(spec.n)
            eigs[0] = spec.mu
            eigs[-1] = spec.mu * spec.cond
            a = (q * eigs) @ q.T
            a = 0.5 * (a + a.T)
        b = rng.standard_normal(spec.n)
        oracles.append(lambda x, a=a, b=b: _quadratic_reference(a, b, x))
    return oracles


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 10, 50])
def test_stacked_oracle_matches_per_objective_formulas(family, m, n):
    cond = 1.0 if family == "logsumexp" else 10.0
    spec = InstanceSpec(family=family, n=n, m=m, cond=cond, rho=0.1, seed=n + m)
    prob = generate_instance(spec)
    assert prob.oracle is prob.smooth[0].stack[0]
    reference = _reference_oracles(spec)
    rng = np.random.Generator(np.random.PCG64(10 * n + m))
    for x in 2.0 * rng.standard_normal((3, n)):
        outputs = [fn(x) for fn in reference]
        values = np.array([float(v) for v, _, _ in outputs])
        grads = np.array([g for _, g, _ in outputs])
        hesses = np.array([0.5 * (h + h.T) for _, _, h in outputs])
        se = eval_smooth(prob, x)
        assert _bits(se.values, se.gradients, se.hessians) == _bits(values, grads, hesses)
        first = eval_smooth(prob, x, hessians=False)
        assert first.hessians is None
        assert _bits(first.values, first.gradients) == _bits(values, grads)
        for i, obj in enumerate(prob.smooth):
            v, g, h = obj.evaluate(x)
            assert _bits(v, g, h) == _bits(values[i], grads[i], hesses[i])


def _nan_hessian_instance():
    """One objective, |x|^2 / 2 on R^5, whose oracle returns a nan Hessian."""
    def f(x):
        return 0.5 * (x @ x), x, np.full((5, 5), np.nan)

    return ProblemInstance(n=5, m=1, smooth=(SmoothObjective(f),),
                           nonsmooth=NonsmoothTerm.zero(), mu=1.0, lip_grad=2.0)


@pytest.mark.parametrize("family", ["quadratic", "logsumexp", "nan Hessian"])
@pytest.mark.parametrize("variant", ["newton", "gradient"])
def test_hessians_asked_for_only_under_the_hessian_metric(family, variant):
    prob = (_nan_hessian_instance() if family == "nan Hessian"
            else generate_instance(InstanceSpec(family=family, n=5, m=3, seed=4)))
    requests = []
    oracle = prob.oracle

    def counting(x, hessians):
        requests.append(hessians)
        return oracle(x, hessians)

    object.__setattr__(prob, "oracle", counting)
    x0 = np.random.Generator(np.random.PCG64(4)).standard_normal(5)
    # a direct direction solve sweeps once, and reads no Hessian under ell I
    metric = Metric.hessian() if variant == "newton" else Metric.scaled_identity(prob.lip_grad)
    if family == "nan Hessian" and variant == "newton":
        with pytest.raises(EvaluationError, match="^smooth objective 0 returned non-finite "
                                                  "output$"):
            solve_direction(prob, x0, metric=metric)
        assert requests == [True]
        return
    assert solve_direction(prob, x0, metric=metric).theta < 0.0
    assert requests == [variant == "newton"]
    requests.clear()
    extra = {"ell": prob.lip_grad} if variant == "gradient" else {}
    tr = solve(prob, SolverConfig(variant=variant, eps=1e-6, tol_gap=1e-12, **extra), x0)
    assert tr.status is Status.CRITICAL_REACHED
    # one sweep at the start, one per Armijo trial
    assert len(requests) == 1 + tr.steps_taken + tr.halvings
    assert requests == [variant == "newton"] * len(requests)


def test_instance_sweeps_its_rows_in_order_by_one_call():
    prob = generate_instance(InstanceSpec(family="logsumexp", n=4, m=3, seed=2))
    x = np.linspace(-1.0, 1.0, 4)
    se = eval_smooth(prob, x)
    # any other arrangement of the rows sweeps by a loop over their fns
    for smooth in (prob.smooth[::-1], prob.smooth[:2]):
        other = dataclasses.replace(prob, m=len(smooth), smooth=smooth)
        assert other.oracle is not prob.oracle
        rows = [prob.smooth.index(obj) for obj in smooth]
        out = eval_smooth(other, x)
        assert _bits(out.values, out.gradients, out.hessians) == _bits(
            se.values[rows], se.gradients[rows], se.hessians[rows])


@pytest.mark.parametrize("bad", ["values", "gradients", "hessians", "no hessians"])
def test_stacked_oracle_with_wrong_shapes_rejected(bad):
    m, n = 2, 3

    def oracle(x, hessians):
        values, grads, hesses = np.zeros(m), np.zeros((m, n)), np.zeros((m, n, n))
        if bad == "values":
            values = np.zeros(m + 1)
        elif bad == "gradients":
            grads = np.zeros((m, n + 1))
        elif bad == "hessians":
            hesses = np.zeros((m, n, n + 1))
        return values, grads, None if bad == "no hessians" else hesses

    def row(i, x):
        values, grads, hesses = oracle(x, True)
        return values[i], grads[i], hesses[i]

    prob = ProblemInstance(n=n, m=m, nonsmooth=NonsmoothTerm.zero(), mu=1.0, smooth=tuple(
        SmoothObjective(lambda x, i=i: row(i, x), stack=(oracle, i, m)) for i in range(m)))
    assert prob.oracle is oracle
    x = np.zeros(n)
    with pytest.raises(EvaluationError, match="stacked oracle returned"):
        eval_smooth(prob, x)
    with pytest.raises(EvaluationError, match="stacked oracle returned"):
        eval_full(prob, x, [])
    if bad in ("values", "gradients"):
        with pytest.raises(EvaluationError, match="stacked oracle returned"):
            eval_smooth(prob, x, hessians=False)
    else:  # Hessians not asked for are not read, nor are they without keep
        assert eval_smooth(prob, x, hessians=False).hessians is None
        assert eval_full(prob, x).shape == (m,)


@pytest.mark.parametrize("variant", ["newton", "gradient"])
def test_stacked_oracle_of_nested_lists_solves(variant):
    # f(x) = 0.5 ||x||^2 as the one row of a stacked oracle that returns
    # nested lists of the documented shapes; the sweep takes them as arrays
    def oracle(x, hessians):
        hesses = [np.eye(2).tolist()] if hessians else None
        return [0.5 * float(x @ x)], [x.tolist()], hesses

    def row(x):
        values, grads, hesses = oracle(x, True)
        return values[0], grads[0], hesses[0]

    prob = ProblemInstance(n=2, m=1, smooth=(SmoothObjective(row, stack=(oracle, 0, 1)),),
                           nonsmooth=NonsmoothTerm.zero(), mu=1.0)
    assert prob.oracle is oracle
    extra = {"variant": "gradient", "ell": 1.0} if variant == "gradient" else {}
    tr = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12, **extra), np.array([1.0, -2.0]))
    assert tr.status is Status.CRITICAL_REACHED, tr.message
    assert tr.final_x.tolist() == [0.0, 0.0]
