"""The snap's arithmetic against its earlier formulas, bit for bit.

inner_minimize, Metric.products and the sweep's symmetrization were
rewritten to cut numpy dispatch and temporaries, keeping every result to
the last bit. The references are the earlier code: the inner solve
verbatim, the other two as their formulas. Both sides run on the same
BLAS, so equality holds on any host.
"""

import itertools

import numpy as np
import pytest

from moprox import (
    ConvergenceError,
    InputError,
    InstanceSpec,
    NonsmoothTerm,
    eval_smooth,
    generate_instance,
)
from moprox.subproblem import MAX_INNER_PASSES, Metric, _cholesky, inner_minimize
from moprox.zoo import FAMILIES

_EPS = np.finfo(float).eps


def _reference_inner_minimize(weights, smooth_eval, term, x, *, d0=None):
    # the inner active-set solve before the dispatch cut, verbatim
    lam = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    v = lam @ smooth_eval.gradients
    M = np.tensordot(lam, smooth_eval.hessians, axes=1)
    M = 0.5 * (M + M.T)
    if d0 is None:
        d = np.zeros_like(x)
    else:
        d = np.array(d0, dtype=float)
        if d.shape != x.shape or not np.isfinite(d).all():
            raise InputError(f"d0 must be a finite vector of shape {x.shape}")
    a, b, slope = term.pieces(x + d)
    free = a < b
    d[~free] = a[~free] - x[~free]
    c = v + slope  # linear coefficients of q on free coordinates
    # a coordinate leaves its piece only through a finite end: with none (the
    # zero term) nothing is ever held, and the first solve is exact
    ends = np.isfinite(a).any() or np.isfinite(b).any()

    def q(dq):
        return v @ dq + 0.5 * (dq @ (M @ dq)) + term.value(x + dq)

    block = True  # hold and release whole sets until q stops falling
    q_last = np.inf  # q at the last releasing full-step pass
    for it in range(1, MAX_INNER_PASSES + 1):
        if free.all():
            solve = _cholesky(M)
            d_new = solve(-c)
            if not ends:
                return d_new, free, solve, it
        else:
            solve = None
            d_new = d.copy()
            if free.any():
                solve = _cholesky(M[np.ix_(free, free)])
                d_new[free] = solve(-c[free] - M[np.ix_(free, ~free)] @ d[~free])

        # ratio test: the fraction of the step at which each coordinate
        # leaves its piece (0 for one already outside it); held coordinates
        # do not move, so p = 0 and they never leave
        p = d_new - d
        end = np.where(p < 0.0, a, b)  # the end of its piece each coordinate moves to
        reach = np.divide(end - (x + d), p, out=np.full(p.shape, np.inf), where=p != 0.0)
        reach = np.maximum(reach, 0.0)
        leave = np.flatnonzero(reach < 1.0)
        if leave.size:
            j = int(np.argmin(reach))
            hold = [j]
            d = d + reach[j] * p
            d[j] = end[j] - x[j]
            if block and leave.size > 1:
                d_new[leave] = end[leave] - x[leave]
                if q(d_new) <= q(d):
                    hold, d = leave, d_new
            # held at the exact end: x + (end - x) may round inside a bound
            free[hold] = False
            a[hold] = b[hold] = end[hold]
            continue
        d = d_new

        held = np.flatnonzero(~free)
        if not held.size:
            return d, free, solve, it
        r = v[held] + M[held] @ d
        viol, a_in, b_in, slope_in = term.kink(a[held], r, held)
        slack = 4.0 * _EPS * (np.abs(v[held]) + np.abs(M[held]) @ np.abs(d) + np.abs(slope_in))
        out = np.flatnonzero(viol > slack)
        if not out.size:
            return d, free, solve, it
        if block:
            q_d = q(d)
            block = q_d < q_last
            q_last = q_d
        if not block:
            out = [int(np.argmax(viol - slack))]
        release = held[out]
        free[release] = True
        a[release], b[release] = a_in[out], b_in[out]
        c[release] = v[release] + slope_in[out]
    raise ConvergenceError(
        f"inner active-set solve not certified after {MAX_INNER_PASSES} passes",
        residual=float(np.linalg.norm(p)),
    )


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _assert_same_snap(lam, se, term, x, d0, rng):
    new = inner_minimize(lam, se, term, x, d0=d0)
    ref = _reference_inner_minimize(lam, se, term, x, d0=d0)
    assert _bits(new[0], new[1]) == _bits(ref[0], ref[1])
    assert new[0].dtype == ref[0].dtype and new[1].dtype == ref[1].dtype
    assert new[3] == ref[3]
    if ref[2] is None:
        assert new[2] is None
    else:
        # a vector and the matrix form newton_step hands it
        k = int(ref[1].sum())
        for rhs in (rng.standard_normal(k), rng.standard_normal((k, 3))):
            assert _bits(new[2](rhs)) == _bits(ref[2](rhs))
    return new[0]


@pytest.mark.parametrize("family", ["quadratic_l1", "quadratic_box"])
@pytest.mark.parametrize("n", [10, 50, 200])
def test_inner_solve_matches_the_earlier_code(family, n):
    # the cells of test_certified_across_the_grid, cold and warm
    cells = itertools.product((2, 3, 5, 8), (1.0, 1e2, 1e4), (0.01, 0.1, 1.0, 10.0))
    for seed, (m, cond, rho) in enumerate(cells):
        spec = InstanceSpec(family=family, n=n, m=m, cond=cond, rho=rho, seed=seed)
        prob = generate_instance(spec)
        term = prob.nonsmooth
        rng = np.random.Generator(np.random.PCG64(seed))
        x = 2.0 * rng.standard_normal(n)
        if family == "quadratic_l1":
            x[rng.random(n) < 0.3] = 0.0
        else:
            x = np.clip(x, spec.lo, spec.hi)
        se = eval_smooth(prob, x)
        lam = rng.dirichlet(np.ones(m))
        _assert_same_snap(lam, se, term, x, None, rng)
        d0 = _assert_same_snap(0.9 * lam + 0.1 / m, se, term, x, None, rng)
        _assert_same_snap(lam, se, term, x, d0, rng)


@pytest.mark.parametrize("n", [1, 10, 50, 200])
def test_inner_solve_matches_the_earlier_code_without_a_term(n):
    for seed, m in enumerate((2, 3, 5, 8)):
        prob = generate_instance(InstanceSpec(family="quadratic", n=n, m=m, cond=1e2,
                                              seed=seed))
        assert prob.nonsmooth == NonsmoothTerm.zero()
        rng = np.random.Generator(np.random.PCG64(seed))
        x = 2.0 * rng.standard_normal(n)
        se = eval_smooth(prob, x)
        lam = rng.dirichlet(np.ones(m))
        d0 = _assert_same_snap(lam, se, prob.nonsmooth, x, None, rng)
        _assert_same_snap(lam, se, prob.nonsmooth, x, d0 + 1.0, rng)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 10, 50])
def test_products_and_symmetrization_match_the_earlier_formulas(family, m, n):
    # the grid of test_stacked_oracle_matches_per_objective_formulas
    cond = 1.0 if family == "logsumexp" else 10.0
    prob = generate_instance(InstanceSpec(family=family, n=n, m=m, cond=cond, rho=0.1,
                                          seed=n + m))
    rng = np.random.Generator(np.random.PCG64(10 * n + m))
    for x in 2.0 * rng.standard_normal((3, n)):
        raw = prob.oracle(x, True)[2]
        before = raw.copy()
        se = eval_smooth(prob, x)
        # the sweep symmetrizes into a new buffer: the quadratic oracle
        # returns its A itself, which must not change
        assert _bits(prob.oracle(x, True)[2]) == _bits(before)
        assert _bits(se.hessians) == _bits(0.5 * (before + before.transpose(0, 2, 1)))
        products = Metric.hessian().products(se)
        for scale in (1.0, 1e-9, 1e12):
            d = scale * rng.standard_normal(n)
            assert _bits(products(d)) == _bits((se.hessians.reshape(m * n, n) @ d)
                                               .reshape(m, n))
