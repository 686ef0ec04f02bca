"""The snap's arithmetic against its earlier formulas, bit for bit.

inner_minimize, Metric.products and the sweep's symmetrization were
rewritten, keeping every result to the last bit: the dispatch cut kept the
inner solve's passes too, and block principal pivoting, which replaced its
ratio test, clipped trial and safeguard, keeps d, the free set and the
free block's solve while it takes other passes. The references are the
earlier code: the inner solve verbatim, on its own Cholesky helper and pass
cap, the other two as their formulas. Both sides run on the same BLAS, so
equality holds on any host.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

import moprox.subproblem
from moprox import (
    ConvergenceError,
    InputError,
    InstanceSpec,
    NonsmoothTerm,
    SingularMetricError,
    SolverConfig,
    Status,
    eval_smooth,
    generate_instance,
    solve,
)
from moprox.subproblem import Metric, _cholesky, inner_minimize
from moprox.zoo import FAMILIES

_EPS = np.finfo(float).eps
# the reference's own factor and pass cap: it reads M after factoring it, so
# a production factor that writes into its argument must not reach it
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=float)
_REFERENCE_PASSES = 10000


def _reference_cholesky(block):
    # the solve with block's Cholesky factor, with the earlier code's flags
    factor, info = _potrf(block, lower=True, clean=False)
    if info != 0:
        raise SingularMetricError(f"weighted Hessian is not positive definite "
                                  f"(potrf info {info})")
    return lambda rhs: _potrs(factor, rhs, lower=True)[0]


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
    for it in range(1, _REFERENCE_PASSES + 1):
        if free.all():
            solve = _reference_cholesky(M)
            d_new = solve(-c)
            if not ends:
                return d_new, free, solve, it
        else:
            solve = None
            d_new = d.copy()
            if free.any():
                solve = _reference_cholesky(M[np.ix_(free, free)])
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
        f"inner active-set solve not certified after {_REFERENCE_PASSES} passes",
        residual=float(np.linalg.norm(p)),
    )


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _assert_same_snap(lam, se, term, x, d0, rng):
    new = inner_minimize(lam, se, term, x, d0=d0)
    ref = _reference_inner_minimize(lam, se, term, x, d0=d0)
    assert _bits(new[0], new[1]) == _bits(ref[0], ref[1])
    assert new[0].dtype == ref[0].dtype and new[1].dtype == ref[1].dtype
    if ref[2] is None:
        assert new[2] is None
    else:
        # a vector and the matrix form newton_step hands it
        k = int(ref[1].sum())
        for rhs in (rng.standard_normal(k), rng.standard_normal((k, 3))):
            assert _bits(new[2](rhs)) == _bits(ref[2](rhs))
    return new[0], new[3], ref[3]


@pytest.mark.parametrize("family", ["quadratic_l1", "quadratic_box"])
@pytest.mark.parametrize("n", [10, 50, 200])
def test_inner_solve_matches_the_earlier_code(family, n):
    # the cells of test_certified_across_the_grid, cold and warm
    passes = ref_passes = 0
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
        cold = _assert_same_snap(lam, se, term, x, None, rng)
        near = _assert_same_snap(0.9 * lam + 0.1 / m, se, term, x, None, rng)
        warm = _assert_same_snap(lam, se, term, x, near[0], rng)
        for snap in (cold, near, warm):
            passes += snap[1]
            ref_passes += snap[2]
    # block exchanges take fewer passes over each cell, though not on every
    # call: 22 of the 864 calls take more than the ratio test did
    assert passes <= ref_passes


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
        d0, passes, ref_passes = _assert_same_snap(lam, se, prob.nonsmooth, x, None, rng)
        assert passes == ref_passes
        _, passes, ref_passes = _assert_same_snap(lam, se, prob.nonsmooth, x, d0 + 1.0, rng)
        assert passes == ref_passes


def test_single_exchanges_match_the_earlier_code(monkeypatch):
    # A01 sweep cell 77 from PCG64(24077): an instrumented copy saw the
    # backup rule exchange one coordinate a pass four times in this solve
    spec = InstanceSpec(family="quadratic_l1", n=10, m=5, cond=1e4, rho=0.1, seed=77)
    prob = generate_instance(spec)
    x0 = 2.0 * np.random.Generator(np.random.PCG64(24077)).standard_normal(spec.n)
    rng = np.random.Generator(np.random.PCG64(0))
    snaps = []

    def checked(weights, smooth_eval, term, x, *, d0=None):
        snaps.append(_assert_same_snap(weights, smooth_eval, term, x, d0, rng))
        return inner_minimize(weights, smooth_eval, term, x, d0=d0)

    monkeypatch.setattr(moprox.subproblem, "inner_minimize", checked)
    trace = solve(prob, SolverConfig(eps=1e-9, tol_gap=1e-12), x0)
    assert trace.status == Status.CRITICAL_REACHED
    assert len(snaps) == trace.snaps > 0


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
        # the sweep passes an exactly symmetric stack through read-only and
        # symmetrizes any other into a new buffer: the quadratic oracle
        # returns its A itself, which must not change
        assert _bits(prob.oracle(x, True)[2]) == _bits(before)
        assert _bits(se.hessians) == _bits(0.5 * (before + before.transpose(0, 2, 1)))
        products = Metric.hessian().products(se)
        for scale in (1.0, 1e-9, 1e12):
            d = scale * rng.standard_normal(n)
            assert _bits(products(d)) == _bits((se.hessians.reshape(m * n, n) @ d)
                                               .reshape(m, n))


@pytest.mark.parametrize("family, n, m", [
    ("logsumexp", 100, 8), ("quadratic", 200, 8),  # newton_smooth's largest cells
    ("quadratic_l1", 50, 5), ("quadratic_box", 50, 5),
])
def test_every_factored_block_is_exactly_symmetric(family, n, m, monkeypatch):
    # inner_minimize factors M = lam'H, and its blocks, with no second
    # symmetrization: the sweep's stack is exactly symmetric and the BLAS
    # product keeps it so. A BLAS that breaks it fails here, not in the bits.
    cond = 1.0 if family == "logsumexp" else 100.0
    # a box of half-width 0.1 binds, so the box cell factors proper blocks
    spec = InstanceSpec(family=family, n=n, m=m, cond=cond, rho=0.1, seed=n + m,
                        lo=-0.1, hi=0.1)
    rng = np.random.Generator(np.random.PCG64(n + m))
    x0 = (rng.uniform(spec.lo, spec.hi, n) if family == "quadratic_box"
          else 2.0 * rng.standard_normal(n))
    shapes = []

    def checked(block):
        assert (block == block.T).all()
        shapes.append(block.shape)
        return _cholesky(block)

    monkeypatch.setattr(moprox.subproblem, "_cholesky", checked)
    trace = solve(generate_instance(spec), SolverConfig(eps=1e-9, tol_gap=1e-12), x0)
    assert trace.status == Status.CRITICAL_REACHED
    assert len(shapes) >= trace.snaps > 0
    if family in ("logsumexp", "quadratic"):
        assert set(shapes) == {(n, n)}  # the zero term: the block is M itself
    else:
        assert min(shapes) < (n, n)
