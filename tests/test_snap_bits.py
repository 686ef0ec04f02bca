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
    SmoothEval,
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
        viol, slope_in = term.kink(a[held], r, held)
        a_in, b_in = term.entered(r, held)
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


def _counted_passes(lam, se, term, x, d0, monkeypatch):
    """inner_minimize's result, and its passes split by how each ran its release test.

    Returns (result, cases): cases counts "nothing held" passes (the free
    block is all of M), "no positive excess" passes (term.kink was asked
    and no held coordinate's excess is positive) and "slack" passes (some
    excess is positive, so the slack decides), "kink" the calls of
    term.kink, which must be one per pass with something held, and
    "entered" the calls of term.entered, one per pass that releases,
    each on the released coordinates only.
    """
    excess, released, blocks = [], [], []
    real_kink, real_entered = NonsmoothTerm.kink, NonsmoothTerm.entered

    def kink(self, e, r, idx):
        out = real_kink(self, e, r, idx)
        excess.append(out[0])
        return out

    def entered(self, r, idx):
        released.append(len(idx))
        return real_entered(self, r, idx)

    def cholesky(block):
        blocks.append(block.shape[0])
        return _cholesky(block)

    with monkeypatch.context() as patch:
        patch.setattr(NonsmoothTerm, "kink", kink)
        patch.setattr(NonsmoothTerm, "entered", entered)
        patch.setattr(moprox.subproblem, "_cholesky", cholesky)
        result = inner_minimize(lam, se, term, x, d0=d0)
    positive = sum(bool((e > 0.0).any()) for e in excess)
    assert all(released)  # a pass that releases nothing asks no entered piece
    cases = {"nothing held": blocks.count(x.size), "kink": len(excess),
             "no positive excess": len(excess) - positive, "slack": positive,
             "entered": len(released)}
    return result, cases


@pytest.mark.parametrize("family", ["quadratic_l1", "quadratic_box"])
def test_pass_shortcuts_match_the_earlier_code(family, monkeypatch):
    # the first cells of test_inner_solve_matches_the_earlier_code at n = 10,
    # cold and warm: together they reach every case of the release test
    totals = dict.fromkeys(("nothing held", "kink", "no positive excess", "slack",
                            "entered"), 0)
    cells = itertools.product((2, 3, 5, 8), (1.0, 1e2, 1e4), (0.01, 0.1, 1.0, 10.0))
    for seed, (m, cond, rho) in itertools.islice(enumerate(cells), 12):
        spec = InstanceSpec(family=family, n=10, m=m, cond=cond, rho=rho, seed=seed)
        prob = generate_instance(spec)
        rng = np.random.Generator(np.random.PCG64(seed))
        x = 2.0 * rng.standard_normal(10)
        x = np.clip(x, spec.lo, spec.hi) if family == "quadratic_box" else x
        se = eval_smooth(prob, x)
        lam = rng.dirichlet(np.ones(m))
        d0 = None
        for weights in (0.9 * lam + 0.1 / m, lam):
            result, cases = _counted_passes(weights, se, prob.nonsmooth, x, d0, monkeypatch)
            d0 = _assert_same_snap(weights, se, prob.nonsmooth, x, d0, rng)[0]
            assert _bits(result[0]) == _bits(d0)
            # term.kink runs on every pass with something held, and on no other;
            # term.entered only on a pass whose slack lets a coordinate go
            assert cases["kink"] == result[3] - cases["nothing held"]
            assert cases["entered"] <= cases["slack"]
            for case, count in cases.items():
                totals[case] += count
    assert totals["nothing held"] > 0
    assert totals["no positive excess"] > 0
    assert totals["slack"] > 0
    assert totals["entered"] > 0


@pytest.mark.parametrize("ulps, released", [(4, False), (16, True)])
def test_a_release_decided_by_the_slack_matches_the_earlier_code(ulps, released,
                                                                monkeypatch):
    # u = x + d starts at (1, 0): coordinate 0 free, 1 held at the l1 kink,
    # where |r_1| exceeds rho by ulps eps64. The slack is about 8 eps64, so
    # the excess is within it (held, d exact at the kink) or beyond it
    # (released on pass 1, and pass 2 holds nothing and asks no kink test)
    M = np.eye(2)
    v = np.array([-2.0, -(1.0 + ulps * _EPS)])
    se = SmoothEval(values=np.zeros(1), gradients=v[None, :], hessians=M[None])
    term = NonsmoothTerm.scaled_l1(1.0)
    x, lam, d0 = np.zeros(2), np.array([1.0]), np.array([1.0, 0.0])
    (d, free, _, passes), cases = _counted_passes(lam, se, term, x, d0, monkeypatch)
    assert free[1] == released and passes == 1 + released
    assert cases == {"nothing held": int(released), "kink": 1,
                     "no positive excess": 0, "slack": 1, "entered": int(released)}
    _assert_same_snap(lam, se, term, x, d0, np.random.Generator(np.random.PCG64(0)))
    assert d[1] == (ulps * _EPS if released else 0.0)


@pytest.mark.parametrize("idx", [3, np.intp(3), np.array([0, 4, 2, 2]),
                                 np.empty(0, dtype=np.intp)])
def test_box_domain_is_the_same_for_scalar_and_per_coordinate_bounds(idx):
    # solve()'s error path asks one index, the inner solve's kink test an
    # array of held indices; a length-1 box serves every coordinate by % 1,
    # a length-n box is indexed as it is
    scalar = NonsmoothTerm.box(-1.5, 2.5)
    full = NonsmoothTerm.box(np.full(5, -1.5), np.full(5, 2.5))
    for got, want in zip(full.domain(idx), scalar.domain(idx)):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert _bits(got) == _bits(want)
    e = np.where(np.arange(np.size(idx)) % 2, -1.5, 2.5)
    r = np.linspace(-1.0, 1.0, np.size(idx))
    if np.ndim(idx):
        assert _bits(*full.kink(e, r, idx)) == _bits(*scalar.kink(e, r, idx))
        assert _bits(*full.entered(r, idx)) == _bits(*scalar.entered(r, idx))
