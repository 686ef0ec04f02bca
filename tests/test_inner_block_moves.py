"""The inner active-set solve with block holds and releases.

inner_minimize holds every coordinate that leaves its piece, and releases
every held coordinate whose multiplier breaks optimality, in one pass, and
falls back to one coordinate at a time once three passes bring no new
fewest count of such coordinates (block principal pivoting's backup rule).
Whatever path it takes, its answer must be certified exact.
"""

import itertools

import numpy as np
import pytest

from moprox import InstanceSpec, NonsmoothTerm, SmoothEval, eval_smooth, generate_instance
from moprox.subproblem import inner_minimize

from conftest import subdiff_residual


def _check_certified(term, x, lam, se, d, free, passes):
    v = lam @ se.gradients
    M = np.tensordot(lam, se.hessians, axes=1)
    u = x + d
    r = v + M @ d
    assert subdiff_residual(term, u, r) <= 1e-13 * max(1.0, float(np.max(np.abs(v))))
    held = ~free
    if term.kind == NonsmoothTerm.KIND_L1:
        assert np.all(u[held] == 0.0)
        # a free coordinate lies on the l1 piece whose slope rho sign(u) cancels r
        assert np.all(u[free] * r[free] <= 0.0)
    else:
        lo, hi = term.lo - x, term.hi - x  # the bounds on d
        assert np.all((d[held] == lo[held]) | (d[held] == hi[held]))
        assert np.all((lo[free] <= d[free]) & (d[free] <= hi[free]))
    assert passes <= 200


@pytest.mark.parametrize("family", ["quadratic_l1", "quadratic_box"])
@pytest.mark.parametrize("n", [10, 50, 200])
def test_certified_across_the_grid(family, n):
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
        d, free, _, passes = inner_minimize(lam, se, term, x)
        _check_certified(term, x, lam, se, d, free, passes)
        # warm: from the solution at nearby weights, as the dual loop starts it
        d0, _, _, _ = inner_minimize(0.9 * lam + 0.1 / m, se, term, x)
        d_warm, free_warm, _, passes = inner_minimize(lam, se, term, x, d0=d0)
        _check_certified(term, x, lam, se, d_warm, free_warm, passes)
        assert np.array_equal(free_warm, free) and np.array_equal(d_warm, d)


@pytest.mark.parametrize("seed", range(5))
def test_cold_l1_snap_takes_few_passes(seed):
    # the first snap of a newton_prox direction: uniform weights, d = 0;
    # one coordinate per pass took 45 to 58 passes on these
    spec = InstanceSpec(family="quadratic_l1", n=50, m=8, cond=100.0, rho=0.1, seed=seed)
    prob = generate_instance(spec)
    x = 2.0 * np.random.Generator(np.random.PCG64(seed)).standard_normal(50)
    se = eval_smooth(prob, x)
    lam = np.full(8, 1.0 / 8)
    d, free, _, passes = inner_minimize(lam, se, prob.nonsmooth, x)
    _check_certified(prob.nonsmooth, x, lam, se, d, free, passes)
    assert passes <= 20


@pytest.mark.parametrize("delta, earlier_passes", [(2.0 ** -10, 3), (2.0 ** -40, 4)])
def test_safeguard_switches_to_one_release_per_pass(delta, earlier_passes):
    # u = x + d starts at (1, 0, 0, 0): coordinate 0 free, 1-3 held at the
    # kink. Pass 1 releases coordinate 1, whose |r| exceeds rho by delta.
    # That moves d_1 by delta, which pushes |r_2| and |r_3| above rho, and
    # the model value falls by delta^2 / 2. The earlier loop demanded that
    # fall from one releasing pass to the next, and with delta = 2^-40,
    # below one ulp of the model value -0.5, its safeguard went to one
    # release a pass: earlier_passes is what it took. Block exchanges read
    # no model value: the violators count 1, 2, 0, and the one pass without
    # a new fewest count is within the backup rule's allowance of three, so
    # for either delta pass 2 releases 2 and 3 together and pass 3 is exact.
    M = np.eye(4)
    M[1, 2] = M[2, 1] = M[1, 3] = M[3, 1] = -0.5
    v = np.array([-2.0, -(1.0 + delta), -1.0, -1.0])
    se = SmoothEval(values=np.zeros(1), gradients=v[None, :], hessians=M[None])
    term = NonsmoothTerm.scaled_l1(1.0)
    x = np.zeros(4)
    lam = np.array([1.0])
    d, free, _, passes = inner_minimize(lam, se, term, x, d0=np.array([1.0, 0.0, 0.0, 0.0]))
    assert passes == 3 <= earlier_passes
    assert free.all()
    _check_certified(term, x, lam, se, d, free, passes)
    cold, cold_free, _, _ = inner_minimize(lam, se, term, x)
    assert np.array_equal(cold_free, free) and np.array_equal(cold, d)
