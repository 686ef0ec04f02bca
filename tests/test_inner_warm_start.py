"""Property test: the inner solve's answer does not depend on its start d0.

inner_minimize may start its active set from any finite d0, including one
whose x + d0 lies outside the box or exactly on an l1 kink. Whatever the
start, it must return the cold start's free set and solution, exact to the
subdifferential residual of the cold-start test.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from moprox import InstanceSpec, eval_smooth, generate_instance  # noqa: E402
from moprox.subproblem import inner_minimize  # noqa: E402

from conftest import subdiff_residual  # noqa: E402


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["quadratic_l1", "quadratic_box"]),
       n=st.integers(1, 20), m=st.integers(1, 5),
       cond=st.floats(1.0, 100.0), rho=st.floats(0.01, 1.0),
       scale=st.floats(0.01, 5.0), seed=st.integers(0, 2 ** 32 - 1))
def test_warm_start_matches_cold_start(family, n, m, cond, rho, scale, seed):
    spec = InstanceSpec(family=family, n=n, m=m, cond=cond, rho=rho, seed=seed)
    prob = generate_instance(spec)
    term = prob.nonsmooth
    rng = np.random.Generator(np.random.PCG64(seed))
    x = 2.0 * rng.standard_normal(n)
    if family == "quadratic_l1":
        x[rng.random(n) < 0.3] = 0.0
    else:
        x = np.clip(x, spec.lo, spec.hi)
    lam = rng.dirichlet(np.ones(m))
    # x + d0 beyond the box on about half the coordinates at scale 5
    d0 = scale * rng.standard_normal(n)
    pinned = rng.random(n) < 0.3
    if family == "quadratic_l1":
        d0[pinned] = -x[pinned]  # x + d0 exactly on the kink
    else:
        d0[pinned] = np.where(rng.random(n) < 0.5, spec.lo, spec.hi)[pinned] - x[pinned]
    se = eval_smooth(prob, x)
    d_cold, free_cold, _, _ = inner_minimize(lam, se, term, x)
    d, free, _, _ = inner_minimize(lam, se, term, x, d0=d0)
    assert np.array_equal(free, free_cold)
    assert np.linalg.norm(d - d_cold) <= 1e-12 * max(1.0, float(np.linalg.norm(d)))
    v = lam @ se.gradients
    M = np.tensordot(lam, se.hessians, axes=1)
    resid = subdiff_residual(term, x + d, v + M @ d)
    assert resid <= 1e-13 * max(1.0, float(np.max(np.abs(v))))
