"""Property test: whole solves over the four families, either metric.

Instances have n <= 10 and m in {2, 3, 5, 8, 13}, condition numbers up to
1e4, shifts of scale 1 to 1e6 on the quadratic families and starts of scale
1 to 1e6 (uniform in the box for quadratic_box). Whatever the draw, solve()
returns a trace rather than raising, a subproblem_failure says why, and a
rerun in the same process gives the same trace to the byte. Not every draw
ends critical: large shifts and starts reach the regimes where a direction
solve can fail.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from moprox import (  # noqa: E402
    InstanceSpec, SolverConfig, SolveTrace, Status, generate_instance, solve)
from moprox.zoo import FAMILIES, attach_nonsmooth, gen_quadratic  # noqa: E402

from conftest import trace_bytes  # noqa: E402


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 10),
       m=st.sampled_from([2, 3, 5, 8, 13]), cond=_log_uniform(1.0, 1e4),
       rho=st.floats(0.01, 1.0), shift=_log_uniform(1.0, 1e6), scale=_log_uniform(1.0, 1e6),
       variant=st.sampled_from(["newton", "gradient"]), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_returns_a_reproducible_trace(family, n, m, cond, rho, shift, scale, variant,
                                            seed):
    spec = InstanceSpec(family=family, n=n, m=m, seed=seed, rho=rho,
                        cond=1.0 if family == "logsumexp" else cond)
    prob = generate_instance(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    if family != "logsumexp":
        prob = attach_nonsmooth(gen_quadratic(spec, shift * rng.standard_normal((m, n))),
                                prob.nonsmooth)
    if family == "quadratic_box":
        x0 = rng.uniform(spec.lo, spec.hi, n)
    else:
        x0 = scale * rng.standard_normal(n)
    extra = {"ell": prob.lip_grad} if variant == "gradient" else {}
    config = SolverConfig(eps=1e-9, tol_gap=1e-12, variant=variant, **extra)
    trace = solve(prob, config, x0)
    assert isinstance(trace, SolveTrace)
    if trace.status is Status.SUBPROBLEM_FAILURE:
        assert trace.message
    assert trace_bytes(solve(prob, config, x0)) == trace_bytes(trace)
