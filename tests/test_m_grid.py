"""Acceptance grid over the number of objectives.

Every family at n=10 and m in {2, 3, 4, 5, 8} (cond=100 for the quadratic
families; logsumexp takes no cond) is solved from a seeded start 2 N(0, I)
(clipped into the box for quadratic_box) with the README configuration.
Each run must end CRITICAL_REACHED. The newton metric runs seeds 0-5; the
gradient metric, whose runs take hundreds of steps, runs seeds 0-3.
"""

import numpy as np
import pytest

from moprox import InstanceSpec, SolverConfig, Status, generate_instance, solve

FAMILIES = ("quadratic", "quadratic_l1", "quadratic_box", "logsumexp")
MS = (2, 3, 4, 5, 8)


def _cells():
    for variant, seeds in (("newton", range(6)), ("gradient", range(4))):
        for family in FAMILIES:
            for m in MS:
                for seed in seeds:
                    yield pytest.param(variant, family, m, seed,
                                       id=f"{variant}-{family}-m{m}-s{seed}")


@pytest.mark.parametrize("variant,family,m,seed", list(_cells()))
def test_grid_cell_reaches_criticality(variant, family, m, seed):
    spec = InstanceSpec(family=family, n=10, m=m,
                        cond=1.0 if family == "logsumexp" else 100.0,
                        rho=0.1 if family == "quadratic_l1" else 0.0, seed=seed)
    prob = generate_instance(spec)
    x0 = 2.0 * np.random.Generator(np.random.PCG64(1000 + seed)).standard_normal(10)
    if family == "quadratic_box":
        x0 = np.clip(x0, spec.lo, spec.hi)
    extra = {"variant": "gradient", "ell": prob.lip_grad} if variant == "gradient" else {}
    cfg = SolverConfig(eps=1e-9, tol_gap=1e-12, max_outer=2000, **extra)
    tr = solve(prob, cfg, x0)
    assert tr.status is Status.CRITICAL_REACHED, (tr.status, tr.steps_taken, tr.message)
