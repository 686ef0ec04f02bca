"""Shared fixtures and independent oracles used across the test suite.

The oracles here are deliberately naive (enumeration, dense grids, finite
differences) so they cannot share a bug with the library code they check.
"""

import os

from trace_digest import BLAS_THREAD_VARS

# One BLAS thread, as CI and perfbench run; it takes effect only when set
# before numpy is first imported, which the imports below do.
for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.optimize import nnls  # noqa: E402

from moprox import (  # noqa: E402
    InstanceSpec,
    NonsmoothTerm,
    ProblemInstance,
    SmoothObjective,
    eval_smooth,
    gen_quadratic,
    generate_instance,
)


def fd_gradient(evaluate, x, h=1e-6):
    """Central-difference gradient of evaluate(x)[0]."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (evaluate(x + e)[0] - evaluate(x - e)[0]) / (2.0 * h)
    return g


def fd_hessian(evaluate, x, h=1e-5):
    """Central-difference Hessian from gradient evaluations."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        gp = evaluate(x + e)[1]
        gm = evaluate(x - e)[1]
        H[:, j] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


def lse_hessian_lipschitz(spec: InstanceSpec) -> float:
    """Estimate L2, the Hessian Lipschitz constant, of a logsumexp instance.

    Central differences (h = 1e-4) of each objective's Hessian along five
    seeded unit directions at the mean of the objectives' centers, where
    solution points of the family concentrate; returns the median spectral
    norm over directions and objectives. The global worst case over R^n
    would overstate the curvature variation that runs meet by orders of
    magnitude. The directions continue the instance's own PCG64 stream:
    the draws of zoo.gen_logsumexp_reg (5 rows, 5 offsets and a center per
    objective) are replayed first to recover the centers.
    """
    assert spec.family == "logsumexp"
    problem = generate_instance(spec)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    centers = []
    for _ in range(spec.m):
        rng.standard_normal((5, spec.n))
        rng.standard_normal(5)
        centers.append(0.5 * rng.standard_normal(spec.n))
    anchor = np.mean(centers, axis=0)
    h = 1e-4
    norms = []
    for _ in range(5):
        u = rng.standard_normal(spec.n)
        u /= np.linalg.norm(u)
        diffs = (eval_smooth(problem, anchor + h * u).hessians
                 - eval_smooth(problem, anchor - h * u).hessians) / (2.0 * h)
        norms.extend(float(np.linalg.norm(diff, 2)) for diff in diffs)
    return float(np.median(norms))


def subdiff_residual(term: NonsmoothTerm, u, r) -> float:
    """Distance from -r to the subdifferential of the term at u.

    Returns min over s in the subdifferential of ||r + s||. Used to verify
    that a candidate direction satisfies the subproblem's stationarity
    condition to a tolerance. A box coordinate within a few ulps of a bound
    counts as sitting on it.
    """
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    if term.kind == NonsmoothTerm.KIND_ZERO:
        return float(np.linalg.norm(r))
    if term.kind == NonsmoothTerm.KIND_L1:
        res = np.where(
            u != 0.0,
            r + term.rho * np.sign(u),
            np.sign(r) * np.maximum(np.abs(r) - term.rho, 0.0),
        )
        return float(np.linalg.norm(res))
    lo, hi = term.lo, term.hi
    slack = 4.0 * np.finfo(float).eps * (
        1.0 + np.maximum(np.abs(u), np.maximum(np.abs(lo), np.abs(hi))))
    res = r.copy()
    at_lo = u <= lo + slack
    at_hi = u >= hi - slack
    # normal cone: (-inf, 0] at the lower bound, [0, inf) at the upper
    res[at_lo] = np.maximum(-r[at_lo], 0.0)
    res[at_hi] = np.maximum(r[at_hi], 0.0)
    res[at_lo & at_hi] = 0.0
    return float(np.linalg.norm(res))


def min_norm_residual(problem: ProblemInstance, x) -> float:
    """Distance from 0 to conv{grad f_i(x)} + the term's subdifferential at x.

    Relative to max_i ||grad f_i(x)||, for the zero and l1 terms. The
    weights come from scipy's nnls on the coordinates where the term is
    differentiable, with the simplex's sum as one heavily weighted row;
    renormalized, they are a feasible point, so the residual there (by
    subdiff_residual) bounds the distance from above.
    """
    x = np.asarray(x, dtype=float)
    term = problem.nonsmooth
    assert term.kind in (NonsmoothTerm.KIND_ZERO, NonsmoothTerm.KIND_L1)
    grads = eval_smooth(problem, x).gradients
    scale = np.linalg.norm(grads, axis=1).max()
    smooth, slope = np.ones(x.size, dtype=bool), np.zeros(x.size)
    if term.kind == NonsmoothTerm.KIND_L1:
        smooth, slope = x != 0.0, term.rho * np.sign(x)
    big = 1e3
    a = np.vstack([grads[:, smooth].T / scale, np.full(problem.m, big)])
    w = nnls(a, np.append(-slope[smooth] / scale, big))[0]
    return subdiff_residual(term, x, (w / w.sum()) @ grads) / scale


def simplex_projection_oracle(v):
    """Exact simplex projection by enumerating supports (m small).

    For each candidate support S the KKT system gives w_S = v_S - tau with
    tau = (sum(v_S) - 1) / |S|; the candidate is the projection iff w_S > 0
    on S and v_j - tau <= 0 off S.
    """
    v = np.asarray(v, dtype=float)
    m = v.size
    best = None
    for mask in range(1, 2 ** m):
        idx = [j for j in range(m) if mask >> j & 1]
        tau = (v[idx].sum() - 1.0) / len(idx)
        w = np.zeros(m)
        w[idx] = v[idx] - tau
        if np.any(w[idx] <= 0.0):
            continue
        off = [j for j in range(m) if not (mask >> j & 1)]
        if off and np.any(v[off] - tau > 1e-14):
            continue
        dist = float(np.linalg.norm(w - v))
        if best is None or dist < best[0]:
            best = (dist, w)
    assert best is not None
    return best[1]


def grid_min_theta(problem: ProblemInstance, x, rounds=10, pts=41):
    """Brute-force min_d max_i psi_i(d) on a shrinking dense grid (n <= 2).

    The search box is centered at zero with radius 1 + 2 * max_i ||grad_i|| / mu,
    which contains the true minimizer by strong convexity. Each round evaluates
    the model on a full grid and re-centers on the best point; the box expands
    instead of shrinking whenever the best point touches its boundary.
    """
    x = np.asarray(x, dtype=float)
    n = problem.n
    assert n <= 2
    se = eval_smooth(problem, x)
    term = problem.nonsmooth
    base_abs = float(np.abs(x).sum())

    def psi_max(D):
        vals = np.full(D.shape[0], -np.inf)
        XD = x[None, :] + D
        for i in range(problem.m):
            lin = D @ se.gradients[i]
            quad = 0.5 * np.einsum("ij,ij->i", D @ se.hessians[i], D)
            if term.kind == NonsmoothTerm.KIND_L1:
                shift = term.rho * (np.abs(XD).sum(axis=1) - base_abs)
            elif term.kind == NonsmoothTerm.KIND_BOX:
                ok = (np.all(XD >= term.lo - 1e-9, axis=1)
                      & np.all(XD <= term.hi + 1e-9, axis=1))
                shift = np.where(ok, 0.0, np.inf)
            else:
                shift = 0.0
            vals = np.maximum(vals, lin + quad + shift)
        return vals

    grad_norms = np.linalg.norm(se.gradients, axis=1)
    r = 1.0 + 2.0 * float(np.max(grad_norms)) / problem.mu
    center = np.zeros(n)
    best_val = np.inf
    for _ in range(rounds):
        axes = [np.linspace(center[j] - r, center[j] + r, pts) for j in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        D = np.stack([g.ravel() for g in mesh], axis=1)
        vals = psi_max(D)
        k = int(np.argmin(vals))
        best_val = min(best_val, float(vals[k]))
        on_edge = np.any(np.abs(np.abs(D[k] - center) - r) < 1e-12 * (1.0 + r))
        center = D[k]
        spacing = 2.0 * r / (pts - 1)
        r = 2.0 * r if on_edge else 3.0 * spacing
    return best_val


@pytest.fixture
def biquadratic():
    """n=1, m=2 quadratics with gradients x-1 and x+1 (shared Hessian 1)."""
    spec = InstanceSpec(family="quadratic", n=1, m=2, mu=1.0, seed=0)
    return gen_quadratic(spec, shifts=np.array([[1.0], [-1.0]]))


@pytest.fixture
def l1_scalar():
    """n=1 single objective 0.5 x^2 with g = |x|."""

    def f(x):
        return 0.5 * x[0] ** 2, np.array([x[0]]), np.array([[1.0]])

    return ProblemInstance(
        n=1, m=1, smooth=(SmoothObjective(f),),
        nonsmooth=NonsmoothTerm.scaled_l1(1.0), mu=1.0)
