"""Direction-finding subproblem for the proximal Newton-type solver.

At a point x the search direction solves

    min_d  max_i  grad f_i(x)' d + g_i(x + d) - g_i(x) + 0.5 d' H_i(x) d,

whose optimal value is nonpositive and is zero exactly at critical points.
The min-max is solved through its concave dual over the unit simplex: for
weights w the inner minimization is strongly convex, and the dual function
phi(w) = min_d sum_i w_i psi_i(d) is maximized by one loop for every m, an
active-set projected Newton method on the simplex. Each iteration takes a
Newton step on the current face, whose tangent-space Hessian is available
in closed form from the inner solve, and falls back to a projected
supergradient step only when the Newton step gives no ascent. Gap
arithmetic uses extended precision internally so that tolerances near
1e-12 remain meaningful when model values are large.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConvergenceError, InputError, SingularMetricError
from .problems import NonsmoothTerm, ProblemInstance, SmoothEval, eval_smooth, _as_point

__all__ = [
    "DirectionResult",
    "project_simplex",
    "model_values",
    "duality_gap",
    "inner_minimize",
    "solve_direction",
]


@dataclass(frozen=True)
class DirectionResult:
    """Solution of the direction subproblem at a point.

    Attributes
    ----------
    direction : ndarray
        Minimizing direction d, shape (n,).
    theta : float
        Optimal model value max_i psi_i(d); nonpositive, and zero only at
        (numerically) critical points.
    weights : ndarray
        Dual simplex weights at termination, shape (m,).
    gap : float
        Duality gap certificate max_i psi_i(d) - sum_i w_i psi_i(d).
    inner_iters, dual_iters : int
        Total inner prox-gradient/Newton-solve iterations and number of dual
        weight vectors visited.
    dual_history : tuple of float
        Dual objective values of the accepted ascent iterates, nondecreasing.
    """

    direction: np.ndarray
    theta: float
    weights: np.ndarray
    gap: float
    inner_iters: int
    dual_iters: int
    dual_history: tuple = ()


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of v onto the unit simplex {w >= 0, sum w = 1}.

    Uses the sort-and-threshold rule, then renormalizes so the sum is exact
    to the last bit. Idempotent on simplex points.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InputError("project_simplex expects a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise InputError("project_simplex input has non-finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    mask = u - css / ks > 0.0
    k = int(ks[mask][-1])
    tau = css[k - 1] / k
    w = np.maximum(v - tau, 0.0)
    w /= w.sum()
    return w


def model_values(d, smooth_eval: SmoothEval, terms, x) -> np.ndarray:
    """Per-objective model values psi_i(d) at the base point x.

    psi_i(d) = grad f_i' d + g_i(x + d) - g_i(x) + 0.5 d' H_i d. Entries may
    be +inf when x + d leaves the domain of an indicator term; x itself must
    lie inside every domain.
    """
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    xd = x + d
    m = smooth_eval.values.size
    hd = smooth_eval.hessians @ d
    psi = np.empty(m)
    for i in range(m):
        at_x = terms[i].value(x)
        if not np.isfinite(at_x):
            raise InputError("base point lies outside the domain of the nonsmooth term")
        shift = terms[i].value(xd) - at_x
        psi[i] = float(smooth_eval.gradients[i] @ d) + 0.5 * float(d @ hd[i]) + shift
    return psi


def _term_value_hi(term: NonsmoothTerm, u: np.ndarray):
    if term.kind == NonsmoothTerm.KIND_ZERO:
        return np.longdouble(0.0)
    if term.kind == NonsmoothTerm.KIND_L1:
        return np.longdouble(term.rho) * np.sum(np.abs(u))
    if term.value(np.asarray(u, dtype=float)) == 0.0:
        return np.longdouble(0.0)
    return np.longdouble(np.inf)


def _model_values_hi(d, smooth_eval: SmoothEval, terms, x) -> np.ndarray:
    """Model values in extended precision; keeps tiny duality gaps resolvable."""
    dl = np.asarray(d).astype(np.longdouble)
    xl = np.asarray(x).astype(np.longdouble)
    m = smooth_eval.values.size
    psi = np.empty(m, dtype=np.longdouble)
    for i in range(m):
        g = smooth_eval.gradients[i].astype(np.longdouble)
        h = smooth_eval.hessians[i].astype(np.longdouble)
        at_x = _term_value_hi(terms[i], xl)
        if not np.isfinite(at_x):
            raise InputError("base point lies outside the domain of the nonsmooth term")
        shift = _term_value_hi(terms[i], xl + dl) - at_x
        psi[i] = g @ dl + np.longdouble(0.5) * (dl @ (h @ dl)) + shift
    return psi


def duality_gap(weights, model_vals) -> float:
    """Gap max_i psi_i - sum_i w_i psi_i; nonnegative up to roundoff."""
    w = np.asarray(weights, dtype=float)
    psi = np.asarray(model_vals, dtype=float)
    if w.shape != psi.shape:
        raise InputError("weights and model values must have matching shapes")
    return float(np.max(psi) - w @ psi)


def _power_lambda_max(M: np.ndarray, iters: int = 30) -> float:
    n = M.shape[0]
    v = np.ones(n) + 0.01 * np.arange(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        lam = float(np.linalg.norm(w))
        if lam <= 0.0:
            return 0.0
        v = w / lam
    return lam


def inner_minimize(weights, smooth_eval: SmoothEval, term: NonsmoothTerm, x, tol,
                   *, d0=None, max_iters: int = 10000, strong_convexity=None):
    """Minimize the weighted model sum_i w_i psi_i(d) for fixed weights.

    With a zero nonsmooth term the minimizer solves the symmetric positive
    definite system H_w d = -grad_w exactly (Cholesky). Otherwise an
    accelerated proximal gradient iteration runs with step 1/L, where L is a
    30-step power-iteration estimate of the top eigenvalue of H_w inflated by
    a 1.1 safety factor; the proximal map is evaluated at the shifted point
    x + d and the result shifted back. Iterations stop once the fixed-point
    residual ||d - T(d)|| falls to tol, which bounds the distance from the
    stationarity inclusion by a metric-dependent constant.

    Returns (d, iterations). Raises SingularMetricError if the metric is not
    positive definite and ConvergenceError if the cap is hit first.
    """
    lam = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    v = lam @ smooth_eval.gradients
    M = np.tensordot(lam, smooth_eval.hessians, axes=1)
    M = 0.5 * (M + M.T)

    if term.kind == NonsmoothTerm.KIND_ZERO:
        try:
            factor = cho_factor(M, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularMetricError(f"weighted Hessian is not positive definite: {exc}") from exc
        d = cho_solve(factor, -v, check_finite=False)
        return d, 1

    tol = float(tol)
    if not np.isfinite(tol) or tol <= 0:
        raise InputError(f"inner tolerance must be finite and > 0, got {tol}")
    lam_max = _power_lambda_max(M)
    if lam_max <= 0.0:
        raise SingularMetricError("weighted Hessian has no positive curvature")
    step = 1.0 / (1.1 * lam_max)

    mu = None if strong_convexity is None else float(strong_convexity)
    if mu is not None and mu > 0:
        q = min(mu * step, 1.0)
        beta_const = (1.0 - sqrt(q)) / (1.0 + sqrt(q))
    else:
        beta_const = None

    d = np.zeros_like(v) if d0 is None else np.array(d0, dtype=float, copy=True)
    y = d.copy()
    t_mom = 1.0
    res = np.inf
    for it in range(1, max_iters + 1):
        grad_y = v + M @ y
        d_new = term.prox(x + (y - step * grad_y), step) - x
        res = float(np.linalg.norm(y - d_new))
        if res <= tol:
            # T is nonexpansive, so the fixed-point residual of d_new is <= res
            return d_new, it
        if beta_const is None:
            t_next = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t_mom * t_mom))
            beta = (t_mom - 1.0) / t_next
            t_mom = t_next
        else:
            beta = beta_const
        y = d_new + beta * (d_new - d)
        d = d_new
    raise ConvergenceError(
        f"inner solver residual {res:.3e} above tolerance {tol:.3e} after {max_iters} iterations",
        residual=res,
    )


@dataclass(frozen=True)
class _Snapshot:
    lam: np.ndarray
    d: np.ndarray
    psi: np.ndarray  # extended precision
    phi: np.longdouble
    gap: np.longdouble


def _free_mask(term: NonsmoothTerm, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Coordinates where the model is locally smooth in d at the point x + d.

    A few ulps of slack absorb the x + (u - x) round trip of prox outputs.
    """
    u = x + d
    if term.kind == NonsmoothTerm.KIND_L1:
        return np.abs(u) > 4.0 * np.finfo(float).eps * (np.abs(x) + np.abs(d))
    if term.kind == NonsmoothTerm.KIND_BOX:
        lo, hi = term._bounds_for(u)
        slack = term._bound_slack(u, lo, hi)
        return (u - lo > slack) & (hi - u > slack)
    return np.ones(x.size, dtype=bool)


def _face_refine(lam, se: SmoothEval, term: NonsmoothTerm, x, d):
    """Exact reduced solve of the weighted inner problem on the active pattern
    of d, or None when no refinement applies.

    The first-order inner solver identifies which coordinates sit at a kink or
    bound; fixing those and solving the remaining smooth block by Cholesky
    removes its residual error entirely. The caller accepts the result only if
    it does not increase the weighted model value, so a wrong pattern guess is
    harmless.
    """
    if term.kind == NonsmoothTerm.KIND_ZERO:
        return None
    free = _free_mask(term, x, d)
    act = ~free
    u = x + d
    d_new = np.empty_like(d)
    if term.kind == NonsmoothTerm.KIND_L1:
        d_new[act] = -x[act]
    else:
        lo, hi = term._bounds_for(u)
        at_lo = act & (u - lo <= hi - u)
        at_hi = act & ~at_lo
        d_new[at_lo] = lo[at_lo] - x[at_lo]
        d_new[at_hi] = hi[at_hi] - x[at_hi]
    if not free.any():
        return d_new
    h_lam = np.tensordot(lam, se.hessians, axes=1)
    g_lam = lam @ se.gradients
    rhs = -g_lam[free]
    if term.kind == NonsmoothTerm.KIND_L1:
        rhs = rhs - term.rho * np.sign(u[free])
    if act.any():
        rhs = rhs - h_lam[np.ix_(free, act)] @ d_new[act]
    try:
        d_new[free] = cho_solve(cho_factor(h_lam[np.ix_(free, free)]), rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d_new)):
        return None
    return d_new


def solve_direction(problem: ProblemInstance, x, tol_gap: float = 1e-10,
                    max_dual_iters: int = 500, *, inner_tol=None,
                    max_inner_iters: int = 10000, smooth_eval=None,
                    strong_convexity=None) -> DirectionResult:
    """Solve the direction subproblem at x to a certified duality gap.

    Maximizes the dual over the weight simplex from the uniform vector. Each
    iteration first takes a Newton step on the current face (the support of
    the weights plus the outside index with the largest model value, when
    that value exceeds the dual value), cut back to the simplex boundary and
    halved until the dual value does not decrease. When the Newton step gives
    no ascent, a projected supergradient step with a warm-started step length
    is taken instead. Terminates once the gap certificate reaches tol_gap;
    when neither step ascends, or max_dual_iters iterations pass first,
    ConvergenceError is raised carrying the best result found.

    Returns a DirectionResult whose theta is nonpositive: if rounding at a
    critical point produces a positive model optimum, the zero direction
    (feasible, value zero) is returned instead.
    """
    x = _as_point(x, problem.n)
    tol_gap = float(tol_gap)
    if not np.isfinite(tol_gap) or tol_gap <= 0:
        raise InputError(f"tol_gap must be finite and > 0, got {tol_gap}")
    se = eval_smooth(problem, x) if smooth_eval is None else smooth_eval
    terms = problem.nonsmooth
    mu = problem.mu if strong_convexity is None else float(strong_convexity)
    if inner_tol is None:
        inner_tol = tol_gap / 10.0
    m = problem.m
    counts = {"inner": 0, "dual": 0}

    def snap(lam: np.ndarray, warm) -> _Snapshot:
        d, its = inner_minimize(lam, se, terms[0], x, inner_tol, d0=warm,
                                max_iters=max_inner_iters, strong_convexity=mu)
        counts["inner"] += its
        counts["dual"] += 1
        psi = _model_values_hi(d, se, terms, x)
        lam_ld = lam.astype(np.longdouble)
        refined = _face_refine(lam, se, terms[0], x, d)
        if refined is not None:
            psi_r = _model_values_hi(refined, se, terms, x)
            if np.all(np.isfinite(psi_r)) and lam_ld @ psi_r <= lam_ld @ psi:
                d, psi = refined, psi_r
        phi = lam_ld @ psi
        gap = np.max(psi) - phi
        return _Snapshot(lam=lam, d=d, psi=psi, phi=phi, gap=gap)

    def finalize(s: _Snapshot) -> DirectionResult:
        psi64 = model_values(s.d, se, terms, x)
        theta = float(np.max(psi64))
        d = s.d.copy()
        gap = float(s.gap)
        if theta > 0.0:
            # the exact optimum is nonpositive (d = 0 is feasible with value 0),
            # so a positive rounded value certifies criticality at precision
            d = np.zeros_like(d)
            theta = 0.0
            gap = 0.0
        return DirectionResult(direction=d, theta=theta, weights=s.lam.copy(), gap=gap,
                               inner_iters=counts["inner"], dual_iters=counts["dual"],
                               dual_history=tuple(history))

    cur = snap(np.full(m, 1.0 / m), None)
    best = cur
    history = [float(cur.phi)]

    def trial(lam: np.ndarray, frm: _Snapshot) -> _Snapshot:
        nonlocal best
        cand = snap(lam, frm.d)
        if cand.gap < best.gap:
            best = cand
        return cand

    # On a face the dual Hessian restricted to zero-sum directions is
    # -Q' W^-1 Q with Q the per-objective model gradients on the free
    # coordinates and W the free block of the weighted Hessian, so each step
    # costs one small Cholesky solve and converges quadratically near
    # optima interior to the face.
    def newton_step(here: _Snapshot):
        lam = here.lam
        support = np.flatnonzero(lam > 0.0)
        outside = np.flatnonzero(lam == 0.0)
        if outside.size:
            j = int(outside[np.argmax(here.psi[outside])])
            if here.psi[j] > here.phi:
                support = np.sort(np.append(support, j))
        if support.size == 1:
            return None  # vertex-optimal face; no Newton direction
        free = _free_mask(terms[0], x, here.d)
        if not free.any():
            # the model no longer responds to d, so the dual is linear in the
            # weights and the best vertex is exact
            unit = np.zeros(m)
            unit[int(np.argmax(here.psi))] = 1.0
            if np.array_equal(unit, lam):
                return None
            cand = trial(unit, here)
            return cand if cand.phi >= here.phi else None
        h_lam = np.tensordot(lam, se.hessians, axes=1)
        try:
            factor = cho_factor(h_lam[np.ix_(free, free)])
        except np.linalg.LinAlgError:
            return None
        grads_d = se.gradients[support] + se.hessians[support] @ here.d
        q = grads_d[:, free]
        curv = q @ cho_solve(factor, q.T)
        curv = 0.5 * (curv + curv.T)
        s_len = support.size
        basis = np.vstack([np.eye(s_len - 1), -np.ones(s_len - 1)])
        h_red = basis.T @ curv @ basis
        g_red = (here.psi[support[:-1]] - here.psi[support[-1]]).astype(float)
        try:
            du = np.linalg.solve(h_red, g_red)
        except np.linalg.LinAlgError:
            du, *_ = np.linalg.lstsq(h_red, g_red, rcond=None)
        if not np.all(np.isfinite(du)):
            return None
        move = np.zeros(m)
        move[support] = basis @ du
        neg = move < 0.0
        t = 1.0
        if np.any(neg):
            t = min(1.0, float(np.min(lam[neg] / -move[neg])))
        if t <= 0.0:
            return None
        for _ in range(8):
            lam_new = lam + t * move
            np.maximum(lam_new, 0.0, out=lam_new)
            lam_new[lam_new < 1e-15] = 0.0
            total = lam_new.sum()
            if total <= 0.0:
                return None
            lam_new /= total
            if np.array_equal(lam_new, lam):
                return None
            cand = trial(lam_new, here)
            if cand.phi >= here.phi:
                return cand
            t *= 0.5
        return None

    # safeguard: projected supergradient step with a backtracked step length
    s_prev = 1.0

    def supergradient_step(here: _Snapshot):
        nonlocal s_prev
        psi64 = here.psi.astype(float)
        s = min(1.0, 4.0 * s_prev)
        for _ in range(60):
            lam_t = project_simplex(here.lam + s * psi64)
            if np.array_equal(lam_t, here.lam):
                return None  # projection no longer moves: dual-stationary here
            cand = trial(lam_t, here)
            if cand.phi >= here.phi:
                s_prev = s
                return cand
            s *= 0.5
        return None

    for _ in range(max_dual_iters):
        if best.gap <= tol_gap:
            break
        nxt = newton_step(cur)
        if nxt is None:
            nxt = supergradient_step(cur)
        if nxt is None:
            break
        cur = nxt
        history.append(float(cur.phi))

    if best.gap <= tol_gap:
        return finalize(best)
    raise ConvergenceError(
        f"direction subproblem stopped with duality gap {float(best.gap):.3e} "
        f"above {tol_gap:.3e}",
        residual=float(best.gap),
        best=finalize(best),
    )
