"""Direction-finding subproblem for the proximal Newton-type solver.

At a point x the search direction solves

    min_d  max_i  grad f_i(x)' d + g(x + d) - g(x) + 0.5 d' H_i d,

whose optimal value is nonpositive and is zero exactly at critical points.
The metric H_i is either the Hessian of f_i at x (the proximal Newton-type
model) or ell times the identity for every objective (the multiobjective
proximal gradient model). The min-max is solved through its concave dual
over the unit simplex: for weights w the inner minimization is a strongly
convex piecewise quadratic. Under the Hessian metric it is solved exactly
(up to rounding) by a primal active-set loop of Cholesky solves on the
coordinates that sit on smooth pieces of the nonsmooth term; under ell I it
is one proximal map, with no Hessian algebra anywhere.
The dual function phi(w) = min_d sum_i w_i psi_i(d) is maximized by one
loop for every m, an active-set projected Newton method on the simplex.
Each iteration takes a Newton step on the current face, whose
tangent-space Hessian is available in closed form from the inner solve's
free coordinates, and falls back to a projected supergradient step only
when the Newton step gives no ascent. Every model value comes from one
extended-precision evaluation per snap (one inner solve at fixed weights),
with the gradients, the Hessians and g(x) evaluated once per direction: it
gives the dual value phi, the gap certificate and theta, so tolerances near
1e-12 remain meaningful when model values are large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigError, ConvergenceError, InputError, SingularMetricError
from .problems import NonsmoothTerm, ProblemInstance, SmoothEval, eval_smooth, _as_point

_EPS = np.finfo(float).eps

__all__ = [
    "DirectionResult",
    "Metric",
    "project_simplex",
    "model_values",
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
        Optimal model value max_i psi_i(d), rounded from the same
        extended-precision values that certify the gap; nonpositive, and
        zero only at (numerically) critical points.
    weights : ndarray
        Dual simplex weights at termination, shape (m,).
    gap : float
        Duality gap certificate max_i psi_i(d) - sum_i w_i psi_i(d).
    inner_iters, dual_iters : int
        Total passes of the inner active-set solve (one Cholesky solve each)
        and number of dual weight vectors visited.
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


@dataclass(frozen=True)
class Metric:
    """The curvature H_i of the direction model, shared by every snap.

    Build it with :meth:`hessian` (H_i is the Hessian of f_i at the base
    point, the proximal Newton-type model) or :meth:`scaled_identity`
    (H_i = ell I for every objective, the multiobjective proximal gradient
    model); ell is None for the former.
    """

    ell: Optional[float] = None

    @classmethod
    def hessian(cls) -> "Metric":
        return cls()

    @classmethod
    def scaled_identity(cls, ell: float) -> "Metric":
        ell = float(ell)
        if not (np.isfinite(ell) and ell > 0):
            raise ConfigError(f"ell must be finite and > 0, got {ell}")
        return cls(ell=ell)

    def minimize(self, weights, smooth_eval: SmoothEval, term: NonsmoothTerm, x,
                 *, max_iters: int = 10000):
        """Minimize the weighted model at fixed weights; returns (d, free, passes).

        Under the Hessian metric this is :func:`inner_minimize`. Under ell I
        the minimizer is one proximal map, u = prox_{g/ell}(x - grad_w/ell)
        and d = u - x, counted as one pass; free marks the coordinates where
        g is smooth at u (u != 0 for l1, lo < u < hi for the box, all of
        them for the zero term). smooth_eval's Hessians are not read then.
        """
        if self.ell is None:
            return inner_minimize(weights, smooth_eval, term, x, max_iters=max_iters)
        x = np.asarray(x, dtype=float)
        v = np.asarray(weights, dtype=float) @ smooth_eval.gradients
        u = term.prox(x - v / self.ell, 1.0 / self.ell)
        if term.kind == NonsmoothTerm.KIND_L1:
            free = u != 0.0
        elif term.kind == NonsmoothTerm.KIND_BOX:
            free = (term.lo < u) & (u < term.hi)
        else:
            free = np.ones(u.size, dtype=bool)
        return u - x, free, 1


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


def model_values(d, smooth_eval: SmoothEval, term: NonsmoothTerm, x) -> np.ndarray:
    """Per-objective model values psi_i(d) at the base point x.

    psi_i(d) = grad f_i' d + g(x + d) - g(x) + 0.5 d' H_i d, the float
    rounding of the extended-precision values the direction solver takes
    phi, the gap and theta from. Entries may be +inf when x + d leaves the
    domain of an indicator term; x itself must lie inside it.
    """
    return _model_values_hi(d, smooth_eval.gradients, smooth_eval.hessians, term, x,
                            _term_at(term, x)).astype(float)


def _term_at(term: NonsmoothTerm, x):
    """g(x) in extended precision; raises InputError outside the term's domain."""
    at_x = term.value(np.asarray(x, dtype=np.longdouble))
    if not np.isfinite(at_x):
        raise InputError("base point lies outside the domain of the nonsmooth term")
    return at_x


def _model_values_hi(d, gradients, hessians, term: NonsmoothTerm, x, at_x) -> np.ndarray:
    """All m model values in extended precision, as one vectorized expression.

    gradients (m, n), hessians (m, n, n) and x are cast to extended precision
    unless they already are (solve_direction casts them once per call), and
    at_x is g(x) from :func:`_term_at`. The nonsmooth shift g(x + d) - g(x)
    is common to every objective, because g is shared. Extended
    precision keeps duality gaps near 1e-12 resolvable when the model values
    are large.
    """
    dl = np.asarray(d, dtype=np.longdouble)
    shift = term.value(np.asarray(x, dtype=np.longdouble) + dl) - at_x
    grads = np.asarray(gradients, dtype=np.longdouble)
    hess = np.asarray(hessians, dtype=np.longdouble)
    return grads @ dl + 0.5 * ((hess @ dl) @ dl) + shift


def _cholesky(block: np.ndarray):
    try:
        return cho_factor(block, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"weighted Hessian is not positive definite: {exc}") from exc


def inner_minimize(weights, smooth_eval: SmoothEval, term: NonsmoothTerm, x,
                   *, max_iters: int = 10000):
    """Minimize the weighted model sum_i w_i psi_i(d) for fixed weights, exactly.

    A primal active-set loop on u = x + d, started from d = 0. Each
    coordinate is free, on a smooth piece of the term (fixed l1 sign, or
    strictly inside the box), or held at a kink (0 for l1) or a bound. One
    pass solves the weighted Hessian's free block by Cholesky with the held
    coordinates fixed. If that solve would carry a free coordinate across its
    kink or bound, a ratio test stops the step there and holds it. Otherwise
    the step is taken in full and the held coordinate whose multiplier
    r = grad_w + H_w d breaks optimality the most (|r_j| <= rho for l1,
    r_j >= 0 at lo, r_j <= 0 at hi, up to a few ulps of |grad_w|, |H_w||d|
    and rho) is released; with none left the solve is exact. With nothing
    held, as always for the zero term, a pass is the plain Cholesky solve
    H_w d = -grad_w.

    Returns (d, free, passes) with free the mask of free coordinates. Raises
    SingularMetricError if a free block is not positive definite and
    ConvergenceError if max_iters passes do not certify optimality.
    """
    lam = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    v = lam @ smooth_eval.gradients
    M = np.tensordot(lam, smooth_eval.hessians, axes=1)
    M = 0.5 * (M + M.T)
    l1 = term.kind == NonsmoothTerm.KIND_L1
    rho = term.rho if l1 else 0.0
    d = np.zeros_like(x)
    if l1:
        side = np.sign(x)  # sign of u on free coordinates
        free = x != 0.0
    elif term.kind == NonsmoothTerm.KIND_BOX:
        lo, hi = np.broadcast_to(term.lo, x.shape), np.broadcast_to(term.hi, x.shape)
        side = np.where(x <= lo, -1.0, np.where(x >= hi, 1.0, 0.0))  # held bound
        free = side == 0.0
        d[~free] = np.where(side < 0.0, lo, hi)[~free] - x[~free]
    else:
        free = np.ones(x.size, dtype=bool)
    c = v + rho * side if l1 else v  # linear coefficients on free coordinates

    for it in range(1, max_iters + 1):
        if free.all():
            d_new = cho_solve(_cholesky(M), -c, check_finite=False)
            if term.kind == NonsmoothTerm.KIND_ZERO:
                return d_new, free, it
        else:
            d_new = d.copy()
            if free.any():
                rhs = -c[free] - M[np.ix_(free, ~free)] @ d[~free]
                d_new[free] = cho_solve(_cholesky(M[np.ix_(free, free)]), rhs,
                                        check_finite=False)

        # ratio test: the fraction of the step at which each free coordinate
        # reaches its kink or bound (0 for one already past it)
        p = d_new - d
        u = x + d
        with np.errstate(divide="ignore", invalid="ignore"):
            if l1:
                reach = np.where(side * p < 0.0, -u / p, np.inf)
            else:
                reach = np.where(p < 0.0, (lo - u) / p,
                                 np.where(p > 0.0, (hi - u) / p, np.inf))
        reach = np.where(free, np.maximum(reach, 0.0), np.inf)
        j = int(np.argmin(reach))
        if reach[j] < 1.0:
            d += reach[j] * p
            free[j] = False
            if l1:
                d[j] = -x[j]
            else:
                side[j] = np.sign(p[j])
                d[j] = (lo[j] if p[j] < 0.0 else hi[j]) - x[j]
            continue
        d = d_new

        held = np.flatnonzero(~free)
        if not held.size:
            return d, free, it
        r = v[held] + M[held] @ d
        slack = 4.0 * _EPS * (np.abs(v[held]) + np.abs(M[held]) @ np.abs(d) + rho)
        if l1:
            viol = np.abs(r) - rho
        else:
            viol = side[held] * r
        k = int(np.argmax(viol - slack))
        if viol[k] <= slack[k]:
            return d, free, it
        j = held[k]
        free[j] = True
        if l1:
            side[j] = -np.sign(r[k])
            c[j] = v[j] + rho * side[j]
    raise ConvergenceError(
        f"inner active-set solve not certified after {max_iters} passes",
        residual=float(np.linalg.norm(p)),
    )


@dataclass(frozen=True)
class _Snapshot:
    lam: np.ndarray
    d: np.ndarray
    free: np.ndarray
    psi: np.ndarray  # extended precision, as are phi and gap
    phi: np.floating
    gap: np.floating


def solve_direction(problem: ProblemInstance, x, tol_gap: float = 1e-10,
                    max_dual_iters: int = 500, *, max_inner_iters: int = 10000,
                    smooth_eval=None, metric: Optional[Metric] = None) -> DirectionResult:
    """Solve the direction subproblem at x to a certified duality gap.

    metric defaults to the Hessian metric. smooth_eval, the oracle output at
    x, is evaluated here when not given; the line search of the outer loop
    keeps the output at the step it accepts and passes it in, so each
    iterate sweeps the oracles once. Under the scaled-identity metric its
    Hessians are not read.

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
    metric = Metric.hessian() if metric is None else metric
    ell = metric.ell
    term = problem.nonsmooth
    x_hi = x.astype(np.longdouble)
    at_x = _term_at(term, x_hi)
    grads_hi = se.gradients.astype(np.longdouble)
    if ell is None:
        hess_hi = se.hessians.astype(np.longdouble)
    m = problem.m
    counts = {"inner": 0, "dual": 0}

    def snap(lam: np.ndarray) -> _Snapshot:
        d, free, passes = metric.minimize(lam, se, term, x, max_iters=max_inner_iters)
        counts["inner"] += passes
        counts["dual"] += 1
        if ell is None:
            psi = _model_values_hi(d, grads_hi, hess_hi, term, x_hi, at_x)
        else:
            dl = d.astype(np.longdouble)
            psi = grads_hi @ dl + (0.5 * ell) * (dl @ dl) + (term.value(x_hi + dl) - at_x)
        phi = lam @ psi
        return _Snapshot(lam=lam, d=d, free=free, psi=psi, phi=phi, gap=np.max(psi) - phi)

    def finalize(s: _Snapshot) -> DirectionResult:
        theta = float(np.max(s.psi))
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

    cur = snap(np.full(m, 1.0 / m))
    best = cur
    history = [float(cur.phi)]

    def trial(lam: np.ndarray) -> _Snapshot:
        nonlocal best
        cand = snap(lam)
        if cand.gap < best.gap:
            best = cand
        return cand

    # On a face the dual Hessian restricted to zero-sum directions is
    # -Q' W^-1 Q with Q the per-objective model gradients on the free
    # coordinates and W the free block of the weighted Hessian, so each step
    # costs one small Cholesky solve (none under ell I, where W^-1 = I/ell)
    # and converges quadratically near optima interior to the face.
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
        free = here.free
        if not free.any():
            # the model no longer responds to d, so the dual is linear in the
            # weights and the best vertex is exact
            unit = np.zeros(m)
            unit[int(np.argmax(here.psi))] = 1.0
            if np.array_equal(unit, lam):
                return None
            cand = trial(unit)
            return cand if cand.phi >= here.phi else None
        if ell is None:
            h_lam = np.tensordot(lam, se.hessians, axes=1)
            try:
                factor = cho_factor(h_lam[np.ix_(free, free)])
            except np.linalg.LinAlgError:
                return None
            q = (se.gradients[support] + se.hessians[support] @ here.d)[:, free]
            curv = q @ cho_solve(factor, q.T)
        else:
            q = (se.gradients[support] + ell * here.d)[:, free]
            curv = q @ q.T / ell
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
            cand = trial(lam_new)
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
            cand = trial(lam_t)
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
