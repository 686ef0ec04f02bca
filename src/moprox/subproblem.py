"""Direction-finding subproblem for the proximal Newton-type solver.

At a point x the search direction solves

    min_d  max_i  grad f_i(x)' d + g(x + d) - g(x) + 0.5 d' H_i d,

whose optimal value is nonpositive and is zero exactly at critical points.
The metric H_i is either the Hessian of f_i at x (the proximal Newton-type
model) or ell times the identity (the multiobjective proximal gradient model),
and :class:`Metric` is the only code that tells them apart. The min-max is
solved through its concave dual over the unit simplex. At fixed weights (one
snap) the weighted model is minimized exactly, by an active-set loop of
Cholesky solves under the Hessians and by one proximal map under ell I. The
dual is maximized by one loop for every m, a projected Newton method on the
faces of the simplex with a supergradient safeguard. It stops at a certified
gap, or returns d = 0 once a dual value certifies ||d*|| <= eps. Under both
metrics the face Hessian is -Q W^-1 Q', with W the free block of the
weighted metric and rows q_i = grad f_i + H_i d on its free coordinates;
each snap keeps W's factor (division by ell under ell I) and H_i d, so the
Newton step reuses them. Work also carries forward: the dual loop starts
from the weights it is given (the outer loop passes the previous
direction's), and each snap after the first starts its active set from the
previous snap's d. Every model value comes from one extended-precision
evaluation per snap: it gives phi, the gap certificate and theta, so
tolerances near 1e-12 remain meaningful when model values are large. Its
products H_i d come from float64 BLAS products by error-free splitting
(Ozaki, Ogita, Oishi & Rump 2012; see :meth:`Metric.products`), the one
precision path for every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ConfigError, ConvergenceError, InputError, SingularMetricError
from .problems import NonsmoothTerm, ProblemInstance, SmoothEval, eval_smooth, _as_point

_EPS = np.finfo(float).eps
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=float)
# Passes of one inner active-set solve before it gives up: a guard against
# cycling at degenerate ratio steps. The benchmark pools need at most 16.
MAX_INNER_PASSES = 10000
# Iterations of the dual loop before a direction solve gives up: a guard, as
# the loop stops on a certificate. Tier-1 and the benchmark pools need at most 46.
MAX_DUAL_ITERS = 500

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
    message : str
        Empty unless a dual value phi certified ||d*|| <= eps; then it gives
        phi and the bound, and direction, theta and gap are zero.
    """

    direction: np.ndarray
    theta: float
    weights: np.ndarray
    gap: float
    inner_iters: int
    dual_iters: int
    dual_history: tuple = ()
    message: str = ""


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

    def modulus(self, problem: ProblemInstance) -> float:
        """Strong-convexity modulus of every model psi_i: problem.mu, or ell."""
        return problem.mu if self.ell is None else self.ell

    def products(self, smooth_eval: SmoothEval) -> Callable:
        """d -> H_i d in extended precision: a row per objective, or ell d shared.

        Under the Hessian metric each row H_j of the (m n, n) Hessian stack is
        split once, here, into H_j = H1_j + Hr_j: H1_j is H_j rounded to a
        multiple of 2^(e_j - beta), 2^e_j > max |H_j|, with beta = floor((51 -
        ceil(log2 n)) / 2), and Hr_j is the exact remainder (:func:`_head`).
        Each call splits d = d1 + dr by the same rule, makes one BLAS product
        H1 [d1, dr] and one Hr d, and returns H1 d1 + (H1 dr + Hr d), the sum
        taken in extended precision. H1 d1 is exact in float64 for every BLAS
        summation order: in the unit 2^(e_j + f - 2 beta) its n products are
        integers of magnitude at most 2^(2 beta), so every partial sum is an
        integer of magnitude at most n 2^(2 beta) <= 2^51. Since |dr| <=
        2^-beta |d|_inf, |H1_j| <= 2 |H_j| and |Hr_j| <= 2^-beta |H_j|_inf,
        the other two products are formed with an error of at most about
        n 2^-53 2^-beta (2 |H_j|_1 |d|_inf + |H_j|_inf |d|_1), near 2^-66
        of that norm at n = 200 (beta = 21); on rows and directions of one
        scale it is below 2^-62 (|H||d|)_j. There is no other path; d must
        be finite and H d must not overflow.
        """
        if self.ell is not None:
            return partial(np.multiply, np.longdouble(self.ell))
        m, n, _ = smooth_eval.hessians.shape
        beta = (51 - (n - 1).bit_length()) // 2
        rows = smooth_eval.hessians.reshape(m * n, n)
        head = _head(rows, np.frexp(np.max(np.abs(rows), axis=1, keepdims=True))[1], beta)
        tail = rows - head

        def product(dl):
            d = dl.astype(float)
            d1 = _head(d, math.frexp(np.abs(d).max())[1], beta)
            p = np.array((d1, d - d1)) @ head.T
            return (p[0].astype(np.longdouble) + (p[1] + tail @ d)).reshape(m, n)

        return product

    def minimize(self, weights, smooth_eval: SmoothEval, term: NonsmoothTerm, x, *, d0=None):
        """Minimize the weighted model at fixed weights; (d, free, solve_free, passes).

        solve_free applies the inverse of the weighted metric's free block.
        Under the Hessian metric this is :func:`inner_minimize`, whose active
        set starts from u = x + d0 (from u = x when d0 is None) and which
        gives up after MAX_INNER_PASSES passes. Under ell I
        it is one proximal map, u = prox_{g/ell}(x - grad_w/ell), d = u - x,
        counted as one pass; it is closed-form, so d0 is ignored. free marks
        where g is smooth at u (u != 0 for l1, lo < u < hi for the box,
        everywhere for the zero term), solve_free divides by ell, and
        smooth_eval's Hessians are not read.
        """
        if self.ell is None:
            return inner_minimize(weights, smooth_eval, term, x, d0=d0)
        x = np.asarray(x, dtype=float)
        v = np.asarray(weights, dtype=float) @ smooth_eval.gradients
        u = term.prox(x - v / self.ell, 1.0 / self.ell)
        if term.kind == NonsmoothTerm.KIND_L1:
            free = u != 0.0
        elif term.kind == NonsmoothTerm.KIND_BOX:
            free = (term.lo < u) & (u < term.hi)
        else:
            free = np.ones(u.size, dtype=bool)
        return u - x, free, self._divide, 1

    def _divide(self, rhs):
        return rhs / self.ell


def _head(a: np.ndarray, e, beta: int) -> np.ndarray:
    """a rounded to the nearest multiple of 2^(e - beta), where 2^e > |a|.

    e is an integer, or a column of them, one per row of a. The result has
    magnitude at most 2^e, so it is an integer of at most beta + 1 bits in
    that unit, and a - head is exact. Scaling by powers of two with ldexp,
    rather than adding and subtracting 0.75 * 2^(e + 53 - beta), keeps rows
    near the float64 maximum from overflowing.
    """
    head = np.ldexp(a, beta - e)
    np.rint(head, out=head)
    return np.ldexp(head, e - beta, out=head)


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
    products = Metric.hessian().products(smooth_eval)
    psi, _ = _model_values_hi(d, smooth_eval.gradients, products, term, x, _term_at(term, x))
    return psi.astype(float)


def _term_at(term: NonsmoothTerm, x):
    """g(x) in extended precision; raises InputError outside the term's domain."""
    at_x = term.value(np.asarray(x, dtype=np.longdouble))
    if not np.isfinite(at_x):
        raise InputError("base point lies outside the domain of the nonsmooth term")
    return at_x


def _model_values_hi(d, gradients, products, term: NonsmoothTerm, x, at_x):
    """All m model values in extended precision, and the products H_i d.

    products is :meth:`Metric.products`, at_x is g(x) from :func:`_term_at`,
    and gradients (m, n) and x are promoted to the precision of d. Returns
    (psi, products(d)). The shift g(x + d) - g(x) is common to every
    objective, because g is shared. Extended precision keeps duality gaps
    near 1e-12 resolvable when the model values are large.
    """
    dl = np.asarray(d, dtype=np.longdouble)
    hd = products(dl)
    return gradients @ dl + 0.5 * (hd @ dl) + (term.value(x + dl) - at_x), hd


def _cholesky(block: np.ndarray):
    """The solve with block's Cholesky factor, by LAPACK potrf and potrs."""
    factor, info = _potrf(block, lower=True, clean=False)
    if info != 0:
        raise SingularMetricError(f"weighted Hessian is not positive definite "
                                  f"(potrf info {info})")
    return lambda rhs: _potrs(factor, rhs, lower=True)[0]


def inner_minimize(weights, smooth_eval: SmoothEval, term: NonsmoothTerm, x, *, d0=None):
    """Minimize the weighted model sum_i w_i psi_i(d) for fixed weights, exactly.

    A primal active-set loop on u = x + d, started from d = d0 (d = 0 when
    d0 is None), with block moves in the manner of block principal pivoting
    (Judice & Pires 1994; Kim & Park 2011). Each coordinate moves in a piece
    [a, b] of g: a free coordinate in a smooth piece ([0, inf) or (-inf, 0]
    by its l1 sign, [lo, hi] for the box, the whole line for the zero term),
    a held one in the single point a = b of its kink (0 for l1) or bound.
    The start gives the first split: a coordinate where x + d0 is at the
    kink, or on or beyond a bound, starts held exactly there, and the others
    start free on the piece x + d0 lies on. One pass solves the weighted
    Hessian's free block by Cholesky with the held coordinates fixed.

    Write q(d) = grad_w'd + 0.5 d'H_w d + rho ||x + d||_1, the weighted
    model up to a constant at points inside the pieces. If the free solve
    would carry free coordinates out of their pieces, a ratio test stops the
    step where the first one leaves and holds that one at the end it
    reached. When two or more leave, the solve with each of them clipped to
    the end it crossed is taken instead, and all of them are held, if its q
    is no larger than q at the ratio-test point. Otherwise the step is
    taken in full and every held coordinate whose multiplier r = grad_w +
    H_w d breaks optimality (|r_j| <= rho for l1, r_j >= 0 at lo, r_j <= 0
    at hi, up to a few ulps of |grad_w|, |H_w||d| and rho) is released, each
    on the l1 side its r_j points to; with none left the solve is exact.
    As a safeguard q must fall strictly from one such releasing pass to the
    next; the first time it does not, the rest of the solve holds only the
    first leaving coordinate and releases only the most violated one. With
    nothing held, as always for the zero term, a pass is the plain Cholesky
    solve H_w d = -grad_w. The result is the last pass's solve with the
    held coordinates exactly at their kinks or bounds, so two starts that
    end on the same free set return the same bits; d0 changes only the
    number of passes, and a start near the solution (the direction solver
    passes the previous snap's d) usually needs one or two.

    Returns (d, free, solve_free, passes) with free the mask of free
    coordinates and solve_free the solve with the last pass's Cholesky
    factor, whose free set is that mask (None when nothing is free). Raises
    InputError if d0 is not a finite vector of x's shape,
    SingularMetricError if a free block is not positive definite and
    ConvergenceError if MAX_INNER_PASSES passes do not certify optimality.
    """
    lam = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    v = lam @ smooth_eval.gradients
    M = np.tensordot(lam, smooth_eval.hessians, axes=1)
    M = 0.5 * (M + M.T)
    l1 = term.kind == NonsmoothTerm.KIND_L1
    rho = term.rho  # 0 unless l1
    if d0 is None:
        d = np.zeros_like(x)
    else:
        d = np.array(d0, dtype=float)
        if d.shape != x.shape or not np.all(np.isfinite(d)):
            raise InputError(f"d0 must be a finite vector of shape {x.shape}")
    u = x + d
    # side: the l1 sign of u on a free coordinate, the bound a held box
    # coordinate sits at (-1 lo, +1 hi); only the release rule reads it
    if l1:
        side = np.sign(u)
        a, b = np.where(u >= 0.0, 0.0, -np.inf), np.where(u <= 0.0, 0.0, np.inf)
    elif term.kind == NonsmoothTerm.KIND_BOX:
        lo, hi = np.broadcast_to(term.lo, x.shape), np.broadcast_to(term.hi, x.shape)
        side = np.where(u <= lo, -1.0, np.where(u >= hi, 1.0, 0.0))
        a, b = np.where(side > 0.0, hi, lo), np.where(side < 0.0, lo, hi)
    else:
        side = np.zeros_like(x)
        a, b = np.full(x.shape, -np.inf), np.full(x.shape, np.inf)
    free = a < b
    d[~free] = a[~free] - x[~free]
    c = v + rho * side  # linear coefficients on free coordinates

    def q(dq):
        return v @ dq + 0.5 * (dq @ (M @ dq)) + rho * np.abs(x + dq).sum()

    block = True  # hold and release whole sets until q stops falling
    q_last = np.inf  # q at the last releasing full-step pass
    for it in range(1, MAX_INNER_PASSES + 1):
        if free.all():
            solve = _cholesky(M)
            d_new = solve(-c)
            if term.kind == NonsmoothTerm.KIND_ZERO:
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
        u = x + d
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(p < 0.0, (a - u) / p, np.where(p > 0.0, (b - u) / p, np.inf))
        reach = np.maximum(reach, 0.0)
        leave = np.flatnonzero(reach < 1.0)
        if leave.size:
            end = np.where(p < 0.0, a, b)  # the end each leaving coordinate crosses
            j = int(np.argmin(reach))
            hold = [j]
            d = d + reach[j] * p
            d[j] = end[j] - x[j]
            if block and leave.size > 1:
                d_new[leave] = end[leave] - x[leave]
                if q(d_new) <= q(d):
                    hold, d = leave, d_new
            free[hold] = False
            side[hold] = np.sign(p[hold])
            a[hold] = b[hold] = end[hold]
            continue
        d = d_new

        held = np.flatnonzero(~free)
        if not held.size:
            return d, free, solve, it
        r = v[held] + M[held] @ d
        slack = 4.0 * _EPS * (np.abs(v[held]) + np.abs(M[held]) @ np.abs(d) + rho)
        if l1:
            viol = np.abs(r) - rho
        else:
            viol = side[held] * r
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
        if l1:
            side[release] = -np.sign(r[out])
            c[release] = v[release] + rho * side[release]
            a[release] = np.where(side[release] > 0.0, 0.0, -np.inf)
            b[release] = np.where(side[release] > 0.0, np.inf, 0.0)
        else:
            a[release], b[release] = lo[release], hi[release]
    raise ConvergenceError(
        f"inner active-set solve not certified after {MAX_INNER_PASSES} passes",
        residual=float(np.linalg.norm(p)),
    )


@dataclass(frozen=True)
class _Snapshot:
    lam: np.ndarray
    d: np.ndarray
    free: np.ndarray
    solve_free: Optional[Callable]
    hd: np.ndarray  # H_i d in extended precision, as are psi, phi and gap
    psi: np.ndarray
    phi: np.floating
    gap: np.floating


def solve_direction(problem: ProblemInstance, x, tol_gap: float = 1e-10, *,
                    smooth_eval=None, metric: Optional[Metric] = None,
                    weights=None, eps: Optional[float] = None) -> DirectionResult:
    """Solve the direction subproblem at x to a certified duality gap or ||d*|| <= eps.

    metric defaults to the Hessian metric. smooth_eval, the oracle output at
    x, is evaluated here when not given; the line search of the outer loop
    keeps the output at the step it accepts and passes it in, so each
    iterate sweeps the oracles once. Only the metric reads its Hessians, and
    the scaled-identity metric does not.

    Maximizes the dual over the weight simplex from weights, or from the
    uniform vector when weights is None. The outer loop passes the weights
    of the previous accepted direction: near a solution consecutive
    subproblems nearly coincide, and after a full step on a quadratic those
    weights certify the new point at the first snap. From the second snap
    on, each inner solve starts its active set from the most recent snap's
    direction. Each iteration first takes a Newton step on the current face
    (the support of the weights plus the outside index with the largest
    model value, when that value exceeds the dual value), cut back to the
    simplex boundary and halved until the dual value does not decrease.
    When it gives no ascent, it is retried from the snapshot with the
    smallest gap, and then a projected supergradient step with a
    warm-started step length is taken.
    Terminates once the gap certificate reaches tol_gap. Failing that, given
    eps, it stops once the current dual value phi >= -mu eps^2 / 2, mu the
    metric's modulus: every model is mu-strongly convex with value 0 at
    d = 0, so ||d*||^2 <= -2 phi / mu, and the zero direction is returned
    with a message. Both tests run before each dual iteration and after the
    loop, the gap test first, so a gap-certified direction does not depend
    on eps. When neither holds and no step ascends, or MAX_DUAL_ITERS
    iterations pass first, ConvergenceError is raised; so it is when an
    inner solve is not certified within MAX_INNER_PASSES passes.

    Returns a DirectionResult whose theta is nonpositive: if rounding at a
    critical point produces a positive model optimum, the zero direction
    (feasible, value zero) is returned instead. Raises InputError unless
    weights is None or an m-vector on the unit simplex: finite, nonnegative
    and summing to 1 within 4 m machine epsilons, and unless eps is None or
    finite and > 0.
    """
    x = _as_point(x, problem.n)
    tol_gap = float(tol_gap)
    if not np.isfinite(tol_gap) or tol_gap <= 0:
        raise InputError(f"tol_gap must be finite and > 0, got {tol_gap}")
    if eps is not None and not (np.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be finite and > 0, got {eps}")
    m = problem.m
    if weights is None:
        weights = np.full(m, 1.0 / m)
    else:
        weights = np.array(weights, dtype=float)
        if (weights.shape != (m,) or not np.all(np.isfinite(weights))
                or np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 4 * m * _EPS):
            raise InputError(f"weights must be {m} finite nonnegative numbers "
                             f"summing to 1, got {weights!r}")
    se = eval_smooth(problem, x) if smooth_eval is None else smooth_eval
    metric = Metric.hessian() if metric is None else metric
    # a dual value at or above stop_phi certifies ||d*|| <= eps
    stop_phi = math.inf if eps is None else -0.5 * metric.modulus(problem) * eps * eps
    term = problem.nonsmooth
    x_hi = x.astype(np.longdouble)
    at_x = _term_at(term, x_hi)
    grads_hi = se.gradients.astype(np.longdouble)
    products = metric.products(se)
    counts = {"inner": 0, "dual": 0}
    best = None  # the snapshot with the smallest gap
    prev_d = None  # the most recent snap's d, where the next inner solve starts

    def snap(lam: np.ndarray) -> _Snapshot:
        nonlocal best, prev_d
        d, free, solve_free, passes = metric.minimize(lam, se, term, x, d0=prev_d)
        prev_d = d
        counts["inner"] += passes
        counts["dual"] += 1
        psi, hd = _model_values_hi(d, grads_hi, products, term, x_hi, at_x)
        phi = lam @ psi
        here = _Snapshot(lam=lam, d=d, free=free, solve_free=solve_free, hd=hd, psi=psi,
                         phi=phi, gap=np.max(psi) - phi)
        if best is None or here.gap < best.gap:
            best = here
        return here

    def finalize(s: _Snapshot, message: str = "") -> DirectionResult:
        theta = float(np.max(s.psi))
        d = s.d.copy()
        gap = float(s.gap)
        if theta > 0.0 or message:
            # the exact optimum is nonpositive (d = 0 is feasible with value 0),
            # so a positive rounded value certifies criticality at precision;
            # a message says a dual value certified ||d*|| <= eps
            d = np.zeros_like(d)
            theta = 0.0
            gap = 0.0
        return DirectionResult(direction=d, theta=theta, weights=s.lam.copy(), gap=gap,
                               inner_iters=counts["inner"], dual_iters=counts["dual"],
                               dual_history=tuple(history), message=message)

    cur = snap(weights)
    history = [float(cur.phi)]

    # On a face the dual Hessian restricted to zero-sum directions is
    # -Q W^-1 Q' (module docstring), taken in the basis e_k - e_last from the
    # snap's solve_free and H_i d with no factorization; it converges
    # quadratically near optima interior to the face.
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
            cand = snap(unit)
            return cand if cand.phi >= here.phi else None
        q = (grads_hi + here.hd)[support][:, free].astype(float)
        curv = q @ here.solve_free(q.T)
        curv = 0.5 * (curv + curv.T)
        h_red = curv[:-1, :-1] - curv[-1, :-1] - (curv[:-1, -1:] - curv[-1, -1])
        g_red = (here.psi[support[:-1]] - here.psi[support[-1]]).astype(float)
        try:
            du = np.linalg.solve(h_red, g_red)
        except np.linalg.LinAlgError:
            du, *_ = np.linalg.lstsq(h_red, g_red, rcond=None)
        if not np.all(np.isfinite(du)):
            return None
        move = np.zeros(m)
        move[support] = np.append(du, -du.sum())
        neg = move < 0.0
        t = float(np.min(lam[neg] / -move[neg], initial=1.0))
        if t <= 0.0:
            return None
        for _ in range(8):
            lam_new = lam + t * move
            lam_new[lam_new < 1e-15] = 0.0  # negatives too; the sum stays near 1
            lam_new /= lam_new.sum()
            if np.array_equal(lam_new, lam):
                return None
            cand = snap(lam_new)
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
            cand = snap(lam_t)
            if cand.phi >= here.phi:
                s_prev = s
                return cand
            s *= 0.5
        return None

    retried = None
    for _ in range(MAX_DUAL_ITERS):
        if best.gap <= tol_gap or cur.phi >= stop_phi:
            break
        nxt = newton_step(cur)
        if nxt is None and best is not cur and best is not retried:
            # rounding can reject a trial that lowered the gap; retry from it
            retried = best
            newton_step(best)
            if best.gap <= tol_gap:
                break
        if nxt is None:
            nxt = supergradient_step(cur)
        if nxt is None:
            break
        cur = nxt
        history.append(float(cur.phi))

    if best.gap <= tol_gap:
        return finalize(best)
    if cur.phi >= stop_phi:
        return finalize(cur, f"certified critical by the dual bound: phi = {float(cur.phi):.3e}"
                             f" >= {stop_phi:.3e} = -mu*eps^2/2, so ||d*|| <= eps")
    raise ConvergenceError(
        f"direction subproblem stopped with duality gap {float(best.gap):.3e} "
        f"above {tol_gap:.3e}",
        residual=float(best.gap),
    )
