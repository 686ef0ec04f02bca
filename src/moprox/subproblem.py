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
Newton step reuses them and factors only the |S| - 1 face system. That
system is positive semidefinite, and singular once the face has more
indices than free coordinates + 1 (Wolfe 1976); one pivoted Cholesky
(LAPACK pstrf, Higham 2002, ch. 10) solves it on its leading rank pivots
and takes no step along the dependent ones. A trial is accepted when phi
rises, or when phi ties and the gap falls, so the loop cannot cycle at
equal phi on a flat face. Work also carries forward: the dual loop starts
from the weights it is given (the outer loop passes the previous
direction's), and each snap after the first starts its active set from the
previous snap's d. Every model value comes from one float64 evaluation per
snap, which gives phi, the gap certificate and theta. A float64 sum of
products is exact only to a small multiple of eps64 times the sum of the
magnitudes of its terms (Higham 2002, ch. 3), so a snap certifies its gap
at max(tol_gap, GAP_FLOOR eps64 S), with S that sum for its model values
(:func:`solve_direction`): a tol_gap below the floor is raised to it.
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
_potrf, _potrs, _pstrf = get_lapack_funcs(("potrf", "potrs", "pstrf"), dtype=float)
# Passes of one inner active-set solve before it gives up: a guard, as the
# backup rule already ends the exchanges. The benchmark pools need at most 8.
MAX_INNER_PASSES = 10000
# Passes of block exchanges the inner solve allows without a new fewest count
# of infeasible coordinates before it exchanges one coordinate a pass.
BACKUP_PASSES = 3
# Iterations of the dual loop before a direction solve gives up: a guard, as
# the loop stops on a certificate. Tier-1 and the benchmark pools need at most 45.
MAX_DUAL_ITERS = 500
# A snap certifies when its gap is at most max(tol_gap, GAP_FLOOR * eps64 * S),
# S the scale of its model values (solve_direction), below which float64
# cannot resolve the gap. With 16 the 8,100-run A01 sweep left 3 starts
# uncertified; with 64 it leaves none.
GAP_FLOOR = 64

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
        Optimal model value max_i psi_i(d), from the same float64 values
        that certify the gap; nonpositive, and zero only at (numerically)
        critical points.
    weights : ndarray
        Dual simplex weights at termination, shape (m,).
    gap : float
        Duality gap certificate max_i psi_i(d) - sum_i w_i psi_i(d), at most
        max(tol_gap, GAP_FLOOR eps64 S) for the scale S of the model values.
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
        """d -> H_i d in float64: a row per objective, or ell d shared.

        Under the Hessian metric it is one BLAS product of the (m n, n)
        Hessian stack with d, so entry j is within about n eps64 (|H||d|)_j
        of exact (Higham 2002, ch. 3).
        """
        if self.ell is not None:
            return partial(np.multiply, self.ell)
        m, n, _ = smooth_eval.hessians.shape
        rows = smooth_eval.hessians.reshape(m * n, n)
        return lambda d: (rows @ d).reshape(m, n)

    def minimize(self, weights, smooth_eval: SmoothEval, term: NonsmoothTerm, x, *, d0=None):
        """Minimize the weighted model at fixed weights; (d, free, solve_free, passes).

        solve_free applies the inverse of the weighted metric's free block.
        Under the Hessian metric this is :func:`inner_minimize`, whose active
        set starts from u = x + d0 (from u = x when d0 is None) and which
        gives up after MAX_INNER_PASSES passes. Under ell I
        it is one proximal map, u = prox_{g/ell}(x - grad_w/ell), d = u - x,
        counted as one pass; it is closed-form, so d0 is ignored. free marks
        where u lies on a piece of g with a < b (:meth:`NonsmoothTerm.pieces`),
        solve_free divides by ell, and smooth_eval's Hessians are not read.
        """
        if self.ell is None:
            return inner_minimize(weights, smooth_eval, term, x, d0=d0)
        x = np.asarray(x, dtype=float)
        v = np.asarray(weights, dtype=float) @ smooth_eval.gradients
        u = term.prox(x - v / self.ell, 1.0 / self.ell)
        a, b, _ = term.pieces(u)
        return u - x, a < b, lambda rhs: rhs / self.ell, 1


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of v onto the unit simplex {w >= 0, sum w = 1}.

    Uses the sort-and-threshold rule, then renormalizes so the sum is exact
    to the last bit. Idempotent on simplex points. Entries so far apart that
    rounding fails every threshold test are shifted by their max first.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InputError("project_simplex expects a nonempty 1-d vector")
    if not np.isfinite(v).all():
        raise InputError("project_simplex input has non-finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    mask = u - css / ks > 0.0
    if not mask.any():
        # entries about 2^53 apart or more round every test false; shifted by
        # the max the first passes, and entries below -1 (clipped, so the
        # shift cannot overflow) take no weight either way
        with np.errstate(over="ignore"):
            return project_simplex(np.maximum(v - u[0], -2.0))
    k = int(ks[mask][-1])
    tau = css[k - 1] / k
    w = np.maximum(v - tau, 0.0)
    w /= w.sum()
    return w


def model_values(d, smooth_eval: SmoothEval, term: NonsmoothTerm, x) -> np.ndarray:
    """Per-objective model values psi_i(d) at the base point x.

    psi_i(d) = grad f_i' d + g(x + d) - g(x) + 0.5 d' H_i d, the float64
    values the direction solver takes phi, the gap and theta from. Entries
    may be +inf when x + d leaves the domain of an indicator term; x itself
    must lie inside it. Raises InputError unless smooth_eval has Hessians
    and its shapes fit x.
    """
    x = np.asarray(x, dtype=float)
    smooth_eval = _fitting(smooth_eval, np.size(smooth_eval.values), x.size, True)
    products = Metric.hessian().products(smooth_eval)
    psi, _ = _model_values_hi(np.asarray(d, dtype=float), smooth_eval.gradients, products,
                              term, x, _term_at(term, x))
    return psi


def _fitting(se: SmoothEval, m: int, n: int, hessians: bool) -> SmoothEval:
    """se, or InputError naming where it does not fit m objectives on R^n.

    se's values must be (m,) and its gradients (m, n); when hessians is true
    its Hessians must be (m, n, n), and not None.
    """
    if hessians and se.hessians is None:
        raise InputError("smooth_eval has no Hessians, which the Hessian metric reads; "
                         "evaluate it with hessians=True")
    parts = [("values", se.values, (m,)), ("gradients", se.gradients, (m, n))]
    if hessians:
        parts.append(("hessians", se.hessians, (m, n, n)))
    for name, array, shape in parts:
        if np.shape(array) != shape:
            raise InputError(f"smooth_eval {name} have shape {np.shape(array)}, "
                             f"expected {shape} for m={m}, n={n}")
    return se


def _term_at(term: NonsmoothTerm, x):
    """g(x); raises InputError outside the term's domain."""
    at_x = term.value(x)
    if not math.isfinite(at_x):
        raise InputError("base point lies outside the domain of the nonsmooth term")
    return at_x


# perfbench's tracing times this function by its name, as
# subproblem.certificate, and tests wrap it; so callers reach it through this
# module-level name, and it returns a pair, the first item psi.
def _model_values_hi(d, gradients, products, term: NonsmoothTerm, x, at_x):
    """All m model values, with the products H_i d and g(x + d).

    products is :meth:`Metric.products` and at_x is g(x) from
    :func:`_term_at`. Returns (psi, (products(d), g(x + d))): with d and
    the gradients these give the gap floor's scale S (:func:`solve_direction`)
    without evaluating g again. The shift g(x + d) - g(x) is common to every
    objective, because g is shared.
    """
    hd = products(d)
    at_u = term.value(x + d)
    return gradients @ d + 0.5 * (hd @ d) + (at_u - at_x), (hd, at_u)


def _cholesky(block: np.ndarray):
    """The solve with block's Cholesky factor, by LAPACK potrf and potrs."""
    factor, info = _potrf(block, lower=True, clean=False)
    if info != 0:
        raise SingularMetricError(f"weighted Hessian is not positive definite "
                                  f"(potrf info {info})")
    return lambda rhs: _potrs(factor, rhs, lower=True)[0]


def inner_minimize(weights, smooth_eval: SmoothEval, term: NonsmoothTerm, x, *, d0=None):
    """Minimize the weighted model sum_i w_i psi_i(d) for fixed weights, exactly.

    Block principal pivoting on u = x + d (Judice & Pires 1994; Kim & Park
    2011), started from d = d0 (d = 0 when d0 is None). Each coordinate
    moves in a piece [a, b] of g on which g is affine
    (:meth:`NonsmoothTerm.pieces`): a free one in a piece with a < b, a
    held one in the single point a = b of a kink or bound. The loop reads g
    only through the term's pieces and its kink test, so it runs the same
    code for every term. The start gives the first split: each coordinate
    starts on the piece x + d0 lies on, and a held one exactly at its kink
    or bound.

    One pass solves the weighted Hessian's free block by Cholesky with the
    held coordinates fixed, then counts the infeasible coordinates: the
    free ones the solve carries out of their pieces, and the held ones
    whose -r, with r = grad_w + H_w d their multiplier, lies outside the
    subdifferential of g by more than a few ulps of |grad_w|, |H_w||d| and
    g's slope on the piece entered (:meth:`NonsmoothTerm.kink`). With none
    the solve is exact. Otherwise every infeasible coordinate is exchanged:
    a leaving one is held at the exact end it crossed (x + (end - x) may
    round past a bound, so the end itself is kept as its piece), and a
    violating one is released onto the piece a step along -r enters. When
    BACKUP_PASSES passes in a row bring no new fewest count of infeasible
    coordinates, only the one of largest index is exchanged (Murty's rule)
    until the count falls below that fewest; this backup rule is what
    ends the exchanges. When no piece has a finite end, as for the zero
    term, nothing can leave a piece or be held: the first pass, the plain
    Cholesky solve H_w d = -grad_w, returns. The result is the last pass's
    solve with the held coordinates exactly at their kinks or bounds, so it
    depends only on the final free set, and two starts that end on the same
    free set return the same bits; d0 changes only the number of passes,
    and a start near the solution (the direction solver passes the previous
    snap's d) usually needs one or two.

    Returns (d, free, solve_free, passes) with free the mask of free
    coordinates and solve_free the solve with the last pass's Cholesky
    factor, whose free set is that mask (None when nothing is free). Raises
    InputError if d0 is not a finite vector of x's shape,
    SingularMetricError if a free block is not positive definite and
    ConvergenceError if MAX_INNER_PASSES passes do not certify optimality,
    with the last pass's count of infeasible coordinates as its residual.
    """
    lam = np.asarray(weights, dtype=float)
    x = np.asarray(x, dtype=float)
    v = lam @ smooth_eval.gradients
    # the one BLAS call np.tensordot(lam, hessians, axes=1) makes, without
    # its wrapper; exactly symmetric, as the sweep's stack is, with no second
    # symmetrization (tests/test_snap_bits.py pins it on every factored block)
    M = np.dot(lam[None], smooth_eval.hessians.reshape(lam.size, -1)).reshape(x.size, -1)
    if d0 is None:
        d = np.zeros_like(x)
    else:
        d = np.array(d0, dtype=float)
        if d.shape != x.shape or not np.isfinite(d).all():
            raise InputError(f"d0 must be a finite vector of shape {x.shape}")
    a, b, slope = term.pieces(x + d)
    c = v + slope  # linear coefficients of the model on free coordinates
    if not (np.isfinite(a).any() or np.isfinite(b).any()):
        # a coordinate leaves its piece only through a finite end: with none
        # (the zero term) nothing is ever held, and the first solve is exact
        solve = _cholesky(M)
        return solve(-c), a < b, solve, 1
    free = a < b
    d[~free] = a[~free] - x[~free]
    best, allowance = x.size + 1, BACKUP_PASSES  # Judice & Pires's backup rule
    for it in range(1, MAX_INNER_PASSES + 1):
        # integer-array blocks are the C-order copies np.ix_ makes; the
        # F-order copies of chained boolean masks change the bits
        held, fi = (~free).nonzero()[0], free.nonzero()[0]
        solve = None
        if fi.size:
            solve = _cholesky(M[fi[:, None], fi])
            d[fi] = solve(-c[fi] - M[fi[:, None], held] @ d[held])
        # free coordinates outside their pieces (a held one is not tested:
        # x + (end - x) may round past its bound) and held coordinates whose
        # -r, r = grad_w + H_w d its multiplier, lies outside the
        # subdifferential of g by more than a few ulps
        u = x[fi] + d[fi]
        below = u < a[fi]
        leave = (below | (u > b[fi])).nonzero()[0]
        v_held, M_held = v[held], M[held]
        r = v_held + M_held @ d
        viol, a_in, b_in, slope_in = term.kink(a[held], r, held)
        slack = 4.0 * _EPS * (np.abs(v_held) + np.abs(M_held) @ np.abs(d) + np.abs(slope_in))
        out = (viol > slack).nonzero()[0]
        infeasible = leave.size + out.size
        if not infeasible:
            return d, free, solve, it
        if infeasible < best:
            best, allowance = infeasible, BACKUP_PASSES
        elif allowance:
            allowance -= 1
        else:  # Murty's rule: exchange only the largest infeasible index
            last = max(fi[leave].max(initial=-1), held[out].max(initial=-1))
            leave, out = leave[fi[leave] == last], out[held[out] == last]
        # hold each leaver at the exact end it crossed, and release each
        # violator onto the piece a step along -r enters
        hold = fi[leave]
        end = np.where(below[leave], a[hold], b[hold])
        free[hold] = False
        a[hold] = b[hold] = end
        d[hold] = end - x[hold]
        release = held[out]
        free[release] = True
        a[release], b[release] = a_in[out], b_in[out]
        c[release] = v[release] + slope_in[out]
    raise ConvergenceError(
        f"inner active-set solve not certified after {MAX_INNER_PASSES} passes",
        residual=float(infeasible),
    )


@dataclass(slots=True)
class _Snapshot:
    lam: np.ndarray
    d: np.ndarray
    free: np.ndarray
    solve_free: Optional[Callable]
    hd: np.ndarray  # H_i d, or ell d under ell I, for the Newton step
    psi: np.ndarray
    phi: float
    gap: float
    tol: float  # max(tol_gap, the floor): gap <= tol certifies the snap


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
    direction. Every dual step follows one trial rule: snap the weights
    proposed at a step length, accept them if the dual value rises, or if
    it ties and the gap falls, else halve the length and try again. Each
    iteration first takes a Newton step on the current face (the support
    of the weights plus the outside index with the largest model value,
    when that value exceeds the dual value), solving the face system by
    one pivoted Cholesky on its leading rank pivots; when the full step
    leaves the simplex, its projection onto the simplex is tried first,
    and then the step cut back to the simplex boundary. With no free coordinate left it jumps to the
    best vertex instead. When it gives no ascent, it is retried from the
    snapshot with the smallest gap, and then a projected supergradient step
    with a warm-started step length is taken. Terminates at the first snap
    whose gap certificate reaches max(tol_gap, GAP_FLOOR eps64 S), whether
    its trial was accepted or not; a rejected trial that certifies is
    neither halved nor retried. S = max_i(|grad f_i|'|d| + |H_i d|'|d| / 2)
    + |g(x + d)| + |g(x)| is the sum of the magnitudes that the snap's model
    values add up, and float64 resolves them, and the gap, only to a small
    multiple of eps64 S (Higham 2002, ch. 3).
    Failing that, given eps, it stops once the current dual value
    phi >= -mu eps^2 / 2, mu the metric's modulus: every model is
    mu-strongly convex with value 0 at d = 0, so ||d*||^2 <= -2 phi / mu,
    and the zero direction is returned with a message. Both tests run
    before each dual iteration and after the loop, the gap test first, so
    a gap-certified direction does not depend on eps. When neither holds
    and no step ascends, or MAX_DUAL_ITERS iterations pass first,
    ConvergenceError is raised; so it is when an inner solve is not
    certified within MAX_INNER_PASSES passes.

    Returns a DirectionResult whose theta is nonpositive: if rounding at a
    critical point produces a positive model optimum, the zero direction
    (feasible, value zero) is returned instead. Raises InputError unless
    weights is None or an m-vector on the unit simplex: finite, nonnegative
    and summing to 1 within 4 m machine epsilons, unless eps is None or
    finite and > 0, and unless a given smooth_eval fits the problem: values
    (m,), gradients (m, n) and, under the Hessian metric, Hessians (m, n, n).
    """
    x = _as_point(x, problem.n)
    tol_gap = float(tol_gap)
    if not math.isfinite(tol_gap) or tol_gap <= 0:
        raise InputError(f"tol_gap must be finite and > 0, got {tol_gap}")
    if eps is not None and not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be finite and > 0, got {eps}")
    m = problem.m
    if weights is None:
        weights = np.full(m, 1.0 / m)
    else:
        weights = np.array(weights, dtype=float)
        # nan and -inf fail the min test, +inf the sum test
        if (weights.shape != (m,) or not weights.min() >= 0.0
                or abs(weights.sum() - 1.0) > 4 * m * _EPS):
            raise InputError(f"weights must be {m} finite nonnegative numbers "
                             f"summing to 1, got {weights!r}")
    metric = Metric.hessian() if metric is None else metric
    se = (eval_smooth(problem, x) if smooth_eval is None
          else _fitting(smooth_eval, m, problem.n, metric.ell is None))
    # a dual value at or above stop_phi certifies ||d*|| <= eps
    stop_phi = math.inf if eps is None else -0.5 * metric.modulus(problem) * eps * eps
    term = problem.nonsmooth
    at_x = _term_at(term, x)
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
        psi, (hd, at_u) = _model_values_hi(d, se.gradients, products, term, x, at_x)
        phi = lam @ psi
        gap, tol = psi.max() - phi, tol_gap
        if gap > tol_gap:
            # the floor: float64 resolves psi, and so the gap, to eps64 S
            scale = ((np.abs(se.gradients) + 0.5 * np.abs(hd)) @ np.abs(d)).max()
            tol = max(tol_gap, GAP_FLOOR * _EPS * (scale + abs(at_u) + abs(at_x)))
        here = _Snapshot(lam=lam, d=d, free=free, solve_free=solve_free, hd=hd, psi=psi,
                         phi=phi, gap=gap, tol=tol)
        # a certified snap is the last of the solve, so it stays best
        if best is None or here.gap < best.gap or here.gap <= here.tol:
            best = here
        return here

    def finalize(s: _Snapshot, message: str = "") -> DirectionResult:
        # no snap's d or lam is written into after it is taken, so both are
        # handed out uncopied
        theta, gap, d = s.psi.max(), s.gap, s.d
        if theta > 0.0 or message:
            # the exact optimum is nonpositive (d = 0 is feasible with value 0),
            # so a positive rounded value certifies criticality at precision;
            # a message says a dual value certified ||d*|| <= eps
            d = np.zeros_like(d)
            theta = gap = 0.0
        return DirectionResult(direction=d, theta=theta, weights=s.lam, gap=gap,
                               inner_iters=counts["inner"], dual_iters=counts["dual"],
                               dual_history=tuple(history), message=message)

    cur = snap(weights)
    history = [cur.phi]

    def ascend(here: _Snapshot, propose: Callable, t: float, tries: int):
        """(snapshot or None, t): snap propose(t), halving t, until a trial is accepted.

        A trial is accepted when phi rises, or when phi ties and the gap
        falls: accepting every tie cycled on flat faces. Gives up when a
        proposal equals here.lam, when a rejected trial certifies the gap,
        or after tries trials.
        """
        for _ in range(tries):
            lam = propose(t)
            if (lam == here.lam).all():
                return None, t
            cand = snap(lam)
            if cand.phi > here.phi or (cand.phi == here.phi and cand.gap < here.gap):
                return cand, t
            if best.gap <= best.tol:
                return None, t
            t *= 0.5
        return None, t

    # On a face the dual Hessian restricted to zero-sum directions is
    # -Q W^-1 Q' (module docstring), taken in the basis e_k - e_last from the
    # snap's solve_free and H_i d; only that |S| - 1 system is factored. It
    # converges quadratically near optima interior to the face.
    def newton_step(here: _Snapshot):
        lam, psi = here.lam, here.psi
        face = lam > 0.0
        outside = (lam == 0.0).nonzero()[0]
        if outside.size:
            j = outside[psi[outside].argmax()]
            face[j] = psi[j] > here.phi
        support = face.nonzero()[0]
        if support.size == 1:
            return None  # vertex-optimal face; no Newton direction
        free = here.free
        if not free.any():
            # the model no longer responds to d, so the dual is linear in the
            # weights and the best vertex is exact
            unit = np.zeros(m)
            unit[psi.argmax()] = 1.0
            return ascend(here, lambda t: unit, 1.0, 1)[0]
        q = (se.gradients + here.hd)[support][:, free]
        curv = q @ here.solve_free(q.T)
        h_red = curv[:-1, :-1] - curv[-1, :-1] - (curv[:-1, -1:] - curv[-1, -1])
        g_red = psi[support[:-1]] - psi[support[-1]]
        # h_red is positive semidefinite, singular once |S| - 1 exceeds the
        # free count; the pivoted Cholesky reads its lower triangle, solves on
        # the leading rank pivots and leaves du 0 on the dependent ones
        factor, piv, rank, _ = _pstrf(h_red, lower=1)
        lead = piv[:rank] - 1
        du = np.zeros_like(g_red)
        if rank:
            du[lead] = _potrs(factor[:rank, :rank], g_red[lead], lower=True)[0]
        if not np.isfinite(du).all():
            return None
        move = np.zeros(m)
        move[support[:-1]] = du
        move[support[-1]] = -du.sum()
        neg = move < 0.0
        t = float((lam[neg] / -move[neg]).min(initial=1.0))
        if t <= 0.0:
            return None
        if t < 1.0:
            # the full step projected first: it drops every weight the step
            # carries out at once, where the cut-back drops one per snap
            nxt = ascend(here, lambda _: project_simplex(lam + move), 1.0, 1)[0]
            if nxt is not None or best.gap <= best.tol:
                return nxt

        def clamped(t):
            lam_new = lam + t * move
            lam_new[lam_new < 1e-15] = 0.0  # negatives too; the sum stays near 1
            lam_new /= lam_new.sum()
            return lam_new

        return ascend(here, clamped, t, 8)[0]

    s_prev = 1.0  # the last accepted supergradient step length
    retried = None
    for _ in range(MAX_DUAL_ITERS):
        if best.gap <= best.tol or cur.phi >= stop_phi:
            break
        nxt = newton_step(cur)
        if nxt is None and best.gap <= best.tol:
            break  # a rejected trial certified the gap
        if nxt is None and best is not cur and best is not retried:
            # rounding can reject a trial that lowered the gap; retry from it
            retried = best
            newton_step(best)
            if best.gap <= best.tol:
                break
        if nxt is None:
            # safeguard: a projected supergradient step, warm-started
            nxt, s = ascend(cur, lambda s: project_simplex(cur.lam + s * cur.psi),
                            min(1.0, 4.0 * s_prev), 60)
            if nxt is None:
                break
            s_prev = s
        cur = nxt
        history.append(cur.phi)

    if best.gap <= best.tol:
        return finalize(best)
    if cur.phi >= stop_phi:
        return finalize(cur, f"certified critical by the dual bound: phi = {cur.phi:.3e}"
                             f" >= {stop_phi:.3e} = -mu*eps^2/2, so ||d*|| <= eps")
    raise ConvergenceError(
        f"direction subproblem stopped with duality gap {best.gap:.3e} "
        f"above {best.tol:.3e}",
        residual=best.gap,
    )
