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
(:func:`solve_direction`): a tol_gap below the floor is raised to it. The
outer loop asks for less far from a solution: a forcing term certifies a
snap once its error bound is below a fixed fraction of ||d||^2, as inexact
Newton methods do (solve_direction's forcing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (ConfigError, ConvergenceError, EvaluationError, InputError,
                     SingularMetricError)
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
# Under solve_direction(..., forcing=True) a snap whose d meets the descent
# bound theta <= -(mu/2)||d||^2 also certifies at gap <= (mu/2) FORCING ||d||^4,
# which keeps ||d - d*|| <= sqrt(FORCING) ||d||^2 = 0.01 ||d||^2. With 1e-3 one
# rate test's tail (A05, l1, m = 5) stops decreasing strictly.
FORCING = 1e-4

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
        max(tol_gap, GAP_FLOOR eps64 S) for the scale S of the model values;
        with forcing (as solve() calls it), at most the larger of that and
        (mu/2) FORCING ||d||^4 (:func:`solve_direction`).
    inner_iters, dual_iters : int
        Total passes of the inner active-set solve (one Cholesky solve each)
        and number of dual weight vectors visited.
    dual_history : tuple of float
        Dual objective values: the first snap's, then each accepted ascent
        iterate's, nondecreasing. The snap that ends the solve adds none
        unless it is the first.
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
    model); ell is None for the former. :attr:`reads_hessians` is the one
    answer to whether a sweep for this metric asks for Hessians.
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

    @property
    def reads_hessians(self) -> bool:
        """Whether the model reads the Hessians: under the Hessian metric only."""
        return self.ell is None

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
        When no piece of g has a finite end (:attr:`NonsmoothTerm.has_ends`,
        as for the zero term), g is constant on its domain, the whole line:
        its proximal map is the identity and every coordinate is free, so
        neither the map nor the pieces are asked, as in inner_minimize.
        """
        if self.ell is None:
            return inner_minimize(weights, smooth_eval, term, x, d0=d0)
        x = np.asarray(x, dtype=float)
        v = np.asarray(weights, dtype=float) @ smooth_eval.gradients
        u = x - v / self.ell
        if term.has_ends:
            u = term.prox(u, 1.0 / self.ell)
            a, b, _ = term.pieces(u)
            free = a < b
        else:  # all True, at a third of np.ones' cost
            free = np.empty(x.shape, dtype=bool)
            free.fill(True)
        return u - x, free, lambda rhs: rhs / self.ell, 1


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


def _fitting(se: SmoothEval, m: int, n: int, hessians: bool,
             shapes: bool = True) -> SmoothEval:
    """se, or InputError naming where it does not fit m objectives on R^n.

    se's values must be (m,) and its gradients (m, n); when hessians is true
    its Hessians must be (m, n, n), and not None. Without shapes only the
    Hessians' presence is tested, for an se whose sweep checked its shapes.
    """
    if hessians and se.hessians is None:
        raise InputError("smooth_eval has no Hessians, which the Hessian metric reads; "
                         "evaluate it with hessians=True")
    if not shapes:
        return se
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
    """The solve with block's Cholesky factor, by LAPACK potrf and potrs.

    block is factored in place: every caller passes a fresh copy that it
    does not read again. It is exactly symmetric, so block.T is the same
    matrix in Fortran order, which potrf overwrites without a copy.
    """
    factor, info = _potrf(block.T, lower=True, clean=False, overwrite_a=True)
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
    violating one is released onto the piece a step along -r enters
    (:meth:`NonsmoothTerm.entered`, asked only there). When BACKUP_PASSES
    passes in a row bring no new fewest count of infeasible coordinates,
    only the one of largest index is exchanged (Murty's rule) until the
    count falls below that fewest; this backup rule is what ends the
    exchanges. When no piece has a finite end, as for the zero term
    (:attr:`NonsmoothTerm.has_ends`), nothing can leave a piece or be held:
    the first pass, the plain Cholesky solve H_w d = -grad_w, returns. The
    result is the last pass's solve with the held coordinates exactly at
    their kinks or bounds, so it depends only on the final free set, and
    two starts that end on the same free set return the same bits; d0
    changes only the number of passes, and a start near the solution (the
    direction solver passes the previous snap's d) usually needs one or
    two.

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
    if not term.has_ends:
        # a coordinate leaves its piece only through a finite end: with none
        # (the zero term) nothing is ever held, and the first solve is exact
        solve = _cholesky(M)
        return solve(-c), a < b, solve, 1
    free = a < b
    d[~free] = a[~free] - x[~free]
    best, allowance = x.size + 1, BACKUP_PASSES  # Judice & Pires's backup rule
    nothing = np.empty(0, dtype=np.intp)
    for it in range(1, MAX_INNER_PASSES + 1):
        # blocks taken rows first, then columns, by take are the C-order
        # copies np.ix_ makes, at a third of the cost; the F-order copies
        # of chained boolean masks change the bits
        held, fi = (~free).nonzero()[0], free.nonzero()[0]
        solve = None
        if fi.size:
            rows = M.take(fi, 0)
            solve = _cholesky(rows.take(fi, 1))
            d[fi] = solve(-c[fi] - rows.take(held, 1) @ d[held])
        # free coordinates outside their pieces (a held one is not tested:
        # x + (end - x) may round past its bound) and held coordinates whose
        # -r, r = grad_w + H_w d its multiplier, lies outside the
        # subdifferential of g by more than a few ulps
        u = x[fi] + d[fi]
        below = u < a[fi]
        leave = (below | (u > b[fi])).nonzero()[0]
        out = nothing
        if held.size:
            v_held, M_held = v[held], M.take(held, 0)
            r = v_held + M_held @ d
            viol, slope_in = term.kink(a[held], r, held)
            # the slack is >= 0, so only a positive excess can exceed it;
            # when one does, the slack is taken over every held row
            if (viol > 0.0).any():
                slack = 4.0 * _EPS * (np.abs(v_held) + np.abs(M_held) @ np.abs(d)
                                      + np.abs(slope_in))
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
        if leave.size:
            hold = fi[leave]
            end = np.where(below[leave], a[hold], b[hold])
            free[hold] = False
            a[hold] = b[hold] = end
            d[hold] = end - x[hold]
        if out.size:
            release = held[out]
            free[release] = True
            a[release], b[release] = term.entered(r[out], release)
            c[release] = v[release] + slope_in[out]
    raise ConvergenceError(
        f"inner active-set solve not certified after {MAX_INNER_PASSES} passes",
        residual=float(infeasible),
    )


class _Stop(Exception):
    """Raised by a snap that ends the direction solve; args are (snapshot, message)."""


@dataclass(slots=True)
class _Snapshot:
    lam: np.ndarray
    d: np.ndarray
    free: np.ndarray
    solve_free: Optional[Callable]
    hd: np.ndarray  # H_i d, or ell d under ell I, for the Newton step
    psi: np.ndarray
    phi: float
    theta: float  # psi.max()
    gap: float
    tol: float  # the forcing or max(tol_gap, the floor): gap <= tol certifies the snap


def solve_direction(problem: ProblemInstance, x, tol_gap: float = 1e-10, *,
                    smooth_eval=None, metric: Optional[Metric] = None,
                    weights=None, eps: Optional[float] = None,
                    forcing: bool = False) -> DirectionResult:
    """Solve the direction subproblem at x to a certified duality gap or ||d*|| <= eps.

    metric defaults to the Hessian metric. smooth_eval, the oracle output at
    x, is evaluated here when not given, with Hessians only when the metric
    reads them (:attr:`Metric.reads_hessians`: the scaled-identity metric
    does not); the line search of the outer loop keeps the output at the
    step it accepts and passes it in, so each iterate sweeps the oracles
    once.

    Maximizes the dual over the weight simplex from weights, or from the
    uniform vector when weights is None. The outer loop passes the weights
    of the previous accepted direction: near a solution consecutive
    subproblems nearly coincide, and after a full step on a quadratic those
    weights certify the new point at the first snap. From the second snap
    on, each inner solve starts its active set from the most recent snap's
    direction. Every dual step follows one trial rule: snap the weights
    proposed at a step length, accept them if the dual value rises, or if
    it ties and the gap falls, else halve the length and try again; a
    proposal equal to the trial just rejected is halved again unsnapped,
    since its snap would start from that trial's d, end on its bits and be
    rejected again. Each
    iteration first takes a Newton step on the current face (the support
    of the weights plus the outside index with the largest model value,
    when that value exceeds the dual value), solving the face system by
    one pivoted Cholesky on its leading rank pivots; when the full step
    leaves the simplex, its projection onto the simplex is tried first,
    and then the step cut back to the simplex boundary. With no free
    coordinate left it jumps to the best vertex instead. When it gives no
    ascent, a projected supergradient step with a warm-started step length
    is taken. Every snap is tested as it is taken, the gap first, and the
    first that passes a test ends the solve, whether its trial was accepted
    or not. The gap test is that the gap certificate reaches max(tol_gap,
    GAP_FLOOR eps64 S), where S = max_i(|grad f_i|'|d| + |H_i d|'|d| / 2)
    + |g(x + d)| + |g(x)| is the sum of the magnitudes that the snap's model
    values add up, and float64 resolves them, and the gap, only to a small
    multiple of eps64 S (Higham 2002, ch. 3).
    With forcing, a snap also certifies when its d meets the paper's descent
    bound theta(d) <= -(mu/2)||d||^2 and its gap is at most (mu/2) FORCING
    ||d||^4, mu the metric's modulus. The models are mu-strongly convex, so
    theta is, and with weak duality (mu/2)||d - d*||^2 <= theta(d) -
    theta(d*) <= gap: such a d has ||d - d*|| <= sqrt(FORCING) ||d||^2 =
    0.01 ||d||^2, and so ||d - d*|| = O(||d*||^2), which keeps the local
    quadratic and superlinear rates (the inexact Newton forcing of Dembo,
    Eisenstat & Steihaug 1982, SIAM J. Numer. Anal. 19(2); for composite
    models, Lee, Sun & Saunders 2014, SIAM J. Optim. 24(3)). Far from a
    solution it saves snaps; near one its tolerance falls far below the
    floor, so the last directions are solved exactly. solve() passes
    forcing=True; a direct call (analysis.criticality_measure among them)
    gets the optimum to max(tol_gap, floor).
    The second test, given eps, is the dual bound on the snap's dual value,
    phi >= -mu eps^2 / 2, mu the metric's modulus: every model is
    mu-strongly convex with value 0 at d = 0, so ||d*||^2 <= -2 phi / mu,
    and the zero direction is returned with a message. It runs only when the gap test fails, so a
    gap-certified direction does not depend on eps. When no step ascends,
    or MAX_DUAL_ITERS iterations pass first, ConvergenceError is raised
    with the smallest gap reached; so it is when an inner solve is not
    certified within MAX_INNER_PASSES passes. EvaluationError is raised
    when a snap's model values are not finite, as when the model of finite
    oracle output overflows float64.

    Returns a DirectionResult whose theta is nonpositive: if rounding at a
    critical point produces a positive model optimum, the zero direction
    (feasible, value zero) is returned instead. Raises InputError unless
    weights is None or an m-vector on the unit simplex: finite, nonnegative
    and summing to 1 within 4 m machine epsilons, unless eps is None or
    finite and > 0, and unless a given smooth_eval fits the problem: values
    (m,), gradients (m, n) and, under the Hessian metric, Hessians (m, n, n).
    Those tests of x and of smooth_eval's shapes are skipped when x is
    smooth_eval.at, read-only and owning its memory, and smooth_eval's
    gradients are (m, n): the sweep that set at proved x a finite n-vector
    and checked smooth_eval's shapes against it. Any other x, a caller's
    writeable array among them, is tested.
    """
    at = None if smooth_eval is None else smooth_eval.at
    swept = (at is not None and x is at and not x.flags.writeable and x.base is None
             and smooth_eval.gradients.shape == (problem.m, problem.n))
    if not swept:
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
        w_l = weights.tolist()
        # nan and -inf fail the sign test, +inf the sum test
        if (weights.shape != (m,) or not all(w >= 0.0 for w in w_l)
                or abs(sum(w_l) - 1.0) > 4 * m * _EPS):
            raise InputError(f"weights must be {m} finite nonnegative numbers "
                             f"summing to 1, got {weights!r}")
    metric = Metric.hessian() if metric is None else metric
    se = (eval_smooth(problem, x, hessians=metric.reads_hessians) if smooth_eval is None
          else _fitting(smooth_eval, m, problem.n, metric.reads_hessians, shapes=not swept))
    mu = metric.modulus(problem)
    # a dual value at or above stop_phi certifies ||d*|| <= eps
    stop_phi = math.inf if eps is None else -0.5 * mu * eps * eps
    term = problem.nonsmooth
    at_x = _term_at(term, x)
    products = metric.products(se)
    abs_grads = None  # |grad f_i|, taken once, at the first snap the floor reads
    counts = {"inner": 0, "dual": 0}
    history = []  # the first snap's phi, then each accepted iterate's
    best = None  # the snapshot with the smallest gap, which a ConvergenceError reports
    prev_d = None  # the most recent snap's d, where the next inner solve starts

    def snap(lam: np.ndarray) -> _Snapshot:
        """The snapshot at lam; raises _Stop when it certifies the gap or the dual bound."""
        nonlocal best, prev_d, abs_grads
        d, free, solve_free, passes = metric.minimize(lam, se, term, x, d0=prev_d)
        prev_d = d
        counts["inner"] += passes
        counts["dual"] += 1
        psi, (hd, at_u) = _model_values_hi(d, se.gradients, products, term, x, at_x)
        phi = lam @ psi
        if not math.isfinite(phi):
            # 0 * inf is nan, so this sees every non-finite entry of psi
            raise EvaluationError(f"the direction model's values are not finite: psi = {psi}")
        if not history:
            history.append(phi)
        theta = np.float64(max(psi.tolist()))  # psi.max(): its value and its type
        gap, tol = theta - phi, tol_gap
        if gap > tol_gap:
            dd = d @ d
            forced = 0.5 * mu * FORCING * dd * dd
            if forcing and gap <= forced and theta <= -0.5 * mu * dd:
                # the forcing: then ||d - d*|| <= sqrt(FORCING) ||d||^2
                tol = forced
            else:
                # the floor: float64 resolves psi, and so the gap, to eps64 S
                if abs_grads is None:
                    abs_grads = np.abs(se.gradients)
                scale = ((abs_grads + 0.5 * np.abs(hd)) @ np.abs(d)).max()
                tol = max(tol_gap, GAP_FLOOR * _EPS * (scale + abs(at_u) + abs(at_x)))
        here = _Snapshot(lam=lam, d=d, free=free, solve_free=solve_free, hd=hd, psi=psi,
                         phi=phi, theta=theta, gap=gap, tol=tol)
        if gap <= tol:
            raise _Stop(here, "")
        if phi >= stop_phi:
            raise _Stop(here, f"certified critical by the dual bound: phi = {phi:.3e}"
                              f" >= {stop_phi:.3e} = -mu*eps^2/2, so ||d*|| <= eps")
        if best is None or gap < best.gap:
            best = here
        return here

    def finalize(s: _Snapshot, message: str) -> DirectionResult:
        # no snap's d or lam is written into after it is taken, so both are
        # handed out uncopied
        theta, gap, d = s.theta, s.gap, s.d
        if theta > 0.0 or message:
            # the exact optimum is nonpositive (d = 0 is feasible with value 0),
            # so a positive rounded value certifies criticality at precision;
            # a message says a dual value certified ||d*|| <= eps
            d = np.zeros_like(d)
            theta = gap = 0.0
        return DirectionResult(direction=d, theta=theta, weights=s.lam, gap=gap,
                               inner_iters=counts["inner"], dual_iters=counts["dual"],
                               dual_history=tuple(history), message=message)

    def ascend(here: _Snapshot, propose: Callable, t: float, tries: int):
        """(snapshot or None, t): snap propose(t), halving t, until a trial is accepted.

        A trial is accepted when phi rises, or when phi ties and the gap
        falls: accepting every tie cycled on flat faces. Gives up when a
        proposal equals here.lam, or after tries trials. A proposal equal to
        the trial just rejected is halved again unsnapped: its snap would
        start from that trial's d, end on its bits and be rejected again.
        """
        current, rejected = here.lam.tolist(), None
        for _ in range(tries):
            lam = propose(t)
            proposal = lam.tolist()
            if proposal == current:
                return None, t
            if proposal != rejected:
                cand = snap(lam)
                if cand.phi > here.phi or (cand.phi == here.phi and cand.gap < here.gap):
                    return cand, t
                rejected = proposal
            t *= 0.5
        return None, t

    # On a face the dual Hessian restricted to zero-sum directions is
    # -Q W^-1 Q' (module docstring), taken in the basis e_k - e_last from the
    # snap's solve_free and H_i d; only that |S| - 1 system is factored. It
    # converges quadratically near optima interior to the face.
    def newton_step(here: _Snapshot):
        # the m-vector bookkeeping runs on Python floats, whose IEEE
        # operations give numpy's bits at a fraction of its dispatch cost
        lam, psi = here.lam, here.psi
        lam_l, psi_l = lam.tolist(), psi.tolist()
        support = [i for i, w in enumerate(lam_l) if w > 0.0]
        if len(support) < m:
            # the weights are >= 0, so the others are 0: the face grows by the
            # first of them with the largest model value, if that exceeds phi
            j = max((i for i, w in enumerate(lam_l) if w == 0.0), key=psi_l.__getitem__)
            if psi_l[j] > here.phi:
                support = sorted(support + [j])
        # a face of one index is not special-cased: with finite psi its gap is
        # 0, so its snap certified and the solve ended before this step; with a
        # non-finite psi no trial is accepted (its face system is empty, and
        # the move zero)
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
        last = psi_l[support[-1]]
        g_red = np.array([psi_l[i] - last for i in support[:-1]])
        # h_red is positive semidefinite, singular once |S| - 1 exceeds the
        # free count; the pivoted Cholesky reads its lower triangle, solves on
        # the leading rank pivots and leaves du 0 on the dependent ones
        factor, piv, rank, _ = _pstrf(h_red, lower=1)
        lead = piv[:rank] - 1
        du = np.zeros_like(g_red)
        if rank:
            du[lead] = _potrs(factor[:rank, :rank], g_red[lead], lower=True)[0]
        du_l = du.tolist()
        if not all(map(math.isfinite, du_l)):
            # an overflowing face solve would propose nan weights, which no
            # snap can use; the supergradient safeguard is taken instead
            return None
        move_l = [0.0] * m  # du on the face, -sum(du) at its last index
        for i, v in zip(support, du_l + [float(-du.sum())]):
            move_l[i] = v
        move = np.array(move_l)
        t = min([1.0] + [w / -v for w, v in zip(lam_l, move_l) if v < 0.0])
        if t <= 0.0:
            return None
        if t < 1.0:
            # the full step projected first: it drops every weight the step
            # carries out at once, where the cut-back drops one per snap
            nxt = ascend(here, lambda _: project_simplex(lam + move), 1.0, 1)[0]
            if nxt is not None:
                return nxt

        def clamped(t):
            lam_new = lam + t * move
            lam_new[lam_new < 1e-15] = 0.0  # negatives too; the sum stays near 1
            lam_new /= lam_new.sum()
            return lam_new

        return ascend(here, clamped, t, 8)[0]

    s_prev = 1.0  # the last accepted supergradient step length
    try:
        cur = snap(weights)
        for _ in range(MAX_DUAL_ITERS):
            nxt = newton_step(cur)
            if nxt is None:
                # safeguard: a projected supergradient step, warm-started
                nxt, s = ascend(cur, lambda s: project_simplex(cur.lam + s * cur.psi),
                                min(1.0, 4.0 * s_prev), 60)
                if nxt is None:
                    break
                s_prev = s
            cur = nxt
            history.append(cur.phi)
    except _Stop as stop:
        return finalize(*stop.args)
    raise ConvergenceError(
        f"direction subproblem stopped with duality gap {best.gap:.3e} "
        f"above {best.tol:.3e}",
        residual=best.gap,
    )
