"""Problem model for multiobjective composite optimization.

A problem bundles m objectives F_i = f_i + g on R^n. Each f_i is twice
continuously differentiable and is accessed through a single oracle that
returns value, gradient, and Hessian at a point. The nonsmooth term g is
shared by every objective, stored once and evaluated once per point; it is
one of three closed proper convex terms with a closed-form proximal map:

* ``zero``: identically zero,
* ``l1``: a nonnegatively scaled l1 norm, rho * ||x||_1,
* ``box``: the indicator of a box [lo, hi] (value 0 inside, +inf outside).

Each term also describes, per coordinate, the pieces on which it is affine
and its subdifferential at their kinks and bounds; the direction solver and
the outer loop read g only through these, its value and its proximal map.

All oracles are read by one sweep per point through one stacked oracle,
x, hessians -> (values (m,), gradients (m, n), Hessians (m, n, n) or None).
An instance whose objectives are the rows of one stacked oracle, in order,
sweeps by one call to it; any other sweeps by a loop that calls each
objective's oracle once and checks its shapes. The sweep checks the stacked
shapes and hands on a Hessian stack that is exactly symmetric: a float64,
C-contiguous stack whose every matrix equals its transpose passes through
uncopied, and any other is symmetrized once into a new buffer. Either way
the Hessians it hands on are read-only, so no reader can write into an array
an oracle returns again, and all downstream linear algebra may assume exact
symmetry. One finiteness check on the stacked arrays names the first
non-finite objective at an iterate; a line-search trial is not checked,
as its objective values F alone decide it. Hessians are asked for only
when a caller needs them (the proximal Newton-type metric); without them,
only values and gradients are stacked and checked. Extended-real
arithmetic is explicit: nonsmooth values may be +inf, and descent tests
elsewhere treat any comparison involving +inf as a failed decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, EvaluationError, InputError

__all__ = [
    "SmoothObjective",
    "NonsmoothTerm",
    "ProblemInstance",
    "SmoothEval",
    "eval_full",
    "eval_smooth",
]


def _as_point(x, n=None):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError(f"expected a 1-d point, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise InputError(f"point has dimension {x.shape[0]}, expected {n}")
    if not np.isfinite(x).all():
        raise InputError("point has non-finite entries")
    return x


@dataclass(frozen=True)
class SmoothObjective:
    """Twice-differentiable objective accessed through a value/gradient/Hessian oracle.

    Parameters
    ----------
    fn : callable
        Maps a point ``x`` of shape (n,) to a tuple ``(value, gradient, hessian)``
        with shapes (), (n,), (n, n). The oracle must be deterministic. The
        returned Hessian need not be exactly symmetric: the sweep, which
        :meth:`evaluate` runs over this one oracle without a finiteness
        check, passes an exactly symmetric one through and symmetrizes any
        other once. :meth:`evaluate` returns it read-only.
    stack : tuple, optional
        ``(oracle, i, m)`` when fn gives row i of the m rows of a stacked
        oracle (module docstring); an instance whose objectives are rows 0
        to m - 1 of one stacked oracle calls it once per sweep.
    """

    fn: Callable[[np.ndarray], tuple]
    stack: Optional[tuple] = None

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        se = _sweep(partial(_loop, (self,)), 1, x)
        return float(se.values[0]), se.gradients[0], se.hessians[0]


@dataclass(frozen=True)
class NonsmoothTerm:
    """Convex nonsmooth term with closed-form value, proximal map and pieces.

    Construct through :meth:`zero`, :meth:`scaled_l1`, or :meth:`box`. g is
    separable and affine on each piece of a coordinate (:meth:`pieces`);
    a kink or bound is a one-point piece, where :meth:`kink` tests the
    subdifferential and :meth:`entered` picks the piece to enter.
    """

    kind: str
    rho: float = 0.0
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    KIND_ZERO = "zero"
    KIND_L1 = "l1"
    KIND_BOX = "box"

    @classmethod
    def zero(cls) -> "NonsmoothTerm":
        return cls(kind=cls.KIND_ZERO)

    @classmethod
    def scaled_l1(cls, rho: float) -> "NonsmoothTerm":
        rho = float(rho)
        if not np.isfinite(rho) or rho < 0:
            raise ConfigError(f"l1 weight must be finite and >= 0, got {rho}")
        return cls(kind=cls.KIND_L1, rho=rho)

    @classmethod
    def box(cls, lo, hi) -> "NonsmoothTerm":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise ConfigError("box bounds must have matching shapes")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ConfigError("box bounds must not be nan")
        if np.any(lo > hi):
            raise ConfigError("box requires lo <= hi componentwise")
        return cls(kind=cls.KIND_BOX, lo=lo, hi=hi)

    def _key(self) -> tuple:
        bounds = tuple(None if b is None else tuple(b.tolist()) for b in (self.lo, self.hi))
        return self.kind, self.rho, bounds

    def __eq__(self, other):
        """Equal kind, weight and bounds; box bounds compare by value and length."""
        if not isinstance(other, NonsmoothTerm):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def value(self, x: np.ndarray):
        """Extended-real value of the term; +inf outside a box.

        The l1 sum is taken in the precision of x; box and zero values are 0
        or inf.
        An l1 value beyond the float range is +inf, without a RuntimeWarning:
        callers test it for finiteness and report it themselves.
        """
        if self.kind == self.KIND_ZERO:
            return 0.0
        if self.kind == self.KIND_L1:
            with np.errstate(over="ignore"):
                return self.rho * np.abs(x).sum()
        # a point inside the box itself is inside its slack too
        inside = (x >= self.lo).all() and (x <= self.hi).all()
        return 0.0 if inside or not self.outside(x).any() else float("inf")

    def outside(self, x: np.ndarray) -> np.ndarray:
        """Mask of the coordinates of x outside the domain; all False unless a box.

        A coordinate within a few ulps of its box is inside: points produced
        by the proximal map must stay feasible after the x + (u - x) floating
        round trip. nan is outside.
        """
        if self.kind != self.KIND_BOX:
            return np.zeros(np.shape(x), dtype=bool)
        mag = np.maximum(np.abs(x), np.maximum(np.abs(self.lo), np.abs(self.hi)))
        slack = 4.0 * np.finfo(float).eps * (1.0 + mag)
        return ~((x >= self.lo - slack) & (x <= self.hi + slack))

    def prox(self, v: np.ndarray, c: float) -> np.ndarray:
        """Proximal map argmin_u c*g(u) + 0.5*||u - v||^2 for step c > 0."""
        c = float(c)
        if not math.isfinite(c) or c <= 0:
            raise InputError(f"prox step must be finite and > 0, got {c}")
        v = np.asarray(v, dtype=float)
        if self.kind == self.KIND_ZERO:
            return v.copy()
        if self.kind == self.KIND_L1:
            thr = c * self.rho
            return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)
        return np.clip(v, self.lo, self.hi)

    def domain(self, idx):
        """The interval [lo, hi] where g is finite, on coordinates idx: (lo, hi).

        The box's bounds, of idx's shape, or (-inf, inf) for the other terms.
        idx is an index or an integer array; bounds of length 1 serve every
        coordinate.
        """
        if self.kind != self.KIND_BOX:
            return -np.inf, np.inf
        if self.lo.size != 1:
            return self.lo[idx], self.hi[idx]
        return self.lo[idx % 1], self.hi[idx % 1]

    def pieces(self, u):
        """The piece [a, b] of g each coordinate of u lies on, and g's slope there.

        Returns (a, b, slope), each of u's shape. g is affine on a piece: for
        l1 [0, inf) or (-inf, 0] by the sign of u, for the box [lo, hi], for
        the zero term the whole line. A coordinate at a kink (0 for l1) or on
        or beyond a bound lies on the single point a = b there, with slope
        0; every other coordinate has a < b.
        """
        u = np.asarray(u, dtype=float)
        if self.kind == self.KIND_L1:
            return (np.where(u >= 0.0, 0.0, -np.inf), np.where(u <= 0.0, 0.0, np.inf),
                    self.rho * np.sign(u))
        if self.kind == self.KIND_ZERO:
            slope = np.zeros(u.shape)
            return slope - np.inf, slope + np.inf, slope
        return (np.where(u >= self.hi, self.hi, self.lo),
                np.where(u <= self.lo, self.lo, self.hi), np.zeros(u.shape))

    @cached_property
    def has_ends(self) -> bool:
        """Whether some piece of g has a finite end (:meth:`pieces`).

        Never for the zero term, always for l1 (its kink 0), and for a box
        when one of its bounds is finite.
        """
        if self.kind == self.KIND_BOX:
            return bool(np.isfinite(self.lo).any() or np.isfinite(self.hi).any())
        return self.kind == self.KIND_L1

    def kink(self, e, r, idx):
        """How far -r lies outside the subdifferential of g at e, and g's slope past it.

        e holds kinks or bounds of g, exactly, on coordinates idx, and r the
        gradient of a smooth function there. Returns (excess, slope): excess
        is positive where -r lies outside the subdifferential of g at e, by
        that much ([-rho, rho] at an l1 kink, so |r| - rho; (-inf, 0] at lo,
        so -r; [0, inf) at hi, so r), and slope is g's slope on the piece a
        step from e along -r enters, as in :meth:`pieces`; :meth:`entered`
        gives that piece. The zero term has no kink or bound, so nothing
        asks it.
        """
        if self.kind == self.KIND_L1:  # from the kink 0, a step along -r lies at -r
            return np.abs(r) - self.rho, self.rho * np.sign(-r)
        return np.where(e == self.domain(idx)[0], -r, r), np.zeros_like(r)

    def entered(self, r, idx):
        """The piece [a, b] a step along -r enters from a kink or bound on coordinates idx.

        As :meth:`pieces` gives it at -r for l1, and the box's bounds on idx.
        """
        if self.kind == self.KIND_L1:
            return np.where(r <= 0.0, 0.0, -np.inf), np.where(r >= 0.0, 0.0, np.inf)
        return self.domain(idx)


@dataclass(frozen=True)
class SmoothEval:
    """Stacked smooth-oracle output at one point.

    values (m,), gradients (m, n), and hessians (m, n, n), or None when the
    sweep did not ask for them. The Hessians are exactly symmetric and
    read-only; they may share memory with an array the oracle returns.

    at, set by the sweep and not an init argument, is the array the sweep
    evaluated, uncopied; it is None when a SmoothEval is built directly.
    eval_smooth and eval_full sweep only a point they proved a finite
    n-vector, so their at is one. at takes no part in == or repr.
    """

    values: np.ndarray
    gradients: np.ndarray
    hessians: Optional[np.ndarray]
    at: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ProblemInstance:
    """An instance min F(x), F_i = f_i + g, with metadata used by diagnostics.

    Parameters
    ----------
    n, m : int
        Ambient dimension and number of objectives.
    smooth : tuple of SmoothObjective
        One oracle per objective.
    nonsmooth : NonsmoothTerm
        The one term g shared by every objective. Anything else, a tuple of
        terms included, is rejected at construction, as are box bounds whose
        length is neither 1 nor n.
    mu : float
        Strong-convexity modulus: every smooth Hessian is assumed >= mu * I.
    lip_grad : float, optional
        Gradient Lipschitz constant (an upper bound) when known; the CLI's
        default ell for the gradient metric.

    oracle, set at construction, is the stacked oracle of smooth that the
    sweep calls: the one whose rows 0 to m - 1 smooth holds in order, or
    else a loop over every objective's fn.
    """

    n: int
    m: int
    smooth: tuple
    nonsmooth: NonsmoothTerm
    mu: float
    lip_grad: Optional[float] = None
    oracle: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if len(self.smooth) != self.m:
            raise ConfigError(f"expected {self.m} smooth objectives, got {len(self.smooth)}")
        if not isinstance(self.nonsmooth, NonsmoothTerm):
            raise ConfigError("nonsmooth must be one NonsmoothTerm, shared by every objective")
        lo = self.nonsmooth.lo  # None unless g is a box
        if lo is not None and lo.shape not in ((1,), (self.n,)):
            raise ConfigError(f"box bounds must have length 1 or n={self.n}, "
                              f"got shape {lo.shape}")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError(f"mu must be finite and > 0, got {self.mu}")
        v = self.lip_grad
        if v is not None and (not np.isfinite(v) or v < 0):
            raise ConfigError(f"lip_grad must be finite and >= 0, got {v}")
        oracle = self.smooth[0].stack and self.smooth[0].stack[0]
        if any(obj.stack != (oracle, i, self.m) for i, obj in enumerate(self.smooth)):
            oracle = partial(_loop, self.smooth)
        object.__setattr__(self, "oracle", oracle)


def _loop(smooth, x: np.ndarray, hessians: bool) -> tuple:
    """The stacked oracle of any objectives: call each fn once at x, in order.

    Raises EvaluationError at the first output whose gradient is not (n,)
    or whose Hessian is not (n, n). Hessians are stacked only when asked for.
    """
    m, n = len(smooth), x.shape[0]
    values, grads = np.empty(m), np.empty((m, n))
    hesses = np.empty((m, n, n)) if hessians else None
    for i, obj in enumerate(smooth):
        value, grad, hess = obj.fn(x)
        if np.shape(grad) != (n,) or np.shape(hess) != (n, n):
            raise EvaluationError(f"oracle returned gradient {np.shape(grad)} / "
                                  f"hessian {np.shape(hess)} for n={n}")
        values[i], grads[i] = float(value), grad
        if hessians:
            hesses[i] = hess
    return values, grads, hesses


def _sweep(oracle, m: int, x: np.ndarray, hessians: bool = True) -> SmoothEval:
    """One call of the stacked oracle at x, shape-checked; Hessians when asked for.

    The outputs are taken once as float arrays (np.asarray), so an oracle
    may return nested lists, and a float64 array passes through uncopied.
    Raises EvaluationError unless the values are (m,), the gradients (m, n)
    and, when asked for, the Hessians (m, n, n). The Hessians come back
    exactly symmetric and read-only. A float64, C-contiguous stack whose
    every matrix equals its transpose is passed through as a view, with no
    copy: the oracle's array (the quadratic family's A, which it returns
    again) stays writeable and unchanged. The whole stack is compared with
    its transpose at once, and a nan entry fails the comparison. Any other
    stack is symmetrized once into a new C-order buffer, elementwise as
    0.5 * (h + h') per objective. Finiteness is not checked here; see
    _check_finite. The SmoothEval's at is x itself.
    """
    n = x.shape[0]
    values, grads, hesses = oracle(x, hessians)
    values, grads = np.asarray(values, dtype=float), np.asarray(grads, dtype=float)
    hesses = np.asarray(hesses, dtype=float) if hessians else None
    shapes = (values.shape, grads.shape, hesses.shape if hessians else ())
    if shapes != ((m,), (m, n), (m, n, n) if hessians else ()):
        raise EvaluationError(f"stacked oracle returned values, gradients, hessians of "
                              f"shapes {shapes} for m={m}, n={n}")
    if hessians:
        if hesses.flags.c_contiguous and (hesses == hesses.transpose(0, 2, 1)).all():
            hesses = hesses.view()
        else:
            hesses = np.add(hesses, hesses.transpose(0, 2, 1), order="C")
            hesses *= 0.5
        hesses.flags.writeable = False
    se = SmoothEval(values=values, gradients=grads, hessians=hesses)
    object.__setattr__(se, "at", x)
    return se


def _check_finite(se: SmoothEval) -> SmoothEval:
    """Return se, or raise EvaluationError naming the first non-finite objective.

    An objective is non-finite when its value, gradient or Hessian (if se
    has Hessians) has a non-finite entry ("non-finite output"). This is the
    check of an iterate; a line-search trial is judged by its F alone
    (eval_full). The arrays are tested whole first, and read per objective
    only when one fails, which always finds a non-finite objective to name.
    """
    if (all(map(math.isfinite, se.values.tolist())) and np.isfinite(se.gradients).all()
            and (se.hessians is None or np.isfinite(se.hessians).all())):
        return se
    finite = np.isfinite(se.values) & np.isfinite(se.gradients).all(axis=1)
    if se.hessians is not None:
        finite &= np.isfinite(se.hessians).all(axis=(1, 2))
    i = int(np.argmin(finite))
    raise EvaluationError(f"smooth objective {i} returned non-finite output",
                          objective_index=i)


def eval_smooth(problem: ProblemInstance, x, hessians: bool = True) -> SmoothEval:
    """Evaluate all smooth oracles at x; Hessians, if asked for, come back exactly symmetric.

    The Hessians are read-only, and an exactly symmetric stack shares the
    oracle's memory (:func:`_sweep`).

    Raises EvaluationError (with the objective index) if any oracle returns a
    non-finite value, gradient, or Hessian.
    """
    return _check_finite(_sweep(problem.oracle, problem.m, _as_point(x, problem.n), hessians))


def _plus_g(values: np.ndarray, g) -> np.ndarray:
    """values + g elementwise, +inf with no RuntimeWarning where a sum overflows.

    The sums are taken as Python floats, which overflow silently to the same
    IEEE bits; np.errstate would cost more than the sums on every iterate.
    """
    g = float(g)
    return np.array([v + g for v in values.tolist()])


def eval_full(problem: ProblemInstance, x, keep: Optional[list] = None,
              hessians: bool = True) -> np.ndarray:
    """Componentwise full objective values F_i(x) = f_i(x) + g(x), shape (m,).

    g(x) is evaluated once and added to every smooth value, so all values
    are +inf when a box indicator is violated; a sum that overflows is +inf
    too, with no warning. No output of the sweep is checked for finiteness:
    a nan or infinite smooth value gives a non-finite F_i, returned as it
    is, which a line search's decrease test judges (+inf and nan fail it).
    EvaluationError is raised only for oracle output of the wrong shape,
    and InputError for a point that is not a finite n-vector. When keep is
    a list, its contents are replaced by two items: the one SmoothEval of
    x, with Hessians if hessians is true, and the values returned, the
    same array; without keep no Hessian is asked for.
    """
    x = _as_point(x, problem.n)
    g = problem.nonsmooth.value(x)
    se = _sweep(problem.oracle, problem.m, x, hessians and keep is not None)
    full = _plus_g(se.values, g)
    if keep is not None:
        keep[:] = [se, full]
    return full
