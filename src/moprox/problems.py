"""Problem model for multiobjective composite optimization.

A problem bundles m objectives F_i = f_i + g_i on R^n. Each f_i is twice
continuously differentiable and is accessed through a single oracle that
returns value, gradient, and Hessian at a point. Each g_i is one of three
closed proper convex terms with a closed-form proximal map:

* ``zero``: identically zero,
* ``l1``: a nonnegatively scaled l1 norm, rho * ||x||_1,
* ``box``: the indicator of a box [lo, hi] (value 0 inside, +inf outside).

Hessians are symmetrized at the oracle boundary so all downstream linear
algebra may assume exact symmetry. Extended-real arithmetic is explicit:
nonsmooth values may be +inf, and descent tests elsewhere treat any
comparison involving +inf as a failed decrease.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    if not np.all(np.isfinite(x)):
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
        returned Hessian need not be exactly symmetric; it is symmetrized here.
    """

    fn: Callable[[np.ndarray], tuple]

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        value, grad, hess = self.fn(x)
        value = float(value)
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        n = x.shape[0]
        if grad.shape != (n,) or hess.shape != (n, n):
            raise EvaluationError(
                f"oracle returned gradient {grad.shape} / hessian {hess.shape} for n={n}"
            )
        # symmetrize at the boundary; callers rely on exact symmetry
        hess = 0.5 * (hess + hess.T)
        return value, grad, hess


@dataclass(frozen=True)
class NonsmoothTerm:
    """Convex nonsmooth term with closed-form value and proximal map.

    Construct through :meth:`zero`, :meth:`scaled_l1`, or :meth:`box`.
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

    def _bounds_for(self, x: np.ndarray):
        lo = np.broadcast_to(self.lo, x.shape)
        hi = np.broadcast_to(self.hi, x.shape)
        return lo, hi

    @staticmethod
    def _bound_slack(x, lo, hi):
        # membership tolerance of a few ulps: points produced by the proximal
        # map must stay feasible after the x + (u - x) floating round trip
        mag = np.maximum(np.abs(x), np.maximum(np.abs(lo), np.abs(hi)))
        return 4.0 * np.finfo(float).eps * (1.0 + mag)

    def value(self, x: np.ndarray):
        """Extended-real value of the term; +inf outside a box.

        The l1 sum keeps the precision of x, so an extended-precision point
        gives an extended-precision value; box and zero values are 0 or inf.
        """
        if self.kind == self.KIND_ZERO:
            return 0.0
        if self.kind == self.KIND_L1:
            return self.rho * np.sum(np.abs(x))
        lo, hi = self._bounds_for(x)
        slack = self._bound_slack(x, lo, hi)
        if np.all(x >= lo - slack) and np.all(x <= hi + slack):
            return 0.0
        return float("inf")

    def prox(self, v: np.ndarray, c: float) -> np.ndarray:
        """Proximal map argmin_u c*g(u) + 0.5*||u - v||^2 for step c > 0."""
        c = float(c)
        if not np.isfinite(c) or c <= 0:
            raise InputError(f"prox step must be finite and > 0, got {c}")
        v = np.asarray(v, dtype=float)
        if self.kind == self.KIND_ZERO:
            return v.copy()
        if self.kind == self.KIND_L1:
            thr = c * self.rho
            return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)
        lo, hi = self._bounds_for(v)
        return np.clip(v, lo, hi)

    def subdiff_residual(self, u: np.ndarray, r: np.ndarray) -> float:
        """Distance from -r to the subdifferential of the term at u.

        Returns min over s in the subdifferential of ||r + s||. Used to verify
        that a candidate direction satisfies the subproblem's stationarity
        condition to a tolerance.
        """
        u = np.asarray(u, dtype=float)
        r = np.asarray(r, dtype=float)
        if self.kind == self.KIND_ZERO:
            return float(np.linalg.norm(r))
        if self.kind == self.KIND_L1:
            res = np.where(
                u != 0.0,
                r + self.rho * np.sign(u),
                np.sign(r) * np.maximum(np.abs(r) - self.rho, 0.0),
            )
            return float(np.linalg.norm(res))
        lo, hi = self._bounds_for(u)
        slack = self._bound_slack(u, lo, hi)
        res = r.copy()
        at_lo = u <= lo + slack
        at_hi = u >= hi - slack
        # normal cone: (-inf, 0] at the lower bound, [0, inf) at the upper
        res[at_lo] = np.maximum(-r[at_lo], 0.0)
        res[at_hi] = np.maximum(r[at_hi], 0.0)
        res[at_lo & at_hi] = 0.0
        return float(np.linalg.norm(res))

    def same_as(self, other: "NonsmoothTerm") -> bool:
        if self.kind != other.kind:
            return False
        if self.kind == self.KIND_L1:
            return self.rho == other.rho
        if self.kind == self.KIND_BOX:
            return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)
        return True


@dataclass(frozen=True)
class SmoothEval:
    """Stacked smooth-oracle output at one point: values (m,), gradients (m, n), hessians (m, n, n)."""

    values: np.ndarray
    gradients: np.ndarray
    hessians: np.ndarray


@dataclass(frozen=True)
class ProblemInstance:
    """An instance min F(x), F_i = f_i + g_i, with metadata used by diagnostics.

    Parameters
    ----------
    n, m : int
        Ambient dimension and number of objectives.
    smooth : tuple of SmoothObjective
        One oracle per objective.
    nonsmooth : tuple of NonsmoothTerm
        One term per objective. For m > 1 all terms must share kind and
        parameters; mixed terms are rejected at construction.
    mu : float
        Strong-convexity modulus: every smooth Hessian is assumed >= mu * I.
    lip_grad, lip_hess : float, optional
        Gradient / Hessian Lipschitz constants when known (upper bounds).
    reference_solution : ndarray, optional
        A known solution used only by diagnostics, never by the solver.
    """

    n: int
    m: int
    smooth: tuple
    nonsmooth: tuple
    mu: float
    lip_grad: Optional[float] = None
    lip_hess: Optional[float] = None
    reference_solution: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if len(self.smooth) != self.m:
            raise ConfigError(f"expected {self.m} smooth objectives, got {len(self.smooth)}")
        if len(self.nonsmooth) != self.m:
            raise ConfigError(f"expected {self.m} nonsmooth terms, got {len(self.nonsmooth)}")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError(f"mu must be finite and > 0, got {self.mu}")
        for name in ("lip_grad", "lip_hess"):
            v = getattr(self, name)
            if v is not None and (not np.isfinite(v) or v < 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        first = self.nonsmooth[0]
        for term in self.nonsmooth[1:]:
            if not first.same_as(term):
                raise ConfigError(
                    "all nonsmooth terms must share kind and parameters when m > 1"
                )
        if self.reference_solution is not None:
            ref = _as_point(self.reference_solution, self.n)
            object.__setattr__(self, "reference_solution", ref)


def _checked_stack(outputs, m: int, n: int) -> SmoothEval:
    """Stack per-objective oracle outputs (value, gradient, Hessian) in order.

    Raises EvaluationError (with the objective index) at the first output
    with a non-finite value, gradient, or Hessian; a lazy iterable is checked
    before its next output is drawn.
    """
    values = np.empty(m)
    grads = np.empty((m, n))
    hesses = np.empty((m, n, n))
    for i, (v, g, h) in enumerate(outputs):
        if not np.isfinite(v) or not np.all(np.isfinite(g)) or not np.all(np.isfinite(h)):
            raise EvaluationError(
                f"smooth objective {i} returned non-finite output", objective_index=i
            )
        values[i] = v
        grads[i] = g
        hesses[i] = h
    return SmoothEval(values=values, gradients=grads, hessians=hesses)


def eval_smooth(problem: ProblemInstance, x) -> SmoothEval:
    """Evaluate all smooth oracles at x; Hessians come back exactly symmetric.

    Raises EvaluationError (with the objective index) if any oracle returns a
    non-finite value, gradient, or Hessian.
    """
    x = _as_point(x, problem.n)
    return _checked_stack((obj.evaluate(x) for obj in problem.smooth),
                          problem.m, problem.n)


def eval_full(problem: ProblemInstance, x, keep: Optional[list] = None) -> np.ndarray:
    """Componentwise full objective values F_i(x) = f_i(x) + g_i(x), shape (m,).

    Values may be +inf when a box indicator is violated; smooth parts must be
    finite or EvaluationError is raised. When keep is a list, each
    objective's oracle output (value, gradient, Hessian) is appended to it in
    order; only the values are checked here.
    """
    x = _as_point(x, problem.n)
    out = np.empty(problem.m)
    for i, (obj, term) in enumerate(zip(problem.smooth, problem.nonsmooth)):
        output = obj.evaluate(x)
        v = output[0]
        if not np.isfinite(v):
            raise EvaluationError(
                f"smooth objective {i} returned non-finite value", objective_index=i
            )
        out[i] = v + term.value(x)
        if keep is not None:
            keep.append(output)
    return out
