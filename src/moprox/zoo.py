"""Seeded families of test instances.

All randomness flows through numpy's documented PCG64 generator seeded from
the instance spec, so the same spec reproduces the same instance bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_field_types
from .problems import NonsmoothTerm, ProblemInstance, SmoothObjective

__all__ = [
    "InstanceSpec",
    "FAMILIES",
    "gen_quadratic",
    "gen_logsumexp_reg",
    "attach_nonsmooth",
    "generate_instance",
    "quadratic_objective",
    "logsumexp_objective",
]

FAMILIES = ("quadratic", "quadratic_l1", "quadratic_box", "logsumexp")
_LSE_ROWS = 5  # per logsumexp objective, each row _LSE_ROW_SCALE * N(0, I)
_LSE_ROW_SCALE = 0.9


@dataclass(frozen=True)
class InstanceSpec:
    """Declarative description of a generated instance.

    rho is the l1 weight for the quadratic_l1 family; lo/hi are scalar box
    bounds for quadratic_box. cond sets the quadratic families' Hessian
    condition number; logsumexp does not read it and accepts only cond = 1.
    n, m and seed must be integers and the other numeric fields real numbers
    (bool is neither); a ConfigError names the first field that is not.
    """

    family: str
    n: int
    m: int
    cond: float = 1.0
    mu: float = 1.0
    rho: float = 0.0
    seed: int = 0
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"must be one of {FAMILIES}, got {self.family!r}", "family")
        check_field_types(self, integers=("n", "m", "seed"),
                          reals=("cond", "mu", "rho", "lo", "hi"))
        for name in ("n", "m"):
            if getattr(self, name) < 1:
                raise ConfigError(f"must be >= 1, got {getattr(self, name)}", name)
        if not (np.isfinite(self.cond) and self.cond >= 1.0):
            raise ConfigError(f"must be finite and >= 1, got {self.cond}", "cond")
        if self.family == "logsumexp" and self.cond != 1.0:
            raise ConfigError(f"must be 1 for logsumexp, which does not use it; "
                              f"got {self.cond}", "cond")
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise ConfigError(f"must be finite and > 0, got {self.mu}", "mu")
        if not (np.isfinite(self.rho) and self.rho >= 0.0):
            raise ConfigError(f"must be finite and >= 0, got {self.rho}", "rho")
        if not (self.lo < self.hi):
            raise ConfigError(f"must be < hi for the box, got [{self.lo}, {self.hi}]", "lo")


def quadratic_objective(A: np.ndarray, b: np.ndarray) -> SmoothObjective:
    """f(x) = 0.5 x'Ax - b'x with constant Hessian A."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def fn(x):
        Ax = A @ x
        return 0.5 * float(x @ Ax) - float(b @ x), Ax - b, A

    return SmoothObjective(fn=fn)


def logsumexp_objective(rows: np.ndarray, offsets: np.ndarray, mu: float,
                        center: np.ndarray) -> SmoothObjective:
    """f(x) = log sum_j exp(rows_j' x + offsets_j) + (mu/2) ||x - center||^2.

    The log-sum-exp is evaluated with max subtraction so large exponents do
    not overflow.
    """
    rows = np.asarray(rows, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    center = np.asarray(center, dtype=float)
    mu = float(mu)

    def fn(x):
        t = rows @ x + offsets
        tmax = float(np.max(t))
        w = np.exp(t - tmax)
        total = float(np.sum(w))
        p = w / total
        diff = x - center
        value = tmax + np.log(total) + 0.5 * mu * float(diff @ diff)
        mean_row = rows.T @ p
        grad = mean_row + mu * diff
        hess = (rows * p[:, None]).T @ rows - np.outer(mean_row, mean_row)
        hess = hess + mu * np.eye(x.size)
        return value, grad, hess

    return SmoothObjective(fn=fn)


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # fix signs so the factor is a deterministic function of z
    return q * np.sign(np.diag(r))


def gen_quadratic(spec: InstanceSpec, shifts=None) -> ProblemInstance:
    """Strongly convex quadratics f_i = 0.5 x'A_i x - b_i'x with g = 0.

    Each A_i = Q_i D_i Q_i' where Q_i is a seeded random orthogonal factor
    and D_i holds eigenvalues log-uniform in [mu, mu*cond] with the interval
    endpoints pinned, so lambda_min(A_i) = mu and cond(A_i) = cond hold
    exactly (for n = 1 the matrix is [[mu]]). Shifts b_i are standard normal
    draws unless given explicitly as an (m, n) array.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        if shifts.shape != (spec.m, spec.n):
            raise ConfigError(
                f"shifts must have shape ({spec.m}, {spec.n}), got {shifts.shape}"
            )
    smooth = []
    for i in range(spec.m):
        if spec.n == 1:
            a = np.array([[spec.mu]])
        else:
            q = _random_orthogonal(rng, spec.n)
            eigs = spec.mu * spec.cond ** rng.random(spec.n)
            eigs[0] = spec.mu
            eigs[-1] = spec.mu * spec.cond
            a = (q * eigs) @ q.T
            a = 0.5 * (a + a.T)
        b = shifts[i] if shifts is not None else rng.standard_normal(spec.n)
        smooth.append(quadratic_objective(a, b))
    lip = spec.mu if spec.n == 1 else spec.mu * spec.cond
    return ProblemInstance(
        n=spec.n, m=spec.m, smooth=tuple(smooth),
        nonsmooth=NonsmoothTerm.zero(), mu=spec.mu, lip_grad=lip,
    )


def gen_logsumexp_reg(spec: InstanceSpec) -> ProblemInstance:
    """Log-sum-exp objectives with a quadratic regularizer of modulus mu.

    f_i(x) = log sum_j exp(a_ij'x + c_ij) + (mu/2)||x - z_i||^2 with seeded
    rows a_ij, offsets c_ij and per-objective centers z_i. Records lip_grad =
    mu + max_ij ||a_ij||^2, the CLI's default ell for the gradient metric.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    smooth = []
    max_row_sq = 0.0
    for _ in range(spec.m):
        rows = _LSE_ROW_SCALE * rng.standard_normal((_LSE_ROWS, spec.n))
        offsets = 0.5 * rng.standard_normal(_LSE_ROWS)
        center = 0.5 * rng.standard_normal(spec.n)
        norms = np.linalg.norm(rows, axis=1)
        max_row_sq = max(max_row_sq, float(np.max(norms) ** 2))
        smooth.append(logsumexp_objective(rows, offsets, spec.mu, center))
    return ProblemInstance(
        n=spec.n, m=spec.m, smooth=tuple(smooth),
        nonsmooth=NonsmoothTerm.zero(), mu=spec.mu,
        lip_grad=spec.mu + max_row_sq,
    )


def attach_nonsmooth(instance: ProblemInstance, term: NonsmoothTerm) -> ProblemInstance:
    """Replace the instance's shared nonsmooth term g with the given one.

    ProblemInstance validates the term; every other field is kept.
    """
    return replace(instance, nonsmooth=term)


def generate_instance(spec: InstanceSpec) -> ProblemInstance:
    """Build the instance described by spec (dispatch on family)."""
    if spec.family == "quadratic":
        return gen_quadratic(spec)
    if spec.family == "quadratic_l1":
        base = gen_quadratic(spec)
        return attach_nonsmooth(base, NonsmoothTerm.scaled_l1(spec.rho))
    if spec.family == "quadratic_box":
        base = gen_quadratic(spec)
        lo = np.full(spec.n, spec.lo)
        hi = np.full(spec.n, spec.hi)
        return attach_nonsmooth(base, NonsmoothTerm.box(lo, hi))
    if spec.family == "logsumexp":
        return gen_logsumexp_reg(spec)
    raise ConfigError(f"unknown family {spec.family!r}")
