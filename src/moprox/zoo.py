"""Seeded families of test instances.

All randomness flows through numpy's documented PCG64 generator seeded from
the instance spec, so the same spec reproduces the same instance bit for bit.
Each family has one stacked oracle, which evaluates all m objectives from
(m, ...) arrays in one call and forms their Hessians only when asked; an
instance's objectives are its rows (problems.SmoothObjective.stack), so the
solver's sweep calls it once per point, while each row's own fn evaluates
that row alone. A single objective is a one-row stack. Every family's
Hessians are exactly symmetric, so the sweep passes them through uncopied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

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
    seed must be >= 0, as numpy's PCG64 requires.
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
            raise ConfigError(f"must be one of {', '.join(FAMILIES)}, got {self.family!r}",
                              "family")
        check_field_types(self, integers=("n", "m", "seed"),
                          reals=("cond", "mu", "rho", "lo", "hi"))
        for name in ("n", "m"):
            if getattr(self, name) < 1:
                raise ConfigError(f"must be >= 1, got {getattr(self, name)}", name)
        if self.seed < 0:
            raise ConfigError(f"must be >= 0, got {self.seed}", "seed")
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dots of the rows of an (m, n) stack a with b, (m, n) or (n,), each one vector dot."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _row(make, arrays: tuple, i: int, x: np.ndarray) -> tuple:
    """Row i of the stacked oracle make(*arrays) at x, with its Hessian.

    It calls the one-row oracle over the slices a[i:i + 1], so it evaluates
    row i alone, with the bits of row i of the stacked call.
    """
    return tuple(out[0] for out in make(*(a[i:i + 1] for a in arrays))(x, True))


def _rows(make, *arrays) -> tuple:
    """The objectives of the stacked oracle make(*arrays), one per row of the arrays."""
    oracle, m = make(*arrays), len(arrays[0])
    return tuple(SmoothObjective(fn=partial(_row, make, arrays, i), stack=(oracle, i, m))
                 for i in range(m))


def _quadratic_oracle(A: np.ndarray, b: np.ndarray):
    """Stacked f_i(x) = 0.5 x'A_i x - b_i'x for A (m, n, n), b (m, n); Hessians A."""
    def oracle(x, hessians):
        Ax = A @ x
        return 0.5 * _dots(Ax, x) - _dots(b, x), Ax - b, A if hessians else None

    return oracle


def _logsumexp_oracle(mu: float, rows: np.ndarray, offsets: np.ndarray,
                      centers: np.ndarray):
    """Stacked logsumexp_objective for rows (m, k, n), offsets (m, k), centers (m, n).

    Each Hessian is formed in covariance form, D_i'D_i + mu I with D_i =
    diag(sqrt(p))(R_i - 1 r_i') for the softmax weights p and the mean row
    r_i = R_i'p: one batched product of two distinct buffers (numpy would
    send one buffer times its own transpose to syrk, several times slower
    at k = 5), then mu added on the diagonal in place. Each entry sums the
    same k products in the same order as its transpose, so every matrix is
    exactly symmetric and the sweep passes the stack through uncopied.
    """
    rows_t = rows.transpose(0, 2, 1)
    n = rows.shape[2]

    def oracle(x, hessians):
        t = rows @ x + offsets
        tmax = t.max(axis=1)
        w = np.exp(t - tmax[:, None])
        total = w.sum(axis=1)
        p = w / total[:, None]
        diff = x - centers
        values = tmax + np.log(total) + 0.5 * mu * _dots(diff, diff)
        mean_row = (rows_t @ p[:, :, None])[:, :, 0]
        grads = mean_row + mu * diff
        if not hessians:
            return values, grads, None
        dev = (rows - mean_row[:, None, :]) * np.sqrt(p)[:, :, None]
        hesses = dev.transpose(0, 2, 1) @ dev.copy()
        hesses.reshape(len(hesses), -1)[:, ::n + 1] += mu
        return values, grads, hesses

    return oracle


def quadratic_objective(A: np.ndarray, b: np.ndarray) -> SmoothObjective:
    """f(x) = 0.5 x'Ax - b'x with constant Hessian A.

    A must be (n, n) and b (n,); a ConfigError names the one that is not.
    """
    A, b = (np.asarray(a, dtype=float) for a in (A, b))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError(f"must be (n, n), got shape {A.shape}", "A")
    if b.shape != A.shape[:1]:
        raise ConfigError(f"must be ({len(A)},) to fit A, got shape {b.shape}", "b")
    return _rows(_quadratic_oracle, A[None], b[None])[0]


def logsumexp_objective(rows: np.ndarray, offsets: np.ndarray, mu: float,
                        center: np.ndarray) -> SmoothObjective:
    """f(x) = log sum_j exp(rows_j' x + offsets_j) + (mu/2) ||x - center||^2.

    rows must be (k, n) with k >= 1, offsets (k,), center (n,), and mu
    finite and >= 0; a ConfigError names the first argument that is not.
    The log-sum-exp is evaluated with max subtraction so large exponents do
    not overflow. The Hessian is exactly symmetric (_logsumexp_oracle).
    """
    rows, offsets, center = (np.asarray(a, dtype=float) for a in (rows, offsets, center))
    if rows.ndim != 2 or len(rows) < 1:
        raise ConfigError(f"must be (k, n) with k >= 1, got shape {rows.shape}", "rows")
    if offsets.shape != rows.shape[:1]:
        raise ConfigError(f"must be ({len(rows)},) to fit rows, got shape {offsets.shape}",
                          "offsets")
    if center.shape != rows.shape[1:]:
        raise ConfigError(f"must be ({rows.shape[1]},) to fit rows, got shape "
                          f"{center.shape}", "center")
    mu = float(mu)
    if not (np.isfinite(mu) and mu >= 0.0):
        raise ConfigError(f"must be finite and >= 0, got {mu}", "mu")
    return _rows(partial(_logsumexp_oracle, mu), rows[None], offsets[None], center[None])[0]


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # fix signs so the factor is a deterministic function of z
    q *= np.sign(r.diagonal())
    return q


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
    A, b = np.empty((spec.m, spec.n, spec.n)), np.empty((spec.m, spec.n))
    for i in range(spec.m):
        if spec.n == 1:
            A[i] = spec.mu
        else:
            q = _random_orthogonal(rng, spec.n)
            eigs = spec.mu * spec.cond ** rng.random(spec.n)
            eigs[0] = spec.mu
            eigs[-1] = spec.mu * spec.cond
            # a = Q D Q', then A_i = 0.5 (a + a'), formed in place with Q D
            # as scratch: fresh (n, n) temporaries per objective cost page
            # faults that showed in newton_smooth's setup_s at n = 200
            a, qe = A[i], q * eigs
            np.matmul(qe, q.T, out=a)
            np.multiply(0.5, np.add(a, a.T, out=qe), out=a)
        b[i] = shifts[i] if shifts is not None else rng.standard_normal(spec.n)
    lip = spec.mu if spec.n == 1 else spec.mu * spec.cond
    return ProblemInstance(
        n=spec.n, m=spec.m, smooth=_rows(_quadratic_oracle, A, b),
        nonsmooth=NonsmoothTerm.zero(), mu=spec.mu, lip_grad=lip,
    )


def gen_logsumexp_reg(spec: InstanceSpec) -> ProblemInstance:
    """Log-sum-exp objectives with a quadratic regularizer of modulus mu.

    f_i(x) = log sum_j exp(a_ij'x + c_ij) + (mu/2)||x - z_i||^2 with seeded
    rows a_ij, offsets c_ij and per-objective centers z_i. Records lip_grad =
    mu + max_ij ||a_ij||^2, the CLI's default ell for the gradient metric.
    The Hessians come out exactly symmetric (_logsumexp_oracle), so the
    sweep passes the stack through uncopied, as it does the quadratics' A;
    its symmetrizing branch is left to user oracles.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    rows = np.empty((spec.m, _LSE_ROWS, spec.n))
    offsets, centers = np.empty((spec.m, _LSE_ROWS)), np.empty((spec.m, spec.n))
    for i in range(spec.m):
        rows[i] = _LSE_ROW_SCALE * rng.standard_normal((_LSE_ROWS, spec.n))
        offsets[i] = 0.5 * rng.standard_normal(_LSE_ROWS)
        centers[i] = 0.5 * rng.standard_normal(spec.n)
    max_row_sq = float(np.max(np.linalg.norm(rows, axis=2)) ** 2)
    return ProblemInstance(
        n=spec.n, m=spec.m,
        smooth=_rows(partial(_logsumexp_oracle, float(spec.mu)), rows, offsets, centers),
        nonsmooth=NonsmoothTerm.zero(), mu=spec.mu,
        lip_grad=spec.mu + max_row_sq,
    )


def attach_nonsmooth(instance: ProblemInstance, term: NonsmoothTerm) -> ProblemInstance:
    """Replace the instance's shared nonsmooth term g with the given one.

    ProblemInstance validates the term; every other field is kept.
    """
    return replace(instance, nonsmooth=term)


def generate_instance(spec: InstanceSpec) -> ProblemInstance:
    """Build the instance described by spec (dispatch on family).

    InstanceSpec admits only the four families, so the last is logsumexp.
    """
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
    return gen_logsumexp_reg(spec)
