"""Outer loop: direction solve, backtracking line search, step, repeat.

One driver serves two variants that differ only in the metric object handed
to the direction subproblem, built once per solve from the config's
``variant`` and ``ell``: ``newton`` uses the true Hessians, ``gradient``
replaces every Hessian by ell times the identity (a scaled-identity
majorization, solved in closed form by one proximal map per snap). Each
iterate sweeps the smooth oracles once, asking for Hessians only under
``newton``: the line search keeps the oracle output of the point it
accepts (that point is its SmoothEval.at), its objective values and its
halvings, and the next iteration starts there with them. In the same way
each direction solve starts its dual loop from the weights of the
previous accepted direction (uniform weights at iteration 0); that state
lives in one solve() call, so reruns give the same bits. Each iterate is
proven a finite n-vector once, where it is made: x0 by solve(), each later
one by the eval_full of the line-search trial that becomes it. It is
read-only from then on, so the direction solve, handed the sweep's output
at that very array (SmoothEval.at), does not test it again, and the trace
records it uncopied. Iterations stop when the direction norm falls below
eps; the full iteration history is recorded in a trace for offline
verification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError, LineSearchError, MoproxError, check_field_types
from . import problems
from .problems import ProblemInstance, eval_smooth, _as_point, _check_finite, _plus_g
from .subproblem import Metric, solve_direction

__all__ = [
    "Status",
    "SolverConfig",
    "TraceRecord",
    "SolveTrace",
    "armijo_backtrack",
    "solve",
]

VARIANT_NEWTON = "newton"
VARIANT_GRADIENT = "gradient"

_EPS = np.finfo(float).eps
# The Armijo test's sufficient decrease fraction and backtracking ratio.
SIGMA = 0.1
GAMMA = 0.5
# Powers of GAMMA the line search tries beyond the unit step before it gives
# up. The benchmark pools need at most 2.
MAX_HALVINGS = 60


class Status(enum.Enum):
    """Terminal state of a solve."""

    CRITICAL_REACHED = "critical_reached"
    MAX_ITERS = "max_iters"
    SUBPROBLEM_FAILURE = "subproblem_failure"


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop parameters.

    eps is the direction-norm stopping threshold. variant and ell only
    select the metric object that solve() builds once and hands to every
    direction solve: "newton" for the true Hessians, "gradient" for ell
    times the identity, which requires ell > 0.
    The line search's sufficient decrease fraction (SIGMA) and backtracking
    ratio (GAMMA) are fixed, and so are the caps on the direction
    subproblem's dual loop (subproblem.MAX_DUAL_ITERS), on each inner
    active-set solve (subproblem.MAX_INNER_PASSES) and on the line search's
    halvings (MAX_HALVINGS).
    max_outer must be an integer and the other numeric fields real numbers
    (bool is neither); a ConfigError names the first field that is not.
    """

    eps: float = 1e-8
    max_outer: int = 500
    tol_gap: float = 1e-10
    variant: str = VARIANT_NEWTON
    ell: Optional[float] = None

    def __post_init__(self):
        check_field_types(self, integers=("max_outer",),
                          reals=("eps", "tol_gap")
                          + (() if self.ell is None else ("ell",)))
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"must be finite and > 0, got {self.eps}", "eps")
        if self.max_outer < 0:
            raise ConfigError(f"must be >= 0, got {self.max_outer}", "max_outer")
        if not (np.isfinite(self.tol_gap) and self.tol_gap > 0):
            raise ConfigError(f"must be finite and > 0, got {self.tol_gap}", "tol_gap")
        if self.variant not in (VARIANT_NEWTON, VARIANT_GRADIENT):
            raise ConfigError(f"must be 'newton' or 'gradient', got {self.variant!r}",
                              "variant")
        if self.variant == VARIANT_GRADIENT:
            if self.ell is None or not (np.isfinite(self.ell) and self.ell > 0):
                raise ConfigError(f"must be finite and > 0 for the gradient variant, "
                                  f"got {self.ell}", "ell")


@dataclass(frozen=True)
class TraceRecord:
    """State at outer iteration k plus the direction and step taken from it.

    The terminal record carries step 0.0 (no step was taken from it); its
    direction fields are nan when the iteration cap stopped the run before a
    subproblem was solved there. snaps and passes are the direction solve's
    inner solves and their active-set passes (DirectionResult.dual_iters
    and .inner_iters), halvings the power of GAMMA in the accepted step;
    each is 0 where there was no such solve or step. x is the iterate
    itself, a read-only array of its own (solve()).
    """

    k: int
    x: np.ndarray
    objectives: np.ndarray
    direction_norm: float
    theta: float
    step: float
    weights: np.ndarray
    gap: float
    snaps: int = 0
    passes: int = 0
    halvings: int = 0


@dataclass(frozen=True)
class SolveTrace:
    records: tuple
    status: Status
    config: SolverConfig
    message: str = ""

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    @property
    def steps_taken(self) -> int:
        return sum(1 for r in self.records if r.step > 0.0)

    @property
    def snaps(self) -> int:
        return sum(r.snaps for r in self.records)

    @property
    def passes(self) -> int:
        return sum(r.passes for r in self.records)

    @property
    def halvings(self) -> int:
        return sum(r.halvings for r in self.records)

    def iterates(self) -> np.ndarray:
        return np.vstack([r.x for r in self.records])


def armijo_backtrack(problem: ProblemInstance, x, d, theta: float, sigma: float,
                     gamma: float, f_x=None, keep: Optional[list] = None,
                     hessians: bool = True) -> float:
    """Largest step t = gamma^j with componentwise sufficient decrease.

    Accepts t when F_i(x + t d) - F_i(x) <= t * sigma * theta for every i;
    f_x, when given, is F(x) of shape (m,), as eval_full returns it, and is
    evaluated here otherwise. A trial is judged by its F alone, one
    eval_full per trial with no finiteness check of its own: a nan or +inf
    F_i (a smooth value that is not finite, an infeasible trial point, an
    overflowing sum) fails the test and triggers further backtracking, and
    a -inf F_i passes it, to be named by the check of the iterate the trial
    becomes. Each trial point x + t * d is made read-only before eval_full
    proves it a finite point. When keep is a list and a step is accepted,
    on return it holds three items about the accepted point: its one
    SmoothEval, with its gradients and, if hessians is true, its Hessians,
    unchecked, whose at is the point x + t * d itself, the read-only array
    that was evaluated; its objective values, which passed the test (these
    two are eval_full's keep); and the power j with t = gamma^j. Raises
    LineSearchError if no power of gamma up to gamma^MAX_HALVINGS works,
    EvaluationError when a trial's oracle output has the wrong shape, and
    InputError when x or d is not an n-vector, d is zero, theta >= 0 (the
    test is meaningless without a descent prediction), sigma or gamma is
    not in (0, 1), or f_x is not of shape (m,). x's finiteness is not tested
    here: x + t * d is non-finite wherever x is, so a non-finite x fails the
    first trial's (or f_x's) eval_full as not a finite point.
    """
    x, d = np.asarray(x, dtype=float), np.asarray(d, dtype=float)
    if x.shape != (problem.n,) or d.shape != x.shape:
        raise InputError(f"line search requires x and d of shape ({problem.n},), "
                         f"got {x.shape} and {d.shape}")
    if not d.any():
        raise InputError("line search requires a nonzero direction")
    if not (math.isfinite(theta) and theta < 0.0):
        raise InputError(f"line search requires theta < 0, got {theta}")
    if not (0.0 < sigma < 1.0 and 0.0 < gamma < 1.0):
        raise InputError(f"line search requires sigma and gamma in (0, 1), "
                         f"got {sigma} and {gamma}")
    # eval_full is looked up on its module at call time, not bound at import:
    # perfbench/tracing.py counts the sweeps by patching moprox.problems.eval_full
    eval_full = problems.eval_full
    if f_x is None:
        f_x = eval_full(problem, x)
    f_x = np.asarray(f_x, dtype=float)
    if f_x.shape != (problem.m,):
        raise InputError(f"line search requires f_x of shape ({problem.m},), got {f_x.shape}")
    f_l = f_x.tolist()
    if not all(map(math.isfinite, f_l)):
        raise InputError("line search requires finite objective values at x")
    t = 1.0
    for j in range(MAX_HALVINGS + 1):
        point = x + t * d
        point.flags.writeable = False
        trial = eval_full(problem, point, keep, hessians=hessians)
        # nan/inf-robust acceptance: all decreases must provably satisfy the
        # bound; on Python floats, numpy's bits without its dispatch cost
        bound = t * sigma * theta
        if all(v - f <= bound for v, f in zip(trial.tolist(), f_l)):
            if keep is not None:
                keep.append(j)
            return t
        t *= gamma
    raise LineSearchError(
        f"no step of the form gamma^j satisfied the decrease test after {MAX_HALVINGS} halvings"
    )


@np.errstate(all="ignore")
def solve(problem: ProblemInstance, config: SolverConfig, x0) -> SolveTrace:
    """Run the solver from x0 and return the full iteration trace.

    Each iteration solves the direction subproblem in the configured metric,
    its dual loop started from the previous accepted direction's weights,
    stops with CRITICAL_REACHED once ||d|| < eps, otherwise backtracks a step
    and moves. The SmoothEval the line search keeps for the point it
    accepts is the next iteration's evaluation, and its at is the next
    iterate; the power of GAMMA kept with it is the record's halvings. Its
    finiteness is checked there, as a fresh evaluation's would be. The
    objective values kept there passed the Armijo test, so they are finite
    once the smooth values are, and they are the next iteration's F, in
    the last record too when the run stops there: g and F are evaluated
    afresh only at iteration 0.
    Hessians are asked for only under the Hessian metric; under ell I the
    sweeps leave them out. It also stops
    with CRITICAL_REACHED at the precision limit, when SIGMA * theta >=
    -machine_eps * max(1, max_i |F_i(x)|): there even the unit-step decrease
    bound is below one ulp of F, so a step could only be accepted by
    rounding. Such a stop records the
    zero direction (direction norm, theta and gap 0), as the subproblem does
    for theta > 0, and, when the direction norm was still >= eps, sets the
    trace message to name the stop with SIGMA * theta and the ulp bound.
    The direction solve runs with its forcing on (subproblem.solve_direction):
    a direction whose d meets theta <= -(mu/2)||d||^2 is certified at gap
    <= max(tol_gap, floor, (mu/2) FORCING ||d||^4), so the trace's gap can
    read up to that, and ||d - d*|| <= 0.01 ||d||^2 keeps the local rates.
    The direction solve is given eps: once a dual value phi >= -mu eps^2 / 2
    (mu the metric's modulus, problem.mu or ell) shows ||d*|| <= eps, it
    returns the zero direction before closing its gap, and the run stops
    CRITICAL_REACHED, recorded like the precision-limit stop, with the
    solve's message (phi and the bound) as the trace message. Every
    MoproxError of the direction solve or the line search is recorded in
    the trace (status SUBPROBLEM_FAILURE) rather than raised. The solve
    runs under np.errstate(all="ignore"): an overflow reaches the
    finiteness tests that name it, never the warnings machinery, so the
    trace is the same under any warnings filter. Exhausting max_outer
    yields MAX_ITERS. A start that is not a finite n-vector, or that lies
    outside the domain of the nonsmooth term (a box), raises InputError
    before iteration 0; the error names the first coordinate out of bounds.
    Every iterate is a read-only array that is never written: x0's one copy,
    then each point the line search accepts. Each record's x is its
    iterate, uncopied, so the trace shares no memory with x0.
    """
    x = _as_point(np.array(x0, dtype=float), problem.n)
    x.flags.writeable = False
    outside = np.flatnonzero(problem.nonsmooth.outside(x))
    if outside.size:
        j = int(outside[0])
        lo, hi = (float(b) for b in problem.nonsmooth.domain(j))
        raise InputError(f"start lies outside the domain of the nonsmooth term: "
                         f"x0[{j}] = {float(x[j])!r} is not in [{lo!r}, {hi!r}]")
    records = []
    m = problem.m

    def stop(status: Status, message: str = "", x_end=None) -> SolveTrace:
        if x_end is not None:  # no direction was solved at x_end: nan direction fields
            # an accepted step's F is x_end's; only x0 has none yet
            f_end = accepted[1] if accepted else _safe_objectives(problem, x_end, m)
            records.append(TraceRecord(k=len(records), x=x_end, objectives=f_end,
                                       direction_norm=np.nan, theta=np.nan, step=0.0,
                                       weights=np.full(m, np.nan), gap=np.nan))
        return SolveTrace(records=tuple(records), status=status, config=config,
                          message=message)

    metric = (Metric.scaled_identity(config.ell) if config.variant == VARIANT_GRADIENT
              else Metric.hessian())
    hessians = metric.reads_hessians
    accepted = []  # the line search's keep of the last accepted step: SmoothEval, F, j
    weights = None  # dual weights of the last accepted direction, the next dual start

    for k in range(config.max_outer):
        try:
            if accepted:  # its F passed the Armijo test: finite once its values are
                se, f_x = _check_finite(accepted[0]), accepted[1]
            else:
                se = eval_smooth(problem, x, hessians=hessians)
                f_x = _plus_g(se.values, problem.nonsmooth.value(x))
                if not np.isfinite(f_x).all():
                    raise InputError("objective values at the current iterate are not finite")
            res = solve_direction(problem, x, tol_gap=config.tol_gap, smooth_eval=se,
                                  metric=metric, weights=weights, eps=config.eps,
                                  forcing=True)
        except MoproxError as exc:
            return stop(Status.SUBPROBLEM_FAILURE, str(exc), x)

        dnorm = math.sqrt(res.direction @ res.direction)  # np.linalg.norm's bits
        theta, gap, message = res.theta, res.gap, res.message
        ulp_bound = -_EPS * max(1.0, *map(abs, f_x.tolist()))
        if SIGMA * theta >= ulp_bound:
            # even the unit-step decrease bound is below one ulp of F, so any
            # accepted step would pass by rounding: record the zero direction
            if dnorm >= config.eps:
                message = (f"stopped at the precision limit: sigma*theta = "
                           f"{SIGMA * theta:.3e} >= {ulp_bound:.3e} = "
                           f"-eps_mach*max(1, max|F_i|), with dnorm {dnorm:.3e}")
            dnorm = theta = gap = 0.0
        # the zeroing above always stops critical, so a line search sees
        # theta and gap as the direction solve returned them
        status, t = Status.CRITICAL_REACHED, 0.0
        if dnorm >= config.eps:
            try:
                t = armijo_backtrack(problem, x, res.direction, theta, SIGMA, GAMMA,
                                     f_x=f_x, keep=accepted, hessians=hessians)
                status = None
            except MoproxError as exc:
                status, message = Status.SUBPROBLEM_FAILURE, str(exc)
        records.append(TraceRecord(k=k, x=x, objectives=f_x,
                                   direction_norm=dnorm, theta=theta, step=t,
                                   weights=res.weights, gap=gap,
                                   snaps=res.dual_iters, passes=res.inner_iters,
                                   halvings=accepted[2] if t else 0))
        if status is not None:
            return stop(status, message)
        x = accepted[0].at
        weights = res.weights

    return stop(Status.MAX_ITERS, x_end=x)


def _safe_objectives(problem: ProblemInstance, x: np.ndarray, m: int) -> np.ndarray:
    try:
        return problems.eval_full(problem, x)
    except MoproxError:
        return np.full(m, float("nan"))
