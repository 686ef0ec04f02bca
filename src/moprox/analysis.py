"""Convergence diagnostics: criticality, rate fits, step-to-error ratios.

Everything here consumes solve traces after the fact; nothing feeds back
into the solver. Reference points are obtained by running the solver to a
much tighter tolerance, not from closed forms, so the diagnostics apply to
any instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional

import numpy as np

from .errors import InputError, InsufficientDataError, ConvergenceError
from .problems import ProblemInstance, eval_full, eval_smooth
from .solver import SolveTrace, SolverConfig, Status, solve
from .subproblem import solve_direction

__all__ = [
    "Verdict",
    "criticality_measure",
    "refine_reference",
    "iterate_errors",
    "decreasing_tail",
    "estimate_order",
    "tau_sequence",
    "tau_bracket",
    "tau_check",
    "check_quadratic_termination",
    "check_fundamental_inequality_quadratic",
    "check_descent_bound",
]

# Slack that check_descent_bound and check_fundamental_inequality_quadratic
# allow for rounding in the inequalities they test.
CHECK_TOL = 1e-8


@dataclass(frozen=True)
class Verdict:
    """Outcome of one diagnostic check; margin >= 0 iff the check passed."""

    name: str
    passed: bool
    margin: float
    detail: str = ""
    applicable: bool = True


def criticality_measure(problem: ProblemInstance, x, tol_gap: float = 1e-12) -> float:
    """Norm of the direction from a fresh subproblem solve to duality gap tol_gap.

    Zero exactly at critical points; small values certify approximate
    criticality. The dual loop runs under the fixed
    subproblem.MAX_DUAL_ITERS cap, as in every solve.
    """
    res = solve_direction(problem, x, tol_gap=tol_gap)
    return float(np.linalg.norm(res.direction))


def refine_reference(problem: ProblemInstance, x0, eps: float = 1e-12,
                     config: Optional[SolverConfig] = None) -> np.ndarray:
    """Run the Newton-metric solver to direction norm eps and return the limit.

    Used to manufacture reference points for error sequences. Raises
    ConvergenceError if the run does not reach criticality.
    """
    if config is None:
        config = SolverConfig(eps=eps, tol_gap=min(1e-12, eps), max_outer=1000)
    trace = solve(problem, config, x0)
    if trace.status is not Status.CRITICAL_REACHED:
        raise ConvergenceError(
            f"reference run ended with status {trace.status.value}: {trace.message}"
        )
    return trace.final_x.copy()


def iterate_errors(trace: SolveTrace, x_star) -> np.ndarray:
    """Distances ||x_k - x_star|| over the recorded iterates."""
    x_star = np.asarray(x_star, dtype=float)
    return np.linalg.norm(trace.iterates() - x_star, axis=1)


def decreasing_tail(errors, noise_floor: float = 0.0) -> np.ndarray:
    """The error window that rate diagnostics treat as the asymptotic tail.

    Takes the maximal run of consecutive, strictly decreasing errors above
    the noise floor ending at the last such entry, and returns its last
    max(4, ceil(0.4 * len)) values. Raises InsufficientDataError when fewer
    than four errors qualify.
    """
    e = np.asarray(errors, dtype=float)
    if e.ndim != 1:
        raise InputError("errors must be a 1-d sequence")

    def usable(v):
        return np.isfinite(v) and v > noise_floor

    i = e.size - 1
    while i >= 0 and not usable(e[i]):
        i -= 1
    if i < 0:
        raise InsufficientDataError("no errors above the noise floor")
    j = i
    while j - 1 >= 0 and usable(e[j - 1]) and e[j - 1] > e[j]:
        j -= 1
    run = e[j:i + 1]
    if run.size < 4:
        raise InsufficientDataError(
            f"need >= 4 strictly decreasing errors above the floor, found {run.size}"
        )
    k = max(4, int(np.ceil(0.4 * run.size)))
    return run[-k:]


def estimate_order(errors, noise_floor: float = 0.0) -> tuple[float, float]:
    """Fit log e_{k+1} = log C + q log e_k over the decreasing tail.

    The fit window comes from decreasing_tail. Returns (q, C). Raises
    InsufficientDataError when too few points qualify.
    """
    tail = decreasing_tail(errors, noise_floor=noise_floor)
    xs = np.log(tail[:-1])
    ys = np.log(tail[1:])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(np.exp(intercept))


def tau_sequence(trace: SolveTrace, x_star) -> tuple[np.ndarray, np.ndarray]:
    """Step-to-error ratios ||x_{k+1} - x_k|| / ||x_k - x_star||.

    Defined only while the error stays above 10 machine epsilons of the
    reference norm; returns (iteration indices, ratios).
    """
    x_star = np.asarray(x_star, dtype=float)
    xs = trace.iterates()
    e = np.linalg.norm(xs - x_star, axis=1)
    floor = 10.0 * np.finfo(float).eps * float(np.linalg.norm(x_star))
    ks, taus = [], []
    for k in range(xs.shape[0] - 1):
        if e[k] > floor:
            ks.append(k)
            taus.append(float(np.linalg.norm(xs[k + 1] - xs[k]) / e[k]))
    return np.asarray(ks, dtype=int), np.asarray(taus, dtype=float)


def tau_bracket(mu: float, eps: float, sigma: float) -> tuple[float, float]:
    """Interval that step-to-error ratios eventually enter.

    Valid for strongly convex problems (modulus mu) when the unit step is
    accepted and the direction norm tolerance eps satisfies
    0 < eps <= (1 - sigma) * mu; other eps are rejected. The interval is
    symmetric around mu / (mu - eps) and collapses to {1} as eps -> 0.
    """
    mu = float(mu)
    eps = float(eps)
    sigma = float(sigma)
    if not (0.0 < eps <= (1.0 - sigma) * mu):
        raise InputError(
            f"eps must lie in (0, (1 - sigma) * mu] = (0, {(1.0 - sigma) * mu:g}], got {eps:g}"
        )
    root = sqrt(2.0 * mu * eps - eps * eps)
    return (mu - root) / (mu - eps), (mu + root) / (mu - eps)


def _unit_tail_start(trace: SolveTrace) -> Optional[int]:
    # smallest j such that every step taken from iteration j on equals 1
    steps = [r.step for r in trace.records[:-1]]
    if not steps or steps[-1] != 1.0:
        return None
    j = len(steps) - 1
    while j - 1 >= 0 and steps[j - 1] == 1.0:
        j -= 1
    return j


def tau_check(trace: SolveTrace, x_star, mu: float, eps: float) -> list:
    """Verdicts on the step-to-error ratios over the unit-step tail.

    Checks that the ratios eventually enter and stay inside
    tau_bracket(mu, eps, sigma), and that the final ratio is within 0.05 of
    1 whenever the usable errors span at least four orders of magnitude.
    Returns the two verdicts, not applicable when the trace has no
    unit-step tail.
    """
    eps = float(eps)
    lo, hi = tau_bracket(mu, eps, trace.config.sigma)
    name = f"tau_in_bracket[eps={eps:g}]"
    j = _unit_tail_start(trace)
    if j is None:
        return [Verdict(name=name, passed=True, margin=0.0,
                        detail="no unit-step tail", applicable=False),
                Verdict(name="final_tau_near_one", passed=True, margin=0.0,
                        detail="no unit-step tail", applicable=False)]
    ks, taus = tau_sequence(trace, x_star)
    keep = ks >= j
    ks, taus = ks[keep], taus[keep]
    errors = iterate_errors(trace, x_star)
    used = errors[ks] if ks.size else np.array([])

    if taus.size == 0:
        in_bracket = Verdict(name=name, passed=True, margin=0.0,
                             detail="no measurable ratios", applicable=False)
    else:
        inside = (taus >= lo) & (taus <= hi)
        if inside[-1]:
            k_enter = taus.size - 1
            while k_enter - 1 >= 0 and inside[k_enter - 1]:
                k_enter -= 1
            suffix = taus[k_enter:]
            margin = float(np.min(np.minimum(suffix - lo, hi - suffix)))
            in_bracket = Verdict(name=name, passed=True, margin=margin,
                                 detail=f"inside from iteration {int(ks[k_enter])}")
        else:
            worst = float(np.max(np.maximum(lo - taus, taus - hi)))
            in_bracket = Verdict(name=name, passed=False, margin=-worst,
                                 detail="final ratio outside the bracket")

    if taus.size and used.size and float(np.max(used) / np.min(used)) >= 1e4:
        margin = 0.05 - abs(float(taus[-1]) - 1.0)
        near_one = Verdict(name="final_tau_near_one", passed=margin >= 0.0,
                           margin=margin, detail=f"final tau {taus[-1]:.6f}")
    else:
        near_one = Verdict(name="final_tau_near_one", passed=True, margin=0.0,
                           detail="errors span fewer than four orders of magnitude",
                           applicable=False)
    return [in_bracket, near_one]


def check_quadratic_termination(problem: ProblemInstance, config: SolverConfig,
                                x0_batch) -> Verdict:
    """One full step from each start must land on a critical point.

    For instances whose smooth parts are quadratic, the first step must be
    accepted at t = 1 and the criticality measure at the next iterate must be
    at most 10 * sqrt(tol_gap). Returns the worst margin over the batch.
    """
    threshold = 10.0 * sqrt(config.tol_gap)
    worst = float("inf")
    for idx, x0 in enumerate(x0_batch):
        trace = solve(problem, config, x0)
        if trace.status is Status.SUBPROBLEM_FAILURE:
            return Verdict(name="quadratic_termination", passed=False, margin=-float("inf"),
                           detail=f"start {idx}: solver failed: {trace.message}")
        if len(trace.records) < 2:
            return Verdict(name="quadratic_termination", passed=False, margin=-float("inf"),
                           detail=f"start {idx}: no step was taken")
        t0 = trace.records[0].step
        if t0 != 1.0:
            return Verdict(name="quadratic_termination", passed=False, margin=-1.0,
                           detail=f"start {idx}: first step {t0} != 1")
        crit = criticality_measure(problem, trace.records[1].x, tol_gap=config.tol_gap)
        worst = min(worst, threshold - crit)
    return Verdict(name="quadratic_termination", passed=worst >= 0.0, margin=worst,
                   detail=f"worst criticality margin {worst:.3e} at threshold {threshold:.3e}")


def check_fundamental_inequality_quadratic(trace: SolveTrace, problem: ProblemInstance,
                                           probe_points) -> Verdict:
    """Unit steps on quadratics must dominate every probe by the metric distance.

    At each unit-step iteration with weights w and successor x_next, and for
    every probe z, the weighted objective must satisfy
    F_w(x_next) - F_w(z) <= -0.5 (x_next - z)' A_w (x_next - z) + CHECK_TOL,
    where A_w is the weighted (constant) Hessian. Margin is the worst slack.
    """
    probes = np.atleast_2d(np.asarray(probe_points, dtype=float))
    unit_idx = [i for i, r in enumerate(trace.records[:-1]) if r.step == 1.0]
    if not unit_idx:
        return Verdict(name="fundamental_ineq_quadratic", passed=True, margin=0.0,
                       detail="no unit steps in trace", applicable=False)
    def weighted_full(lam, z):
        # one shared g: outside dom g every F_i is +inf
        vals = eval_full(problem, z)
        return float("inf") if np.isinf(vals[0]) else float(lam @ vals)

    worst = float("inf")
    for i in unit_idx:
        rec = trace.records[i]
        x_next = trace.records[i + 1].x
        lam = rec.weights
        hessians = eval_smooth(problem, rec.x).hessians
        a_lam = np.tensordot(lam, hessians, axes=1)
        f_next = weighted_full(lam, x_next)
        for z in probes:
            f_z = weighted_full(lam, z)
            diff = x_next - z
            rhs = -0.5 * float(diff @ (a_lam @ diff))
            margin = (f_z + rhs) - f_next  # >= -CHECK_TOL required
            if margin < worst:
                worst = margin
    return Verdict(name="fundamental_ineq_quadratic", passed=worst >= -CHECK_TOL,
                   margin=worst, detail=f"worst slack {worst:.3e} over {len(unit_idx)} "
                                        f"unit steps, {probes.shape[0]} probes")


def check_descent_bound(trace: SolveTrace, mu: float) -> Verdict:
    """Every subproblem optimum must certify strong descent.

    Checks theta_k <= -(mu/2) ||d_k||^2 + CHECK_TOL on all trace records
    that carry a direction. Margin is the worst slack across the trace.
    """
    mu = float(mu)
    if not np.isfinite(mu) or mu <= 0:
        raise InputError(f"mu must be finite and > 0, got {mu}")
    worst = float("inf")
    used = 0
    for rec in trace.records:
        if not np.isfinite(rec.direction_norm) or not np.isfinite(rec.theta):
            continue
        used += 1
        bound = -0.5 * mu * rec.direction_norm ** 2 + CHECK_TOL
        margin = bound - rec.theta
        if margin < worst:
            worst = margin
    if used == 0:
        return Verdict(name="descent_bound", passed=True, margin=0.0,
                       detail="no usable records", applicable=False)
    return Verdict(name="descent_bound", passed=worst >= 0.0, margin=worst,
                   detail=f"worst slack {worst:.3e} over {used} records")
