"""Output checks made from outside the solver.

Nothing here calls into moprox.subproblem: the criticality residual is
computed by its own small projected-gradient solver over the weight simplex,
and the nonsmooth term is rebuilt from the job's instance spec, not taken
from the solver's NonsmoothTerm. Only the smooth oracles of the generated
instance are shared with the solver.
"""

from __future__ import annotations

import numpy as np

# A coordinate within KINK_TOL of an l1 kink or a box bound counts as on it.
# The solver stops once ||d|| < eps = 1e-9, so the last iterate may sit up to
# about eps away from the face its limit lies on.
KINK_TOL = 1e-8
# Residual tolerance relative to max(1, largest gradient norm at x*). With
# ||d|| < 1e-9 and model curvature below 1e3 on every workload, a true
# critical point leaves a residual of at most about 1e-6.
RESIDUAL_RTOL = 1e-5
_RESIDUAL_ITERS = 400


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    k = ks[u - css / ks > 0.0][-1]
    return np.maximum(v - css[k - 1] / k, 0.0)


def _g_value(job, x: np.ndarray) -> float:
    spec = job.spec_kwargs
    if spec["family"] == "quadratic_l1":
        return spec["rho"] * float(np.sum(np.abs(x)))
    if spec["family"] == "quadratic_box":
        lo, hi = spec["lo"], spec["hi"]
        # the solver's own membership slack of a few ulps
        slack = 4.0 * np.finfo(float).eps * (1.0 + max(abs(lo), abs(hi)))
        return 0.0 if np.all((x >= lo - slack) & (x <= hi + slack)) else float("inf")
    return 0.0


def _full_values(problem, job, x: np.ndarray) -> np.ndarray:
    g = _g_value(job, x)
    return np.array([obj.evaluate(x)[0] + g for obj in problem.smooth])


def _residual_map(job, x: np.ndarray):
    """v -> componentwise residual of -v against the subdifferential of g at x."""
    spec = job.spec_kwargs
    if spec["family"] == "quadratic_l1":
        kink = np.abs(x) <= KINK_TOL
        rho = spec["rho"]
        shift = rho * np.sign(x)
        return lambda v: np.where(kink, np.sign(v) * np.maximum(np.abs(v) - rho, 0.0),
                                  v + shift)
    if spec["family"] == "quadratic_box":
        at_lo = x <= spec["lo"] + KINK_TOL
        at_hi = x >= spec["hi"] - KINK_TOL
        # normal cone (-inf, 0] at the lower bound, [0, inf) at the upper
        return lambda v: np.where(at_lo, np.minimum(v, 0.0),
                                  np.where(at_hi, np.maximum(v, 0.0), v))
    return lambda v: v


def criticality_residual(grads: np.ndarray, job, x: np.ndarray, starts) -> float:
    """min over simplex weights w of dist(-sum_i w_i grad f_i(x), subdiff g(x)).

    The squared distance is convex and smooth in w, so accelerated projected
    gradient from each start gives an upper bound on the minimum; the
    smallest bound found is returned.
    """
    res = _residual_map(job, x)
    lip = 2.0 * max(float(np.linalg.norm(grads, 2)) ** 2, 1e-300)
    best = np.inf
    for w0 in starts:
        w = y = _project_simplex(np.asarray(w0, dtype=float))
        t = 1.0
        for _ in range(_RESIDUAL_ITERS):
            r = res(y @ grads)
            best = min(best, float(np.linalg.norm(r)))
            w_new = _project_simplex(y - (2.0 / lip) * (grads @ r))
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = w_new + ((t - 1.0) / t_new) * (w_new - w)
            w, t = w_new, t_new
        best = min(best, float(np.linalg.norm(res(w @ grads))))
    return best


def _records_match_csv(trace, table: dict) -> bool:
    recs = trace.records
    m = recs[0].objectives.size
    n = recs[0].x.size
    columns = {
        "k": np.array([r.k for r in recs]),
        "t": np.array([r.step for r in recs]),
        "theta": np.array([r.theta for r in recs]),
        "dnorm": np.array([r.direction_norm for r in recs]),
        "gap": np.array([r.gap for r in recs]),
    }
    for i in range(m):
        columns[f"F_{i + 1}"] = np.array([r.objectives[i] for r in recs])
    for j in range(n):
        columns[f"x_{j + 1}"] = np.array([r.x[j] for r in recs])
    if set(table) != set(columns):
        return False
    return all(np.array_equal(table[key], col, equal_nan=True)
               for key, col in columns.items())


def check_job(job, problem, trace, table, critical_status) -> list:
    """Reasons the job's output is wrong; an empty list means it checks out.

    table is the trace CSV as read back by cli.read_trace_csv. A job that
    stops short of criticality is not wrong on that account, but its CSV
    and its objective values are checked all the same.
    """
    wrong = []
    if not _records_match_csv(trace, table):
        wrong.append("trace CSV does not read back equal to the records")
    final = trace.records[-1]
    f0 = _full_values(problem, job, job.x0)
    f_end = _full_values(problem, job, final.x)
    if not np.all(f_end <= f0):
        wrong.append("F(x*) > F(x0) in some component")
    if trace.status is critical_status:
        if not final.direction_norm < trace.config.eps:
            wrong.append(f"critical status with dnorm {final.direction_norm:.3e}")
        grads = np.array([obj.evaluate(final.x)[1] for obj in problem.smooth])
        m = grads.shape[0]
        resid = criticality_residual(grads, job, final.x,
                                     [np.full(m, 1.0 / m), final.weights])
        scale = max(1.0, float(np.max(np.linalg.norm(grads, axis=1))))
        if not resid <= RESIDUAL_RTOL * scale:
            wrong.append(f"criticality residual {resid:.3e} above "
                         f"{RESIDUAL_RTOL:.0e} * {scale:.3g}")
    return wrong
