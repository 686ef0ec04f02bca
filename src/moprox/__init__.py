"""Multiobjective composite optimization with a proximal Newton-type solver.

Minimizes vector objectives F(x) whose components are F_i = f_i + g with
smooth f_i and one simple convex g shared by every objective. The search
direction at each iterate solves a min-max model built from gradients and
Hessians (or a scaled identity for the first-order variant); a backtracking
line search enforces componentwise sufficient decrease. Diagnostics verify
criticality, convergence order, and step-to-error ratios from recorded
traces.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    EvaluationError,
    InputError,
    InsufficientDataError,
    LineSearchError,
    MoproxError,
    SingularMetricError,
)
from .problems import (
    NonsmoothTerm,
    ProblemInstance,
    SmoothEval,
    SmoothObjective,
    eval_full,
    eval_smooth,
)
from .subproblem import (
    DirectionResult,
    Metric,
    inner_minimize,
    model_values,
    project_simplex,
    solve_direction,
)
from .solver import (
    SolveTrace,
    SolverConfig,
    Status,
    TraceRecord,
    armijo_backtrack,
    solve,
)
from .analysis import (
    Verdict,
    check_descent_bound,
    check_fundamental_inequality_quadratic,
    check_quadratic_termination,
    criticality_measure,
    decreasing_tail,
    estimate_order,
    iterate_errors,
    refine_reference,
    tau_bracket,
    tau_check,
    tau_sequence,
)
from .zoo import (
    InstanceSpec,
    attach_nonsmooth,
    gen_logsumexp_reg,
    gen_quadratic,
    generate_instance,
    logsumexp_objective,
    quadratic_objective,
)

__version__ = "0.1.0"

__all__ = [
    "MoproxError", "ConfigError", "InputError", "EvaluationError",
    "SingularMetricError", "ConvergenceError", "LineSearchError",
    "InsufficientDataError",
    "SmoothObjective", "NonsmoothTerm", "ProblemInstance", "SmoothEval",
    "eval_full", "eval_smooth",
    "DirectionResult", "Metric", "project_simplex", "model_values",
    "inner_minimize", "solve_direction",
    "Status", "SolverConfig", "TraceRecord", "SolveTrace",
    "armijo_backtrack", "solve",
    "Verdict", "criticality_measure", "refine_reference",
    "iterate_errors", "decreasing_tail", "estimate_order", "tau_sequence",
    "tau_bracket",
    "tau_check", "check_quadratic_termination",
    "check_fundamental_inequality_quadratic", "check_descent_bound",
    "InstanceSpec", "gen_quadratic", "gen_logsumexp_reg", "attach_nonsmooth",
    "generate_instance", "quadratic_objective", "logsumexp_objective",
    "__version__",
]
