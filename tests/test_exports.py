"""The package's public names: each module's __all__, joined, plus __version__."""

import moprox
from moprox import analysis, errors, problems, solver, subproblem, zoo

# The names the package exported when its __init__ still listed them by hand.
EXPORTED_BEFORE = [
    "ConfigError", "ConvergenceError", "DirectionResult", "EvaluationError", "InputError",
    "InstanceSpec", "InsufficientDataError", "LineSearchError", "Metric", "MoproxError",
    "NonsmoothTerm", "ProblemInstance", "SingularMetricError", "SmoothEval",
    "SmoothObjective", "SolveTrace", "SolverConfig", "Status", "TraceRecord", "Verdict",
    "__version__", "armijo_backtrack", "attach_nonsmooth", "check_descent_bound",
    "check_fundamental_inequality_quadratic", "check_quadratic_termination",
    "criticality_measure", "decreasing_tail", "estimate_order", "eval_full", "eval_smooth",
    "gen_logsumexp_reg", "gen_quadratic", "generate_instance", "inner_minimize",
    "iterate_errors", "logsumexp_objective", "model_values", "project_simplex",
    "quadratic_objective", "refine_reference", "solve", "solve_direction", "tau_bracket",
    "tau_check", "tau_sequence",
]


MODULES = (errors, problems, subproblem, solver, analysis, zoo)


def test_all_joins_the_modules_exports():
    assert moprox.__all__ == [name for m in MODULES for name in m.__all__] + ["__version__"]
    assert len(set(moprox.__all__)) == len(moprox.__all__)


def test_every_exported_name_resolves_on_the_package():
    for name in moprox.__all__:
        assert hasattr(moprox, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(moprox, name) is getattr(module, name), name


def test_no_earlier_export_is_lost():
    assert len(EXPORTED_BEFORE) == 46
    assert set(EXPORTED_BEFORE) <= set(moprox.__all__)
