"""Exception types shared across the package, and the field type check behind ConfigError."""

import numbers

__all__ = ["MoproxError", "ConfigError", "InputError", "EvaluationError",
           "SingularMetricError", "ConvergenceError", "LineSearchError",
           "InsufficientDataError"]


class MoproxError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MoproxError, ValueError):
    """Invalid configuration, instance specification, or config document.

    An error about one field carries its name in field, and its message is
    the field name followed by detail, e.g. "cond must be finite and >= 1".
    """

    def __init__(self, detail, field=None):
        super().__init__(detail if field is None else f"{field} {detail}")
        self.field = field
        self.detail = detail


def check_field_types(obj, integers=(), reals=()) -> None:
    """Raise ConfigError naming the first field of obj with the wrong type.

    Fields named in integers must be integers and those in reals real
    numbers; bool is neither, and numpy scalars qualify. A real field must
    also convert to a float: an integer too large for one is rejected.
    """
    for names, kind, noun in ((integers, numbers.Integral, "an integer"),
                              (reals, numbers.Real, "a real number")):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"must be {noun}, got {value!r}", name)
    for name in reals:
        try:
            float(getattr(obj, name))
        except OverflowError:
            raise ConfigError("must be finite, got an integer too large for a float",
                              name) from None


class InputError(MoproxError, ValueError):
    """Invalid runtime input, e.g. a non-finite point or a non-positive prox step."""


class EvaluationError(MoproxError, RuntimeError):
    """A smooth oracle returned a non-finite value, gradient, or Hessian at an iterate.

    Also raised for oracle output of the wrong shape, and when finite
    oracle output gives non-finite direction model values, as when the
    model overflows float64. A line-search trial's output is not checked:
    a non-finite objective value there fails the decrease test, or, if it
    is -inf, passes it and is named at the iterate the trial becomes.
    """

    def __init__(self, message, objective_index=None):
        super().__init__(message)
        self.objective_index = objective_index


class SingularMetricError(MoproxError, RuntimeError):
    """The weighted Hessian could not be factorized as positive definite."""


class ConvergenceError(MoproxError, RuntimeError):
    """An iterative loop hit its cap or stalled before reaching its tolerance.

    Carries the final residual when one is known.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class LineSearchError(MoproxError, RuntimeError):
    """No backtracking step satisfied the sufficient-decrease test."""


class InsufficientDataError(MoproxError, ValueError):
    """Too few usable points to fit a convergence rate."""
