"""Multiobjective composite optimization with a proximal Newton-type solver.

Minimizes vector objectives F(x) whose components are F_i = f_i + g with
smooth f_i and one simple convex g shared by every objective. The search
direction at each iterate solves a min-max model built from gradients and
Hessians (or a scaled identity for the first-order variant); a backtracking
line search enforces componentwise sufficient decrease. Diagnostics verify
criticality, convergence order, and step-to-error ratios from recorded
traces.

The package's public names are those of its modules, each listed once in
its module's __all__.
"""

from .errors import *
from .problems import *
from .subproblem import *
from .solver import *
from .analysis import *
from .zoo import *

__version__ = "0.1.0"

# each star import above also binds its module's name here
__all__ = (errors.__all__ + problems.__all__ + subproblem.__all__  # noqa: F405
           + solver.__all__ + analysis.__all__ + zoo.__all__  # noqa: F405
           + ["__version__"])
