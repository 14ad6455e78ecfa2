"""Constraint recursion for linear-quadratic problems with singular control cost."""

from . import algorithm, closed_form, dae, experiments, geometry, problem
from .algorithm import *  # noqa: F403
from .closed_form import *  # noqa: F403
from .dae import *  # noqa: F403
from .experiments import *  # noqa: F403
from .geometry import *  # noqa: F403
from .problem import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    name
    for module in (algorithm, closed_form, dae, experiments, geometry, problem)
    for name in module.__all__
]
