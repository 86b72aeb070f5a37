"""Dual variational solver for the nonlinear Helmholtz equation.

Computes ground states of -Lap u - k^2 u = Q(x)|u|^(p-2) u on a periodic box
by minimizing the dual energy on the Nehari manifold, with an experiment
harness for energy-comparison, concentration, and interaction-decay studies.

The package namespace holds the names of the quick start and the demos and the
exceptions a caller catches; everything else is imported from its module, for
example ``helmdual.functional.energy``.
"""

__version__ = "0.1.0"

from .grid import make_grid
from .resolvent import GridTooLargeError, ResolventConfig, SingularLatticeError
from .functional import (
    CoefficientSpec,
    NotInPositiveCone,
    ProblemSpec,
    constant_coefficient,
)
from .solver import (
    AllSeedsLeftCone,
    NoConvergence,
    SolverConfig,
    multistart,
    solve_ground_state,
    solve_limit,
)
from .experiments import barycenter, concentration_sweep, interaction_decay
from .fieldio import FieldFormatError
