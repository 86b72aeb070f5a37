"""Dual variational solver for the nonlinear Helmholtz equation.

Computes ground states of -Lap u - k^2 u = Q(x)|u|^(p-2) u on a periodic box
by minimizing the dual energy on the Nehari manifold, with an experiment
harness for energy-comparison, concentration, and interaction-decay studies.
"""

__version__ = "0.1.0"

from .grid import (
    Field,
    Grid,
    dft_forward,
    dft_inverse,
    inner_product,
    lp_norm,
    make_grid,
    spectral_laplacian,
)
from .kernels import (
    KernelSpec,
    bessel_j0,
    bessel_y0,
    check_exponent,
    exponent_bounds,
    lambda_p,
    re_phi,
)
from .resolvent import (
    GridTooLargeError,
    ResolventConfig,
    SingularLatticeError,
    apply_R,
    apply_R_direct,
    bilinear_R,
    multiplier_value,
    resolvent_identity_residual,
)
from .functional import (
    CoefficientSpec,
    DualState,
    NotInPositiveCone,
    ProblemSpec,
    constant_coefficient,
    energy,
    gradient,
    nehari_energy_identity,
    nehari_t,
    pde_residual,
    quadratic_term,
)
from .solver import (
    AllSeedsLeftCone,
    InitialGuess,
    NoConvergence,
    SolverConfig,
    cutoff,
    default_seeds,
    make_test_function,
    multistart,
    solve_from_seed,
    solve_ground_state,
    solve_limit,
)
from .experiments import (
    BarycenterConfig,
    DecayRecord,
    DecayReport,
    EnergyComparison,
    SweepRecord,
    aligned_distance,
    barycenter,
    compact_bump,
    concentration_sweep,
    edge_mass,
    energy_comparison,
    homogeneity_ratio,
    interaction_decay,
    sweep_to_csv,
)
from .fieldio import FieldFormatError, read_field, write_field
