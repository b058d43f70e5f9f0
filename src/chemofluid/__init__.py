"""Finite-volume chemotaxis-fluid simulator with runtime decay certificates.

Cell density, chemical concentration, and an incompressible velocity evolve
on a staggered Cartesian box with zero-flux and no-slip walls.  The package
certifies, as machine-checkable runtime assertions: exact mass conservation,
the stepwise bound on the chemical mass, monotone dissipation of the weighted
distance to the homogeneous state under the smallness condition
``C_S < 2 sqrt(lambda_1) = 2/sqrt(C_N)`` (``lambda_1`` the smallest nonzero
eigenvalue of the grid's zero-flux Laplacian, ``C_N = 1/lambda_1`` its
Poincare constant), and exponential relaxation rates.
"""

from .diagnostics import (
    DiagnosticsSeries,
    FitResult,
    LyapunovConfig,
    LyapunovInfeasible,
    fit_decay_rate,
    grad_c_norms,
    lyapunov,
    make_lyapunov_config,
    poincare_constant,
    steady_state_distance,
    stokes_eigenvalue,
    weak_residual,
)
from .fluid import (
    FluidParams,
    PoissonSolver,
    SolverFailure,
    energy_identity_residual,
    helmholtz_project,
    ns_substep,
    yosida_apply,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    divergence_fc,
    gradient_cc,
    integrate,
    laplacian_neumann,
    make_grid,
    read_field_snapshot,
    write_field_snapshot,
)
from .sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    chemotactic_flux,
    cutoff_rho,
    eval_S_eps,
    f_eps,
)
from .stepper import SimParams, State, Trajectory, advance, cfl_dt, run
from .transport import dissipation_integrals, step_c, step_n
from .verify import (
    Scenario,
    epsilon_ladder,
    mms_convergence,
    run_scenario,
    run_suite,
    scenario_library,
)

__version__ = "0.1.0"
