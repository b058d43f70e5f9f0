"""Coupled time integration of (n, c, u) with CFL control and diagnostics.

One step advances the scalars with the beginning-of-step velocity, then the
velocity with the fresh density (weak-coupling first-order splitting).  The
homogeneous state (n_mean, n_mean, 0) is a discrete fixed point, mass of n is
conserved exactly, and the stepwise bound on the c mass is asserted at
runtime.  Identical parameters and initial data reproduce trajectories
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import diagnostics
from .fluid import (
    FluidParams,
    PoissonSolver,
    SolverFailure,
    helmholtz_project,
    laplacian_noslip,
    ns_substep,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _abs_max,
    gradient_cc,
    integrate,
    vector_l2_sq,
)
from .sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    _face_drift_components,
    rho_on_faces,
)
from .transport import (
    PositivityError,
    dissipation_integrals,
    step_c,
    step_n,
)

__all__ = [
    "SimParams",
    "State",
    "SimulationAbort",
    "cfl_dt",
    "advance",
    "Trajectory",
    "run",
]


class SimulationAbort(RuntimeError):
    """A step failed an invariant; the run stops with a partial trajectory."""


@dataclass
class SimParams:
    """Everything a run needs besides the initial state."""

    grid: Grid
    sensitivity: SensitivitySpec
    regularization: RegularizationParams
    fluid: FluidParams
    T: float
    cfl_sigma: float = 0.4
    max_steps: int = None
    diagnostics_every: int = 1
    snapshot_every: int = 0
    forcing_n: object = None
    forcing_c: object = None
    forcing_u: object = None

    def __post_init__(self):
        if not (self.T > 0):
            raise ValueError(f"T must be positive, got {self.T}")
        if not (0 < self.cfl_sigma <= 1.0):
            raise ValueError(f"cfl_sigma must lie in (0, 1], got {self.cfl_sigma}")
        if self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")


@dataclass
class State:
    """Fields at one time instant."""

    t: float
    n: ScalarField
    c: ScalarField
    u: VectorField
    P: ScalarField

    @classmethod
    def homogeneous(cls, grid: Grid, n0: float, c0: float = None) -> "State":
        c0 = n0 if c0 is None else c0
        return cls(
            t=0.0,
            n=ScalarField.full(grid, n0),
            c=ScalarField.full(grid, c0),
            u=VectorField.zeros(grid),
            P=ScalarField.zeros(grid),
        )

    def validate(self):
        self.n.check_finite("n")
        self.c.check_finite("c")
        self.u.check_finite("u")
        nmin = float(self.n.data.min())
        if nmin < -1e-12 * max(float(self.n.data.max()), 1.0):
            raise PositivityError("state has negative n", nmin)
        cmin = float(self.c.data.min())
        if cmin < -1e-12 * max(float(self.c.data.max()), 1.0):
            raise PositivityError("state has negative c", cmin)


def _cfl_parts(state: State, params: SimParams, drift=None, rho_faces=None, grad_c=None):
    g = params.grid
    hmin = min(g.spacing)
    diff = hmin**2 / (2.0 * g.dim)
    umax = state.u.max_abs()
    adv = hmin / umax if umax > 0 else np.inf
    if drift is None:
        drift = _face_drift_components(
            state.n, state.c, params.sensitivity, params.regularization, rho_faces, grad_c
        )
    vmax = max(_abs_max(v) for v in drift[1])
    chemo = hmin / vmax if vmax > 0 else np.inf
    reaction = 0.5
    dt = params.cfl_sigma * min(diff, adv, chemo, reaction)
    return dt, drift


def cfl_dt(state: State, params: SimParams) -> float:
    """Stable step size: sigma times the tightest of the diffusion, advection,
    chemotactic-drift, and reaction limits."""
    state.n.check_finite("n")
    state.c.check_finite("c")
    state.u.check_finite("u")
    dt, _ = _cfl_parts(state, params)
    if not (dt > 0):
        raise ValueError("computed a nonpositive dt")
    return dt


def advance(
    state: State,
    params: SimParams,
    dt: float,
    solver: PoissonSolver = None,
    rho_faces=None,
    drift=None,
    grad_n=None,
    grad_c=None,
    lap_u=None,
) -> State:
    """One coupled step of size dt (caller guarantees dt <= cfl_dt).

    ``drift`` may carry the state's chemotactic face states from the CFL
    evaluation, and ``grad_n``, ``grad_c`` and ``lap_u`` its precomputed
    ``gradient_cc(n)``, ``gradient_cc(c)`` and ``laplacian_noslip(u)``; each
    is dropped after its last use.
    """
    if solver is None:
        solver = PoissonSolver(params.grid)
    if rho_faces is None:
        rho_faces = rho_on_faces(params.grid, params.regularization)
    t = state.t
    n1 = step_n(
        state.n,
        state.c,
        state.u,
        params.sensitivity,
        params.regularization,
        dt,
        rho_faces=rho_faces,
        drift=drift,
        forcing=params.forcing_n,
        t=t,
        grad_n=grad_n,
    )
    drift = grad_n = None
    c1 = step_c(state.c, state.n, state.u, dt, forcing=params.forcing_c, t=t, grad_c=grad_c)
    grad_c = None
    u1, P1, _ = ns_substep(
        state.u, n1, params.fluid, dt, solver, forcing=params.forcing_u, t=t, lap_u=lap_u
    )
    out = State(t=t + dt, n=n1, c=c1, u=u1, P=P1)
    out.validate()
    return out


@dataclass
class Trajectory:
    """Recorded run: diagnostic series, optional snapshots, and run metadata."""

    params: SimParams
    nbar0: float
    mass_n0: float
    mass_c0: float
    C_N: float
    lyapunov_config: object
    series: "diagnostics.DiagnosticsSeries"
    snapshots: list = dc_field(default_factory=list)
    status: str = "completed"
    error: str = None
    steps: int = 0

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def final_state(self) -> State:
        return self.snapshots[-1][1] if self.snapshots else None


class _SeriesBuilder:
    def __init__(self):
        self.rows = {k: [] for k in diagnostics.CSV_COLUMNS}

    def record(self, state: State, nbar0, alpha, lyap_B, dt, proj_residual):
        """Append one row; return the state's ``(grad_n, grad_c, lap_u)``,
        computed once here, for the next step to reuse."""
        grad_n = gradient_cc(state.n)
        grad_c = gradient_cc(state.c)
        lap_u = laplacian_noslip(state.u)
        g = state.n.grid
        vol = g.volume_element
        r = self.rows
        r["t"].append(state.t)
        r["mass_n"].append(integrate(state.n))
        r["mass_c"].append(integrate(state.c))
        dn = state.n.data - nbar0
        dc = state.c.data - nbar0
        l2n = float((dn * dn).sum()) * vol
        l2c = float((dc * dc).sum()) * vol
        r["l2_n_dev"].append(l2n)
        r["l2_c_dev"].append(l2c)
        r["l2_u"].append(vector_l2_sq(state.u))
        gnorms = diagnostics.grad_c_norms(state.c, grad_c)
        r["grad_c_l2"].append(gnorms.l2_sq)
        r["grad_c_l4"].append(gnorms.l4_4)
        r["lyapunov"].append(0.5 * lyap_B * l2n + 0.5 * l2c)
        diss = dissipation_integrals(state.n, state.c, state.u, alpha, grad_n, grad_c, lap_u)
        r["D_n"].append(diss.D_n)
        r["D_c"].append(diss.D_c)
        r["D_u"].append(diss.D_u)
        r["n_inf_dev"].append(float(np.abs(dn).max()))
        r["c_inf_dev"].append(float(np.abs(dc).max()))
        r["u_inf"].append(state.u.max_abs())
        r["dt"].append(dt)
        r["proj_residual"].append(proj_residual)
        return grad_n, grad_c, lap_u

    def build(self):
        return diagnostics.DiagnosticsSeries(
            **{k: np.asarray(v, dtype=np.float64) for k, v in self.rows.items()}
        )


def run(params: SimParams, initial: State, solver: PoissonSolver = None) -> Trajectory:
    """Advance the system to T (or max_steps), recording diagnostics.

    The initial velocity is projected once so a non-solenoidal input becomes
    admissible.  Any substep failure, a step guard's ``ValueError`` included,
    ends the run with status "aborted", an error prefixed ``step k:`` and the
    partial trajectory retained.
    """
    g = params.grid
    if solver is None:
        solver = PoissonSolver(g)
    initial.validate()

    u0 = helmholtz_project(initial.u, solver) if initial.u.max_abs() > 0 else initial.u
    state = State(t=initial.t, n=initial.n.copy(), c=initial.c.copy(), u=u0, P=initial.P.copy())

    nbar0 = state.n.mean()
    mass_n0 = integrate(state.n)
    mass_c0 = integrate(state.c)
    C_N = diagnostics.poincare_constant(g)
    lyap_cfg = diagnostics.make_lyapunov_config(params.sensitivity.C_S, C_N)
    lyap_B = lyap_cfg.B if isinstance(lyap_cfg, diagnostics.LyapunovConfig) else 1.0

    rho_faces = rho_on_faces(g, params.regularization)
    builder = _SeriesBuilder()
    derivs = builder.record(state, nbar0, params.sensitivity.alpha, lyap_B, 0.0, 0.0)
    snapshots = [(0, state)]

    forced = (
        params.forcing_n is not None
        or params.forcing_c is not None
        or params.forcing_u is not None
    )
    c_mass_bound = max(mass_n0, mass_c0)

    status, error = "completed", None
    step = 0
    max_steps = params.max_steps if params.max_steps is not None else np.inf
    try:
        while state.t < params.T - 1e-14 and step < max_steps:
            # (grad_n, grad_c, lap_u) of the state: from its recorded row, else
            # one grad_c that feeds both the drift and step_c
            derivs = list(derivs or (None, gradient_cc(state.c), None))
            dt, drift = _cfl_parts(state, params, rho_faces=rho_faces, grad_c=derivs[1])
            dt = min(dt, params.T - state.t)
            derivs.append(drift)
            drift = None
            # popped into the call so that advance holds the only references
            # and frees the drift and each derivative after its last use
            state = advance(
                state,
                params,
                dt,
                solver,
                rho_faces,
                drift=derivs.pop(),
                lap_u=derivs.pop(),
                grad_c=derivs.pop(),
                grad_n=derivs.pop(),
            )
            derivs = None
            step += 1
            if not forced:
                mass_n = integrate(state.n)
                if abs(mass_n - mass_n0) > 1e-10 * max(abs(mass_n0), 1.0):
                    raise SimulationAbort(f"mass of n drifted by {mass_n - mass_n0:.3e}")
                mass_c = integrate(state.c)
                if mass_c > c_mass_bound + 1e-10 * max(c_mass_bound, 1.0):
                    raise SimulationAbort(
                        f"c mass {mass_c:.6e} exceeded bound {c_mass_bound:.6e}"
                    )
            if step % params.diagnostics_every == 0 or state.t >= params.T - 1e-14:
                derivs = builder.record(
                    state, nbar0, params.sensitivity.alpha, lyap_B, dt, solver.last_residual
                )
            if params.snapshot_every and (
                step % params.snapshot_every == 0 or state.t >= params.T - 1e-14
            ):
                snapshots.append((step, state))
    except (
        PositivityError,
        SolverFailure,
        FloatingPointError,
        SimulationAbort,
        ValueError,
    ) as exc:
        # SimulationAbort judges the step just counted; the rest fail inside
        # the step in progress
        failed = step if isinstance(exc, SimulationAbort) else step + 1
        status, error = "aborted", f"step {failed}: {type(exc).__name__}: {exc}"

    if snapshots[-1][1] is not state:
        snapshots.append((step, state))

    series = builder.build()
    return Trajectory(
        params=params,
        nbar0=nbar0,
        mass_n0=mass_n0,
        mass_c0=mass_c0,
        C_N=C_N,
        lyapunov_config=lyap_cfg,
        series=series,
        snapshots=snapshots,
        status=status,
        error=error,
        steps=step,
    )
