"""Coupled time integration of (n, c, u) with CFL control and diagnostics.

One step advances the scalars with the beginning-of-step velocity, then the
velocity with the fresh density (weak-coupling first-order splitting).  Each
field takes its transport, reaction and forcing explicitly and its diffusion
by backward Euler (an IMEX splitting), so the step size is set by accuracy
and by the explicit terms' limits.  ``run`` controls the step from backward
Euler's local diffusion error, between the cap ``sigma h^2 / 2`` and
``CEILING_FACTOR`` times it.  The homogeneous state (n_mean, n_mean, 0) is a
discrete fixed point, mass of n is conserved exactly, and the stepwise bound
on the c mass is asserted at runtime.  Identical parameters and initial data
reproduce trajectories bitwise.
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
    ns_substep,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _abs_max,
    gradient_cc,
    integrate,
    laplacian_neumann,
    vector_l2_sq,
)
from .sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    WallCutoff,
    _face_drift_components,
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
        phi = self.fluid.phi
        if phi is not None and phi.grid != self.grid:
            raise ValueError(f"fluid.phi lives on {phi.grid}, but the run's grid is {self.grid}")


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


# The step-size controller of ``run``.  The next step is the last one times
# ``clamp(0.9 tol / est, 1/2, 2)``, with ``est`` backward Euler's relative
# local diffusion error per unit step (``_step_growth``) and
# ``tol = TOL_FACTOR * sigma h^2/2``, so that ``dt`` still shrinks with sigma
# and h.  It never goes below the cap ``sigma h^2/2`` (``cfl_dt``), nor above
# ``CEILING_FACTOR`` times it or the explicit terms' limits.  The ceiling
# bounds the O(dt) error by a multiple of the O(h^2) spatial one: the
# diffusion-only MMS order at 8/12/16 cells is 2.02 at 1, 1.99 at 4, 1.93 at 8
# and 1.84 at 16, against its band [1.8, 2.2].
CEILING_FACTOR = 4.0
TOL_FACTOR = 2.0e4

# what set a step's size, in the order of the run report
STEP_BOUNDS = ("floor", "controller", "ceiling", "advection", "drift", "reaction", "remainder")


def _accuracy_cap(params: SimParams) -> float:
    """``sigma h^2/2``: backward-Euler diffusion is stable at any dt, and this
    cap keeps its O(dt) error level with the O(h^2) spatial error while high
    modes are alive, in any dimension."""
    return params.cfl_sigma * (min(params.grid.spacing) ** 2 / 2.0)


def _cfl_parts(state: State, params: SimParams, cutoff=None, grad_c=None):
    """``(limit, bound, drift)``: sigma times the tightest of the advection,
    chemotactic-drift and reaction limits, its name in ``STEP_BOUNDS``, and
    the chemotactic face states it read."""
    hmin = min(params.grid.spacing)
    umax = state.u.max_abs()
    adv = hmin / umax if umax > 0 else np.inf
    drift = _face_drift_components(
        state.n, state.c, params.sensitivity, params.regularization, cutoff, grad_c
    )
    vmax = max(_abs_max(v) for v in drift[1])
    chemo = hmin / vmax if vmax > 0 else np.inf
    limit, bound = min((adv, "advection"), (chemo, "drift"), (0.5, "reaction"))
    return params.cfl_sigma * limit, bound, drift


def cfl_dt(state: State, params: SimParams) -> float:
    """The fixed-cap step: sigma times the tightest of the diffusion accuracy
    cap ``h^2/2`` and the advection, chemotactic-drift and reaction limits.

    ``run`` never steps below it (bar a last step landing on T).  It takes
    exactly this step when the run records snapshots; otherwise its
    controller may grow the step up to ``CEILING_FACTOR * sigma h^2/2``
    within the explicit limits.
    """
    state.n.check_finite("n")
    state.c.check_finite("c")
    state.u.check_finite("u")
    limit, _, _ = _cfl_parts(state, params)
    dt = min(_accuracy_cap(params), limit)
    if not (dt > 0):
        raise ValueError("computed a nonpositive dt")
    return dt


def _bounded_step(proposal: float, cap: float, ceiling: float, limit: float, bound: str):
    """``(dt, what set it)``: the controller's ``proposal`` raised to the
    accuracy ``cap`` and lowered to the ``ceiling`` and the explicit
    ``limit`` named ``bound``."""
    if proposal <= cap:
        dt, bound_acc = cap, "floor"
    elif proposal >= ceiling:
        dt, bound_acc = ceiling, "ceiling"
    else:
        dt, bound_acc = proposal, "controller"
    return (limit, bound) if limit < dt else (dt, bound_acc)


def _step_growth(increments: list, state: State, nbar: float, tol: float) -> float:
    """Factor for the next step, ``clamp(0.9 tol / est, 1/2, 2)``.

    ``est = (1/2)|Lap_h(y_{k+1} - y_k)|_inf / |y_{k+1} - nbar|_inf`` over
    ``y = (n, c)`` is backward Euler's local error ``(dt^2/2)|y_tt|`` per
    unit step and relative to the distance from equilibrium, with
    ``y_tt ~ Lap_h y_t`` for diffusion (error per unit step: Gustafsson, ACM
    TOMS 17, 1991).  ``increments`` holds the two ``y_{k+1} - y_k``; each is
    dropped after its Laplacian, so one Laplacian is alive at a time.
    """
    g = state.n.grid
    lap_max = 0.0
    while increments:
        lap_max = max(lap_max, _abs_max(laplacian_neumann(ScalarField(g, increments.pop())).data))
    if lap_max == 0.0:
        return 2.0
    # max |y - nbar| from the two extremes: subtraction keeps their order
    dev = max(
        max(float(f.data.max()) - nbar, nbar - float(f.data.min())) for f in (state.n, state.c)
    )
    return min(2.0, max(0.5, 0.9 * tol * dev / (0.5 * lap_max)))


def advance(
    state: State,
    params: SimParams,
    dt: float,
    solver: PoissonSolver = None,
    cutoff: WallCutoff = None,
    drift=None,
):
    """One coupled step of size dt (caller guarantees dt <= cfl_dt).

    Returns ``(state, proj_residual)``: the new state and the relative
    residual of its velocity projection, the certificate of ``div u``.
    ``solver`` and ``cutoff`` may carry the run's spectral core and
    ``WallCutoff``.  ``drift`` may carry the state's chemotactic face states
    from the CFL evaluation; ``step_n`` consumes them.
    """
    if solver is None:
        solver = PoissonSolver(params.grid)
    if cutoff is None:
        cutoff = WallCutoff(params.grid, params.regularization)
    t = state.t
    n1 = step_n(
        state.n,
        state.c,
        state.u,
        params.sensitivity,
        params.regularization,
        dt,
        cutoff=cutoff,
        drift=drift,
        forcing=params.forcing_n,
        t=t,
        solver=solver,
    )
    c1 = step_c(state.c, state.n, state.u, dt, forcing=params.forcing_c, t=t, solver=solver)
    u1, P1, proj_residual = ns_substep(
        state.u, n1, params.fluid, dt, solver, forcing=params.forcing_u, t=t
    )
    out = State(t=t + dt, n=n1, c=c1, u=u1, P=P1)
    out.validate()
    return out, proj_residual


def _step_size(dt: float, remaining: float) -> float:
    """The step to take with ``remaining`` time left: a last step takes all
    of it, and a remainder under two steps is split evenly in two, so that
    no step is a sliver (``P = q/dt`` would turn its roundoff into a huge
    pressure)."""
    if remaining <= dt:
        return remaining
    if remaining < 2.0 * dt:
        return 0.5 * remaining
    return dt


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
    dt_min: float = float("nan")
    dt_max: float = float("nan")
    steps_by_bound: dict = dc_field(default_factory=dict)  # STEP_BOUNDS -> steps

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def final_state(self) -> State:
        return self.snapshots[-1][1] if self.snapshots else None


class _SeriesBuilder:
    def __init__(self):
        self.rows = {k: [] for k in diagnostics.CSV_COLUMNS}

    def record(self, state: State, nbar0, alpha, lyap_B, dt, proj_residual):
        """Append one row; return the state's ``gradient_cc(c)``, computed
        once here, for the next step's drift to reuse."""
        grad_c = gradient_cc(state.c)
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
        diss = dissipation_integrals(state.n, state.c, state.u, alpha, grad_c)
        r["D_n"].append(diss.D_n)
        r["D_c"].append(diss.D_c)
        r["D_u"].append(diss.D_u)
        r["n_inf_dev"].append(_abs_max(dn))
        r["c_inf_dev"].append(_abs_max(dc))
        r["u_inf"].append(state.u.max_abs())
        r["dt"].append(dt)
        r["proj_residual"].append(proj_residual)
        return grad_c

    def build(self):
        return diagnostics.DiagnosticsSeries(
            **{k: np.asarray(v, dtype=np.float64) for k, v in self.rows.items()}
        )


def run(params: SimParams, initial: State, solver: PoissonSolver = None) -> Trajectory:
    """Advance the system to T (or max_steps), recording diagnostics.

    The initial velocity is projected once so a non-solenoidal input becomes
    admissible.  The first step is ``cfl_dt``; after each step the
    controller sizes the next from that step's own increment (see
    ``CEILING_FACTOR``).  A run that records snapshots keeps ``cfl_dt`` at
    every step, since ``snapshot_every`` counts steps.  Any substep failure,
    a step guard's ``ValueError`` included, ends the run with status
    "aborted", an error prefixed ``step k:`` and the partial trajectory
    retained; ``final_state()`` is then the last completed step's state.

    The run uses ``initial``'s ``n``, ``c`` and ``P`` (and ``u`` when it is
    zero) without copying and never writes into them: ``snapshots[0]``
    holds the caller's arrays.
    """
    g = params.grid
    if solver is None:
        solver = PoissonSolver(g)
    initial.validate()

    u0 = helmholtz_project(initial.u, solver) if initial.u.max_abs() > 0 else initial.u
    state = State(t=initial.t, n=initial.n, c=initial.c, u=u0, P=initial.P)

    nbar0 = state.n.mean()
    mass_n0 = integrate(state.n)
    mass_c0 = integrate(state.c)
    C_N = diagnostics.poincare_constant(g)
    lyap_cfg = diagnostics.make_lyapunov_config(params.sensitivity.C_S, C_N)
    lyap_B = lyap_cfg.B if isinstance(lyap_cfg, diagnostics.LyapunovConfig) else 1.0

    cutoff = WallCutoff(g, params.regularization)
    builder = _SeriesBuilder()
    grad_c = builder.record(state, nbar0, params.sensitivity.alpha, lyap_B, 0.0, 0.0)
    snapshots = [(0, state)]

    forced = (
        params.forcing_n is not None
        or params.forcing_c is not None
        or params.forcing_u is not None
    )
    c_mass_bound = max(mass_n0, mass_c0)

    controlled = not params.snapshot_every
    cap = _accuracy_cap(params)
    ceiling = CEILING_FACTOR * cap if controlled else cap
    tol = TOL_FACTOR * cap
    proposal = cap
    steps_by_bound = dict.fromkeys(STEP_BOUNDS, 0)
    dt_min, dt_max = np.inf, -np.inf

    status, error = "completed", None
    step = 0
    max_steps = params.max_steps if params.max_steps is not None else np.inf
    try:
        while state.t < params.T - 1e-14 and step < max_steps:
            # grad_c of the state comes from its recorded row, if it has one
            limit, bound, drift = _cfl_parts(state, params, cutoff=cutoff, grad_c=grad_c)
            grad_c = None
            sized, bound = _bounded_step(proposal, cap, ceiling, limit, bound)
            dt = _step_size(sized, params.T - state.t)
            new, proj_residual = advance(state, params, dt, solver, cutoff, drift=drift)
            if controlled:
                increments = [new.n.data - state.n.data, new.c.data - state.c.data]
            state = new  # the old state goes before the controller's Laplacians
            if controlled:
                proposal = dt * _step_growth(increments, state, nbar0, tol)
            step += 1
            steps_by_bound["remainder" if dt != sized else bound] += 1
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
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
                grad_c = builder.record(
                    state, nbar0, params.sensitivity.alpha, lyap_B, dt, proj_residual
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
        dt_min=dt_min if step else float("nan"),
        dt_max=dt_max if step else float("nan"),
        steps_by_bound=steps_by_bound,
    )
