"""Scenario harness turning the decay theory into pass/fail suites.

A scenario bundles parameters, a seeded initial-condition recipe, and a list
of assertions over the recorded diagnostics.  Suites group scenarios into the
conservation, Lyapunov, stabilization, ladder, and manufactured-solution
checks; every report is reproducible bitwise for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    LyapunovConfig,
    budget_check_series,
    fit_decay_rate,
    lyapunov,
    make_lyapunov_config,
    poincare_constant,
    steady_state_distance,
    transient_end_time,
)
from .fluid import FluidParams, PoissonSolver, energy_identity_residual, helmholtz_project
from .grid import Grid, ScalarField, VectorField, make_grid
from .manufactured import MmsCase, mms_cases, mms_error
from .seeded import NormalStream
from .sensitivity import RegularizationParams, SensitivitySpec, WallCutoff
from .stepper import SimParams, State, Trajectory, advance, cfl_dt, run

__all__ = [
    "AssertionResult",
    "VerdictReport",
    "Scenario",
    "bump_field",
    "random_smooth_field",
    "swirl_velocity",
    "default_phi",
    "scenario_library",
    "run_scenario",
    "calibrate_tol_disc",
    "LadderReport",
    "epsilon_ladder",
    "ConvergenceReport",
    "mms_convergence",
    "mms_passed",
    "mms_resolutions",
    "ENDS_ONLY",
    "energy_residual_probe",
    "run_suite",
    "SUITES",
]


# ---------------------------------------------------------------------------
# Initial-condition recipes
# ---------------------------------------------------------------------------


def bump_field(grid: Grid, base: float, amp: float) -> ScalarField:
    """Base level plus a smooth cosine bump of radius 0.25, deliberately
    off-center so no test-function parity hides it."""
    radius = 0.25
    center = [0.4 * L if d == 0 else 0.55 * L for d, L in enumerate(grid.extents)]

    def fn(*coords):
        r2 = 0.0
        for d in range(grid.dim):
            r2 = r2 + (coords[d] - center[d]) ** 2
        r = np.sqrt(r2)
        return base + np.where(
            r < radius, amp * np.cos(0.5 * np.pi * r / radius) ** 2, 0.0
        )

    return ScalarField.from_function(grid, fn)


def random_smooth_field(grid: Grid, rng, amp: float) -> ScalarField:
    """Mean-zero random combination of the cosine modes 0-3 per axis, scaled
    to max |amp|, one weight per mode from ``rng.standard_normal()``.  Each
    mode's term is the outer product of one row of each axis's 1-D cosine
    table, written into one work array."""
    k_pi = np.arange(4) * np.pi
    tables = [
        np.cos(np.multiply.outer(k_pi, grid.cell_coords(d)) / L) for d, L in enumerate(grid.extents)
    ]
    data, term = np.zeros(grid.shape), np.empty(grid.shape)
    for m in list(np.ndindex(*(4,) * grid.dim))[1:]:  # every mode but the constant
        rows = [table[k] for table, k in zip(tables, m)]
        np.multiply.outer(functools.reduce(np.multiply.outer, rows[:-1]), rows[-1], out=term)
        term *= rng.standard_normal()
        data += term
    peak = np.abs(data).max()
    if peak > 0:
        data *= amp / peak
    return ScalarField(grid, data)


def swirl_velocity(grid: Grid, amplitude: float) -> VectorField:
    """Stream-function swirl vanishing on all walls (projected at run start)."""
    Lx, Ly = grid.extents[0], grid.extents[1]

    def comp(d, x, y, *z):
        if d == 0:
            out = amplitude * np.sin(np.pi * x / Lx) ** 2 * np.sin(2 * np.pi * y / Ly)
        elif d == 1:
            out = -amplitude * np.sin(2 * np.pi * x / Lx) * np.sin(np.pi * y / Ly) ** 2
        else:
            return 0.0
        if z:
            out = out * np.cos(np.pi * z[0] / grid.extents[2])
        return out

    return VectorField.from_function(grid, comp)


def default_phi(grid: Grid, strength: float = 0.1) -> ScalarField:
    """Linear gravitational potential (bounded gradient, exercises the forcing)."""

    def fn(*coords):
        out = coords[0] * strength
        for d in range(1, grid.dim):
            out = out + 0.5 * strength * coords[d]
        return out

    return ScalarField.from_function(grid, fn)


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


@dataclass
class AssertionResult:
    name: str
    status: str  # pass | fail | skip | report
    measured: str
    detail: str = ""


@dataclass
class VerdictReport:
    scenario: str
    results: list
    trajectory: Trajectory = None

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)


@dataclass
class Scenario:
    """Named parameter set, seeded initial condition, and assertion list."""

    name: str
    description: str
    build: object  # (seed, **overrides) -> (SimParams, State)
    assertions: list = field(default_factory=list)  # [(name, fn(traj) -> AssertionResult)]
    initial: object = None  # (seed) -> State: the build's state, without its parameters


def _base_params(
    grid: Grid,
    C_S: float,
    T: float,
    kappa: float = 1.0,
    eps: float = 0.1,
    theta: float = 0.0,
    max_steps=None,
    sigma: float = 0.4,
) -> SimParams:
    """The model's scalars as ``SimParams``; ``theta != 0`` turns the drift."""
    kind = "rotational" if theta != 0.0 else "scalar_saturating"
    return SimParams(
        grid=grid,
        sensitivity=SensitivitySpec(kind=kind, C_S=C_S, theta=theta),
        regularization=RegularizationParams(eps=eps),
        fluid=FluidParams(kappa=kappa, eps=eps, phi=default_phi(grid)),
        T=T,
        cfl_sigma=sigma,
        max_steps=max_steps,
    )


def _assert_mass_conserved(traj: Trajectory) -> AssertionResult:
    drift = float(np.abs(traj.series.mass_n - traj.mass_n0).max())
    rel = drift / max(abs(traj.mass_n0), 1e-300)
    ok = rel <= 1e-10
    return AssertionResult(
        "mass_n_conserved",
        "pass" if ok else "fail",
        f"relative drift {rel:.3e}",
        "column mass_n vs initial mass",
    )


def _assert_c_mass_bound(traj: Trajectory) -> AssertionResult:
    bound = max(traj.mass_n0, traj.mass_c0)
    excess = float((traj.series.mass_c - bound).max())
    ok = excess <= 1e-10
    return AssertionResult(
        "c_mass_bound",
        "pass" if ok else "fail",
        f"max excess over max(mass_n0, mass_c0): {excess:.3e}",
        "column mass_c",
    )


def _assert_series_constant(traj: Trajectory) -> AssertionResult:
    worst = 0.0
    worst_col = ""
    for col in ("mass_n", "mass_c", "l2_n_dev", "l2_c_dev", "l2_u", "lyapunov"):
        vals = traj.series.column(col)
        dev = float(np.abs(vals - vals[0]).max())
        scale = max(abs(float(vals[0])), 1.0)
        if dev / scale > worst:
            worst, worst_col = dev / scale, col
    ok = worst <= 1e-12
    return AssertionResult(
        "diagnostics_constant",
        "pass" if ok else "fail",
        f"max relative change {worst:.3e} in {worst_col or 'none'}",
    )


def _assert_lyapunov_monotone(traj: Trajectory) -> AssertionResult:
    cfg = traj.lyapunov_config
    if not isinstance(cfg, LyapunovConfig):
        return AssertionResult(
            "lyapunov_monotone", "skip", "infeasible-by-design", cfg.reason
        )
    L = traj.series.lyapunov
    slack = 1e-12 * max(L[0], 1e-300)
    rises = float((L[1:] - L[:-1]).max(initial=-np.inf))
    ok = rises <= slack
    return AssertionResult(
        "lyapunov_monotone",
        "pass" if ok else "fail",
        f"max forward difference {rises:.3e} (slack {slack:.3e})",
        "column lyapunov",
    )


def _report_lyapunov_trend(traj: Trajectory) -> AssertionResult:
    L = traj.series.lyapunov
    frac = float(np.mean(L[1:] <= L[:-1] + 1e-12 * max(L[0], 1e-300)))
    return AssertionResult(
        "lyapunov_trend_report",
        "report",
        f"nonincreasing at {100 * frac:.2f}% of steps",
        "no assertion: outside the proven regime",
    )


def _assert_positive(traj: Trajectory) -> AssertionResult:
    ok = traj.completed
    return AssertionResult(
        "run_completed_positive",
        "pass" if ok else "fail",
        traj.status if ok else f"{traj.status}: {traj.error}",
    )


def _assert_u_decay(traj: Trajectory) -> AssertionResult:
    t, e = traj.series.t, traj.series.l2_u
    mask = e > 1e-280
    fit = fit_decay_rate(t[mask], e[mask], window=(t[mask][0] + 0.02, t[mask][-1]))
    ok = fit.rate > 0 and fit.r_squared >= 0.99
    return AssertionResult(
        "u_energy_exponential",
        "pass" if ok else "fail",
        f"rate {fit.rate:.4g}, r^2 {fit.r_squared:.6f}",
        "column l2_u",
    )


# ---------------------------------------------------------------------------
# Scenario library
# ---------------------------------------------------------------------------


def scenario_library(cells=(64, 64), grid: Grid = None) -> dict:
    """Built-in scenarios on ``grid``, by default the unit square or cube
    with ``cells`` (configurable for speed).  Every recipe is
    dimension-generic, and every ``build(seed, **overrides)`` takes the same
    overrides of its parameter defaults: ``T``, ``max_steps``, ``C_S`` and
    ``sigma``."""
    if grid is None:
        grid = make_grid(len(cells), (1.0,) * len(cells), cells)
    small_C_S = float(np.sqrt(poincare_constant(grid)))

    # (n, c) recipes from the seed
    def flat(seed):
        return ScalarField.full(grid, 1.0), ScalarField.full(grid, 1.0)

    def bump(seed):
        return bump_field(grid, 1.0, 0.5), ScalarField.full(grid, 0.5)

    def perturbed(seed):
        rng = NormalStream(seed)
        return tuple(ScalarField(grid, 1.0 + random_smooth_field(grid, rng, 0.3).data) for _ in "nc")

    conserved = [("mass", _assert_mass_conserved), ("c_bound", _assert_c_mass_bound)]
    completed = ("completed", _assert_positive)
    # name: (description, (n, c) recipe, swirl amplitude of u, parameter defaults, assertions)
    table = {
        "steady_state": (
            "homogeneous fixed point stays put",
            flat, 0.0, dict(C_S=0.5, T=0.02),
            [("diagnostics_constant", _assert_series_constant), completed],
        ),
        "bump_n": (
            "localized density bump; conservation workhorse",
            bump, 0.0, dict(C_S=0.5, T=0.25),
            conserved + [completed],
        ),
        "random_perturbation": (
            "smooth random perturbation under the smallness condition",
            perturbed, 0.1, dict(C_S=small_C_S, T=0.75),
            conserved + [("lyapunov_monotone", _assert_lyapunov_monotone), completed],
        ),
        "rotational_flux": (
            "quarter-turn drift tensor; monotonicity reported, not asserted",
            perturbed, 0.0, dict(C_S=small_C_S, T=0.3, theta=np.pi / 2),
            conserved + [("lyapunov_trend", _report_lyapunov_trend), completed],
        ),
        "convection_on": (
            "kappa = 1 with an initial swirl",
            bump, 0.2, dict(C_S=0.5, T=0.1),
            [("mass", _assert_mass_conserved), completed],
        ),
        "swirl": (
            "pure velocity decay from a stream-function swirl",
            flat, 0.1, dict(C_S=0.5, T=0.12, kappa=0.0),
            [("u_decay", _assert_u_decay), completed],
        ),
    }

    def scenario(name, description, recipe, swirl, defaults, assertions):
        def initial(seed):
            n, c = recipe(seed)
            u = swirl_velocity(grid, swirl) if swirl else VectorField.zeros(grid)
            return State(t=0.0, n=n, c=c, u=u, P=ScalarField.zeros(grid))

        def build(seed, **overrides):
            return _base_params(grid, **{**defaults, **overrides}), initial(seed)

        return Scenario(name, description, build, assertions, initial)

    return {name: scenario(name, *row) for name, row in table.items()}


def run_scenario(scenario: Scenario, seed: int = 0) -> VerdictReport:
    """Run the scenario and evaluate its assertions.

    A simulation abort is reported as a failed verdict carrying the cause;
    the partial trajectory is still attached.
    """
    return _verdict(scenario, run(*scenario.build(seed)))


def _verdict(scenario: Scenario, traj: Trajectory) -> VerdictReport:
    results = []
    for name, fn in scenario.assertions:
        try:
            results.append(fn(traj))
        except Exception as exc:  # assertion machinery failure is a failure
            results.append(AssertionResult(name, "fail", f"{type(exc).__name__}: {exc}"))
    return VerdictReport(scenario=scenario.name, results=results, trajectory=traj)


# A ``diagnostics_every`` no run reaches: the run records only its initial
# row and the row of its final step.  For callers that read final states only.
ENDS_ONLY = sys.maxsize

# ---------------------------------------------------------------------------
# tol_disc: the roundoff floor of the per-step dissipation check
# ---------------------------------------------------------------------------

# ``K`` in ``tol_disc = K eps L_0 / dt_0``.  Honest secants stay at least
# 1.9e12 ``eps L_k / dt_k`` below the end-of-step bound on every step at
# 8^2-64^2 and 8^3-12^3; the floor absorbs only the rounding of
# ``L_{k+1} - L_k``, a few ``eps L``.
ROUNDOFF_FACTOR = 16.0


def calibrate_tol_disc(params: SimParams, initial: State) -> float:
    """Allowance ``K eps L_0 / dt_0`` of the per-step dissipation check.

    ``budget_check_series`` takes the bound at the step's end, where
    backward Euler's energy inequality leaves the diffusion no truncation
    term to allow for.  So the allowance is only the roundoff floor of the
    secant of ``L``: ``K`` (``ROUNDOFF_FACTOR``) times ``eps L / dt``, with
    ``L_0`` the Lyapunov value of ``initial`` (an upper bound of ``L_k`` on
    a certified run) and ``dt_0 = cfl_dt(initial)`` the run's floor step.
    Closed form: no run is made.  Returns 0.0 when the smallness condition
    fails, as there is no certificate to check.
    """
    cfg = make_lyapunov_config(params.sensitivity.C_S, poincare_constant(params.grid))
    if not isinstance(cfg, LyapunovConfig):
        return 0.0
    eps = float(np.finfo(np.float64).eps)
    return ROUNDOFF_FACTOR * eps * lyapunov(initial, cfg) / cfl_dt(initial, params)


# ---------------------------------------------------------------------------
# epsilon ladder
# ---------------------------------------------------------------------------


@dataclass
class LadderReport:
    eps_list: list
    distances: list  # successive-pair dicts with n/c/u/total L2 distances
    monotone: bool
    inversions: int
    failures: list


def epsilon_ladder(base: SimParams, initial: State, eps_list) -> LadderReport:
    """Run identical initial data across a decreasing ladder of eps values.

    Reports successive-pair L2 distances of the final states; the expected
    trend is Cauchy-like (nonincreasing within 10%, one inversion allowed).
    Only final states are read, so each run records only its first and last
    diagnostics rows (``diagnostics_every = ENDS_ONLY``); the per-step
    invariant checks of ``run`` still apply to every step.
    """
    eps_list = list(eps_list)
    if any(not (0 < e <= 1) for e in eps_list):
        raise ValueError("ladder eps values must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    finals = {}
    failures = []
    for eps in eps_list:
        p = dataclasses.replace(
            base,
            regularization=RegularizationParams(eps=eps),
            fluid=FluidParams(
                kappa=base.fluid.kappa, eps=eps, phi=base.fluid.phi
            ),
            diagnostics_every=ENDS_ONLY,
        )
        traj = run(p, initial)
        if not traj.completed:
            failures.append((eps, traj.error))
            continue
        finals[eps] = traj.final_state()

    distances = []
    pairs = [
        (a, b) for a, b in zip(eps_list, eps_list[1:]) if a in finals and b in finals
    ]
    vol = base.grid.volume_element
    for a, b in pairs:
        sa, sb = finals[a], finals[b]
        dn = np.sqrt(float(((sa.n.data - sb.n.data) ** 2).sum()) * vol)
        dc = np.sqrt(float(((sa.c.data - sb.c.data) ** 2).sum()) * vol)
        du2 = 0.0
        for ca, cb in zip(sa.u.components, sb.u.components):
            du2 += float(((ca - cb) ** 2).sum())
        du = np.sqrt(du2 * vol)
        distances.append(
            {"pair": (a, b), "n": dn, "c": dc, "u": du, "total": dn + dc + du}
        )

    totals = [d["total"] for d in distances]
    inversions = sum(1 for x, y in zip(totals, totals[1:]) if y > 1.1 * x)
    return LadderReport(
        eps_list=eps_list,
        distances=distances,
        monotone=(inversions == 0),
        inversions=inversions,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Manufactured-solution convergence
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    case: str
    resolutions: list
    errors: list
    pair_orders: list
    lsq_order: float
    monotone: bool
    note: str = ""


def mms_convergence(case: MmsCase, resolutions) -> ConvergenceReport:
    """Observed order of accuracy from a ladder of grid resolutions.

    Only the final states are read, so each run records only its first and
    last diagnostics rows (``diagnostics_every = ENDS_ONLY``); the per-step
    invariant checks of ``run`` still apply to every step.
    """
    resolutions = list(resolutions)
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions for an order estimate")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError(f"resolutions must strictly increase, got {resolutions}")
    errors = []
    for N in resolutions:
        params = dataclasses.replace(case.make_params(N), diagnostics_every=ENDS_ONLY)
        initial = case.initial_state(params.grid)
        traj = run(params, initial)
        if not traj.completed:
            raise RuntimeError(f"MMS run at N={N} aborted: {traj.error}")
        errors.append(mms_error(case, traj.final_state()))
    if max(errors) <= 1e-12:
        return ConvergenceReport(
            case=case.name,
            resolutions=resolutions,
            errors=errors,
            pair_orders=[],
            lsq_order=float("nan"),
            monotone=True,
            note="errors at roundoff; order undefined",
        )
    pair_orders = [
        float(np.log2(e0 / e1)) for e0, e1 in zip(errors, errors[1:])
    ]
    # least-squares slope of log(error) against log(h), in closed form
    hs = np.log([1.0 / N for N in resolutions])
    es = np.log(errors)
    hs -= hs.mean()
    lsq_order = float((hs * (es - es.mean())).sum() / (hs * hs).sum())
    monotone = all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))
    return ConvergenceReport(
        case=case.name,
        resolutions=resolutions,
        errors=errors,
        pair_orders=pair_orders,
        lsq_order=lsq_order,
        monotone=monotone,
        note="" if monotone else "errors not monotone under refinement",
    )


def mms_passed(case: MmsCase, conv: ConvergenceReport) -> bool:
    """Whether ``conv`` meets ``case.expected_order``: the least-squares order
    inside the band ``(lo, hi)`` (``hi = None`` leaves it open above), or, for
    a case that expects no order, every error at roundoff (at most 1e-12)."""
    if case.expected_order is None:
        return max(conv.errors) <= 1e-12
    lo, hi = case.expected_order
    return conv.lsq_order >= lo and (hi is None or conv.lsq_order <= hi)


# ---------------------------------------------------------------------------
# Energy-identity probe (fixed-dt stepping for the dt-refinement study)
# ---------------------------------------------------------------------------


def energy_residual_probe(
    params: SimParams, initial: State, dt: float, steps: int = 20
) -> float:
    """Mean per-step kinetic-energy identity residual at a fixed dt."""
    solver = PoissonSolver(params.grid)
    state = State(
        t=0.0,
        n=initial.n.copy(),
        c=initial.c.copy(),
        u=helmholtz_project(initial.u, solver),
        P=ScalarField.zeros(params.grid),
    )
    cutoff = WallCutoff(params.grid, params.regularization)
    total = 0.0
    for _ in range(steps):
        nxt, _ = advance(state, params, dt, solver, cutoff)
        total += energy_identity_residual(state.u, nxt.u, nxt.n, params.fluid, dt)
        state = nxt
    return total / steps


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


# Each suite takes ``(cells, seed, shared)``.  ``shared`` lives for one
# ``run_suite`` call and holds the trajectories more than one suite reads.


def _shared_run(shared: dict, lib: dict, name: str, seed: int) -> VerdictReport:
    """A fresh verdict on ``lib[name]``; its run happens once per ``shared``."""
    traj = shared.get(name)
    if traj is None:
        traj = shared[name] = run(*lib[name].build(seed))
    return _verdict(lib[name], traj)


def _suite_conservation(cells, seed, shared):
    sc = scenario_library(cells)["bump_n"]
    build = functools.partial(sc.build, T=1e9, max_steps=10_000)
    return [run_scenario(dataclasses.replace(sc, build=build), seed=seed)]


def _suite_lyapunov(cells, seed, shared):
    lib = scenario_library(cells)
    report = _shared_run(shared, lib, "random_perturbation", seed)
    traj = report.trajectory
    cfg = traj.lyapunov_config
    if isinstance(cfg, LyapunovConfig):
        tol_disc = calibrate_tol_disc(traj.params, lib["random_perturbation"].initial(seed))
        frac, total, worst = budget_check_series(traj.series, cfg, tol_disc)
        ok = frac == 1.0
        report.results.append(
            AssertionResult(
                "dissipation_budget",
                "pass" if ok else "fail",
                f"{100 * frac:.3f}% of {total} steps within bound "
                f"(worst gap {worst:.3e}, tol_disc {tol_disc:.3e})",
            )
        )
    else:
        report.results.append(
            AssertionResult("dissipation_budget", "skip", "infeasible-by-design", cfg.reason)
        )
    infeasible = run_scenario(
        Scenario(
            "infeasible_by_design",
            "C_S at the feasibility boundary: certificate must be skipped",
            lambda s: _infeasible_build(cells, s),
            [("lyapunov_monotone", _assert_lyapunov_monotone), ("completed", _assert_positive)],
        ),
        seed=seed,
    )
    return [report, infeasible]


def _infeasible_build(cells, seed):
    grid = make_grid(len(cells), (1.0,) * len(cells), cells)
    # the boundary of the smallness condition C_S < 2 sqrt(lambda_1) = 2/sqrt(C_N)
    params = _base_params(grid, C_S=2.0 / float(np.sqrt(poincare_constant(grid))), T=0.02)
    n0 = ScalarField(grid, 1.0 + random_smooth_field(grid, NormalStream(seed), 0.2).data)
    return params, State(
        t=0.0, n=n0, c=ScalarField.full(grid, 1.0), u=VectorField.zeros(grid), P=ScalarField.zeros(grid)
    )


def _suite_stabilization(cells, seed, shared):
    lib = scenario_library(cells)
    report = _shared_run(shared, lib, "random_perturbation", seed)
    traj = report.trajectory
    s = traj.series
    cfg = traj.lyapunov_config
    t0 = transient_end_time(s)
    results = report.results
    if t0 is None:
        results.append(AssertionResult("decay_fit", "fail", "no transient end: series never halved"))
    else:
        sumdev = s.l2_n_dev + s.l2_c_dev
        fit = fit_decay_rate(s.t, sumdev, window=(t0, float(s.t[-1])))
        if isinstance(cfg, LyapunovConfig):
            ok = fit.r_squared >= 0.99 and fit.rate >= 0.5 * cfg.kappa_pred
            results.append(
                AssertionResult(
                    "decay_rate_vs_predicted",
                    "pass" if ok else "fail",
                    f"rate {fit.rate:.4g} vs 0.5*kappa_pred {0.5 * cfg.kappa_pred:.4g}, r^2 {fit.r_squared:.5f}",
                )
            )
        for col, label in (("grad_c_l2", "grad_c_l2_decay"), ("grad_c_l4", "grad_c_l4_decay")):
            vals = s.column(col)
            mask = vals > 1e-280
            fitg = fit_decay_rate(s.t[mask], vals[mask], window=(t0, float(s.t[-1])))
            okg = fitg.rate > 0 and fitg.r_squared >= 0.98
            results.append(
                AssertionResult(
                    label, "pass" if okg else "fail",
                    f"rate {fitg.rate:.4g}, r^2 {fitg.r_squared:.5f}", f"column {col}",
                )
            )
        final = traj.final_state()
        dist = steady_state_distance(final)
        init_dist = steady_state_distance(traj.snapshots[0][1])
        ok = (
            dist.n_inf <= 0.01 * init_dist.n_inf
            and dist.c_inf <= 0.01 * init_dist.c_inf
            and dist.u_inf <= 0.01 * max(init_dist.u_inf, 1e-300)
        )
        results.append(
            AssertionResult(
                "steady_state_distance",
                "pass" if ok else "fail",
                f"final/initial: n {dist.n_inf / init_dist.n_inf:.2e}, "
                f"c {dist.c_inf / init_dist.c_inf:.2e}, u {dist.u_inf / max(init_dist.u_inf, 1e-300):.2e}",
            )
        )
    swirl_report = run_scenario(lib["swirl"], seed=seed)
    results.extend(swirl_report.results)
    return [report]


def _suite_ladder(cells, seed, shared):
    lib = scenario_library(cells)
    params, initial = lib["bump_n"].build(seed, T=0.1)
    ladder = epsilon_ladder(params, initial, [0.4, 0.2, 0.1, 0.05])
    ok = ladder.inversions <= 1 and not ladder.failures
    totals = ", ".join(f"{d['total']:.3e}" for d in ladder.distances)
    res = AssertionResult(
        "epsilon_ladder_cauchy",
        "pass" if ok else "fail",
        f"totals [{totals}], inversions {ladder.inversions}",
    )
    return [VerdictReport(scenario="epsilon_ladder", results=[res])]


def mms_resolutions(cells) -> list:
    """The MMS refinement ladder ``(N/4, N/2, N)`` for a square 2-D grid of
    ``N`` cells per side, N a multiple of 4 and at least 16; ``None`` for any
    other grid (the manufactured cases live on the unit square)."""
    cells = tuple(cells)
    if len(cells) != 2 or cells[0] != cells[1] or cells[0] % 4 or cells[0] < 16:
        return None
    N = cells[0]
    return [N // 4, N // 2, N]


def _suite_mms(cells, seed, shared):
    """Convergence orders on the ladder ``mms_resolutions(cells)``; the seed
    is unused (the manufactured cases are deterministic)."""
    resolutions = mms_resolutions(cells)
    reports = []
    for name, case in mms_cases().items():
        if resolutions is None:
            grid = "x".join(str(N) for N in cells)
            res = AssertionResult(
                "convergence_order",
                "skip",
                f"needs a square 2-D grid of N >= 16 cells per side, N a multiple of 4; got {grid}",
                "the manufactured cases live on the unit square",
            )
            reports.append(VerdictReport(scenario=f"mms_{name}", results=[res]))
            continue
        conv = mms_convergence(case, resolutions)
        ok = mms_passed(case, conv)
        if case.expected_order is None:
            measured = f"errors {[f'{e:.2e}' for e in conv.errors]} (roundoff expected)"
        else:
            measured = f"order {conv.lsq_order:.3f}, pairs {[f'{p:.2f}' for p in conv.pair_orders]}"
        reports.append(
            VerdictReport(
                scenario=f"mms_{name}",
                results=[AssertionResult("convergence_order", "pass" if ok else "fail", measured)],
            )
        )
    return reports


SUITES = {
    "conservation": _suite_conservation,
    "lyapunov": _suite_lyapunov,
    "stabilization": _suite_stabilization,
    "ladder": _suite_ladder,
    "mms": _suite_mms,
}


def run_suite(name: str, cells=(64, 64), seed: int = 0):
    """Reports of suite ``name``, or of every suite in turn for ``"all"``."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    names = list(SUITES) if name == "all" else [name]
    shared = {}
    return [rep for key in names for rep in SUITES[key](cells, seed, shared)]
