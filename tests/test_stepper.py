"""Coupled time integration: CFL, fixed points, determinism."""

import dataclasses

import numpy as np
import pytest

from chemofluid.diagnostics import CSV_COLUMNS, grad_c_norms
from chemofluid.fluid import DENSE_MAX, FluidParams, PoissonSolver, SolverFailure, helmholtz_project
from chemofluid.grid import ScalarField, VectorField, make_grid
from chemofluid.sensitivity import RegularizationParams, SensitivitySpec, WallCutoff
from chemofluid.stepper import (
    CEILING_FACTOR,
    STEP_BOUNDS,
    SimParams,
    State,
    advance,
    cfl_dt,
    run,
)
from chemofluid.transport import dissipation_integrals
from chemofluid.verify import (
    default_phi,
    random_smooth_field,
    scenario_library,
    swirl_velocity,
)


def make_params(grid, C_S=0.5, kappa=1.0, eps=0.1, T=0.01, **kw):
    return SimParams(
        grid=grid,
        sensitivity=SensitivitySpec(kind="scalar_saturating", C_S=C_S, alpha=1.0),
        regularization=RegularizationParams(eps=eps),
        fluid=FluidParams(kappa=kappa, eps=eps, phi=default_phi(grid)),
        T=T,
        **kw,
    )


class TestSimParams:
    @pytest.mark.parametrize(
        "other",
        [make_grid(2, (1.0, 1.0), (32, 32)), make_grid(2, (2.0, 1.0), (16, 16))],
        ids=["finer", "other_box"],
    )
    def test_phi_on_another_grid_rejected(self, other):
        # a finer phi used to fail at step 1 on a broadcast; one on another
        # box of the same cells ran with the wrong grad(phi)
        g = make_grid(2, (1.0, 1.0), (16, 16))
        params = make_params(g)
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(params, fluid=FluidParams(kappa=1.0, phi=default_phi(other)))
        assert repr(other) in str(exc.value) and repr(g) in str(exc.value)


class TestCfl:
    def test_quiescent_diffusion_limited(self):
        g = make_grid(2, (1.0, 1.0), (4, 4))
        params = make_params(g)
        state = State.homogeneous(g, 1.0)
        # h = 0.25, sigma = 0.4: the accuracy cap dt = 0.4 * 0.0625 / 2
        assert cfl_dt(state, params) == pytest.approx(0.0125, rel=1e-12)

    def test_diffusion_cap_independent_of_dimension(self):
        dts = [
            cfl_dt(State.homogeneous(g, 1.0), make_params(g))
            for g in (make_grid(2, (1.0, 1.0), (8, 8)), make_grid(3, (1.0, 1.0, 1.0), (8, 8, 8)))
        ]
        assert dts[0] == dts[1] == pytest.approx(0.4 * (1.0 / 8) ** 2 / 2, rel=1e-12)

    def test_fast_flow_shrinks_dt(self, grid2d):
        params = make_params(grid2d)
        state = State.homogeneous(grid2d, 1.0)
        base = cfl_dt(state, params)
        fast = dataclasses.replace(state, u=swirl_velocity(grid2d, 1e4))
        assert cfl_dt(fast, params) < base
        assert cfl_dt(fast, params) == pytest.approx(
            0.4 * min(grid2d.spacing) / fast.u.max_abs(), rel=1e-12
        )

    def test_refinement_quarters_dt(self):
        dts = []
        for N in (16, 32):
            g = make_grid(2, (1.0, 1.0), (N, N))
            dts.append(cfl_dt(State.homogeneous(g, 1.0), make_params(g)))
        assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-12)


class TestAdvance:
    def test_homogeneous_fixed_point(self, grid2d):
        params = make_params(grid2d)
        state = State.homogeneous(grid2d, 1.3)
        solver = PoissonSolver(grid2d)
        out, proj_residual = advance(state, params, cfl_dt(state, params), solver)
        # exact, although the cell mean of 1.3 rounds: the resolvent and the
        # buoyancy both anchor the mean at a cell value
        assert np.array_equal(out.n.data, state.n.data)
        assert np.array_equal(out.c.data, state.c.data)
        assert out.u.max_abs() == 0.0
        assert proj_residual == 0.0  # nothing to project: a zero right-hand side

    def test_zero_data_stays_zero(self, grid2d):
        params = make_params(grid2d)
        state = State.homogeneous(grid2d, 0.0)
        out, proj_residual = advance(state, params, 1e-5, PoissonSolver(grid2d))
        assert out.n.data.max() == 0.0 and out.u.max_abs() == 0.0
        assert proj_residual == 0.0


class TestRun:
    def test_t_smaller_than_dt_initial_record_only(self, grid2d):
        params = make_params(grid2d, T=1e-9)
        traj = run(params, State.homogeneous(grid2d, 1.0))
        assert traj.steps == 1  # single clipped step to land on T
        assert len(traj.series) >= 1
        assert traj.series.t[0] == 0.0

    @pytest.mark.parametrize("extra", [1e-13, 0.3, 0.999])
    def test_no_sliver_steps(self, grid2d, extra):
        """The last steps split a remainder under two steps evenly: no step is
        shorter than half the step before it, and the run lands on T."""
        state = State.homogeneous(grid2d, 1.0)
        dt0 = cfl_dt(state, make_params(grid2d))
        T = (7.0 + extra) * dt0
        traj = run(make_params(grid2d, T=T), state)
        assert traj.completed
        dts = traj.series.dt[1:]  # row 0 is the initial state
        # the controller doubles a step with no diffusion error: dt0 and 2 dt0,
        # then the (4 + extra) dt0 left is under two of the 4 dt0 proposed
        assert len(dts) == traj.steps == 4
        assert dts[:2].tolist() == [dt0, 2.0 * dt0]
        assert dts[2:] == pytest.approx([(2.0 + 0.5 * extra) * dt0] * 2, rel=1e-12)
        assert traj.steps_by_bound["remainder"] == 2
        assert np.all(dts[1:] >= 0.5 * dts[:-1])
        assert dts.min() >= 0.5 * dt0
        assert traj.series.t[-1] == pytest.approx(T, rel=1e-14)

    def test_steady_diagnostics_constant(self, grid2d):
        params = make_params(grid2d, T=0.003)
        traj = run(params, State.homogeneous(grid2d, 1.0))
        assert traj.completed
        for col in ("mass_n", "mass_c", "l2_n_dev", "lyapunov"):
            vals = traj.series.column(col)
            assert np.abs(vals - vals[0]).max() <= 1e-12 * max(abs(vals[0]), 1.0)

    def test_mass_constant_along_trajectory(self, grid2d, rng):
        params = make_params(grid2d, T=0.005)
        n0 = ScalarField(grid2d, 1.0 + random_smooth_field(grid2d, rng, 0.3).data)
        init = State(
            t=0.0,
            n=n0,
            c=ScalarField.full(grid2d, 1.0),
            u=swirl_velocity(grid2d, 0.2),
            P=ScalarField.zeros(grid2d),
        )
        traj = run(params, init)
        assert traj.completed
        drift = np.abs(traj.series.mass_n - traj.mass_n0).max()
        assert drift <= 1e-10 * abs(traj.mass_n0)

    def test_initial_velocity_projected_once(self, grid2d, rng):
        params = make_params(grid2d, T=2e-4)
        raw = VectorField(
            grid2d, [rng.standard_normal(grid2d.face_shape(d)) for d in range(2)]
        ).zero_wall_normal()  # deliberately non-solenoidal
        init = State(
            t=0.0,
            n=ScalarField.full(grid2d, 1.0),
            c=ScalarField.full(grid2d, 1.0),
            u=raw,
            P=ScalarField.zeros(grid2d),
        )
        traj = run(params, init)
        assert traj.completed

    def test_bitwise_determinism(self, grid2d, rng):
        def one_run():
            params = make_params(grid2d, T=0.002)
            r = np.random.default_rng(7)
            n0 = ScalarField(grid2d, 1.0 + random_smooth_field(grid2d, r, 0.3).data)
            init = State(
                t=0.0,
                n=n0,
                c=ScalarField.full(grid2d, 0.8),
                u=swirl_velocity(grid2d, 0.1),
                P=ScalarField.zeros(grid2d),
            )
            return run(params, init)

        a, b = one_run(), one_run()
        # the step controller sized these steps, and sized them alike
        assert a.steps_by_bound["controller"] > 0
        assert a.steps_by_bound == b.steps_by_bound
        for col in CSV_COLUMNS:
            assert np.array_equal(a.series.column(col), b.series.column(col)), col
        fa, fb = a.final_state(), b.final_state()
        assert np.array_equal(fa.n.data, fb.n.data)
        for ca, cb in zip(fa.u.components, fb.u.components):
            assert np.array_equal(ca, cb)

    def test_abort_reports_partial_trajectory(self, grid2d):
        # a poisoned forcing drives n negative; the run must stop and say so
        def bad_forcing(coords, t):
            return -1e6 * np.ones(grid2d.shape)

        params = make_params(grid2d, T=1.0)
        params = dataclasses.replace(params, forcing_n=bad_forcing)
        traj = run(params, State.homogeneous(grid2d, 1.0))
        assert traj.status == "aborted"
        assert traj.error
        assert len(traj.series) >= 1

    def test_solver_failure_names_its_step(self, grid2d):
        class FailingSolver(PoissonSolver):
            def solve(self, b, abs_target=None):
                raise SolverFailure("forced failure", float("nan"))

        # u0 = 0 skips the initial projection: the first solve is in step 1
        params = make_params(grid2d, T=1.0)
        traj = run(params, State.homogeneous(grid2d, 1.0), solver=FailingSolver(grid2d))
        assert traj.status == "aborted"
        assert traj.error.startswith("step 1: SolverFailure: forced failure")
        assert traj.steps == 0 and len(traj.series) == 1

    def test_step_guard_value_error_aborts_with_step(self, grid2d):
        def guarded_forcing(coords, t):
            if t > 0.0:
                raise ValueError("forcing guard tripped")
            return np.zeros(grid2d.shape)

        params = dataclasses.replace(make_params(grid2d, T=1.0), forcing_c=guarded_forcing)
        traj = run(params, State.homogeneous(grid2d, 1.0))
        assert traj.status == "aborted"
        assert traj.error == "step 2: ValueError: forcing guard tripped"
        assert traj.steps == 1 and len(traj.series) == 2


def stokes_scenario(cells, seed=1):
    """``random_perturbation`` in the Stokes regime from rest, as the
    stokes256 benchmark runs it: no initial projection, and one Poisson
    solve per step (the buoyant projection), so solve k is in step k."""
    params, initial = scenario_library(cells)["random_perturbation"].build(seed)
    fluid = FluidParams(kappa=0.0, eps=params.fluid.eps, phi=params.fluid.phi)
    params = dataclasses.replace(params, fluid=fluid)
    return params, dataclasses.replace(initial, u=VectorField.zeros(params.grid))


class FailsOnSolve(PoissonSolver):
    """A solver whose ``k``-th solve raises."""

    def __init__(self, grid, k):
        super().__init__(grid)
        self.k, self.calls = k, 0

    def solve(self, b, abs_target=None):
        self.calls += 1
        if self.calls == self.k:
            raise SolverFailure("forced failure", float("nan"))
        return super().solve(b, abs_target)


def fields_of(state):
    return [state.n.data, state.c.data, state.P.data, *state.u.components]


class TestOwnership:
    @pytest.mark.parametrize("k", [3, 5])
    def test_abort_in_the_fluid_step_keeps_the_last_state(self, k):
        """A failure in step k's projection comes after that step's n and c
        are computed; the run still ends with step k-1's state, bit for bit."""
        params, initial = stokes_scenario((32, 32))
        params = dataclasses.replace(params, T=1.0)
        traj = run(params, initial, solver=FailsOnSolve(params.grid, k))
        assert traj.status == "aborted"
        assert traj.error.startswith(f"step {k}: SolverFailure: forced failure")
        assert traj.steps == k - 1
        ref = run(dataclasses.replace(params, max_steps=k - 1), initial)
        assert ref.completed and ref.steps == k - 1
        final, expected = traj.final_state(), ref.final_state()
        assert final.t == expected.t
        for a, b in zip(fields_of(final), fields_of(expected)):
            assert np.array_equal(a, b)
        for col in CSV_COLUMNS:
            assert np.array_equal(traj.series.column(col), ref.series.column(col)), col

    @pytest.mark.parametrize("kind", ["controlled", "snapshots", "aborted"])
    @pytest.mark.parametrize("stokes", [True, False], ids=["stokes_at_rest", "swirl"])
    def test_run_never_writes_into_the_initial_fields(self, kind, stokes, rng):
        """``run`` uses the caller's arrays without copying: they come back
        unchanged, and ``snapshots[0]`` holds them."""
        if stokes:
            params, initial = stokes_scenario((16, 16))
        else:  # kappa > 0 and a swirl, projected once before the first step
            params, initial = scenario_library((16, 16))["random_perturbation"].build(1)
        # a nonzero pressure, so that a write into it would show
        initial = dataclasses.replace(
            initial, P=ScalarField(params.grid, rng.standard_normal(params.grid.shape))
        )
        before = [a.copy() for a in fields_of(initial)]
        solver = None
        if kind == "snapshots":
            params = dataclasses.replace(params, snapshot_every=2, max_steps=5)
        elif kind == "aborted":
            params = dataclasses.replace(params, T=1.0)
            solver = FailsOnSolve(params.grid, 6)
        else:
            params = dataclasses.replace(params, max_steps=5)
        traj = run(params, initial, solver)
        assert traj.status == ("aborted" if kind == "aborted" else "completed")
        assert traj.steps >= 2
        for a, b in zip(fields_of(initial), before):
            assert np.array_equal(a, b)
        first = traj.snapshots[0][1]
        assert first.n is initial.n and first.c is initial.c and first.P is initial.P
        assert (first.u is initial.u) == stokes  # a swirl is projected first

    def test_run_holds_no_copies_and_no_dead_fields(self):
        """The traced peak of a short buoyant Stokes run after a warm-up: the
        run takes the initial fields without copies, the Poisson solve drops
        the projection's divergence once it has its right-hand side, and the
        wall cutoff is held as 1-D profiles.  The peak, reached in the
        projection's certificate, is 9.07 face pairs, bounded here with one
        face of margin; with the cutoff as a face pair it was 10.0, and with
        three initial copies and the divergence alive 12.0."""
        import tracemalloc

        params, initial = stokes_scenario((64, 64))
        params = dataclasses.replace(params, max_steps=2)
        solver = PoissonSolver(params.grid)
        # a first run keeps one-time allocations out of the count
        run(params, initial, solver)
        tracemalloc.start()
        try:
            traj = run(params, initial, solver)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.completed
        assert peak <= 9.6 * (2 * 64 * 65 * 8)


class TestSharedDerivatives:
    def test_series_equal_to_unshared_stepping(self):
        """A recorded row's derivatives feed the next step without changing a
        bit.  The replay takes the run's own steps, ``series.dt``."""
        lib = scenario_library((32, 32))
        params, initial = lib["random_perturbation"].build(0)
        params = dataclasses.replace(params, max_steps=20)
        traj = run(params, initial)
        assert traj.completed and traj.steps == 20

        g = params.grid
        solver = PoissonSolver(g)
        cutoff = WallCutoff(g, params.regularization)
        state = dataclasses.replace(initial, u=helmholtz_project(initial.u, solver))
        rows = []
        proj_residual = 0.0  # row 0 records none
        for k in range(21):
            if k:
                state, proj_residual = advance(state, params, traj.series.dt[k], solver, cutoff)
            norms = grad_c_norms(state.c)
            diss = dissipation_integrals(state.n, state.c, state.u, params.sensitivity.alpha)
            rows.append(
                (state.t, norms.l2_sq, norms.l4_4, diss.D_n, diss.D_c, diss.D_u, proj_residual)
            )
        s = traj.series
        columns = ("t", "grad_c_l2", "grad_c_l4", "D_n", "D_c", "D_u", "proj_residual")
        for j, col in enumerate(columns):
            assert np.array_equal(s.column(col), [r[j] for r in rows]), col
        final = traj.final_state()
        assert np.array_equal(final.n.data, state.n.data)
        assert np.array_equal(final.c.data, state.c.data)
        for a, b in zip(final.u.components, state.u.components):
            assert np.array_equal(a, b)


    def test_max_deviation_columns_bit_equal_to_abs_oracle(self):
        lib = scenario_library((16, 16))
        params, initial = lib["random_perturbation"].build(3, T=0.005)
        traj = run(dataclasses.replace(params, snapshot_every=1), initial)
        assert traj.completed and len(traj.snapshots) == len(traj.series)
        states = [state for _, state in traj.snapshots]
        # the former expressions: the max of |deviation| over a full pass
        n_dev = [float(np.abs(st.n.data - traj.nbar0).max()) for st in states]
        c_dev = [float(np.abs(st.c.data - traj.nbar0).max()) for st in states]
        assert np.array_equal(traj.series.n_inf_dev, n_dev)
        assert np.array_equal(traj.series.c_inf_dev, c_dev)


class TestStepController:
    def test_steps_between_floor_and_ceiling(self):
        """Every step but the last two (which may split the remainder) lies
        in ``[cfl_dt, CEILING_FACTOR * sigma h^2/2]``, ``cfl_dt`` taken at the
        state the step starts from."""
        lib = scenario_library((32, 32))
        params, initial = lib["random_perturbation"].build(0, T=0.02)
        traj = run(params, initial)
        assert traj.completed
        dts = traj.series.dt[1:]
        ceiling = CEILING_FACTOR * params.cfl_sigma * (1.0 / 32) ** 2 / 2
        g = params.grid
        solver = PoissonSolver(g)
        cutoff = WallCutoff(g, params.regularization)
        state = dataclasses.replace(initial, u=helmholtz_project(initial.u, solver))
        for dt in dts[:-2]:
            assert cfl_dt(state, params) <= dt <= ceiling
            state, _ = advance(state, params, dt, solver, cutoff)
        bounds = traj.steps_by_bound
        assert list(bounds) == list(STEP_BOUNDS)
        assert sum(bounds.values()) == traj.steps == len(dts)
        assert bounds["floor"] >= 1 and bounds["controller"] >= 1 and bounds["ceiling"] >= 1
        assert bounds["remainder"] <= 2
        assert (traj.dt_min, traj.dt_max) == (dts.min(), dts.max())

    def test_homogeneous_state_reaches_the_ceiling(self, grid2d):
        """No diffusion error: each step doubles from the cap to the ceiling."""
        params = make_params(grid2d, T=1.0, max_steps=6)
        dt0 = cfl_dt(State.homogeneous(grid2d, 1.0), params)
        traj = run(params, State.homogeneous(grid2d, 1.0))
        assert traj.completed and traj.steps == 6
        assert CEILING_FACTOR == 4.0
        assert traj.series.dt[1:].tolist() == [dt0, 2 * dt0] + [4 * dt0] * 4
        assert traj.steps_by_bound["ceiling"] == 4

    def test_snapshot_run_is_fixed_cap_stepping(self):
        """``snapshot_every`` counts steps, so a run that records snapshots
        takes ``cfl_dt`` at every step, bit for bit."""
        lib = scenario_library((32, 32))
        params, initial = lib["random_perturbation"].build(0, T=0.01)
        params = dataclasses.replace(params, snapshot_every=5)
        traj = run(params, initial)
        assert traj.completed
        g = params.grid
        solver = PoissonSolver(g)
        cutoff = WallCutoff(g, params.regularization)
        state = dataclasses.replace(initial, u=helmholtz_project(initial.u, solver))
        dts = []
        while state.t < params.T - 1e-14:
            dt = cfl_dt(state, params)
            remaining = params.T - state.t
            dt = remaining if remaining <= dt else 0.5 * remaining if remaining < 2 * dt else dt
            state, _ = advance(state, params, dt, solver, cutoff)
            dts.append(dt)
        assert traj.series.dt[1:].tolist() == dts
        assert traj.steps_by_bound["controller"] == traj.steps_by_bound["ceiling"] == 0
        final = traj.final_state()
        assert np.array_equal(final.n.data, state.n.data)
        assert np.array_equal(final.c.data, state.c.data)
        for a, b in zip(final.u.components, state.u.components):
            assert np.array_equal(a, b)


class TestBackwardEuler:
    def test_first_order_in_time(self):
        """At 32^2 the final-state error halves when sigma halves.  The
        reference is the sigma/8 run extrapolated with the sigma/4 run,
        ``2 x(sigma/8) - x(sigma/4)``, which removes the reference's own O(dt)
        error: against the plain sigma/8 run a first-order error falls by
        (7/8)/(3/8) = 2.33 instead of 2."""
        lib = scenario_library((32, 32))

        def final(sigma):
            params, initial = lib["random_perturbation"].build(0, T=0.02)
            params = dataclasses.replace(params, cfl_sigma=sigma, diagnostics_every=10**6)
            traj = run(params, initial)
            assert traj.completed
            f = traj.final_state()
            return np.concatenate([f.n.data.ravel(), f.c.data.ravel()] + [
                comp.ravel() for comp in f.u.components
            ])

        x = {k: final(0.4 / k) for k in (1, 2, 4, 8)}
        ref = 2.0 * x[8] - x[4]
        errors = [float(np.abs(x[k] - ref).max()) for k in (1, 2)]
        assert 1.7 <= errors[0] / errors[1] <= 2.3

    @pytest.mark.parametrize("seed", [1, 3])
    def test_mass_exact_on_the_dense_side(self, seed):
        """At 64^2 every transform is a matrix product; the mean is summed
        from the data, so the mass of n stays within one rounding of the unit
        initial mass over about 250 steps.  Taken from the DC coefficient of the
        product instead, it drifts to 1.4e-14 (seed 1) and 8.9e-16 (seed 3)
        over 256 steps of the fixed cap, to T = 0.0125."""
        assert 64 <= DENSE_MAX
        params, initial = scenario_library((64, 64))["random_perturbation"].build(seed, T=0.048)
        traj = run(params, initial)
        assert traj.completed and traj.steps >= 200
        drift = float(np.abs(traj.series.mass_n - traj.mass_n0).max()) / traj.mass_n0
        assert drift <= np.finfo(np.float64).eps

    def test_random_perturbation_3d(self):
        lib = scenario_library((16, 16, 16))
        params, initial = lib["random_perturbation"].build(0, T=0.1)
        traj = run(params, initial)
        assert traj.completed, traj.error
        s = traj.series
        assert np.abs(s.mass_n - traj.mass_n0).max() <= 1e-14 * traj.mass_n0
        final = traj.final_state()
        assert final.n.data.min() > 0.0 and final.c.data.min() > 0.0
        L = s.lyapunov
        assert np.all(L[1:] <= L[:-1] + 1e-12 * L[0])
