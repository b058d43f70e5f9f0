"""Conservative density and chemical updates."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps

from chemofluid.fluid import PoissonSolver, helmholtz_project
from chemofluid.grid import ScalarField, VectorField, integrate, make_grid
from chemofluid.sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    _face_drift_components,
)
from chemofluid.transport import (
    PositivityError,
    dissipation_integrals,
    step_c,
    step_n,
)

from conftest import random_vector

SPEC = SensitivitySpec(kind="scalar_saturating", C_S=0.5, alpha=1.0)
REG = RegularizationParams(eps=0.1)


def small_dt(grid, sigma=0.4):
    return sigma * min(grid.spacing) ** 2 / (2 * grid.dim)


class TestStepN:
    def test_constant_fixed_point(self, grid2d):
        n = ScalarField.full(grid2d, 2.0)
        c = ScalarField.full(grid2d, 1.0)
        u = VectorField.zeros(grid2d)
        out = step_n(n, c, u, SPEC, REG, small_dt(grid2d))
        assert np.array_equal(out.data, n.data)

    def test_mass_conserved_with_flow(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng, scale=0.5), solver)
        n = ScalarField(grid2d, rng.uniform(0.1, 2.0, grid2d.shape))
        c = ScalarField(grid2d, rng.uniform(0.0, 2.0, grid2d.shape))
        dt = 0.2 * small_dt(grid2d)
        out = step_n(n, c, u, SPEC, REG, dt)
        assert abs(integrate(out) - integrate(n)) <= 1e-12 * integrate(n)

    def test_consumes_the_drift_it_is_handed(self, grid2d, rng):
        """Handed the CFL's ``(flux, vmax)``, ``step_n`` gives the same bits
        as computing the flux itself, and empties the flux list."""
        solver = PoissonSolver(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng, scale=0.5), solver)
        n = ScalarField(grid2d, rng.uniform(0.1, 2.0, grid2d.shape))
        c = ScalarField(grid2d, rng.uniform(0.0, 2.0, grid2d.shape))
        dt = 0.2 * small_dt(grid2d)
        drift = _face_drift_components(n, c, SPEC, REG)
        handed = step_n(n, c, u, SPEC, REG, dt, drift=drift)
        assert drift[0] == []
        assert np.array_equal(handed.data, step_n(n, c, u, SPEC, REG, dt).data)

    def test_negative_input_rejected(self, grid2d):
        n = ScalarField.full(grid2d, -0.5)
        c = ScalarField.full(grid2d, 1.0)
        with pytest.raises(PositivityError):
            step_n(n, c, VectorField.zeros(grid2d), SPEC, REG, small_dt(grid2d))

    def test_unconditionally_stable_diffusion(self, grid2d, rng):
        # backward Euler at dt = 1, 4096x the old explicit limit, on 0/1 data:
        # positive, mass exact, maximum principle
        n = ScalarField(grid2d, np.where(rng.uniform(size=grid2d.shape) > 0.5, 1.0, 0.0))
        c = ScalarField.full(grid2d, 1.0)
        mass0 = integrate(n)
        solver = PoissonSolver(grid2d)
        for _ in range(5):
            out = step_n(n, c, VectorField.zeros(grid2d), SPEC, REG, 1.0, solver=solver)
            assert out.data.min() > 0.0
            assert abs(integrate(out) - mass0) <= 1e-14 * mass0
            assert out.data.max() <= n.data.max()
            n = out

    def test_positivity_under_cfl(self, grid2d, rng):
        # sharp data, many random trials: no undershoot beyond the slack
        for trial in range(5):
            rng2 = np.random.default_rng(100 + trial)
            data = np.where(rng2.uniform(size=grid2d.shape) > 0.5, 1.0, 0.0)
            n = ScalarField(grid2d, data)
            c = ScalarField(grid2d, rng2.uniform(0, 1, grid2d.shape))
            solver = PoissonSolver(grid2d)
            u = helmholtz_project(random_vector(grid2d, rng2, scale=1.0), solver)
            from chemofluid.stepper import SimParams, State, cfl_dt
            from chemofluid.fluid import FluidParams

            params = SimParams(
                grid=grid2d,
                sensitivity=SPEC,
                regularization=REG,
                fluid=FluidParams(kappa=0.0, eps=0.1, phi=None),
                T=1.0,
            )
            state = State(t=0.0, n=n, c=c, u=u, P=ScalarField.zeros(grid2d))
            dt = cfl_dt(state, params)
            out = step_n(n, c, u, SPEC, REG, dt)
            assert out.data.min() >= -1e-12 * max(out.data.max(), 1.0)

    def test_heat_kernel_oracle_roundoff(self):
        # oracle 1: dense backward-Euler propagator power on the same stencil,
        # at the old explicit step and far beyond it
        g = make_grid(2, (1.0, 0.25), (64, 4))

        def lap1d(N, h):
            main = -2.0 * np.ones(N)
            main[0] = main[-1] = -1.0
            off = np.ones(N - 1)
            return sps.diags([off, main, off], [-1, 0, 1]) / h**2

        L = (
            sps.kron(lap1d(64, g.spacing[0]), sps.eye(4))
            + sps.kron(sps.eye(64), lap1d(4, g.spacing[1]))
        ).toarray()
        n0 = ScalarField.from_function(
            g, lambda x, y: np.exp(-((x - 0.5) ** 2) / (2 * 0.1**2)) + 0 * y
        )
        zero_u = VectorField.zeros(g)
        c = ScalarField.zeros(g)
        solver = PoissonSolver(g)
        for dt in (small_dt(g), 100.0 * small_dt(g)):
            M = np.linalg.inv(np.eye(L.shape[0]) - dt * L)
            prop = np.linalg.matrix_power(M, 100)
            expected = (prop @ n0.data.reshape(-1)).reshape(g.shape)
            n = n0
            for _ in range(100):
                n = step_n(n, c, zero_u, SPEC, REG, dt, solver=solver)
            assert np.abs(n.data - expected).max() <= 1e-12

    def test_heat_kernel_matrix_exponential(self):
        # oracle 2: exact exponential of the stencil; tiny dt keeps the Euler
        # truncation under the tolerance
        g = make_grid(2, (1.0, 0.25), (64, 4))

        def lap1d(N, h):
            main = -2.0 * np.ones(N)
            main[0] = main[-1] = -1.0
            off = np.ones(N - 1)
            return sps.diags([off, main, off], [-1, 0, 1]) / h**2

        L = (
            sps.kron(lap1d(64, g.spacing[0]), sps.eye(4))
            + sps.kron(sps.eye(64), lap1d(4, g.spacing[1]))
        ).toarray()
        n0 = ScalarField.from_function(
            g, lambda x, y: 1.0 + np.exp(-((x - 0.5) ** 2) / (2 * 0.1**2)) + 0 * y
        )
        dt = 1e-5 * min(g.spacing) ** 2
        steps = 100
        expected = (
            scipy.linalg.expm(steps * dt * L) @ n0.data.reshape(-1)
        ).reshape(g.shape)
        n = n0
        zero_u = VectorField.zeros(g)
        c = ScalarField.zeros(g)
        for _ in range(steps):
            n = step_n(n, c, zero_u, SPEC, REG, dt)
        assert np.abs(n.data - expected).max() <= 1e-8


class TestStepC:
    def test_balanced_production(self, grid2d):
        c = ScalarField.full(grid2d, 1.5)
        n = ScalarField.full(grid2d, 1.5)
        out = step_c(c, n, VectorField.zeros(grid2d), small_dt(grid2d))
        assert np.array_equal(out.data, c.data)

    def test_pure_decay_geometric(self, grid2d):
        c0 = 2.0
        c = ScalarField.full(grid2d, c0)
        n = ScalarField.zeros(grid2d)
        dt = small_dt(grid2d)
        for k in range(20):
            c = step_c(c, n, VectorField.zeros(grid2d), dt)
        assert np.allclose(c.data, c0 * (1 - dt) ** 20, rtol=1e-13)

    def test_quasi_mass_bound_stepwise(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng, scale=0.5), solver)
        n = ScalarField(grid2d, rng.uniform(0, 2.0, grid2d.shape))
        c = ScalarField(grid2d, rng.uniform(0, 3.0, grid2d.shape))
        dt = 0.3 * small_dt(grid2d)
        mass_bound = max(integrate(n), integrate(c))
        for _ in range(50):
            c = step_c(c, n, u, dt)
            expected = None
            assert integrate(c) <= mass_bound + 1e-10 * mass_bound

    def test_exact_mass_recursion(self, grid2d, rng):
        # sum(c') = (1-dt) sum(c) + dt sum(n), a convex combination
        u = VectorField.zeros(grid2d)
        n = ScalarField(grid2d, rng.uniform(0, 2.0, grid2d.shape))
        c = ScalarField(grid2d, rng.uniform(0, 3.0, grid2d.shape))
        dt = small_dt(grid2d)
        out = step_c(c, n, u, dt)
        expected = (1 - dt) * integrate(c) + dt * integrate(n)
        assert abs(integrate(out) - expected) <= 1e-12 * max(expected, 1.0)

    def test_reaction_dt_guard(self, grid2d):
        c = ScalarField.full(grid2d, 1.0)
        n = ScalarField.zeros(grid2d)
        with pytest.raises(ValueError):
            step_c(c, n, VectorField.zeros(grid2d), 1.5)


class TestDissipation:
    def test_constants_give_zero(self, grid2d):
        n = ScalarField.full(grid2d, 1.0)
        c = ScalarField.full(grid2d, 2.0)
        rec = dissipation_integrals(n, c, VectorField.zeros(grid2d), alpha=1.0)
        assert rec.D_n == 0.0 and rec.D_c == 0.0 and rec.D_u == 0.0

    def test_alpha_one_weight_is_inert(self, grid2d, rng):
        n = ScalarField(grid2d, rng.uniform(0, 2, grid2d.shape))
        c = ScalarField.zeros(grid2d)
        u = VectorField.zeros(grid2d)
        rec = dissipation_integrals(n, c, u, alpha=1.0)
        # oracle: plain face sum of |grad n|^2
        from chemofluid.grid import gradient_cc

        G = gradient_cc(n)
        oracle = sum(float((comp**2).sum()) for comp in G.components) * grid2d.volume_element
        assert rec.D_n == pytest.approx(oracle, rel=1e-14)

    def test_linear_profile_face_sum(self):
        # c = x on the unit box: interior faces carry unit gradient; the
        # clamped wall faces shave exactly 1/N off the continuum value 1
        g = make_grid(2, (1.0, 1.0), (64, 64))
        c = ScalarField.from_function(g, lambda x, y: x + 0 * y)
        rec = dissipation_integrals(ScalarField.zeros(g), c, VectorField.zeros(g), 1.0)
        N = g.cells[0]
        oracle = 0.0  # independent per-face accumulation
        for i in range(N + 1):
            gval = 1.0 if 0 < i < N else 0.0
            oracle += gval * gval * N  # N faces along y at this x-index
        oracle *= g.volume_element
        assert rec.D_c == pytest.approx(oracle, rel=1e-14)
        assert abs(rec.D_c - 1.0) <= 2.0 / N

    def test_all_nonnegative(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng), solver)
        n = ScalarField(grid2d, rng.uniform(0, 2, grid2d.shape))
        c = ScalarField(grid2d, rng.uniform(0, 2, grid2d.shape))
        rec = dissipation_integrals(n, c, u, alpha=2.0)
        assert rec.D_n >= 0 and rec.D_c >= 0 and rec.D_u >= 0
