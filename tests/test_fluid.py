"""Projection, Yosida smoothing, and the momentum substep."""

import numpy as np
import pytest

from chemofluid.fluid import (
    FluidParams,
    PoissonSolver,
    SolverFailure,
    convection_upwind,
    diffusion_resolvent,
    dirichlet_energy,
    divergence_max,
    energy_identity_residual,
    helmholtz_project,
    laplacian_noslip,
    ns_substep,
    project_with_potential,
    yosida_apply,
)
from chemofluid.grid import (
    ScalarField,
    VectorField,
    face_component_at_faces,
    gradient_cc,
    laplacian_neumann,
    make_grid,
    vector_inner,
    vector_l2_sq,
)

from chemofluid.verify import random_smooth_field, swirl_velocity

from conftest import random_scalar, random_vector


def dirichlet_mode(grid, kx, my, component=0):
    """Exact eigenvector of the no-slip componentwise stencil (sine modes)."""
    N0, N1 = grid.cells
    v = np.zeros(grid.face_shape(component))
    if component == 0:
        xf = grid.face_coords(0)[1:-1]
        yc = grid.cell_coords(1)
        v[1:-1, :] = np.sin(kx * np.pi * xf / grid.extents[0])[:, None] * np.sin(
            my * np.pi * yc / grid.extents[1]
        )[None, :]
    lam = (4.0 / grid.spacing[0] ** 2) * np.sin(kx * np.pi / (2 * N0)) ** 2 + (
        4.0 / grid.spacing[1] ** 2
    ) * np.sin(my * np.pi / (2 * N1)) ** 2
    return VectorField(grid, [v, np.zeros(grid.face_shape(1))]), lam


class TestPoissonSolver:
    def test_residual_contract_and_gauge(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        b = rng.standard_normal(grid2d.shape)
        q = solver.solve(b)
        lap_q = laplacian_neumann(ScalarField(grid2d, q)).data
        resid = np.sqrt((((lap_q - (b - b.mean()))) ** 2).sum())
        assert resid <= solver.tol * np.sqrt(((b - b.mean()) ** 2).sum())
        assert abs(q.mean()) <= 1e-13 * np.abs(q).max()

    @pytest.mark.parametrize(
        "dim, cells",
        [(2, (64, 64)), (2, (256, 256)), (3, (16, 16, 16))],
        ids=["64x64", "256x256", "16x16x16"],
    )
    def test_direct_solve_residual_contract(self, dim, cells, rng):
        grid = make_grid(dim, (1.0,) * dim, cells)
        solver = PoissonSolver(grid)
        b = rng.standard_normal(grid.shape)
        q = solver.solve(b)
        rhs = b - b.mean()
        resid = np.sqrt(((laplacian_neumann(ScalarField(grid, q)).data - rhs) ** 2).sum())
        rel = resid / np.sqrt((rhs**2).sum())
        assert rel <= 1e-13
        assert solver.last_residual == pytest.approx(rel, rel=1e-6, abs=1e-16)
        assert solver.last_iterations == 0
        assert abs(q.mean()) <= 1e-13 * np.abs(q).max()

    def test_nonfinite_rhs_raises(self, grid2d_small, rng):
        solver = PoissonSolver(grid2d_small)
        solver.solve(rng.standard_normal(grid2d_small.shape))
        b = rng.standard_normal(grid2d_small.shape)
        b[3, 5] = np.nan
        with pytest.raises(SolverFailure) as exc:
            solver.solve(b)
        assert np.isnan(exc.value.residual)
        assert np.isnan(solver.last_residual)

    def test_roundoff_floor_admits_smooth_projection_at_1024(self):
        # the residual of a smooth right-hand side sits just under half of
        # eps * lambda_max * ||q|| at every size; without the floor this
        # projection fails its absolute divergence target at 1024^2
        grid = make_grid(2, (1.0, 1.0), (1024, 1024))
        f = random_smooth_field(grid, np.random.default_rng(1), 1.0)
        pairs = zip(gradient_cc(f).components, swirl_velocity(grid, 0.1).components)
        w = VectorField(grid, [a + b for a, b in pairs])
        solver = PoissonSolver(grid)
        u, _, rel = project_with_potential(w, solver)
        assert rel <= 1e-10
        assert divergence_max(u) <= 1e-8 * np.sqrt(vector_l2_sq(w))

    @pytest.mark.parametrize("n", [64, 1024])
    def test_wrong_eigenvalue_fails_certificate(self, n):
        # the floor must stay far below the residual of a real solver defect
        grid = make_grid(2, (1.0, 1.0), (n, n))
        solver = PoissonSolver(grid)
        solver._inv_eigs[1, 1] *= 1.01
        b = random_smooth_field(grid, np.random.default_rng(2), 1.0).data
        with pytest.raises(SolverFailure):
            solver.solve(b)


class TestProjection:
    def test_pure_gradients_project_to_zero(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        f = random_scalar(grid2d, rng)
        w = gradient_cc(f)
        out = helmholtz_project(w, solver)
        assert np.sqrt(vector_l2_sq(out)) <= 1e-8 * np.sqrt(vector_l2_sq(w))

    @pytest.mark.parametrize("cells", [(32, 32), (12, 10, 8)])
    def test_subtracts_the_gradient_of_its_potential_bitwise(self, cells, rng):
        # the projection reuses the certificate's gradient: it must be
        # exactly gradient_cc of the potential it returns
        g = make_grid(len(cells), (1.0,) * len(cells), cells)
        w = random_vector(g, rng)
        solver = PoissonSolver(g)
        out, q, _ = project_with_potential(w, solver)
        for wc, gc, oc in zip(w.components, gradient_cc(q).components, out.components):
            assert (wc - gc).tobytes() == oc.tobytes()
        assert solver._handoff is None  # nothing of the solve stays on the solver

    def test_divergence_free_fixed(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        w = helmholtz_project(random_vector(grid2d, rng), solver)
        out = helmholtz_project(w, solver)
        diff = max(np.abs(a - b).max() for a, b in zip(w.components, out.components))
        assert diff <= 1e-9 * np.sqrt(vector_l2_sq(w))

    def test_divergence_contract(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        w = random_vector(grid2d, rng)
        out = helmholtz_project(w, solver)
        assert divergence_max(out) <= 1e-9 * np.sqrt(vector_l2_sq(w))

    def test_orthogonality(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        w = random_vector(grid2d, rng)
        Pw = helmholtz_project(w, solver)
        resid = VectorField(
            grid2d, [a - b for a, b in zip(w.components, Pw.components)]
        )
        assert abs(vector_inner(Pw, resid)) <= 1e-9 * vector_l2_sq(w)


class TestYosida:
    def test_eps_zero_identity(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng), solver)
        out = yosida_apply(u, 0.0, solver)
        assert out is u

    def test_monotone_eps_ladder(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng), solver)
        norms = []
        for eps in (0.0, 0.01, 0.05, 0.2, 0.5, 1.0):
            norms.append(np.sqrt(vector_l2_sq(yosida_apply(u, eps, solver))))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-10

    def test_nonexpansive(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng), solver)
        out = yosida_apply(u, 0.3, solver)
        assert np.sqrt(vector_l2_sq(out)) <= np.sqrt(vector_l2_sq(u)) + 1e-9

    def test_resolvent_on_dirichlet_eigenmode(self, grid2d):
        # derived: explicit eigenvalue of the no-slip stencil
        v, lam = dirichlet_mode(grid2d, kx=2, my=3)
        eps = 0.07
        out = diffusion_resolvent(v, eps)
        expected = v.components[0] / (1.0 + eps * lam)
        err = np.abs(out.components[0] - expected).max()
        assert err <= 1e-12 * np.abs(expected).max()

    def test_full_yosida_on_eigenmode(self, grid2d):
        # Y_eps v = P v / (1 + eps*lam): exact through both linear stages
        solver = PoissonSolver(grid2d)
        v, lam = dirichlet_mode(grid2d, kx=1, my=2)
        eps = 0.1
        Y = yosida_apply(v, eps, solver)
        Pv = helmholtz_project(v, solver)
        scale = np.abs(v.components[0]).max()
        for a, b in zip(Y.components, Pv.components):
            assert np.abs(a - b / (1.0 + eps * lam)).max() <= 1e-6 * scale


class TestNoSlipOperators:
    def test_laplacian_eigenmode(self, grid2d):
        v, lam = dirichlet_mode(grid2d, kx=3, my=1)
        lap = laplacian_noslip(v)
        err = np.abs(lap.components[0] + lam * v.components[0]).max()
        assert err <= 1e-9 * lam

    def test_dirichlet_energy_positive(self, grid2d, rng):
        u = random_vector(grid2d, rng)
        assert dirichlet_energy(u) > 0

    def test_convection_skew_symmetry_proxy(self):
        # |<(Yu . grad)u, u>| stays small relative to h ||u||^2-type scales
        # and does not grow under refinement
        from chemofluid.verify import swirl_velocity

        ratios = []
        for N in (16, 32, 64):
            g = make_grid(2, (1.0, 1.0), (N, N))
            solver = PoissonSolver(g)
            u = helmholtz_project(swirl_velocity(g, 1.0), solver)
            conv = convection_upwind(u, u)
            num = abs(vector_inner(conv, u))
            h = min(g.spacing)
            den = h * vector_l2_sq(u) * np.sqrt(dirichlet_energy(u))
            ratios.append(num / den)
        assert max(ratios) <= 10.0
        assert ratios[-1] <= 2.0 * ratios[0] + 1e-12


def _odd_ghosts(arr, axis):
    """``arr`` with one ghost layer per side along ``axis``, the negated wall slice."""
    a = np.moveaxis(arr, axis, 0)
    return np.moveaxis(np.concatenate([-a[:1], a, -a[-1:]]), 0, axis)


def _along(axis, dim, index):
    sl = [slice(None)] * dim
    sl[axis] = index
    return tuple(sl)


def _stencil(axis, dim):
    """Index tuples of a 3-point stencil's centre, upper and lower neighbours."""
    return tuple(_along(axis, dim, i) for i in (slice(1, -1), slice(2, None), slice(None, -2)))


class TestKernelsBitEqualToGhosts:
    """The in-place no-slip kernels reproduce the plain ghost-padded expressions bit for bit."""

    CASES = [((1.0, 0.7), (16, 12)), ((1.0, 0.7, 0.9), (8, 6, 5))]

    @staticmethod
    def _fields(extents, cells, rng):
        g = make_grid(len(cells), extents, cells)
        return g, random_vector(g, rng), random_vector(g, rng)

    @pytest.mark.parametrize("extents, cells", CASES)
    def test_laplacian_noslip(self, extents, cells, rng):
        g, U, _ = self._fields(extents, cells, rng)
        got = laplacian_noslip(U)
        for d, arr in enumerate(U.components):
            ref = np.zeros_like(arr)
            for e in range(g.dim):
                mid, hi2, lo2 = _stencil(e, g.dim)
                src, dst = (arr, mid) if e == d else (_odd_ghosts(arr, e), ...)
                ref[dst] += (src[hi2] - 2.0 * src[mid] + src[lo2]) / g.spacing[e] ** 2
            ref[_along(d, g.dim, 0)] = ref[_along(d, g.dim, -1)] = 0.0
            assert got.components[d].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("extents, cells", CASES)
    def test_convection_upwind(self, extents, cells, rng):
        g, A, U = self._fields(extents, cells, rng)
        got = convection_upwind(A, U)
        for d, arr in enumerate(U.components):
            ref = np.zeros_like(arr)
            for e in range(g.dim):
                a_e = face_component_at_faces(A.components[e], g, e, d)
                if e == d:
                    bwd, fwd = np.zeros_like(arr), np.zeros_like(arr)
                    diff = np.diff(arr, axis=e) / g.spacing[e]
                    bwd[_along(e, g.dim, slice(1, None))] = diff
                    fwd[_along(e, g.dim, slice(None, -1))] = diff
                else:
                    pad = _odd_ghosts(arr, e)
                    mid, hi2, lo2 = _stencil(e, g.dim)
                    bwd = (pad[mid] - pad[lo2]) / g.spacing[e]
                    fwd = (pad[hi2] - pad[mid]) / g.spacing[e]
                ref += a_e * np.where(a_e > 0.0, bwd, fwd)
            ref[_along(d, g.dim, 0)] = ref[_along(d, g.dim, -1)] = 0.0
            assert got.components[d].tobytes() == ref.tobytes()


class TestNsSubstep:
    def _solver_params(self, grid, phi_fn=None, kappa=0.0, eps=0.1):
        phi = ScalarField.from_function(grid, phi_fn) if phi_fn else None
        return PoissonSolver(grid), FluidParams(kappa=kappa, eps=eps, phi=phi)

    def test_zero_state_stays_zero(self, grid2d):
        solver, params = self._solver_params(grid2d)
        u = VectorField.zeros(grid2d)
        n = ScalarField.zeros(grid2d)
        u1, P, _ = ns_substep(u, n, params, 1e-5, solver)
        assert u1.max_abs() == 0.0
        assert np.abs(P.data).max() == 0.0

    def test_constant_density_linear_potential_inert(self, grid2d):
        # gradient forcing from a constant density projects away
        solver, params = self._solver_params(grid2d, phi_fn=lambda x, y: 0.3 * x + 0.1 * y)
        u = VectorField.zeros(grid2d)
        n = ScalarField.full(grid2d, 2.0)
        dt = 1e-5
        u1, _, _ = ns_substep(u, n, params, dt, solver)
        assert u1.max_abs() <= 1e-13

    def test_no_slip_preserved(self, grid2d, rng):
        solver, params = self._solver_params(
            grid2d, phi_fn=lambda x, y: 0.1 * x, kappa=1.0
        )
        u = helmholtz_project(random_vector(grid2d, rng, scale=0.1), solver)
        n = ScalarField(grid2d, rng.uniform(0.5, 1.5, grid2d.shape))
        dt = 0.2 * min(grid2d.spacing) ** 2 / 4
        u1, _, _ = ns_substep(u, n, params, dt, solver)
        assert u1.wall_normal_max() == 0.0
        assert divergence_max(u1) <= 1e-9 * (1 + u1.max_abs()) / min(grid2d.spacing)

    def test_divergent_input_rejected(self, grid2d, rng):
        solver, params = self._solver_params(grid2d)
        w = random_vector(grid2d, rng)  # not projected
        with pytest.raises(ValueError):
            ns_substep(w, ScalarField.zeros(grid2d), params, 1e-5, solver)

    def test_cfl_guard(self, grid2d):
        solver, params = self._solver_params(grid2d)
        with pytest.raises(ValueError):
            ns_substep(
                VectorField.zeros(grid2d), ScalarField.zeros(grid2d), params, 1.0, solver
            )

    def test_stokes_limit_bitwise_eps_independent(self, grid2d, rng):
        # kappa = 0 bypasses convection entirely
        solver1, params1 = self._solver_params(grid2d, kappa=0.0, eps=0.05)
        solver2, params2 = self._solver_params(grid2d, kappa=0.0, eps=0.9)
        u = helmholtz_project(random_vector(grid2d, rng, scale=0.1), solver1)
        n = ScalarField.full(grid2d, 1.0)
        dt = 1e-5
        a, _, _ = ns_substep(u, n, params1, dt, PoissonSolver(grid2d))
        b, _, _ = ns_substep(u, n, params2, dt, PoissonSolver(grid2d))
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca, cb)


class TestEnergyIdentity:
    def test_zero_states(self, grid2d):
        params = FluidParams(kappa=0.0, eps=0.0, phi=None)
        z = VectorField.zeros(grid2d)
        n = ScalarField.zeros(grid2d)
        assert energy_identity_residual(z, z, n, params, 1e-4) == 0.0

    def test_constant_density_forcing_term_vanishes(self, grid2d, rng):
        # (n - nbar) = 0 makes the forcing contribution exactly zero
        phi = ScalarField.from_function(grid2d, lambda x, y: 0.2 * x + 0.1 * y)
        with_phi = FluidParams(kappa=0.0, eps=0.0, phi=phi)
        without = FluidParams(kappa=0.0, eps=0.0, phi=None)
        solver = PoissonSolver(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng, scale=0.1), solver)
        n = ScalarField.full(grid2d, 1.7)
        dt = 1e-5
        u1, _, _ = ns_substep(u, n, with_phi, dt, solver)
        r_with = energy_identity_residual(u, u1, n, with_phi, dt)
        r_without = energy_identity_residual(u, u1, n, without, dt)
        assert r_with == pytest.approx(r_without, abs=1e-14)

    def test_residual_halves_with_dt(self):
        # derived: dt-refinement study on a decaying swirl
        from chemofluid.sensitivity import RegularizationParams, SensitivitySpec
        from chemofluid.stepper import SimParams, State
        from chemofluid.verify import energy_residual_probe, swirl_velocity

        g = make_grid(2, (1.0, 1.0), (32, 32))
        params = SimParams(
            grid=g,
            sensitivity=SensitivitySpec(kind="scalar_saturating", C_S=0.5),
            regularization=RegularizationParams(eps=0.1),
            fluid=FluidParams(kappa=0.0, eps=0.1, phi=None),
            T=1.0,
        )
        init = State(
            t=0.0,
            n=ScalarField.full(g, 1.0),
            c=ScalarField.full(g, 1.0),
            u=swirl_velocity(g, 0.1),
            P=ScalarField.zeros(g),
        )
        dt = 0.2 * min(g.spacing) ** 2 / 4
        r1 = energy_residual_probe(params, init, dt, steps=10)
        r2 = energy_residual_probe(params, init, dt / 2, steps=20)
        assert 1.5 <= r1 / r2 <= 2.5
