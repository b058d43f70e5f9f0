"""Projection, Yosida smoothing, and the momentum substep."""

import dataclasses
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from chemofluid import fluid
from chemofluid.diagnostics import CSV_COLUMNS
from chemofluid.fluid import (
    DENSE_MAX,
    FluidParams,
    PoissonSolver,
    SolverFailure,
    convection_upwind,
    dense_basis,
    diffusion_resolvent,
    dirichlet_energy,
    divergence_max,
    energy_identity_residual,
    helmholtz_project,
    laplacian_noslip,
    ns_substep,
    project_with_potential,
    separable_eigenvalues,
    stencil_eigenvalues,
    yosida_apply,
)
from chemofluid.grid import (
    ScalarField,
    VectorField,
    cells_to_faces,
    divergence_fc,
    face_component_at_faces,
    gradient_cc,
    laplacian_neumann,
    make_grid,
    vector_inner,
    vector_l2_sq,
)

from chemofluid.stepper import run
from chemofluid.verify import random_smooth_field, scenario_library, swirl_velocity

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


def _same_attributes(solver, before):
    """Whether ``solver`` holds exactly the attribute objects of ``before``,
    a copy of its ``vars`` taken earlier."""
    return {k: id(v) for k, v in vars(solver).items()} == {k: id(v) for k, v in before.items()}


class TestPoissonSolver:
    def test_residual_contract_and_gauge(self, grid2d, rng):
        solver = PoissonSolver(grid2d)
        b = rng.standard_normal(grid2d.shape)
        q, _ = solver.solve(b)
        lap_q = laplacian_neumann(ScalarField(grid2d, q)).data
        resid = np.sqrt((((lap_q - (b - b.mean()))) ** 2).sum())
        assert resid <= fluid.SOLVE_TOL * np.sqrt(((b - b.mean()) ** 2).sum())
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
        q, residual = solver.solve(b)
        rhs = b - b.mean()
        resid = np.sqrt(((laplacian_neumann(ScalarField(grid, q)).data - rhs) ** 2).sum())
        rel = resid / np.sqrt((rhs**2).sum())
        assert rel <= 1e-13
        assert residual == pytest.approx(rel, rel=1e-6, abs=1e-16)
        assert solver.last_iterations == 0
        # the certificate's residual, as the composition of the two halves
        r = divergence_fc(gradient_cc(ScalarField(grid, q))).data
        r += b.mean() - b
        assert residual == np.sqrt((r * r).sum()) / np.sqrt((rhs * rhs).sum())
        assert abs(q.mean()) <= 1e-13 * np.abs(q).max()

    def test_nonfinite_rhs_raises(self, grid2d_small, rng):
        solver = PoissonSolver(grid2d_small)
        solver.solve(rng.standard_normal(grid2d_small.shape))
        b = rng.standard_normal(grid2d_small.shape)
        b[3, 5] = np.nan
        with pytest.raises(SolverFailure) as exc:
            solver.solve(b)
        assert np.isnan(exc.value.residual)

    def test_constant_rhs_returns_zeros_and_zero_residual(self, grid2d_small):
        q, residual = PoissonSolver(grid2d_small).solve(np.full(grid2d_small.shape, 2.5))
        assert residual == 0.0 and not q.any()
        assert q.shape == grid2d_small.shape

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

    @pytest.mark.parametrize(
        "extents, cells",
        [((1.0, 0.8), (64, 48)), ((1.0, 0.8), (128, 100)), ((1.0, 0.8, 0.6), (12, 10, 9))],
        ids=["dense", "long", "3d"],
    )
    def test_solve_scales_by_inverse_separable_eigenvalues_bitwise(self, extents, cells):
        """The solve forms ``1/lambda`` from the 1-D cosine tables in the
        solver's scratch buffer: the bits of ``1 / separable_eigenvalues``,
        before and after that buffer held a resolvent's denominators, and a
        resolvent after a solve has the bits of a fresh solver's."""
        grid = make_grid(len(cells), extents, cells)
        solver = PoissonSolver(grid)
        b = random_smooth_field(grid, np.random.default_rng(5), 1.0).data
        axes = zip(grid.cells, grid.spacing)
        lam = separable_eigenvalues([stencil_eigenvalues(N, h, range(N)) for N, h in axes])
        assert solver._roundoff == 8.0 * np.finfo(np.float64).eps * lam.max()
        lam.flat[0] = np.inf
        spec = solver.transform(b.mean() - b)
        spec *= 1.0 / lam
        ref = solver.transform(spec, inverse=True, overwrite=True)
        ref -= ref.mean()
        assert np.array_equal(solver.solve(b)[0], ref)
        fresh = PoissonSolver(grid).neumann_resolvent(b.copy(), 1e-3)
        assert np.array_equal(solver.neumann_resolvent(b.copy(), 1e-3), fresh)
        assert np.array_equal(solver.solve(b)[0], ref)

    @pytest.mark.parametrize("cells", [(24, 20), (DENSE_MAX + 4, 12), (8, 10, 6)])
    def test_holds_no_per_call_state(self, cells, rng):
        """Resolvents at two coefficients, on cells and on each face
        component, interleaved with solves on one solver: every result has
        the bits of a fresh solver's, and no attribute is written after
        ``__init__``."""
        grid = make_grid(len(cells), (1.0,) * len(cells), cells)
        solver = PoissonSolver(grid)
        before = dict(vars(solver))
        b = rng.standard_normal(grid.shape)
        U = random_vector(grid, rng)
        dt, eps = 1e-3, 0.05

        def calls(s):
            yield s.neumann_resolvent(b.copy(), dt)
            for coef in (eps, dt):
                yield from diffusion_resolvent(U, coef, s).components
            q, residual = s.solve(b)
            yield q
            yield np.float64(residual)

        for _ in range(2):
            for got, want in zip(calls(solver), calls(PoissonSolver(grid)), strict=True):
                assert got.tobytes() == want.tobytes()
        assert _same_attributes(solver, before)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_wrong_eigenvalue_fails_certificate(self, n):
        # the floor must stay far below the residual of a real solver defect:
        # one entry of the cosine table the solve forms 1/lambda from is off
        grid = make_grid(2, (1.0, 1.0), (n, n))
        solver = PoissonSolver(grid)
        cosine_tables, _ = solver._spectra[None]
        cosine_tables[0][1] *= 1.01
        b = random_smooth_field(grid, np.random.default_rng(2), 1.0).data
        with pytest.raises(SolverFailure):
            solver.solve(b)


# each basis as plain scipy.fft: (transform, forward type, inverse type,
# points on an axis of N cells)
SCIPY_BASES = {
    "cosine": (scipy.fft.dct, 2, 3, lambda N: N),
    "wall_sine": (scipy.fft.dst, 1, 1, lambda N: N - 1),
    "sine": (scipy.fft.dst, 2, 3, lambda N: N),
}

# one axis on each side of the cutoff, and 3-D with the long axis in the middle
MIXED_GRIDS = [
    ((1.3, 0.7), (DENSE_MAX + 4, 10)),
    ((0.7, 1.3), (10, DENSE_MAX + 4)),
    ((1.0, 0.8, 1.2), (6, 8, 10)),
    ((1.0, 0.8, 1.2), (4, DENSE_MAX + 1, 6)),
]


def _scipy_chain(x, types):
    """Apply ``types[e] = (transform, type)`` along every axis ``e``."""
    for e, (fn, kind) in enumerate(types):
        x = fn(x, type=kind, axis=e, norm="ortho")
    return x


class TestSpectralCore:
    """The dense bases against scipy.fft, and every solve against a
    reference computed here from scipy.fft alone."""

    @pytest.mark.parametrize("kind", sorted(SCIPY_BASES))
    @pytest.mark.parametrize("N", [4, 8, 63, 64, DENSE_MAX, DENSE_MAX + 1])
    def test_dense_basis_is_the_transform(self, kind, N, rng):
        fn, forward, inverse, points = SCIPY_BASES[kind]
        M = dense_basis(kind, N)
        L = points(N)
        assert np.array_equal(M, fn(np.eye(L), type=forward, axis=0, norm="ortho"))
        x = rng.standard_normal((L, 3))
        assert np.abs(M @ x - fn(x, type=forward, axis=0, norm="ortho")).max() <= 1e-13
        assert np.abs(M.T @ x - fn(x, type=inverse, axis=0, norm="ortho")).max() <= 1e-13
        assert np.abs(M @ M.T - np.eye(L)).max() <= 1e-13

    @pytest.mark.parametrize("N", [DENSE_MAX, DENSE_MAX + 1])
    def test_fft_only_past_the_cutoff(self, N, monkeypatch, rng):
        grid = make_grid(2, (1.0, 1.0), (N, 8))
        calls = []
        for name, original in list(fluid._KERNELS.items()):
            monkeypatch.setitem(
                fluid._KERNELS, name, lambda *a, _f=original: calls.append(1) or _f(*a)
            )
        solver = PoissonSolver(grid)  # its plans take the kernels at construction
        calls.clear()  # the dense bases are built by kernel calls too
        solver.neumann_resolvent(rng.standard_normal(grid.shape), 0.1)
        diffusion_resolvent(random_vector(grid, rng), 0.1, solver)
        # cells: one dct each way; faces: one dst each way per component
        assert len(calls) == (0 if N <= DENSE_MAX else 2 + 2 * 2)

    @pytest.mark.parametrize("extents, cells", MIXED_GRIDS)
    def test_solves_match_scipy_reference(self, extents, cells, rng):
        grid = make_grid(len(cells), extents, cells)
        solver = PoissonSolver(grid)
        axes = list(zip(grid.cells, grid.spacing))
        lam = separable_eigenvalues([stencil_eigenvalues(N, h, range(N)) for N, h in axes])
        cosine = [(scipy.fft.dct, 2)] * grid.dim
        cosine_inv = [(scipy.fft.dct, 3)] * grid.dim
        coef = 0.03

        b = rng.standard_normal(grid.shape)
        inv = 1.0 / np.where(lam == 0.0, np.inf, lam)
        ref = _scipy_chain(_scipy_chain(b.mean() - b, cosine) * inv, cosine_inv)
        ref -= ref.mean()
        assert np.abs(solver.solve(b)[0] - ref).max() <= 1e-12 * np.abs(ref).max()

        data = 1.0 + rng.standard_normal(grid.shape)
        ref = _scipy_chain(_scipy_chain(data, cosine) / (1.0 + coef * lam), cosine_inv)
        out = solver.neumann_resolvent(data.copy(), coef)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

        U = random_vector(grid, rng)
        V = diffusion_resolvent(U, coef, solver)
        for d in range(grid.dim):
            tables = [
                stencil_eigenvalues(N, h, range(1, N) if e == d else range(1, N + 1))
                for e, (N, h) in enumerate(axes)
            ]
            forward = [(scipy.fft.dst, 1 if e == d else 2) for e in range(grid.dim)]
            inverse = [(scipy.fft.dst, 1 if e == d else 3) for e in range(grid.dim)]
            interior = tuple(slice(1, -1) if e == d else slice(None) for e in range(grid.dim))
            spec = _scipy_chain(U.components[d][interior], forward)
            ref = _scipy_chain(spec / (1.0 + coef * separable_eigenvalues(tables)), inverse)
            got = V.components[d]
            assert np.abs(got[interior] - ref).max() <= 1e-12 * np.abs(ref).max()
            walls = np.ones(got.shape, dtype=bool)
            walls[interior] = False
            assert np.all(got[walls] == 0.0)


# grids whose plans hold every (kernel, type, axes) the core calls: a long axis
# first or last in 2-D, both long, and 3-D with one or two long axes
KERNEL_GRIDS = [
    (DENSE_MAX + 1, 8),
    (8, DENSE_MAX + 2),
    (DENSE_MAX + 1, DENSE_MAX + 3),
    (4, DENSE_MAX + 1, 6),
    (DENSE_MAX + 2, 4, DENSE_MAX + 1),
]

SCIPY_NDIM = {"dct": scipy.fft.dctn, "dst": scipy.fft.dstn}


def _kernel_calls(cells):
    """``(name, kernel, type, axes, shape)`` of every long-axis call the core
    makes on a grid of ``cells``, both directions, for cells and each face
    component (interior faces along its own axis)."""
    solver = PoissonSolver(make_grid(len(cells), (1.0,) * len(cells), cells))
    names = {id(kernel): name for name, kernel in fluid._KERNELS.items()}
    calls = []
    for component, (_, fft) in solver._plans.items():
        shape = tuple(N - (e == component) for e, N in enumerate(cells))
        for kernel, forward, inverse, axes in fft:
            for kind in {forward, inverse}:
                calls.append((names[id(kernel)], kernel, kind, axes, shape))
    return calls


class TestPocketfftKernels:
    """The kernels the core calls directly against the public scipy.fft, bit
    for bit, and the scipy.fft fallback against them."""

    def test_the_binding_itself_is_in_use(self):
        # not the scipy.fft fallback, and not registered as a module
        for kernel in fluid._KERNELS.values():
            assert kernel.__module__ == "chemofluid._kernels.pypocketfft"
        assert "chemofluid._kernels.pypocketfft" not in sys.modules

    def test_import_loads_neither_scipy_fft_nor_special(self):
        # a fresh interpreter: this one has imported scipy.fft for the references
        code = (
            "import sys, numpy as np, chemofluid, chemofluid.cli; "
            "print(*(m in sys.modules for m in ('scipy.fft', 'scipy.special', 'numpy.random'))); "
            # the seeded scenarios and the Stokes eigenvalue's start draw without numpy.random
            "lib2, lib3 = chemofluid.scenario_library((8, 8)), chemofluid.scenario_library((6, 6, 6)); "
            "lib2['random_perturbation'].build(0); lib3['random_perturbation'].build(0); "
            "chemofluid.stokes_eigenvalue(chemofluid.make_grid(2, (1.0, 1.0), (8, 8))); "
            "print('numpy.random' in sys.modules); "
            # scipy.fft still imports, and works, after the binding was loaded
            "import scipy.fft; x = np.arange(5.0); "
            "print(np.array_equal(scipy.fft.dct(x, norm='ortho'), "
            "chemofluid.fluid._KERNELS['dct'](x, 2, (0,), 1, None, 1, True)))"
        )
        src = os.path.dirname(os.path.dirname(fluid.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False", "False", "False", "False", "True"]

    def test_every_call_is_covered(self):
        used = {
            (name, kind, axes)
            for cells in KERNEL_GRIDS
            for name, _, kind, axes, _ in _kernel_calls(cells)
        }
        # cells: one DCT-II/III over all long axes; faces: DST-I along their
        # own axis, DST-II/III across it
        expected = [
            ("dct", 2, (0,)), ("dct", 3, (1,)), ("dct", 2, (0, 1)), ("dct", 3, (0, 2)),
            ("dst", 1, (0,)), ("dst", 1, (2,)), ("dst", 2, (1,)), ("dst", 3, (0,)),
            ("dst", 3, (2,)),
        ]
        assert set(expected) <= used

    @pytest.mark.parametrize("cells", KERNEL_GRIDS)
    def test_kernels_equal_scipy_fft_bitwise(self, cells, rng):
        for name, kernel, kind, axes, shape in _kernel_calls(cells):
            x = rng.standard_normal(shape)
            ref = SCIPY_NDIM[name](x, type=kind, axes=axes, norm="ortho")
            assert np.array_equal(kernel(x, kind, axes, 1, None, 1, True), ref)
            assert np.array_equal(kernel(x, kind, axes, 1, None, 2, True), ref)
            # in place, as for overwrite=True, also on a strided view
            y = x.copy()
            assert kernel(y, kind, axes, 1, y, 1, True) is y
            assert np.array_equal(y, ref)
            big = np.zeros(tuple(n + 2 for n in shape))
            view = big[tuple(slice(1, -1) for _ in shape)]
            view[...] = x
            assert np.array_equal(kernel(view, kind, axes, 1, view, 1, True), ref)
            assert np.array_equal(view, ref)

    @pytest.mark.parametrize(
        "binding",
        [
            "missing",  # the file cannot be found or loaded
            "rejects",  # it loads but rejects the call form
        ],
    )
    def test_fallback_gives_the_same_trajectory_bits(self, binding, monkeypatch):
        class Rejecting:
            def dct(self, *args):
                raise TypeError("incompatible function arguments")

            dst = dct

        def failing():
            if binding == "missing":
                raise ImportError("no pypocketfft extension")
            return Rejecting()

        grid = make_grid(2, (4.0, 1.0), (DENSE_MAX + 1, 8))
        params, initial = scenario_library(grid=grid)["random_perturbation"].build(3)
        params = dataclasses.replace(params, max_steps=6)

        direct = run(params, initial)
        monkeypatch.setattr(fluid, "_pocketfft_binding", failing)
        kernels = fluid._load_kernels()
        assert kernels["dct"].__qualname__.startswith("_scipy_fft_kernels")
        monkeypatch.setattr(fluid, "_KERNELS", kernels)
        fallback = run(params, initial)
        assert direct.steps == fallback.steps == 6
        for name in CSV_COLUMNS:
            column = getattr(direct.series, name)
            assert column.tobytes() == getattr(fallback.series, name).tobytes()


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

    @pytest.mark.parametrize("cells", [(32, 32), (128, 24)])
    def test_resolvent_overwrites_only_when_told(self, cells, rng):
        # yosida_apply hands over the state's u: the resolvent must copy;
        # with overwrite the same result lands in the caller's own arrays
        # (a 128-cell axis takes the scipy.fft path)
        grid = make_grid(2, (1.0, 1.0), cells)
        solver = PoissonSolver(grid)
        U = helmholtz_project(random_vector(grid, rng), solver)
        before = [c.copy() for c in U.components]
        v = diffusion_resolvent(U, 0.05, solver)
        yosida_apply(U, 0.05, solver)
        for a, b in zip(U.components, before):
            assert np.array_equal(a, b)
        w = diffusion_resolvent(U, 0.05, solver, overwrite=True)
        for wc, vc, uc in zip(w.components, v.components, U.components):
            assert wc is uc and np.array_equal(wc, vc)

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

    @pytest.mark.parametrize(
        "extents, cells",
        [((1.0, 0.6), (12, 20)), ((0.7, 1.0, 1.3), (6, 9, 5))],
    )
    def test_dirichlet_energy_is_minus_inner_with_laplacian(self, rng, extents, cells):
        # summation by parts against the Laplacian field it replaced; the
        # faces next to the walls carry random, nonzero values
        g = make_grid(len(cells), extents, cells)
        u = random_vector(g, rng)
        assert all(
            np.take(comp, k, axis=e).any()
            for d, comp in enumerate(u.components)
            for e in range(g.dim)
            for k in ((1, -2) if e == d else (0, -1))
        )
        expected = -vector_inner(u, laplacian_noslip(u))
        assert dirichlet_energy(u) == pytest.approx(expected, rel=1e-13)

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
        # the buoyancy of a constant density is a pure gradient: it goes to
        # the pressure, P = nbar (phi - mean phi), and u stays exactly 0;
        # 1.3 is no dyadic fraction, so its cell mean rounds
        u = VectorField.zeros(grid2d)
        for kappa, nbar, dt in itertools.product((0.0, 1.0), (2.0, 1.3), (1e-5, 1.0)):
            solver, params = self._solver_params(
                grid2d, phi_fn=lambda x, y: 0.3 * x + 0.1 * y, kappa=kappa
            )
            u1, P, _ = ns_substep(u, ScalarField.full(grid2d, nbar), params, dt, solver)
            assert u1.max_abs() == 0.0
            expected = nbar * (params.phi.data - params.phi.data.mean())
            assert np.abs(P.data - expected).max() <= 1e-14 * np.abs(expected).max()

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

    def test_unconditionally_stable_viscosity(self, grid2d, rng):
        # backward Euler at dt = 1, far beyond the old explicit limit: the
        # kinetic energy never grows, the walls and the divergence stay zero
        solver, params = self._solver_params(grid2d)
        u = helmholtz_project(random_vector(grid2d, rng), solver)
        n = ScalarField.zeros(grid2d)
        energy = vector_l2_sq(u)
        for _ in range(5):
            u, _, _ = ns_substep(u, n, params, 1.0, solver)
            assert vector_l2_sq(u) <= energy
            assert u.wall_normal_max() == 0.0
            assert divergence_max(u) <= 1e-9 * (1 + u.max_abs()) / min(grid2d.spacing)
            energy = vector_l2_sq(u)
        zero = VectorField.zeros(grid2d)
        assert ns_substep(zero, n, params, 1.0, solver)[0].max_abs() == 0.0

    def test_at_rest_without_sources_skips_the_solves(self, grid2d, monkeypatch):
        import chemofluid.fluid as fluid_mod

        calls = []
        for name in ("diffusion_resolvent", "project_with_potential", "yosida_apply"):
            original = getattr(fluid_mod, name)

            def counted(*args, _fn=original, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(fluid_mod, name, counted)
        for kappa in (0.0, 1.0):
            solver, params = self._solver_params(grid2d, kappa=kappa)
            before = dict(vars(solver))
            n = ScalarField(grid2d, 1.0 + random_smooth_field(grid2d, np.random.default_rng(1), 0.3).data)
            u1, P, res = ns_substep(VectorField.zeros(grid2d), n, params, 1e-3, solver)
            assert all(np.array_equal(c, np.zeros_like(c)) for c in u1.components)
            assert np.array_equal(P.data, np.zeros(grid2d.shape))
            assert res == 0.0 and _same_attributes(solver, before)
        assert calls == []

    def test_nan_in_a_later_component_is_not_at_rest(self, grid2d):
        # max |u| must see the NaN, or the step would return u = 0 for it
        solver, params = self._solver_params(grid2d)
        u = VectorField.zeros(grid2d)
        u.components[1][3, 3] = np.nan
        assert np.isnan(u.max_abs())
        with pytest.raises(FloatingPointError):
            ns_substep(u, ScalarField.zeros(grid2d), params, 1e-3, solver)

    @pytest.mark.parametrize(
        "kappa, phi_fn",
        [(1.0, None), (1.0, lambda x, y: 0.3 * x + 0.1 * y), (0.0, lambda x, y: 0.2 * x * y)],
    )
    def test_at_rest_bit_equal_to_full_path(self, grid2d, kappa, phi_fn):
        solver, params = self._solver_params(grid2d, phi_fn=phi_fn, kappa=kappa, eps=0.1)
        rng = np.random.default_rng(2)
        n = ScalarField(grid2d, 1.0 + random_smooth_field(grid2d, rng, 0.3).data)
        u = VectorField.zeros(grid2d)
        dt = 1e-3
        u1, P, res = ns_substep(u, n, params, dt, solver)
        v1, Q, res_full = _full_ns_substep(u, n, params, dt, PoissonSolver(grid2d))
        for a, b in zip(u1.components, v1.components):
            assert np.array_equal(a, b)
        assert np.array_equal(P.data, Q.data)
        assert res == res_full
        if phi_fn is not None:
            assert u1.max_abs() > 0.0  # the buoyancy really moved the fluid

    def test_without_explicit_terms_leaves_u_unchanged(self, grid2d, rng):
        # kappa = 0, no phi, no forcing: u* is the caller's own u, so the
        # resolvent must not solve in place
        solver, params = self._solver_params(grid2d, kappa=0.0)
        u = helmholtz_project(random_vector(grid2d, rng, scale=0.1), solver)
        before = [c.copy() for c in u.components]
        u1, _, _ = ns_substep(u, ScalarField.full(grid2d, 1.0), params, 1e-3, solver)
        for a, b, c in zip(u.components, before, u1.components):
            assert np.array_equal(a, b) and not np.array_equal(c, b)

    def test_step_holds_no_dead_velocity_pair(self):
        # the backward-Euler velocity overwrites the step's own explicit
        # update, so the traced peak of one buoyant Stokes step (reached in
        # the projection's certificate) holds under 6 face pairs
        import tracemalloc

        params, state = scenario_library((64, 64))["random_perturbation"].build(1)
        fluid = FluidParams(kappa=0.0, eps=params.fluid.eps, phi=params.fluid.phi)
        solver = PoissonSolver(params.grid)
        # a first step keeps one-time allocations out of the count
        ns_substep(state.u, state.n, fluid, 1e-4, solver)
        tracemalloc.start()
        try:
            ns_substep(state.u, state.n, fluid, 1e-4, solver)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.u.max_abs() > 0.0
        assert peak <= 6 * (2 * 64 * 65 * 8)

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


def _full_ns_substep(u, n, params, dt, solver):
    """The momentum step with every stage run, a fluid at rest included:
    Yosida, convection, resolvent and projection (the oracle of the
    at-rest shortcut)."""
    g = u.grid
    comps = [np.zeros(g.face_shape(d)) for d in range(g.dim)]
    if params.kappa != 0.0:
        conv = convection_upwind(yosida_apply(u, params.eps, solver), u)
        comps = [-params.kappa * c for c in conv.components]
    if params.phi is not None:
        anchor = float(n.data.flat[0])
        nbar = anchor + float((n.data - anchor).mean())
        grad_phi = gradient_cc(params.phi)
        for d in range(g.dim):
            buoy = cells_to_faces(n.data, g, d)
            buoy -= nbar
            buoy *= grad_phi.components[d]
            comps[d] = comps[d] + buoy
    u_star = VectorField(g, [dt * c + uc for c, uc in zip(comps, u.components)])
    u_star = diffusion_resolvent(u_star, dt, solver)
    u_next, q, residual = project_with_potential(u_star, solver)
    P = q.data / dt
    if params.phi is not None:
        P = P + nbar * (params.phi.data - params.phi_mean)
    return u_next, ScalarField(g, P), residual


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
