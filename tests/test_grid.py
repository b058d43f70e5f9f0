"""Grid construction, conservative operators, and the snapshot format."""

import numpy as np
import pytest
import scipy.sparse as sps

from chemofluid.grid import (
    ScalarField,
    VectorField,
    cells_to_faces,
    divergence_fc,
    gradient_cc,
    integrate,
    laplacian_neumann,
    make_grid,
    read_field_snapshot,
    upwind_cells_to_faces,
    vector_inner,
    write_field_snapshot,
)

from conftest import random_scalar, random_vector


class TestMakeGrid:
    def test_unit_square(self):
        g = make_grid(2, [1, 1], [4, 4])
        assert g.spacing == (0.25, 0.25)
        assert g.n_cells == 16
        assert abs(g.total_volume - g.n_cells * g.volume_element) <= 1e-14

    def test_anisotropic_3d(self):
        g = make_grid(3, [1, 2, 1], [8, 16, 8])
        assert g.spacing == (0.125, 0.125, 0.125)

    def test_undersized_rejected(self):
        with pytest.raises(ValueError):
            make_grid(2, [1, 1], [2, 2])

    def test_bad_dim_and_extents(self):
        with pytest.raises(ValueError):
            make_grid(1, [1], [8])
        with pytest.raises(ValueError):
            make_grid(2, [1, -1], [8, 8])
        with pytest.raises(ValueError):
            make_grid(2, [1], [8, 8])


class TestGradient:
    def test_constant_is_flat(self, grid2d):
        f = ScalarField.full(grid2d, 3.7)
        G = gradient_cc(f)
        for comp in G.components:
            assert np.abs(comp).max() == 0.0

    def test_linear_profile_with_neumann_clamp(self):
        g = make_grid(2, (1.0, 1.0), (8, 8))
        f = ScalarField.from_function(g, lambda x, y: x + 0 * y)
        G = gradient_cc(f)
        gx = G.components[0]
        assert np.allclose(gx[1:-1, :], 1.0, atol=1e-13)
        assert np.abs(gx[0, :]).max() == 0.0 and np.abs(gx[-1, :]).max() == 0.0
        assert np.abs(G.components[1]).max() <= 1e-13

    def test_cosine_second_order(self):
        # oracle: analytic derivative -pi sin(pi x) at interior face centers
        errs = []
        for N in (32, 64):
            g = make_grid(2, (1.0, 1.0), (N, N))
            f = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x) + 0 * y)
            G = gradient_cc(f)
            xf = g.face_coords(0)[1:-1]
            exact = -np.pi * np.sin(np.pi * xf)[:, None]
            errs.append(np.abs(G.components[0][1:-1, :] - exact).max())
        assert errs[1] <= errs[0]  # refinement helps
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] <= 0.5 * (1 / 64) ** 2 * np.pi**3  # C h^2 with C ~ pi^3/2


class TestDivergence:
    def test_zero_field(self, grid2d):
        F = VectorField.zeros(grid2d)
        assert np.abs(divergence_fc(F).data).max() == 0.0

    def test_telescoping_conservation(self, grid2d, rng):
        F = random_vector(grid2d, rng)
        total = integrate(divergence_fc(F))
        norm1 = sum(np.abs(c).sum() for c in F.components) * grid2d.volume_element
        assert abs(total) <= 1e-13 * norm1

    def test_matches_independent_stencil(self, grid2d, rng):
        # oracle: sparse 2d+1-point zero-flux Laplacian assembled by kron
        def lap1d(N, h):
            main = -2.0 * np.ones(N)
            main[0] = main[-1] = -1.0
            off = np.ones(N - 1)
            return sps.diags([off, main, off], [-1, 0, 1]) / h**2

        g = grid2d
        Lx = lap1d(g.cells[0], g.spacing[0])
        Ly = lap1d(g.cells[1], g.spacing[1])
        L = sps.kron(Lx, sps.eye(g.cells[1])) + sps.kron(sps.eye(g.cells[0]), Ly)
        f = random_scalar(g, rng)
        ours = divergence_fc(gradient_cc(f)).data
        oracle = (L @ f.data.reshape(-1)).reshape(g.shape)
        scale = np.abs(oracle).max()
        assert np.abs(ours - oracle).max() <= 1e-13 * scale


ANISOTROPIC = [
    pytest.param((2.0, 0.7), (12, 7), id="2d"),
    pytest.param((1.0, 2.0, 0.5), (6, 5, 4), id="3d"),
]


class TestKernelsBitEqualToDiff:
    """The slice-and-subtract kernels reproduce the ``np.diff`` expressions bit for bit."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).tobytes()

    @pytest.mark.parametrize("extents, cells", ANISOTROPIC)
    def test_gradient_and_divergence(self, extents, cells, rng):
        g = make_grid(len(cells), extents, cells)
        f = random_scalar(g, rng)
        F = random_vector(g, rng)
        F.components[0][1] = -0.0  # signed zeros must survive too
        G = gradient_cc(f)
        div_ref = np.zeros(g.shape)
        for d in range(g.dim):
            assert g.face_shape(d) == tuple(N + (e == d) for e, N in enumerate(cells))
            ref = np.zeros(g.face_shape(d))
            interior = [slice(None)] * g.dim
            interior[d] = slice(1, -1)
            ref[tuple(interior)] = np.diff(f.data, axis=d) / g.spacing[d]
            assert self._bits(G.components[d]) == self._bits(ref)
            div_ref += np.diff(F.components[d], axis=d) / g.spacing[d]
        assert self._bits(divergence_fc(F).data) == self._bits(div_ref)

    @pytest.mark.parametrize("extents, cells", ANISOTROPIC)
    def test_face_interpolations(self, extents, cells, rng):
        g = make_grid(len(cells), extents, cells)
        data = rng.standard_normal(g.shape)
        for d in range(g.dim):
            carrier = rng.standard_normal(g.face_shape(d))
            lo = np.moveaxis(data, d, 0)[:-1]
            hi = np.moveaxis(data, d, 0)[1:]
            mean = np.concatenate([lo[:1], 0.5 * (lo + hi), hi[-1:]])
            assert self._bits(cells_to_faces(data, g, d)) == self._bits(np.moveaxis(mean, 0, d))
            c_mid = np.moveaxis(carrier, d, 0)[1:-1]
            up = np.zeros(np.moveaxis(carrier, d, 0).shape)
            up[1:-1] = np.where(c_mid > 0.0, lo, hi)
            got = upwind_cells_to_faces(data, g, d, carrier)
            assert self._bits(got) == self._bits(np.moveaxis(up, 0, d))


class TestLaplacian:
    def test_constant(self, grid2d):
        f = ScalarField.full(grid2d, 1.23)
        assert np.abs(laplacian_neumann(f).data).max() == 0.0

    def test_neumann_eigenfunction(self):
        g = make_grid(2, (1.0, 1.0), (64, 64))
        f = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x) + 0 * y)
        lap = laplacian_neumann(f)
        # the sampled cosine is an exact eigenvector of the discrete stencil
        lam_h = (4.0 / g.spacing[0] ** 2) * np.sin(np.pi / (2 * 64)) ** 2
        assert np.abs(lap.data + lam_h * f.data).max() <= 1e-10
        assert lam_h == pytest.approx(np.pi**2, rel=0.01)

    def test_flux_form_composition_exact(self, grid2d, rng):
        f = random_scalar(grid2d, rng)
        a = laplacian_neumann(f).data
        b = divergence_fc(gradient_cc(f)).data
        assert np.array_equal(a, b)

    def test_conservation_roundoff(self, grid2d, rng):
        f = random_scalar(grid2d, rng)
        total = integrate(laplacian_neumann(f))
        scale = np.abs(f.data).max() / min(grid2d.spacing) ** 2
        assert abs(total) <= 1e-12 * scale


class TestAdjointness:
    def test_gradient_divergence_duality(self, grid2d, rng):
        # <grad f, F>_faces = -<f, div F>_cells for wall-free F
        for _ in range(5):
            f = random_scalar(grid2d, rng)
            F = random_vector(grid2d, rng)
            lhs = vector_inner(gradient_cc(f), F)
            rhs = -float((f.data * divergence_fc(F).data).sum()) * grid2d.volume_element
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1.0)


class TestRefinementOrder:
    def test_truncation_error_second_order(self):
        errs = []
        for N in (16, 32, 64):
            g = make_grid(2, (1.0, 1.0), (N, N))
            f = ScalarField.from_function(
                g, lambda x, y: np.cos(np.pi * x) * np.cos(2 * np.pi * y)
            )
            lap = laplacian_neumann(f)
            exact = ScalarField.from_function(
                g,
                lambda x, y: -5 * np.pi**2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y),
            )
            errs.append(np.abs(lap.data - exact.data).max())
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.5 <= e0 / e1 <= 4.5


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path, grid2d, rng):
        f = random_scalar(grid2d, rng)
        path = tmp_path / "n_000.kssf"
        write_field_snapshot(path, f.data, grid2d.extents)
        data, extents = read_field_snapshot(path)
        assert np.array_equal(data, f.data)
        assert extents == grid2d.extents

    def test_header_layout(self, tmp_path):
        g = make_grid(2, (1.0, 2.0), (4, 8))
        data = np.arange(32, dtype=float).reshape(4, 8)
        path = tmp_path / "f.kssf"
        write_field_snapshot(path, data, g.extents)
        raw = path.read_bytes()
        assert raw[:4] == b"KSSF"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 2  # dim
        assert int.from_bytes(raw[12:16], "little") == 4
        assert int.from_bytes(raw[16:20], "little") == 8
        Lx = np.frombuffer(raw[20:28], dtype="<f8")[0]
        Ly = np.frombuffer(raw[28:36], dtype="<f8")[0]
        assert (Lx, Ly) == (1.0, 2.0)
        vals = np.frombuffer(raw[36:], dtype="<f8")
        # x-fastest: the first axis varies quickest
        assert vals[0] == data[0, 0] and vals[1] == data[1, 0]

    def test_staggered_component_shapes(self, tmp_path, grid2d, rng):
        U = random_vector(grid2d, rng)
        path = tmp_path / "u0.kssf"
        write_field_snapshot(path, U.components[0], grid2d.extents)
        data, _ = read_field_snapshot(path)
        assert data.shape == grid2d.face_shape(0)
        assert np.array_equal(data, U.components[0])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.kssf"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            read_field_snapshot(path)
