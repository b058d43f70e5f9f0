"""Drift tensor, its bound, and the regularization ingredients."""

import numpy as np
import pytest

from chemofluid.grid import (
    ScalarField,
    _abs_max,
    _zero_walls,
    gradient_cc,
    make_grid,
    upwind_cells_to_faces,
)
from chemofluid.sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    WallCutoff,
    _face_drift_components,
    _rho_from_distance,
    _rotated_gradient,
    _wall_distance,
    chemotactic_flux,
    cutoff_rho,
    eval_S_eps,
    f_eps,
    rotation_matrix,
)


def rho_on_faces(grid, reg):
    """Cutoff values at face centers, one array per face orientation: the
    per-face reference ``WallCutoff`` must reproduce bit for bit."""
    out = []
    for d in range(grid.dim):
        dist = _wall_distance(grid.face_center_mesh(d), grid)
        out.append(np.broadcast_to(_rho_from_distance(dist, grid, reg), grid.face_shape(d)).copy())
    return out


class TestSpecValidation:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            SensitivitySpec(kind="scalar_saturating", C_S=1.0, alpha=0.5)

    def test_nonpositive_cs_rejected(self):
        with pytest.raises(ValueError):
            SensitivitySpec(kind="scalar_saturating", C_S=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SensitivitySpec(kind="mystery", C_S=1.0)
        with pytest.raises(ValueError):  # a removed kind
            SensitivitySpec(kind="user_table", C_S=1.0)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            RegularizationParams(eps=1.5)
        RegularizationParams(eps=0.0)  # documented "off" limit
        RegularizationParams(eps=1.0)


class TestSaturation:
    def test_at_zero(self):
        assert f_eps(0.0, 0.3) == 1.0

    def test_eps_zero_is_identity(self):
        s = np.linspace(0, 50, 7)
        assert np.all(f_eps(s, 0.0) == 1.0)

    def test_one_one(self):
        assert f_eps(1.0, 1.0) == 0.125

    def test_monotone_in_both_arguments(self):
        s = np.linspace(0, 10, 50)
        v = f_eps(s, 0.2)
        assert np.all(np.diff(v) <= 0)
        assert np.all(f_eps(3.0, 0.4) <= f_eps(3.0, 0.2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_eps(-1.0, 0.1)


class TestCutoff:
    def test_wall_is_zero(self, grid2d):
        reg = RegularizationParams(eps=0.2)
        assert cutoff_rho((0.0, 0.3), grid2d, reg) == 0.0
        assert cutoff_rho((0.4, 1.0), grid2d, reg) == 0.0

    def test_center_plateau(self, grid2d):
        reg = RegularizationParams(eps=0.2)  # delta = 0.2 < L/2
        assert cutoff_rho((0.5, 0.5), grid2d, reg) == 1.0

    def test_transition_monotone_in_eps(self, grid2d):
        # halving eps shrinks the layer, so rho can only grow pointwise
        x = (0.05, 0.5)
        for eps in (0.8, 0.4, 0.2):
            lo = cutoff_rho(x, grid2d, RegularizationParams(eps=eps))
            hi = cutoff_rho(x, grid2d, RegularizationParams(eps=eps / 2))
            assert 0.0 <= lo <= hi <= 1.0
        mid = cutoff_rho((0.05, 0.5), grid2d, RegularizationParams(eps=0.4))
        assert 0.0 < mid < 1.0

    def test_outside_rejected(self, grid2d):
        with pytest.raises(ValueError):
            cutoff_rho((1.5, 0.5), grid2d, RegularizationParams(eps=0.1))

    def test_eps_zero_means_no_cutoff(self, grid2d):
        reg = RegularizationParams(eps=0.0)
        assert cutoff_rho((0.0, 0.5), grid2d, reg) == 1.0


class TestEvalTensor:
    def test_scalar_at_zero_density_is_cs_identity(self, grid2d):
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.7, alpha=1.0)
        reg = RegularizationParams(eps=0.2)
        S = eval_S_eps(spec, reg, (0.5, 0.5), 0.0, grid2d)
        assert np.allclose(S, 0.7 * np.eye(2), atol=1e-14)

    def test_wall_gives_zero_tensor(self, grid2d):
        spec = SensitivitySpec(kind="rotational", C_S=0.7, theta=0.3)
        reg = RegularizationParams(eps=0.2)
        S = eval_S_eps(spec, reg, (0.0, 0.5), 1.0, grid2d)
        assert np.abs(S).max() == 0.0

    def test_rotational_quarter_turn(self, grid2d):
        # derived: (C_S/2) R(pi/2) at n=1, alpha=1; operator norm C_S/2
        spec = SensitivitySpec(kind="rotational", C_S=0.8, alpha=1.0, theta=np.pi / 2)
        reg = RegularizationParams(eps=0.2)
        S = eval_S_eps(spec, reg, (0.5, 0.5), 1.0, grid2d)
        expected = 0.4 * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(S, expected, atol=1e-14)
        assert np.linalg.norm(S, ord=2) == pytest.approx(0.4, abs=1e-12)

    def test_negative_inputs_rejected(self, grid2d):
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.7)
        reg = RegularizationParams(eps=0.2)
        with pytest.raises(ValueError):
            eval_S_eps(spec, reg, (0.5, 0.5), -1.0, grid2d)

    def test_bound_certificate_random_sampling(self, grid2d, rng):
        # |S_eps| <= C_S (1+n)^(-alpha) + 1e-12 over (x, n) with n in [0, 1e3]
        specs = [
            SensitivitySpec(kind="scalar_saturating", C_S=1.3, alpha=1.0),
            SensitivitySpec(kind="rotational", C_S=1.3, alpha=1.5, theta=1.1),
        ]
        reg = RegularizationParams(eps=0.3)
        for spec in specs:
            for _ in range(60):
                x = tuple(rng.uniform(0, 1, 2))
                n = rng.uniform(0, 1e3)
                S = eval_S_eps(spec, reg, x, n, grid2d)
                bound = spec.C_S * (1 + n) ** (-spec.alpha)
                assert np.linalg.norm(S, ord=2) <= bound + 1e-12

    def test_drift_amplitude_bounded_by_cs(self, rng):
        # n f_eps(n) |S_eps| <= C_S for alpha >= 1
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.9, alpha=1.0)
        for eps in (0.0, 0.1, 1.0):
            n = rng.uniform(0, 1e4, 100)
            vals = n * f_eps(n, eps) * spec.C_S * (1 + n) ** (-spec.alpha)
            assert np.all(vals <= spec.C_S + 1e-12)


class TestChemotacticFlux:
    def _fields(self, grid, n_fn, c_fn):
        return (
            ScalarField.from_function(grid, n_fn),
            ScalarField.from_function(grid, c_fn),
        )

    def test_constant_c_no_flux(self, grid2d):
        n, c = self._fields(grid2d, lambda x, y: 1 + x * y, lambda x, y: 0 * x + 2.0)
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.5)
        J = chemotactic_flux(n, c, spec, RegularizationParams(eps=0.1))
        assert max(np.abs(comp).max() for comp in J.components) == 0.0

    def test_zero_density_no_flux(self, grid2d):
        n, c = self._fields(grid2d, lambda x, y: 0 * x, lambda x, y: x + y)
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.5)
        J = chemotactic_flux(n, c, spec, RegularizationParams(eps=0.1))
        assert max(np.abs(comp).max() for comp in J.components) == 0.0

    def test_negative_density_beyond_roundoff_rejected(self, grid2d):
        # the slack of step_n and State.validate: -7e-18 passes, -1e-3 raises
        n, c = self._fields(grid2d, lambda x, y: 0 * x + 1.0, lambda x, y: x + y)
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.5)
        reg = RegularizationParams(eps=0.1)
        n.data[5, 7] = -6.9e-18
        chemotactic_flux(n, c, spec, reg)
        n.data[5, 7] = -1e-3
        with pytest.raises(ValueError, match="requires n >= 0"):
            chemotactic_flux(n, c, spec, reg)

    def test_wall_faces_exactly_zero(self, grid2d, rng):
        n = ScalarField(grid2d, rng.uniform(0.5, 2.0, grid2d.shape))
        c = ScalarField(grid2d, rng.uniform(0.0, 2.0, grid2d.shape))
        spec = SensitivitySpec(kind="rotational", C_S=0.5, theta=np.pi / 3)
        J = chemotactic_flux(n, c, spec, RegularizationParams(eps=0.1))
        assert J.wall_normal_max() == 0.0

    def test_alpha_one_drift_equals_the_power_form_bitwise(self, grid2d, rng):
        # at alpha = 1 the factor (1 + n~)^(-alpha) is taken as 1 / (1 + n~)
        x = 1.0 + np.concatenate([rng.uniform(0.0, top, 10**5) for top in (1e-3, 1.0, 1e3, 1e6)])
        assert np.array_equal(np.divide(1.0, x), np.power(x, -1.0))
        n = ScalarField(grid2d, rng.uniform(0.0, 50.0, grid2d.shape))
        c = ScalarField(grid2d, rng.uniform(0.0, 2.0, grid2d.shape))
        spec = SensitivitySpec(kind="rotational", C_S=0.7, alpha=1.0, theta=np.pi / 5)
        reg = RegularizationParams(eps=0.1)
        rho = rho_on_faces(grid2d, reg)
        grad_c = gradient_cc(c)
        flux, _ = _face_drift_components(n, c, spec, reg)
        n_up, _ = per_face_drift(n, c, spec, reg)
        for d in range(grid2d.dim):
            # the general path's operations, in its order, with the power
            sg = _rotated_gradient(grad_c, rotation_matrix(2, spec.theta), d)
            w = n_up[d] * reg.eps + 1.0
            ref = rho[d] * spec.C_S * np.power(n_up[d] + 1.0, -1.0) * (1.0 / (w * w * w)) * sg
            assert np.array_equal(flux[d], n_up[d] * _zero_walls(ref, d))

    def test_matches_per_face_hand_assembly_1d_profile(self):
        # derived oracle: independent per-face assembly of
        # n~ (1+n~)^(-alpha) f_eps(n~) rho d(c)/dx for a profile varying in x only
        g = make_grid(2, (1.0, 1.0), (16, 16))
        reg = RegularizationParams(eps=0.2)
        alpha, C_S = 1.0, 0.6
        spec = SensitivitySpec(kind="scalar_saturating", C_S=C_S, alpha=alpha)
        n = ScalarField.from_function(g, lambda x, y: 1.0 + x + 0 * y)
        c = ScalarField.from_function(g, lambda x, y: np.sin(2 * x) + 0 * y)
        J = chemotactic_flux(n, c, spec, reg)
        rho = rho_on_faces(g, reg)[0]
        h = g.spacing[0]
        xc = g.cell_coords(0)
        nc = 1.0 + xc
        cc = np.sin(2 * xc)
        expected = np.zeros(g.face_shape(0))
        for i in range(1, g.cells[0]):
            for j in range(g.cells[1]):
                dc = (cc[i] - cc[i - 1]) / h
                drift_sign = rho[i, j] * dc
                n_up = nc[i - 1] if drift_sign > 0 else nc[i]
                drift = (
                    rho[i, j] * C_S * (1 + n_up) ** (-alpha) * dc / (1 + reg.eps * n_up) ** 3
                )
                expected[i, j] = n_up * drift
        assert np.allclose(J.components[0], expected, rtol=0, atol=1e-14)
        assert np.abs(J.components[1]).max() <= 1e-14

    @pytest.mark.parametrize(
        "extents, cells, kind, alpha",
        [
            ((1.0, 0.8), (12, 10), "rotational", 1.0),
            ((1.0, 0.8, 0.6), (8, 6, 5), "scalar_saturating", 1.5),
            ((1.0, 0.8, 0.6), (8, 6, 5), "rotational", 1.0),
        ],
        ids=["2d-rotational", "3d-scalar", "3d-rotational"],
    )
    def test_matches_per_face_hand_assembly(self, extents, cells, kind, alpha):
        # derived oracle, face by face: (R grad c)_d interpolates each
        # off-axis face gradient to the two cells beside the d face and
        # averages them; the flux is n~ rho C_S (1+n~)^(-alpha) f_eps(n~) (R grad c)_d
        # with n~ upwinded by the sign of rho (R grad c)_d.  At theta = pi/2
        # the off-axis terms carry the whole drift.
        dim = len(cells)
        g = make_grid(dim, extents, cells)
        reg = RegularizationParams(eps=0.2)
        C_S = 0.6
        spec = SensitivitySpec(kind=kind, C_S=C_S, alpha=alpha, theta=np.pi / 2)
        R = rotation_matrix(dim, spec.theta) if kind == "rotational" else np.eye(dim)

        def n_fn(*x):
            return 1.0 + x[0] + 0.5 * x[1] + (0.25 * x[2] if dim == 3 else 0.0)

        def c_fn(*x):
            return np.sin(2 * x[0]) + np.cos(3 * x[1]) + (np.sin(x[2]) if dim == 3 else 0.0)

        n = ScalarField.from_function(g, n_fn)
        c = ScalarField.from_function(g, c_fn)
        J = chemotactic_flux(n, c, spec, reg)
        h = g.spacing

        def shift(idx, axis, k):
            return idx[:axis] + (idx[axis] + k,) + idx[axis + 1 :]

        def face_grad(e, idx):  # c gradient on the e face idx; walls carry 0
            if idx[e] == 0 or idx[e] == g.cells[e]:
                return 0.0
            return (c.data[idx] - c.data[shift(idx, e, -1)]) / h[e]

        for d in range(dim):
            expected = np.zeros(g.face_shape(d))
            for idx in np.ndindex(*g.face_shape(d)):
                if idx[d] == 0 or idx[d] == g.cells[d]:
                    continue  # wall faces carry no flux
                lo, hi = shift(idx, d, -1), idx
                sg = 0.0
                for e in range(dim):
                    if e == d:
                        ge = face_grad(d, idx)
                    else:
                        at_cells = [
                            0.5 * (face_grad(e, cell) + face_grad(e, shift(cell, e, 1)))
                            for cell in (lo, hi)
                        ]
                        ge = 0.5 * (at_cells[0] + at_cells[1])
                    sg += R[d, e] * ge
                x = [(i + 0.5) * hh for i, hh in zip(idx, h)]
                x[d] = idx[d] * h[d]
                rho = cutoff_rho(x, g, reg)
                n_up = n.data[lo] if rho * sg > 0 else n.data[hi]
                drift = rho * C_S * (1 + n_up) ** (-alpha) * sg / (1 + reg.eps * n_up) ** 3
                expected[idx] = n_up * drift
            assert np.allclose(J.components[d], expected, rtol=0, atol=1e-14)
            assert np.abs(expected).max() > 0.1

    def test_linear_in_grad_c(self, grid2d, rng):
        # doubling c doubles the flux when S has no c-dependence
        n = ScalarField(grid2d, rng.uniform(0.5, 2.0, grid2d.shape))
        c = ScalarField(grid2d, rng.uniform(0.0, 1.0, grid2d.shape))
        c2 = ScalarField(grid2d, 2.0 * c.data)
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.5)
        reg = RegularizationParams(eps=0.1)
        J1 = chemotactic_flux(n, c, spec, reg)
        J2 = chemotactic_flux(n, c2, spec, reg)
        for a, b in zip(J1.components, J2.components):
            assert np.allclose(2.0 * a, b, rtol=1e-12, atol=1e-14)

    def test_mismatched_grids_rejected(self, grid2d, grid2d_small):
        n = ScalarField.zeros(grid2d)
        c = ScalarField.zeros(grid2d_small)
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.5)
        with pytest.raises(ValueError):
            chemotactic_flux(n, c, spec, RegularizationParams(eps=0.1))


def per_face_drift(n, c, spec, reg, grad_c=None):
    """The drift as one formula per face: the cutoff as full face arrays
    (``rho_on_faces``), the upwind side from the sign of ``rho (R grad c)_d``
    and every density factor formed at the faces from ``n~``, each operation
    in the kernel's order."""
    g = n.grid
    rho_faces = rho_on_faces(g, reg)
    if grad_c is None:
        grad_c = gradient_cc(c)
    R = rotation_matrix(g.dim, spec.theta) if spec.kind == "rotational" else np.eye(g.dim)
    n_up_list, drift_list = [], []
    for d in range(g.dim):
        sg = _rotated_gradient(grad_c, R, d)
        n_up = upwind_cells_to_faces(n.data, g, d, rho_faces[d] * sg)
        drift = rho_faces[d] * spec.C_S
        w = n_up + 1.0
        drift *= np.divide(1.0, w) if spec.alpha == 1.0 else np.power(w, -spec.alpha)
        if reg.eps != 0.0:
            w = n_up * reg.eps
            w += 1.0
            cube = w * w
            cube *= w
            drift *= np.divide(1.0, cube)
        drift *= sg
        n_up_list.append(n_up)
        drift_list.append(_zero_walls(drift, d))
    return n_up_list, drift_list


# the grids of the cutoff's and the drift's bit-equality tests: square and
# uneven boxes, 2-D and 3-D, cell counts on either side of the layer width
CUTOFF_GRIDS = [
    ((1.0, 1.0), (16, 16)),
    ((1.0, 0.8), (12, 10)),
    ((2.0, 1.0), (33, 7)),
    ((np.pi, 1.0 / 3.0), (50, 9)),
    ((1.0, 1.0, 1.0), (8, 8, 8)),
    ((1.0, 0.8, 0.6), (9, 6, 5)),
    ((0.7, 1.3, 2.0), (7, 13, 11)),
]


class TestWallCutoff:
    @pytest.mark.parametrize("extents, cells", CUTOFF_GRIDS)
    def test_profile_minimum_equals_rho_on_faces_bitwise(self, extents, cells):
        g = make_grid(len(cells), extents, cells)
        # 0.25 and above: the layer width is capped at min extent / 4
        regs = [RegularizationParams(eps=eps) for eps in (0.0, 0.013, 0.05, 0.1, 1 / 7, 0.25, 0.37, 1.0)]
        for reg in regs:
            cutoff = WallCutoff(g, reg)
            for d, rho in enumerate(rho_on_faces(g, reg)):
                faces = cutoff.faces(d)
                assert np.array_equal(faces, rho), (reg, d)
                for C_S in (0.3, 1.7, np.sqrt(1.0 / (2.0 * np.pi**2))):
                    assert np.array_equal(np.multiply(faces, C_S), rho * C_S), (reg, d, C_S)

    @pytest.mark.parametrize("cells", [(64, 64), (16, 16, 16)])
    def test_holds_no_face_array(self, cells):
        # 1-D profiles in 2-D; in 3-D the trailing minimum is one plane
        g = make_grid(len(cells), (1.0,) * len(cells), cells)
        cutoff = WallCutoff(g, RegularizationParams(eps=0.1))
        held = [cutoff._trailing] + [[p for _, p in layers] for layers in cutoff._layers]
        nbytes = sum(a.nbytes for arrays in held for a in arrays)
        assert nbytes < 8 * np.prod(g.face_shape(0)) / 4


class TestDriftKernel:
    @pytest.mark.parametrize("extents, cells", [CUTOFF_GRIDS[1], CUTOFF_GRIDS[5]], ids=["2d", "3d"])
    @pytest.mark.parametrize("kind", ["scalar_saturating", "rotational"])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("handed", [True, False], ids=["grad_c", "no_grad_c"])
    def test_equals_the_per_face_formula_bitwise(self, extents, cells, kind, alpha, eps, handed):
        g = make_grid(len(cells), extents, cells)
        rng = np.random.default_rng(sum(cells))
        n = ScalarField(g, rng.uniform(0.0, 3.0, g.shape))
        n.data[rng.uniform(size=g.shape) < 0.1] = 0.0
        c = ScalarField(g, rng.uniform(0.0, 2.0, g.shape))
        c.data[rng.uniform(size=g.shape) < 0.2] = 1.0  # flat patches: zero gradients
        spec = SensitivitySpec(kind=kind, C_S=0.7, alpha=alpha, theta=np.pi / 2)
        reg = RegularizationParams(eps=eps)
        grad_c = gradient_cc(c) if handed else None
        flux, vmax = _face_drift_components(n, c, spec, reg, WallCutoff(g, reg), grad_c)
        ref_n_up, ref_drift = per_face_drift(n, c, spec, reg)
        assert vmax == max(_abs_max(v) for v in ref_drift)
        for d in range(g.dim):
            assert np.array_equal(flux[d], ref_n_up[d] * ref_drift[d])
            assert not np.signbit(flux[d][_axis_walls(d, g.dim)]).any()
        if handed:  # read, not written
            for a, b in zip(grad_c.components, gradient_cc(c).components):
                assert np.array_equal(a, b)

    def test_upwinds_by_the_product_where_it_underflows(self):
        # h = 4 and a subnormal step in c: at the face (1, 0), h/2 from a
        # wall, the direction rho * (grad c)_0 rounds to 0 while (grad c)_0 > 0,
        # so n~ is the upper cell's value there, as in the per-face formula.
        # A huge C_S keeps the drift there nonzero, so that n~ shows in the
        # flux: the lower cell's density is 0
        g = make_grid(2, (64.0, 64.0), (16, 16))
        reg = RegularizationParams(eps=0.1)
        spec = SensitivitySpec(kind="scalar_saturating", C_S=1e300)
        c = ScalarField.zeros(g)
        c.data[1, 0] = 3 * 5e-324
        n = ScalarField(g, np.arange(256.0).reshape(16, 16))
        grad = gradient_cc(c).components[0]
        rho = rho_on_faces(g, reg)[0]
        assert grad[1, 0] > 0.0 and rho[1, 0] * grad[1, 0] == 0.0
        flux, _ = _face_drift_components(n, c, spec, reg)
        ref_n_up, ref_drift = per_face_drift(n, c, spec, reg)
        assert ref_n_up[0][1, 0] == n.data[1, 0] and n.data[0, 0] == 0.0
        assert ref_drift[0][1, 0] > 0.0 and flux[0][1, 0] > 0.0
        for d in range(2):
            assert np.array_equal(flux[d], ref_n_up[d] * ref_drift[d])


def _axis_walls(d, dim):
    index = [slice(None)] * dim
    index[d] = [0, -1]
    return tuple(index)


class TestRotationMatrix:
    def test_3d_embeds_planar_rotation(self):
        R = rotation_matrix(3, np.pi / 2)
        assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-14)
        assert np.allclose(R @ np.array([0, 0, 1.0]), [0, 0, 1], atol=1e-14)
        assert np.linalg.norm(R, ord=2) == pytest.approx(1.0, abs=1e-12)
