"""Drift tensor, its bound, and the regularization ingredients."""

import numpy as np
import pytest

from chemofluid.grid import ScalarField, _zero_walls, gradient_cc, make_grid
from chemofluid.sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    _face_drift_components,
    _rotated_gradient,
    chemotactic_flux,
    cutoff_rho,
    eval_S_eps,
    f_eps,
    rho_on_faces,
    rotation_matrix,
)


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
        S = eval_S_eps(spec, reg, (0.5, 0.5), 0.0, 1.0, grid2d)
        assert np.allclose(S, 0.7 * np.eye(2), atol=1e-14)

    def test_wall_gives_zero_tensor(self, grid2d):
        spec = SensitivitySpec(kind="rotational", C_S=0.7, theta=0.3)
        reg = RegularizationParams(eps=0.2)
        S = eval_S_eps(spec, reg, (0.0, 0.5), 1.0, 1.0, grid2d)
        assert np.abs(S).max() == 0.0

    def test_rotational_quarter_turn(self, grid2d):
        # derived: (C_S/2) R(pi/2) at n=1, alpha=1; operator norm C_S/2
        spec = SensitivitySpec(kind="rotational", C_S=0.8, alpha=1.0, theta=np.pi / 2)
        reg = RegularizationParams(eps=0.2)
        S = eval_S_eps(spec, reg, (0.5, 0.5), 1.0, 0.0, grid2d)
        expected = 0.4 * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(S, expected, atol=1e-14)
        assert np.linalg.norm(S, ord=2) == pytest.approx(0.4, abs=1e-12)

    def test_negative_inputs_rejected(self, grid2d):
        spec = SensitivitySpec(kind="scalar_saturating", C_S=0.7)
        reg = RegularizationParams(eps=0.2)
        with pytest.raises(ValueError):
            eval_S_eps(spec, reg, (0.5, 0.5), -1.0, 0.0, grid2d)

    def test_bound_certificate_random_sampling(self, grid2d, rng):
        # |S_eps| <= C_S (1+n)^(-alpha) + 1e-12 over (x, n, c) in [0, 1e3]
        specs = [
            SensitivitySpec(kind="scalar_saturating", C_S=1.3, alpha=1.0),
            SensitivitySpec(kind="rotational", C_S=1.3, alpha=1.5, theta=1.1),
            SensitivitySpec(
                kind="user_table",
                C_S=1.3,
                alpha=1.0,
                table=lambda x, n, c: 5.0 * np.ones((2, 2)),
            ),
        ]
        reg = RegularizationParams(eps=0.3)
        for spec in specs:
            for _ in range(60):
                x = tuple(rng.uniform(0, 1, 2))
                n = rng.uniform(0, 1e3)
                c = rng.uniform(0, 1e3)
                S = eval_S_eps(spec, reg, x, n, c, grid2d)
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
        n_up, drift = _face_drift_components(n, c, spec, reg)
        for d in range(grid2d.dim):
            # the general path's operations, in its order, with the power
            sg = _rotated_gradient(grad_c, rotation_matrix(2, spec.theta), d)
            w = n_up[d] * reg.eps + 1.0
            ref = rho[d] * spec.C_S * np.power(n_up[d] + 1.0, -1.0) * (1.0 / (w * w * w)) * sg
            assert np.array_equal(drift[d], _zero_walls(ref, d))

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


class TestRotationMatrix:
    def test_3d_embeds_planar_rotation(self):
        R = rotation_matrix(3, np.pi / 2)
        assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-14)
        assert np.allclose(R @ np.array([0, 0, 1.0]), [0, 0, 1], atol=1e-14)
        assert np.linalg.norm(R, ord=2) == pytest.approx(1.0, abs=1e-12)
