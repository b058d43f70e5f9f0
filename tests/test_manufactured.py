"""Closed-form manufactured fields and their induced forcings.

The forcings were derived by hand; here each one is checked against a
fourth-order finite-difference evaluation of the corresponding equation
residual at random interior points, so any transcription slip fails loudly.
"""

import numpy as np
import pytest

from chemofluid.grid import make_grid
from chemofluid.manufactured import (
    _BN,
    _BN0,
    _CS_COUPLED,
    _PHI0,
    _UAMP,
    _cpl_forcing_u,
    mms_cases,
    mms_error,
    sample_exact_state,
)

H1 = 1e-3  # first-derivative stencil width
H2 = 2e-3  # second-derivative stencil width


def d1(f, x, h=H1):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def d2(f, x, h=H2):
    return (
        -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
    ) / (12 * h * h)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(11)
    return rng.uniform(0.08, 0.92, size=(10, 3))


class TestCoupledForcings:
    def test_velocity_solenoidal_and_no_slip(self, points):
        case = mms_cases()["coupled"]
        for x, y, t in points:
            div = d1(lambda s: case.u_exact(s, y, t, 0), x) + d1(
                lambda s: case.u_exact(x, s, t, 1), y
            )
            assert abs(div) <= 1e-9
        for wall in (0.0, 1.0):
            assert abs(case.u_exact(wall, 0.37, 0.1, 0)) <= 1e-14
            assert abs(case.u_exact(0.37, wall, 0.1, 0)) <= 1e-14
            assert abs(case.u_exact(wall, 0.37, 0.1, 1)) <= 1e-14
            assert abs(case.u_exact(0.37, wall, 0.1, 1)) <= 1e-14

    def test_density_forcing(self, points):
        case = mms_cases()["coupled"]
        ne, ce, ue = case.n_exact, case.c_exact, case.u_exact
        for x, y, t in points:
            n = ne(x, y, t)
            n_t = d1(lambda s: ne(x, y, s), t)
            n_x = d1(lambda s: ne(s, y, t), x)
            n_y = d1(lambda s: ne(x, s, t), y)
            lap_n = d2(lambda s: ne(s, y, t), x) + d2(lambda s: ne(x, s, t), y)
            c_x = d1(lambda s: ce(s, y, t), x)
            c_y = d1(lambda s: ce(x, s, t), y)
            lap_c = d2(lambda s: ce(s, y, t), x) + d2(lambda s: ce(x, s, t), y)
            a = _CS_COUPLED * n / (1 + n)
            div_chemo = (
                _CS_COUPLED / (1 + n) ** 2 * (n_x * c_x + n_y * c_y) + a * lap_c
            )
            oracle = (
                n_t
                + ue(x, y, t, 0) * n_x
                + ue(x, y, t, 1) * n_y
                - lap_n
                + div_chemo
            )
            ours = float(case.forcing_n((np.asarray(x), np.asarray(y)), t))
            assert abs(ours - oracle) <= 1e-6

    def test_chemical_forcing(self, points):
        case = mms_cases()["coupled"]
        ne, ce, ue = case.n_exact, case.c_exact, case.u_exact
        for x, y, t in points:
            c_t = d1(lambda s: ce(x, y, s), t)
            c_x = d1(lambda s: ce(s, y, t), x)
            c_y = d1(lambda s: ce(x, s, t), y)
            lap_c = d2(lambda s: ce(s, y, t), x) + d2(lambda s: ce(x, s, t), y)
            oracle = (
                c_t
                + ue(x, y, t, 0) * c_x
                + ue(x, y, t, 1) * c_y
                - lap_c
                + ce(x, y, t)
                - ne(x, y, t)
            )
            ours = float(case.forcing_c((np.asarray(x), np.asarray(y)), t))
            assert abs(ours - oracle) <= 1e-6

    def test_momentum_forcing(self, points):
        case = mms_cases()["coupled"]
        ne, ue = case.n_exact, case.u_exact

        def phi(x, y):
            return _PHI0 * np.cos(np.pi * x) * np.cos(np.pi * y)

        for x, y, t in points:
            ux, uy = ue(x, y, t, 0), ue(x, y, t, 1)
            for comp in (0, 1):
                u_t = d1(lambda s: ue(x, y, s, comp), t)
                u_x = d1(lambda s: ue(s, y, t, comp), x)
                u_y = d1(lambda s: ue(x, s, t, comp), y)
                lap_u = d2(lambda s: ue(s, y, t, comp), x) + d2(
                    lambda s: ue(x, s, t, comp), y
                )
                grad_phi = (
                    d1(lambda s: phi(s, y), x) if comp == 0 else d1(lambda s: phi(x, s), y)
                )
                oracle = u_t + (ux * u_x + uy * u_y) - lap_u - ne(x, y, t) * grad_phi
                ours = float(case.forcing_u((np.asarray(x), np.asarray(y)), t, comp))
                assert abs(ours - oracle) <= 1e-6

    @pytest.mark.parametrize("t", [0.0, 0.0137, 0.05])
    def test_momentum_forcing_bit_equal_to_full_evaluation(self, points, t):
        # the per-component forcing computes each field it uses with the
        # expression the full evaluation uses, so every bit agrees
        for cells in ((8, 8), (16, 16), (64, 64)):
            grid = make_grid(2, (1.0, 1.0), cells)
            for d in (0, 1):
                coords = grid.face_center_mesh(d)
                assert np.array_equal(
                    _cpl_forcing_u(coords, t, d), _full_cpl_forcing_u(coords, t, d)
                )
        for x, y, s in points:
            coords = (np.asarray(x), np.asarray(y))
            for d in (0, 1):
                assert np.array_equal(
                    _cpl_forcing_u(coords, s, d), _full_cpl_forcing_u(coords, s, d)
                )


def _full_cpl_forcing_u(coords, t, d):
    """The momentum forcing as first written: both components' fields, all
    five n fields and both phi gradients evaluated on every call (the oracle
    of the per-component evaluation)."""
    pi = np.pi
    x, y = coords[0], coords[1]
    g = np.exp(-t)
    cc = np.cos(pi * x) * np.cos(pi * y)
    n = _BN0 + _BN * cc * g
    q = np.exp(-t)
    sx = np.sin(pi * x)
    s2x, c2x = np.sin(2 * pi * x), np.cos(2 * pi * x)
    sy = np.sin(pi * y)
    s2y, c2y = np.sin(2 * pi * y), np.cos(2 * pi * y)
    ux = _UAMP * sx**2 * s2y * q
    ux_t = -ux
    ux_x = _UAMP * pi * s2x * s2y * q
    ux_y = 2.0 * pi * _UAMP * sx**2 * c2y * q
    lap_ux = 2.0 * pi**2 * _UAMP * (c2x - 2.0 * sx**2) * s2y * q
    uy = -_UAMP * s2x * sy**2 * q
    uy_t = -uy
    uy_x = -2.0 * pi * _UAMP * c2x * sy**2 * q
    uy_y = -_UAMP * pi * s2x * s2y * q
    lap_uy = 2.0 * pi**2 * _UAMP * s2x * (2.0 * sy**2 - c2y) * q
    phi_x = -_PHI0 * pi * np.sin(pi * x) * np.cos(pi * y)
    phi_y = -_PHI0 * pi * np.cos(pi * x) * np.sin(pi * y)
    if d == 0:
        return ux_t + (ux * ux_x + uy * ux_y) - lap_ux - n * phi_x
    return uy_t + (ux * uy_x + uy * uy_y) - lap_uy - n * phi_y


class TestDiffusionForcings:
    def test_both_forcings(self, points):
        case = mms_cases()["diffusion_only"]
        ne, ce = case.n_exact, case.c_exact
        for x, y, t in points:
            n_t = d1(lambda s: ne(x, y, s), t)
            lap_n = d2(lambda s: ne(s, y, t), x) + d2(lambda s: ne(x, s, t), y)
            oracle_n = n_t - lap_n
            ours_n = float(case.forcing_n((np.asarray(x), np.asarray(y)), t))
            assert abs(ours_n - oracle_n) <= 1e-6
            c_t = d1(lambda s: ce(x, y, s), t)
            lap_c = d2(lambda s: ce(s, y, t), x) + d2(lambda s: ce(x, s, t), y)
            oracle_c = c_t - lap_c + ce(x, y, t) - ne(x, y, t)
            ours_c = float(case.forcing_c((np.asarray(x), np.asarray(y)), t))
            assert abs(ours_c - oracle_c) <= 1e-6

    def test_neumann_compatible_fields(self):
        case = mms_cases()["diffusion_only"]
        for wall in (0.0, 1.0):
            assert abs(d1(lambda s: case.n_exact(s, 0.3, 0.2), wall)) <= 1e-9
            assert abs(d1(lambda s: case.c_exact(0.3, s, 0.2), wall)) <= 1e-9


class TestExactSteady:
    def test_state_is_discrete_fixed_point(self):
        from chemofluid.stepper import run

        case = mms_cases()["exact_steady"]
        params = case.make_params(16)
        traj = run(params, case.initial_state(params.grid))
        assert traj.completed
        assert mms_error(case, traj.final_state()) <= 1e-12

    def test_sample_round_trip(self):
        case = mms_cases()["coupled"]
        params = case.make_params(16)
        st = sample_exact_state(case, params.grid, 0.3)
        assert st.u.wall_normal_max() == 0.0
        assert st.n.data.min() > 0
