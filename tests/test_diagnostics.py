"""Poincare constant, Lyapunov machinery, decay fits, weak residuals."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from chemofluid import diagnostics
from chemofluid.diagnostics import (
    LyapunovConfig,
    LyapunovInfeasible,
    WeakTestSpec,
    _cos_factor,
    _sin2_factor,
    _stream_test,
    budget_check_series,
    fit_decay_rate,
    grad_c_norms,
    lyapunov,
    make_lyapunov_config,
    poincare_constant,
    steady_state_distance,
    stokes_eigenvalue,
    weak_residual,
)
from chemofluid.fluid import FluidParams, SolverFailure, divergence_max, laplacian_noslip
from chemofluid.grid import (
    ScalarField,
    VectorField,
    _axis_slices,
    _mirror_pad,
    divergence_fc,
    gradient_cc,
    make_grid,
)
from chemofluid.sensitivity import RegularizationParams, SensitivitySpec
from chemofluid.stepper import SimParams, State, run
from chemofluid.verify import default_phi, scenario_library, swirl_velocity


def discrete_neumann_lambda1(N, L):
    """Closed-form smallest nonzero eigenvalue of the 1-D zero-flux stencil."""
    h = L / N
    return (4.0 / h**2) * math.sin(math.pi * h / (2 * L)) ** 2


class TestPoincare:
    def test_unit_square_one_percent(self):
        g = make_grid(2, (1.0, 1.0), (64, 64))
        C_N = poincare_constant(g)
        assert C_N == pytest.approx(1.0 / np.pi**2, rel=0.01)
        # and it matches the separable closed form to the iteration tolerance
        assert C_N == pytest.approx(1.0 / discrete_neumann_lambda1(64, 1.0), rel=1e-6)

    def test_long_box_dominated_by_longest_axis(self):
        g = make_grid(2, (2.0, 1.0), (64, 32))
        C_N = poincare_constant(g)
        assert C_N == pytest.approx(4.0 / np.pi**2, rel=0.01)

    @pytest.mark.parametrize(
        "extents, cells",
        [((2.0, 1.0), (64, 32)), ((1.0, 1.0, 1.0), (32, 32, 32)), ((3.0, 1.0, 1.0), (48, 16, 16))],
        ids=["2x1", "cube32", "3x1x1"],
    )
    def test_closed_form_of_longest_axis(self, extents, cells):
        g = make_grid(len(cells), extents, cells)
        longest = int(np.argmax(extents))
        N, h = cells[longest], g.spacing[longest]
        expected = 1.0 / ((4.0 / h**2) * np.sin(np.pi / (2 * N)) ** 2)
        assert poincare_constant(g) == pytest.approx(expected, rel=1e-14)

    def test_refinement_monotone_toward_continuum(self):
        vals = []
        for N in (8, 16, 32):
            g = make_grid(2, (1.0, 1.0), (N, N))
            vals.append(poincare_constant(g))
        # discrete eigenvalues approach pi^2 from below, so C_N from above
        assert vals[0] > vals[1] > vals[2] > 1.0 / np.pi**2
        # and the h^2 convergence shows as ~4x error reduction
        errs = [v - 1.0 / np.pi**2 for v in vals]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


class TestStokesEigenvalue:
    def test_richardson_matches_literature(self):
        # 13.0862 on [-1, 1]^2 (Leriche & Labrosse) is 52.3447 on the unit square
        lam = [stokes_eigenvalue(make_grid(2, (1.0, 1.0), (N, N))) for N in (32, 64)]
        assert abs((4.0 * lam[1] - lam[0]) / 3.0 - 52.3447) <= 1e-3

    @pytest.mark.parametrize(
        "extents, cells",
        [((1.0, 0.6), (12, 9)), ((1.0, 3.0), (5, 14)), ((0.3, 1.7), (9, 31))],
        ids=["12x9", "5x14", "9x31"],
    )
    def test_matches_mac_kernel_oracle(self, extents, cells):
        # oracle: the generalized problem assembled column by column from the
        # MAC kernels themselves, u = curl(psi) for each nodal unit psi
        g = make_grid(2, extents, cells)
        (Nx, Ny), (hx, hy) = cells, g.spacing
        curls, energies = [], []
        for node in range((Nx - 1) * (Ny - 1)):
            psi = np.zeros((Nx + 1, Ny + 1))
            psi[1:-1, 1:-1].flat[node] = 1.0
            U = VectorField(g, [np.diff(psi, axis=1) / hy, -np.diff(psi, axis=0) / hx])
            assert divergence_max(U) <= 1e-12 / (hx * hy)
            curls.append(np.concatenate([c.ravel() for c in U.components]))
            lap = laplacian_noslip(U)
            energies.append(np.concatenate([-c.ravel() for c in lap.components]))
        C, AC = np.array(curls).T, np.array(energies).T
        oracle = scipy.linalg.eigh(C.T @ AC, C.T @ C, eigvals_only=True)[0]
        assert stokes_eigenvalue(g) == pytest.approx(oracle, rel=1e-12)

    def test_matches_mac_kernel_oracle_3d(self):
        # oracle: divergence_fc and -laplacian_noslip assembled column by
        # column on the interior faces, restricted to an orthonormal basis of
        # the divergence-free ones
        g = make_grid(3, (1.0, 2.0, 0.5), (4, 5, 6))
        shapes = [g.face_shape(d) for d in range(3)]
        interior = []
        for d, shape in enumerate(shapes):
            mask = np.zeros(shape, dtype=bool)
            mask[_axis_slices(d, 3).mid] = True
            interior.append(mask.ravel())
        interior = np.concatenate(interior)
        ends = np.cumsum([np.prod(shape) for shape in shapes])[:-1]
        divs, energies = [], []
        for face in np.flatnonzero(interior):
            unit = np.zeros(interior.size)
            unit[face] = 1.0
            U = VectorField(g, [c.reshape(shape) for c, shape in zip(np.split(unit, ends), shapes)])
            divs.append(divergence_fc(U).data.ravel())
            lap = laplacian_noslip(U)
            energies.append(np.concatenate([-c.ravel() for c in lap.components])[interior])
        Div, A = np.array(divs).T, np.array(energies).T
        np.testing.assert_allclose(A, A.T, rtol=0, atol=1e-9 * np.abs(A).max())
        Q = scipy.linalg.null_space(Div)
        oracle = np.linalg.eigvalsh(Q.T @ A @ Q)[0]
        assert oracle == pytest.approx(69.9638486038, rel=1e-10)
        assert stokes_eigenvalue(g) == pytest.approx(oracle, rel=1e-10)

    def test_three_dimensions_rise_under_refinement(self):
        lam = [stokes_eigenvalue(make_grid(3, (1.0, 1.0, 1.0), (N,) * 3)) for N in (12, 16, 24)]
        assert lam[0] < lam[1] < lam[2]

    def test_uncertified_solve_raises(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "EIGEN_MAX_ITERATIONS", 2)
        with pytest.raises(SolverFailure, match="not certified after 2 iterations") as info:
            stokes_eigenvalue(make_grid(2, (1.0, 1.0), (16, 16)))
        assert info.value.residual > diagnostics.EIGEN_TOL


class TestLyapunovConfig:
    """The energy estimate needs ``||grad f||^2 >= lambda_1 ||f - mean f||^2``,
    so the formulas take ``lambda_1 = 1/C_N`` of the Poincare constant."""

    def test_reference_arithmetic(self):
        C_N = 1.0 / np.pi**2  # lambda_1 = pi^2
        cfg = make_lyapunov_config(0.5, C_N)
        assert isinstance(cfg, LyapunovConfig)
        # B = midpoint of (1/(2 lambda_1), min(2/C_S^2, 10/lambda_1)); 10/pi^2 < 8
        assert cfg.B == pytest.approx(0.5 * (1 / (2 * np.pi**2) + 10 / np.pi**2), rel=1e-12)
        assert cfg.B == pytest.approx(0.53194, abs=5e-6)
        assert cfg.a1 == pytest.approx(cfg.B * np.pi**2 / 2 - 0.25, rel=1e-12)
        assert cfg.a1 == pytest.approx(2.375, rel=1e-12)
        assert cfg.a2 == pytest.approx(1 - cfg.B / 8.0, rel=1e-12)
        assert cfg.a1 > 0 and cfg.a2 > 0
        assert cfg.kappa_pred == pytest.approx(
            min(2 * cfg.a1 / cfg.B, 2 * np.pi**2 * cfg.a2), rel=1e-12
        )
        assert cfg.kappa_pred == pytest.approx(8.93, abs=5e-3)
        assert cfg.C_N == C_N

    def test_boundary_case_infeasible(self):
        C_N = 0.1  # lambda_1 = 10
        out = make_lyapunov_config(2.0 / np.sqrt(C_N), C_N)
        assert isinstance(out, LyapunovInfeasible)
        assert "C_S" in out.reason
        assert isinstance(make_lyapunov_config(0.999 * 2.0 / np.sqrt(C_N), C_N), LyapunovConfig)

    def test_small_cs_capped_interval(self):
        C_N = 0.1  # lambda_1 = 10: the interval (C_N/2, 10 C_N)
        cfg = make_lyapunov_config(1e-8, C_N)
        assert cfg.B == pytest.approx(0.5 * (C_N / 2 + 10 * C_N), rel=1e-12)
        assert cfg.a2 == pytest.approx(1.0, abs=1e-12)

    def test_budget_holds_at_zero_tolerance_on_a_wide_box(self):
        """On an 8 x 8 box ``1/C_N > C_N``: taken with ``C_N`` in place of
        ``lambda_1`` the bound was too strong, and this run broke it at
        tolerance 0 on every step (a1 2.375, kappa_pred 5.87)."""
        grid = make_grid(2, (8.0, 8.0), (32, 32))
        params, initial = scenario_library(grid=grid)["random_perturbation"].build(
            0, T=6.0, C_S=0.3
        )
        traj = run(params, initial)
        assert traj.completed, traj.error
        cfg = traj.lyapunov_config
        assert isinstance(cfg, LyapunovConfig)
        frac, total, worst = budget_check_series(traj.series, cfg, 0.0)
        assert total == traj.steps >= 100
        assert frac == 1.0 and worst < 0.0


class TestLyapunovValue:
    def _cfg(self):
        return make_lyapunov_config(0.5, 1.0 / np.pi**2)

    def test_steady_state_zero(self, grid2d):
        st = State.homogeneous(grid2d, 1.0)
        assert lyapunov(st, self._cfg()) == 0.0

    def test_constant_offset_in_c(self, grid2d):
        delta = 0.3
        st = State(
            t=0.0,
            n=ScalarField.full(grid2d, 1.0),
            c=ScalarField.full(grid2d, 1.0 + delta),
            u=VectorField.zeros(grid2d),
            P=ScalarField.zeros(grid2d),
        )
        expected = 0.5 * delta**2 * grid2d.total_volume
        assert lyapunov(st, self._cfg()) == pytest.approx(expected, rel=1e-13)

    def test_matches_independent_summation(self, grid2d, rng):
        # oracle: math.fsum over explicit python loops
        cfg = self._cfg()
        n = rng.uniform(0, 2, grid2d.shape)
        c = rng.uniform(0, 2, grid2d.shape)
        st = State(
            t=0.0,
            n=ScalarField(grid2d, n),
            c=ScalarField(grid2d, c),
            u=VectorField.zeros(grid2d),
            P=ScalarField.zeros(grid2d),
        )
        nbar = math.fsum(n.reshape(-1)) / n.size
        vol = grid2d.volume_element
        l2n = math.fsum((v - nbar) ** 2 for v in n.reshape(-1)) * vol
        l2c = math.fsum((v - nbar) ** 2 for v in c.reshape(-1)) * vol
        expected = 0.5 * cfg.B * l2n + 0.5 * l2c
        assert lyapunov(st, cfg) == pytest.approx(expected, rel=1e-12)

    def test_zero_iff_homogeneous(self, grid2d):
        cfg = self._cfg()
        st = State.homogeneous(grid2d, 1.0)
        assert lyapunov(st, cfg) == 0.0
        d = steady_state_distance(st)
        assert (d.n_inf, d.c_inf, d.u_inf) == (0.0, 0.0, 0.0)
        st2 = State(
            t=0.0,
            n=ScalarField.from_function(grid2d, lambda x, y: 1 + 0.1 * np.cos(np.pi * x)),
            c=ScalarField.full(grid2d, 1.0),
            u=VectorField.zeros(grid2d),
            P=ScalarField.zeros(grid2d),
        )
        assert lyapunov(st2, cfg) > 0
        assert steady_state_distance(st2).n_inf > 0


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 4, 200)
        fit = fit_decay_rate(t, np.exp(-2.0 * t))
        assert fit.rate == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0, 1, 50)
        fit = fit_decay_rate(t, np.full(50, 3.3))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        t = np.linspace(0, 2, 64)
        vals = np.exp(-1.3 * t) * (1 + 0.01 * rng.standard_normal(64)) ** 2
        f1 = fit_decay_rate(t, vals)
        f2 = fit_decay_rate(t, 17.0 * vals)
        assert f1.rate == pytest.approx(f2.rate, rel=1e-13)
        assert f1.r_squared == pytest.approx(f2.r_squared, rel=1e-13)

    def test_window_and_guards(self):
        t = np.linspace(0, 1, 100)
        v = np.exp(-t)
        with pytest.raises(ValueError):
            fit_decay_rate(t[:5], v[:5])
        v2 = v.copy()
        v2[50] = -1.0
        with pytest.raises(ValueError):
            fit_decay_rate(t, v2)
        fit = fit_decay_rate(t, v2, window=(0.0, 0.4))
        assert fit.rate == pytest.approx(1.0, abs=1e-8)

    def test_simulated_c_relaxation_rate_two(self):
        # ODE slice: n = 0, u = 0, constant c decays at rate 1, so the
        # squared L2 norm decays at rate 2 (within the Euler bias)
        g = make_grid(2, (1.0, 1.0), (16, 16))
        params = SimParams(
            grid=g,
            sensitivity=SensitivitySpec(kind="scalar_saturating", C_S=0.5),
            regularization=RegularizationParams(eps=0.1),
            fluid=FluidParams(kappa=0.0, eps=0.1, phi=None),
            T=0.5,
        )
        init = State(
            t=0.0,
            n=ScalarField.zeros(g),
            c=ScalarField.full(g, 2.0),
            u=VectorField.zeros(g),
            P=ScalarField.zeros(g),
        )
        traj = run(params, init)
        s = traj.series
        fit = fit_decay_rate(s.t, s.l2_c_dev)
        assert fit.rate == pytest.approx(2.0, rel=0.05)
        assert fit.r_squared >= 0.999


class TestGradCNorms:
    def test_constant(self, grid2d):
        out = grad_c_norms(ScalarField.full(grid2d, 2.0))
        assert out.l2_sq == 0.0 and out.l4_4 == 0.0

    def test_unit_slope_exact(self):
        g = make_grid(2, (1.0, 1.0), (64, 64))
        c = ScalarField.from_function(g, lambda x, y: x + 0 * y)
        out = grad_c_norms(c)
        assert out.l2_sq == pytest.approx(1.0, rel=1e-12)
        assert out.l4_4 == pytest.approx(1.0, rel=1e-12)

    def test_holder_bound(self, grid2d, rng):
        c = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        out = grad_c_norms(c)
        # |grad c|^4 <= max|grad c|^2 * |grad c|^2 pointwise
        from chemofluid.grid import gradient_cc

        gmax2 = max(np.abs(comp).max() for comp in gradient_cc(c).components) ** 2
        assert out.l4_4 <= 2.0 * gmax2 * out.l2_sq  # factor 2 for the cell mix


    @pytest.mark.parametrize("cells", [(12, 20), (6, 9, 5)])
    def test_bit_equal_to_mirror_pad_oracle(self, rng, cells):
        g = make_grid(len(cells), (1.0,) * len(cells), cells)
        c = ScalarField(g, rng.standard_normal(g.shape))
        grad = gradient_cc(c)
        # the former expression: the interior faces with even ghosts in
        # place of the wall faces, averaged onto the cells
        mag2 = np.zeros(g.shape)
        for d in range(g.dim):
            s = _axis_slices(d, g.dim)
            f = _mirror_pad(grad.components[d][s.mid], d, 1.0)
            cell_d = 0.5 * (f[s.lo] + f[s.hi])
            mag2 += cell_d * cell_d
        vol = g.volume_element
        out = grad_c_norms(c, grad)
        assert out.l2_sq == float(mag2.sum()) * vol
        assert out.l4_4 == float((mag2 * mag2).sum()) * vol


def _central(f, x, h=1e-3):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


class TestWeakTestFactors:
    """Each table entry is the x-derivative of the entry one order lower."""

    @pytest.fixture(scope="class")
    def samples(self):
        rng = np.random.default_rng(18)
        return rng.uniform(0.0, 1.0, 40), rng.uniform(0.5, 3.0, 40) * math.pi

    def test_sin2_orders_0_to_3(self, samples):
        x, k = samples
        assert np.array_equal(_sin2_factor(k, x, 0), np.sin(k * x) ** 2)
        for order in (1, 2, 3):
            fd = _central(lambda s: _sin2_factor(k, s, order - 1), x)
            assert np.allclose(_sin2_factor(k, x, order), fd, rtol=0, atol=1e-6 * k**order)

    def test_cos_orders_0_to_1(self, samples):
        x, k = samples
        assert np.array_equal(_cos_factor(k, x, 0), np.cos(k * x))
        fd = _central(lambda s: _cos_factor(k, s, 0), x)
        assert np.allclose(_cos_factor(k, x, 1), fd, rtol=0, atol=1e-6 * k)


class TestStreamTest:
    """The velocity test's derivatives against its own values."""

    GRIDS = [((48, 40), (1.0, 1.3)), ((32, 40, 40), (1.0, 1.3, 0.6))]

    @pytest.mark.parametrize("cells, extents", GRIDS, ids=["2d", "3d"])
    def test_derivatives_match_finite_differences(self, cells, extents):
        # centered differences on an anisotropic box: a sign or axis slip in
        # any gradient or Laplacian term is an O(1) error, truncation < 1%
        g = make_grid(len(cells), extents, cells)
        w, lap, grad = _stream_test(g)
        inner = (slice(1, -1),) * g.dim

        def fd(a, e):
            return np.gradient(a, g.spacing[e], axis=e)[inner]

        def close(approx, exact):
            return np.abs(approx - exact[inner]).max() <= 0.01 * np.abs(exact).max()

        assert np.abs(w[0]).max() > 0 and np.abs(w[1]).max() > 0
        for d in range(g.dim):
            for e in range(g.dim):
                assert close(fd(w[d], e), grad[(d, e)])
            assert close(sum(fd(grad[(d, e)], e) for e in range(g.dim)), lap[d])

    @pytest.mark.parametrize("cells, extents", GRIDS, ids=["2d", "3d"])
    def test_divergence_free_exactly(self, cells, extents):
        g = make_grid(len(cells), extents, cells)
        _, _, grad = _stream_test(g)
        assert not np.any(sum(grad[(d, d)] for d in range(g.dim)))


class TestWeakResidual:
    def _bump_traj(self, N=24, T=0.08, snapshot_every=4, **kw):
        from chemofluid.verify import bump_field

        g = make_grid(2, (1.0, 1.0), (N, N))
        params = SimParams(
            grid=g,
            sensitivity=SensitivitySpec(kind="scalar_saturating", C_S=0.5),
            regularization=RegularizationParams(eps=0.1),
            fluid=FluidParams(kappa=kw.pop("kappa", 1.0), eps=0.1, phi=default_phi(g)),
            T=T,
            snapshot_every=snapshot_every,
        )
        init = State(
            t=0.0,
            n=bump_field(g, 1.0, 0.5),
            c=ScalarField.full(g, 0.5),
            u=swirl_velocity(g, 0.1),
            P=ScalarField.zeros(g),
        )
        return run(params, init)

    @staticmethod
    def _steady_residuals(cells, sensitivity, snapshot_every):
        g = make_grid(len(cells), (1.0,) * len(cells), cells)
        params = SimParams(
            grid=g,
            sensitivity=sensitivity,
            regularization=RegularizationParams(eps=0.1),
            fluid=FluidParams(kappa=1.0, eps=0.1, phi=default_phi(g)),
            T=0.05,
            snapshot_every=snapshot_every,
        )
        return weak_residual(run(params, State.homogeneous(g, 1.0)))

    def test_steady_trajectory_residuals_tiny(self):
        # every 2nd of the 64 steps: weak_residual needs 16 snapshots
        scalar = SensitivitySpec(kind="scalar_saturating", C_S=0.5)
        r = self._steady_residuals((16, 16), scalar, snapshot_every=2)
        assert all(v <= 1e-10 for v in r.values())

    @pytest.mark.parametrize(
        "sensitivity",
        [
            SensitivitySpec(kind="scalar_saturating", C_S=0.5),
            SensitivitySpec(kind="rotational", C_S=0.5, theta=math.pi / 2),
        ],
        ids=["scalar", "rotational"],
    )
    def test_steady_trajectory_residuals_tiny_in_3d(self, sensitivity):
        r = self._steady_residuals((8, 8, 8), sensitivity, snapshot_every=1)
        assert all(v <= 1e-10 for v in r.values())

    def test_moving_fluid_residuals_pinned_in_3d(self):
        # bump_n at 8^3 drives u through the force, so the 3-D viscous,
        # convective and z-derivative terms all enter r_u
        params, init = scenario_library((8, 8, 8))["bump_n"].build(0, T=0.1)
        traj = run(dataclasses.replace(params, snapshot_every=1), init)
        r = weak_residual(traj)
        expected = {
            "r_n": float.fromhex("0x1.4d1e49b5e73c0p-18"),
            "r_c": float.fromhex("0x1.219b2c4c75ae0p-22"),
            "r_u": float.fromhex("0x1.7e0bd8c5ab89cp-19"),
        }
        for key, value in expected.items():
            assert r[key] == pytest.approx(value, rel=1e-12, abs=0)

    def test_constant_test_function_reduces_to_mass(self):
        traj = self._bump_traj()
        r = weak_residual(traj, WeakTestSpec(scalar_modes=(0, 0)))
        assert r["r_n"] <= 1e-10

    def test_insufficient_snapshots_rejected(self):
        traj = self._bump_traj(snapshot_every=0)
        with pytest.raises(ValueError):
            weak_residual(traj)

    def test_refinement_decreases_residuals(self):
        r_coarse = weak_residual(self._bump_traj(N=16, snapshot_every=4))
        r_fine = weak_residual(self._bump_traj(N=32, snapshot_every=8))
        for key in ("r_n", "r_c", "r_u"):
            assert r_fine[key] < r_coarse[key]


class TestIntegratedDissipation:
    def test_residuals_exposed_per_step(self):
        from chemofluid.verify import scenario_library

        lib = scenario_library((16, 16))
        params, init = lib["bump_n"].build(0, T=0.005)
        traj = run(params, init)
        res = traj.series.proj_residual
        assert res.shape == traj.series.t.shape
        assert res[0] == 0.0  # the initial row precedes any step
        assert np.all(res[1:] > 0) and np.all(res <= 1e-10)
