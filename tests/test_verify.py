"""Scenario harness, epsilon ladder, and convergence runner."""

import dataclasses

import numpy as np
import pytest

import chemofluid.stepper as stepper_mod
import chemofluid.verify as verify_mod
from chemofluid.diagnostics import (
    LyapunovInfeasible,
    budget_check_series,
    lyapunov,
    make_lyapunov_config,
    poincare_constant,
)
from chemofluid.grid import make_grid
from chemofluid.manufactured import mms_cases
from chemofluid.sensitivity import RegularizationParams, SensitivitySpec
from chemofluid.stepper import SimParams, State, cfl_dt, run
from chemofluid.fluid import FluidParams
from chemofluid.verify import (
    ConvergenceReport,
    Scenario,
    _assert_lyapunov_monotone,
    calibrate_tol_disc,
    epsilon_ladder,
    mms_convergence,
    mms_passed,
    mms_resolutions,
    run_scenario,
    run_suite,
    scenario_library,
)

CELLS = (24, 24)


@pytest.fixture(scope="module")
def lib():
    return scenario_library(CELLS)


class TestScenarios:
    def test_steady_state_all_pass(self, lib):
        report = run_scenario(lib["steady_state"], seed=0)
        assert report.passed
        assert all(r.status == "pass" for r in report.results)

    def test_library_is_complete(self, lib):
        for name in (
            "steady_state",
            "bump_n",
            "random_perturbation",
            "rotational_flux",
            "convection_on",
            "swirl",
        ):
            assert name in lib

    # name: (kind, C_S, theta, kappa, eps, T, cfl_sigma, max_steps); "small"
    # stands for C_S = sqrt(C_N), inside the smallness condition
    DEFAULTS = {
        "steady_state": ("scalar_saturating", 0.5, 0.0, 1.0, 0.1, 0.02, 0.4, None),
        "bump_n": ("scalar_saturating", 0.5, 0.0, 1.0, 0.1, 0.25, 0.4, None),
        "random_perturbation": ("scalar_saturating", "small", 0.0, 1.0, 0.1, 0.75, 0.4, None),
        "rotational_flux": ("rotational", "small", np.pi / 2, 1.0, 0.1, 0.3, 0.4, None),
        "convection_on": ("scalar_saturating", 0.5, 0.0, 1.0, 0.1, 0.1, 0.4, None),
        "swirl": ("scalar_saturating", 0.5, 0.0, 0.0, 0.1, 0.12, 0.4, None),
    }

    @pytest.mark.parametrize("name", sorted(DEFAULTS))
    def test_default_parameters(self, lib, name):
        p, _ = lib[name].build(0)
        small = float(np.sqrt(poincare_constant(p.grid)))
        expected = tuple(small if v == "small" else v for v in self.DEFAULTS[name])
        got = (
            p.sensitivity.kind, p.sensitivity.C_S, p.sensitivity.theta, p.fluid.kappa,
            p.fluid.eps, p.T, p.cfl_sigma, p.max_steps,
        )
        assert got == expected
        assert p.regularization.eps == p.fluid.eps

    @pytest.mark.parametrize("name", sorted(DEFAULTS))
    def test_every_scenario_takes_the_same_overrides(self, lib, name):
        p, _ = lib[name].build(0, T=0.5, max_steps=7, C_S=0.3, sigma=0.2)
        assert (p.T, p.max_steps, p.sensitivity.C_S, p.cfl_sigma) == (0.5, 7, 0.3, 0.2)

    def test_bump_scenario_passes(self, lib):
        sc = lib["bump_n"]
        sc = dataclasses.replace(sc, build=lambda s: lib["bump_n"].build(s, T=0.02))
        report = run_scenario(sc, seed=0)
        assert report.passed

    def test_reports_are_reproducible(self, lib):
        a = run_scenario(lib["steady_state"], seed=3)
        b = run_scenario(lib["steady_state"], seed=3)
        assert [(r.name, r.status, r.measured) for r in a.results] == [
            (r.name, r.status, r.measured) for r in b.results
        ]

    def test_infeasible_smallness_is_skip_not_crash(self):
        g = make_grid(2, (1.0, 1.0), CELLS)
        C_N = poincare_constant(g)
        params = SimParams(
            grid=g,
            sensitivity=SensitivitySpec(
                kind="scalar_saturating", C_S=2.5 / float(np.sqrt(C_N))
            ),
            regularization=RegularizationParams(eps=0.1),
            fluid=FluidParams(kappa=1.0, eps=0.1, phi=None),
            T=0.005,
        )
        init = State.homogeneous(g, 1.0)
        sc = Scenario(
            "infeasible",
            "beyond the smallness condition",
            lambda s: (params, init),
            [("lyapunov_monotone", _assert_lyapunov_monotone)],
        )
        report = run_scenario(sc, seed=0)
        assert report.passed  # skip, not fail
        assert report.results[0].status == "skip"
        assert isinstance(report.trajectory.lyapunov_config, LyapunovInfeasible)

    def test_abort_becomes_failed_verdict(self):
        g = make_grid(2, (1.0, 1.0), (16, 16))

        def build(seed):
            params = SimParams(
                grid=g,
                sensitivity=SensitivitySpec(kind="scalar_saturating", C_S=0.5),
                regularization=RegularizationParams(eps=0.1),
                fluid=FluidParams(kappa=0.0, eps=0.1, phi=None),
                T=1.0,
                forcing_n=lambda coords, t: -1e7 * np.ones(g.shape),
            )
            return params, State.homogeneous(g, 1.0)

        from chemofluid.verify import _assert_positive

        sc = Scenario("poisoned", "driven negative", build, [("completed", _assert_positive)])
        report = run_scenario(sc, seed=0)
        assert not report.passed
        assert "aborted" in report.results[0].measured


    def test_lyapunov_suite_in_three_d(self):
        reports = run_suite("lyapunov", cells=(8, 8, 8))
        infeasible = next(r for r in reports if r.scenario == "infeasible_by_design")
        assert infeasible.trajectory.params.grid.cells == (8, 8, 8)
        statuses = {r.name: r.status for r in infeasible.results}
        assert statuses["lyapunov_monotone"] == "skip"
        assert all(r.passed for r in reports)

    def test_each_run_uses_its_own_build(self):
        lib = scenario_library((16, 16))
        bump = lib["bump_n"]
        first = run_scenario(bump)
        short = run_scenario(dataclasses.replace(bump, build=lambda s: bump.build(s, T=0.01)))
        assert first.trajectory.series.t[-1] == pytest.approx(0.25)
        assert short.trajectory.series.t[-1] == pytest.approx(0.01)

    @pytest.mark.parametrize("cells", [(16, 16), (12, 12, 12)], ids=["16x16", "12x12x12"])
    def test_every_library_scenario_passes(self, cells):
        # 12^3, not 8^3: at 8^3 the swirl fit gets too few samples
        for name, scenario in scenario_library(cells).items():
            report = run_scenario(scenario)
            assert report.passed, (name, [(r.name, r.status, r.measured) for r in report.results])

    def test_suite_all_runs_a_shared_trajectory_once_per_call(self, monkeypatch):
        suites = {k: verify_mod.SUITES[k] for k in ("lyapunov", "stabilization")}
        monkeypatch.setattr(verify_mod, "SUITES", suites)
        horizons = []
        real_run = verify_mod.run

        def counted_run(params, *args, **kwargs):
            horizons.append(params.T)
            return real_run(params, *args, **kwargs)

        monkeypatch.setattr(verify_mod, "run", counted_run)
        run_suite("all", cells=(8, 8))
        assert horizons.count(0.75) == 1  # random_perturbation, read by both suites
        run_suite("all", cells=(8, 8))
        assert horizons.count(0.75) == 2  # nothing outlives a call


class _ScaledResolvent:
    """The run's spectral core with the resolvent coefficient scaled: a
    diffusion at ``scale`` times its strength, a wrong scheme."""

    def __init__(self, solver, scale):
        self.solver, self.scale = solver, scale

    def neumann_resolvent(self, data, coef):
        return self.solver.neumann_resolvent(data, self.scale * coef)


class TestToleranceCalibration:
    def test_probe_produces_finite_tolerance(self, lib, monkeypatch):
        """The allowance is the closed form ``K eps L_0 / dt_0``, made
        without a run."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "run", counted)
        monkeypatch.setattr(stepper_mod, "run", counted)
        params, initial = lib["random_perturbation"].build(0, T=0.01)
        tol = calibrate_tol_disc(params, initial)
        assert calls == []
        assert np.isfinite(tol) and tol > 0
        cfg = make_lyapunov_config(params.sensitivity.C_S, poincare_constant(params.grid))
        floor = np.finfo(float).eps * lyapunov(initial, cfg) / cfl_dt(initial, params)
        assert tol == pytest.approx(verify_mod.ROUNDOFF_FACTOR * floor, rel=1e-14)

    def test_no_certificate_no_allowance(self):
        assert calibrate_tol_disc(*verify_mod._infeasible_build((16, 16), 0)) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.1])
    def test_budget_fails_a_weak_c_diffusion(self, monkeypatch, scale):
        """Scaling step_c's resolvent coefficient to 50% or 10% of dt breaks
        the budget on some steps; the honest scheme keeps every step from
        t = 0."""
        honest = stepper_mod.step_c

        def step_c(c, n, u, dt, forcing=None, t=0.0, solver=None):
            return honest(c, n, u, dt, forcing, t, _ScaledResolvent(solver, scale))

        monkeypatch.setattr(stepper_mod, "step_c", step_c)
        params, initial = scenario_library((16, 16))["random_perturbation"].build(0)
        traj = run(params, initial)
        assert traj.completed, traj.error
        frac, total, worst = budget_check_series(
            traj.series, traj.lyapunov_config, calibrate_tol_disc(params, initial)
        )
        assert total >= 200
        if scale == 1.0:
            assert frac == 1.0 and worst < 0.0
        else:
            assert frac < 0.99


class TestEpsilonLadder:
    def _base(self, lib, T=0.01):
        return lib["bump_n"].build(0, T=T)

    def test_single_rung_trivially_cauchy(self, lib):
        params, init = self._base(lib)
        rep = epsilon_ladder(params, init, [0.5])
        assert rep.monotone and rep.distances == []

    def test_linear_slice_rungs_identical(self, lib):
        # chemotaxis negligible and kappa = 0: eps enters nowhere observable
        params, init = self._base(lib)
        params = dataclasses.replace(
            params,
            sensitivity=SensitivitySpec(kind="scalar_saturating", C_S=1e-30),
            fluid=FluidParams(kappa=0.0, eps=0.1, phi=params.fluid.phi),
        )
        rep = epsilon_ladder(params, init, [0.4, 0.2, 0.1])
        assert all(d["total"] <= 1e-12 for d in rep.distances)

    def test_decreasing_required(self, lib):
        params, init = self._base(lib)
        with pytest.raises(ValueError):
            epsilon_ladder(params, init, [0.1, 0.2])
        with pytest.raises(ValueError):
            epsilon_ladder(params, init, [1.5, 0.2])

    def test_bump_ladder_distances_shrink(self, lib):
        params, init = self._base(lib, T=0.05)
        rep = epsilon_ladder(params, init, [0.4, 0.2, 0.1, 0.05])
        assert not rep.failures
        totals = [d["total"] for d in rep.distances]
        assert rep.inversions <= 1
        assert totals[-1] < totals[0]


def _recording_runs(monkeypatch):
    """Route ``verify.run`` through a wrapper; returns the list of rows each
    run recorded."""
    rows = []

    def recorded(*args, **kwargs):
        traj = run(*args, **kwargs)
        rows.append(len(traj.series))
        return traj

    monkeypatch.setattr(verify_mod, "run", recorded)
    return rows


class TestEndsOnlyRows:
    """The ladder and the MMS runner read final states only: their runs
    record two rows and give the same bits as runs recording every row."""

    def test_mms_convergence(self, monkeypatch):
        rows = _recording_runs(monkeypatch)
        cases = mms_cases()
        lean = {name: mms_convergence(cases[name], [8, 12, 16]).errors for name in cases}
        assert rows == [2] * 9
        monkeypatch.setattr(verify_mod, "ENDS_ONLY", 1)
        rows.clear()
        full = {name: mms_convergence(cases[name], [8, 12, 16]).errors for name in cases}
        assert min(rows) > 2
        assert lean == full

    def test_epsilon_ladder(self, monkeypatch, lib):
        params, init = lib["bump_n"].build(0, T=0.02)
        rows = _recording_runs(monkeypatch)
        lean = epsilon_ladder(params, init, [0.4, 0.2, 0.1])
        assert rows == [2, 2, 2]
        monkeypatch.setattr(verify_mod, "ENDS_ONLY", 1)
        rows.clear()
        full = epsilon_ladder(params, init, [0.4, 0.2, 0.1])
        assert min(rows) > 2
        assert lean.distances == full.distances and lean.distances


class TestMmsSuiteGrid:
    def test_resolutions_follow_the_grid(self):
        assert mms_resolutions((64, 64)) == [16, 32, 64]
        assert mms_resolutions((16, 16)) == [4, 8, 16]
        assert mms_resolutions([32, 32]) == [8, 16, 32]
        for cells in ((12, 12), (18, 18), (16, 32), (16, 16, 16)):
            assert mms_resolutions(cells) is None

    def test_suite_runs_the_grid_ladder(self, monkeypatch):
        seen = []
        original = verify_mod.mms_convergence

        def recorded(case, resolutions):
            seen.append(list(resolutions))
            return original(case, resolutions)

        monkeypatch.setattr(verify_mod, "mms_convergence", recorded)
        reports = run_suite("mms", cells=(16, 16))
        assert seen == [[4, 8, 16]] * len(mms_cases())
        assert [r.scenario for r in reports] == [f"mms_{name}" for name in mms_cases()]

    @pytest.mark.parametrize("cells", [(16, 8), (20, 20, 20), (10, 10)])
    def test_other_grids_skip(self, cells):
        reports = run_suite("mms", cells=cells)
        assert len(reports) == len(mms_cases())
        for rep in reports:
            assert rep.passed
            (res,) = rep.results
            assert res.status == "skip"
            assert "x".join(map(str, cells)) in res.measured


class TestMmsRunner:
    def test_needs_three_resolutions(self):
        with pytest.raises(ValueError):
            mms_convergence(mms_cases()["diffusion_only"], [8, 16])

    @pytest.mark.parametrize("resolutions", [[8, 8, 8], [8, 12, 8]], ids=["repeated", "coarsened"])
    def test_resolutions_must_refine(self, monkeypatch, resolutions):
        rows = _recording_runs(monkeypatch)
        with pytest.raises(ValueError, match="strictly increase"):
            mms_convergence(mms_cases()["diffusion_only"], resolutions)
        assert rows == []  # refused before any run

    def test_diffusion_small_smoke_second_order(self):
        conv = mms_convergence(mms_cases()["diffusion_only"], [8, 16, 32])
        assert conv.monotone
        assert 1.7 <= conv.lsq_order <= 2.3

    @pytest.mark.parametrize("name", ["diffusion_only", "coupled"])
    def test_order_is_the_least_squares_slope(self, name):
        # exact_steady, the third case, sits at roundoff and reports no order
        resolutions = [8, 12, 16]
        conv = mms_convergence(mms_cases()[name], resolutions)
        hs = np.log([1.0 / N for N in resolutions])
        assert conv.lsq_order == pytest.approx(np.polyfit(hs, np.log(conv.errors), 1)[0], rel=1e-12)

    def test_exact_steady_reports_roundoff(self):
        conv = mms_convergence(mms_cases()["exact_steady"], [8, 16, 32])
        assert max(conv.errors) <= 1e-12
        assert "order undefined" in conv.note

    @pytest.mark.parametrize(
        "expected, order, errors, passed",
        [
            ((1.8, 2.2), 2.0, [1e-2, 1e-3], True),
            ((1.8, 2.2), 2.3, [1e-2, 1e-3], False),
            ((1.8, 2.2), 1.7, [1e-2, 1e-3], False),
            ((0.9, None), 5.0, [1e-2, 1e-3], True),
            ((0.9, None), 0.8, [1e-2, 1e-3], False),
            (None, float("nan"), [0.0, 1e-12], True),
            (None, 2.0, [1e-11, 1e-13], False),
        ],
    )
    def test_pass_rule(self, expected, order, errors, passed):
        case = dataclasses.replace(mms_cases()["diffusion_only"], expected_order=expected)
        conv = ConvergenceReport(case.name, [8, 16], errors, [], order, True)
        assert mms_passed(case, conv) == passed
