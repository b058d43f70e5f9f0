"""Acceptance gate: every quantitative criterion at its stated tolerance.

Heavy trajectories are shared between the criteria they serve (the
conservation pair, and the stabilization triple).  Each test prints one
PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to watch them.
"""

import dataclasses
import time

import numpy as np
import pytest

from chemofluid.cli import main as cli_main
from chemofluid.diagnostics import (
    LyapunovConfig,
    budget_check_series,
    fit_decay_rate,
    poincare_constant,
    steady_state_distance,
    stokes_eigenvalue,
    transient_end_time,
    weak_residual,
)
from chemofluid.grid import make_grid
from chemofluid.manufactured import mms_cases
from chemofluid.stepper import cfl_dt, run
from chemofluid.verify import (
    calibrate_tol_disc,
    energy_residual_probe,
    epsilon_ladder,
    mms_convergence,
    scenario_library,
)

pytestmark = pytest.mark.acceptance

CELLS = (64, 64)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def library():
    return scenario_library(CELLS)


@pytest.fixture(scope="module")
def conservation_run(library):
    params, initial = library["bump_n"].build(0, T=1e9, max_steps=10_000)
    t0 = time.time()
    traj = run(params, initial)
    return traj, time.time() - t0


@pytest.fixture(scope="module")
def stabilization_run(library):
    params, initial = library["random_perturbation"].build(0)
    t0 = time.time()
    traj = run(params, initial)
    elapsed = time.time() - t0
    tol_disc = calibrate_tol_disc(params, initial)
    return traj, elapsed, tol_disc


class TestCriterion1MassConservation:
    def test_mass_drift_and_runtime(self, conservation_run):
        traj, elapsed = conservation_run
        assert traj.completed and traj.steps == 10_000
        drift = float(np.abs(traj.series.mass_n - traj.mass_n0).max()) / abs(traj.mass_n0)
        ok = drift <= 1e-10 and elapsed <= 60.0
        report(1, ok, f"mass drift {drift:.3e} (<=1e-10), runtime {elapsed:.1f}s (<=60s)")


class TestCriterion2CQuasiMass:
    def test_c_mass_bound_every_recorded_time(self, conservation_run):
        traj, _ = conservation_run
        bound = max(traj.mass_n0, traj.mass_c0)
        excess = float((traj.series.mass_c - bound).max())
        ok = excess <= 1e-10
        report(2, ok, f"max excess over max(mass_n0, mass_c0): {excess:.3e} (<=1e-10)")


class TestCriterion3LyapunovMonotonicity:
    def test_dissipation_budget(self, stabilization_run):
        traj, elapsed, tol_disc = stabilization_run
        cfg = traj.lyapunov_config
        assert isinstance(cfg, LyapunovConfig), "smallness condition must hold here"
        t0 = transient_end_time(traj.series)
        frac, total = budget_check_series(traj.series, cfg, tol_disc, t_start=t0)
        ok = frac >= 0.99 and elapsed <= 300.0
        report(
            3,
            ok,
            f"dL/dt <= bound_rhs + tol_disc at {100 * frac:.3f}% of {total} steps "
            f"(>=99%), tol_disc {tol_disc:.3e}, runtime {elapsed:.0f}s (<=300s)",
        )


class TestCriterion4ExponentialStabilization:
    def test_rate_and_distances(self, stabilization_run):
        traj, _, _ = stabilization_run
        cfg = traj.lyapunov_config
        s = traj.series
        t0 = transient_end_time(s)
        fit = fit_decay_rate(s.t, s.l2_n_dev + s.l2_c_dev, window=(t0, float(s.t[-1])))
        d_init = steady_state_distance(traj.snapshots[0][1])
        d_final = steady_state_distance(traj.final_state())
        ratios = (
            d_final.n_inf / d_init.n_inf,
            d_final.c_inf / d_init.c_inf,
            d_final.u_inf / d_init.u_inf,
        )
        ok = (
            fit.r_squared >= 0.99
            and fit.rate >= 0.5 * cfg.kappa_pred
            and all(r < 0.01 for r in ratios)
        )
        report(
            4,
            ok,
            f"rate {fit.rate:.3f} >= 0.5*kappa_pred {0.5 * cfg.kappa_pred:.4f}, "
            f"r^2 {fit.r_squared:.4f} (>=0.99), final/initial distances "
            f"n {ratios[0]:.2e}, c {ratios[1]:.2e}, u {ratios[2]:.2e} (<1%)",
        )


class TestCriterion5UEnergyDecay:
    def test_rate_matches_stokes_eigenvalue(self, library):
        lam = stokes_eigenvalue(make_grid(2, (1.0, 1.0), CELLS))
        rates = {}
        for sigma in (0.4, 0.2):
            params, initial = library["swirl"].build(0, T=0.12, sigma=sigma)
            traj = run(params, initial)
            s = traj.series
            mask = s.l2_u > 1e-280
            fit = fit_decay_rate(
                s.t[mask], s.l2_u[mask], window=(0.02, float(s.t[mask][-1]))
            )
            assert fit.r_squared >= 0.99
            rates[sigma] = fit.rate
        refined = 2.0 * rates[0.2] - rates[0.4]  # dt-refined (Richardson)
        rel = abs(refined - 2.0 * lam) / (2.0 * lam)
        params, initial = library["swirl"].build(0)
        dt = cfl_dt(initial, params)
        r1 = energy_residual_probe(params, initial, dt, steps=20)
        r2 = energy_residual_probe(params, initial, dt / 2, steps=40)
        halving = r1 / r2
        ok = rel <= 0.20 and 1.5 <= halving <= 2.5
        report(
            5,
            ok,
            f"dt-refined u-energy rate {refined:.2f} vs 2*lambda_1 {2 * lam:.2f} "
            f"(rel {rel:.2e} <= 0.2); residual halving {halving:.2f} in [1.5, 2.5]",
        )


class TestCriterion6GradCDecay:
    def test_both_norms_fit_exponentials(self, stabilization_run):
        traj, _, _ = stabilization_run
        s = traj.series
        t0 = transient_end_time(s)
        fits = {}
        for col in ("grad_c_l2", "grad_c_l4"):
            vals = s.column(col)
            mask = vals > 1e-280
            fits[col] = fit_decay_rate(
                s.t[mask], vals[mask], window=(t0, float(s.t[mask][-1]))
            )
        ok = all(f.rate > 0 and f.r_squared >= 0.98 for f in fits.values())
        report(
            6,
            ok,
            ", ".join(
                f"{col}: rate {f.rate:.2f}, r^2 {f.r_squared:.4f}"
                for col, f in fits.items()
            )
            + " (r^2 >= 0.98, rates > 0)",
        )


class TestCriterion7PoincareConstant:
    def test_square_and_cube(self):
        c2 = poincare_constant(make_grid(2, (1.0, 1.0), (64, 64)))
        c3 = poincare_constant(make_grid(3, (1.0, 1.0, 1.0), (32, 32, 32)))
        target = 1.0 / np.pi**2
        e2 = abs(c2 - target) / target
        e3 = abs(c3 - target) / target
        ok = e2 <= 0.01 and e3 <= 0.03
        report(
            7,
            ok,
            f"unit square N=64: {c2:.6f} (err {e2:.2e} <= 1%), "
            f"unit cube N=32: {c3:.6f} (err {e3:.2e} <= 3%)",
        )


class TestCriterion8WeakResidualConsistency:
    def test_refinement_halving(self):
        residuals = {}
        for N, snap_every in ((32, 20), (64, 40)):
            lib = scenario_library((N, N))
            params, initial = lib["bump_n"].build(0, T=0.2)
            params = dataclasses.replace(params, snapshot_every=snap_every)
            traj = run(params, initial)
            residuals[N] = weak_residual(traj)
        ratios = {k: residuals[32][k] / residuals[64][k] for k in ("r_n", "r_c", "r_u")}
        ok = all(1.4 <= r <= 2.6 for r in ratios.values())
        report(
            8,
            ok,
            "refinement factors "
            + ", ".join(f"{k} {v:.2f}" for k, v in ratios.items())
            + " (all in [1.4, 2.6])",
        )


class TestCriterion9EpsilonLadder:
    def test_cauchy_trend(self, library):
        params, initial = library["bump_n"].build(0, T=0.1)
        rep = epsilon_ladder(params, initial, [0.4, 0.2, 0.1, 0.05])
        totals = [d["total"] for d in rep.distances]
        ok = not rep.failures and rep.inversions <= 1
        report(
            9,
            ok,
            f"successive distances {['%.3e' % v for v in totals]}, "
            f"inversions {rep.inversions} (<=1 at 10% slack)",
        )


class TestCriterion10MmsConvergence:
    def test_orders(self):
        cases = mms_cases()
        diff = mms_convergence(cases["diffusion_only"], [16, 32, 64])
        coup = mms_convergence(cases["coupled"], [16, 32, 64])
        ok = 1.8 <= diff.lsq_order <= 2.2 and coup.lsq_order >= 0.9
        report(
            10,
            ok,
            f"diffusion-only order {diff.lsq_order:.3f} in [1.8, 2.2]; "
            f"coupled order {coup.lsq_order:.3f} >= 0.9",
        )


class TestCriterion11Determinism:
    def test_byte_identical_csv(self, tmp_path):
        cfg = tmp_path / "determinism.cfg"
        cfg.write_text(
            "[grid]\ndim = 2\ncells = 64,64\nextents = 1.0,1.0\n"
            "[run]\nT = 1e9\nscenario = bump_n\nmax_steps = 300\n"
        )
        payloads = []
        for i, threads in enumerate((1, 4)):
            out = tmp_path / f"o{i}"
            rc = cli_main(
                [
                    "run",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--seed",
                    "42",
                    "--threads",
                    str(threads),
                ]
            )
            assert rc == 0
            payloads.append((out / "series.csv").read_bytes())
        ok = payloads[0] == payloads[1]
        report(
            11,
            ok,
            f"series.csv byte-identical across reruns and --threads 1/4 "
            f"({len(payloads[0])} bytes)",
        )
