"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/child.py <workload> <seed> <traced 0|1>

Imports chemofluid from ``src/`` of the checkout, sets the workload up from
the seed, solves it, checks the outputs and prints one JSON line: set-up and
solve seconds, peak RSS, the correctness checks, a digest of every output
bit and, when traced, the per-layer spans and counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import chemofluid  # noqa: E402
from chemofluid import diagnostics, fluid, stepper, verify  # noqa: E402
from chemofluid.grid import VectorField, make_grid  # noqa: E402
from chemofluid.manufactured import mms_cases  # noqa: E402

from tracer import Tracer  # noqa: E402

if not os.path.abspath(chemofluid.__file__).startswith(SRC + os.sep):
    sys.exit(f"chemofluid imported from {chemofluid.__file__}, not from {SRC}")

GATE_T = 0.0125  # 512 explicit steps at 64^2 (the gate runs to 0.75)
STOKES_T = 2.0e-4  # 132 explicit steps at 256^2
STOKES_RECORD_EVERY = 20
MMS_RESOLUTIONS = (8, 12, 16)
STOKES_LAMBDA1 = 52.3447  # unit square, Leriche & Labrosse


class Checks:
    """Correctness checks of one repetition: (name, passed, measured)."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, measured):
        self.items.append((name, bool(ok), str(measured)))


class Digest:
    """sha256 over every output bit of the workload, in a fixed order."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, np.ndarray):
                self.h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
            elif isinstance(v, (float, np.floating)):
                self.h.update(float(v).hex().encode())
            else:
                self.h.update(repr(v).encode())

    def add_trajectory(self, traj):
        for col in diagnostics.CSV_COLUMNS:
            self.add(traj.series.column(col))
        final = traj.final_state()
        self.add(traj.status, traj.steps, final.t, final.n.data, final.c.data, final.P.data)
        self.add(*final.u.components)


def check_trajectory(traj, checks):
    s = traj.series
    checks.add("completed", traj.completed, f"{traj.status} {traj.error or ''}".strip())
    drift = float(np.abs(s.mass_n - traj.mass_n0).max()) / max(abs(traj.mass_n0), 1e-300)
    checks.add("mass_n_drift", drift <= 1e-10, f"{drift:.3e}")
    excess = float((s.mass_c - max(traj.mass_n0, traj.mass_c0)).max())
    checks.add("c_mass_excess", excess <= 1e-10, f"{excess:.3e}")
    if isinstance(traj.lyapunov_config, diagnostics.LyapunovConfig):
        L = s.lyapunov
        rise = float((L[1:] - L[:-1]).max(initial=-np.inf))
        checks.add("lyapunov_monotone", rise <= 1e-12 * max(L[0], 1e-300), f"{rise:.3e}")


# ---------------------------------------------------------------------------
# Workloads: setup(seed, tracer) -> context; solve(context, checks, digest)
# ---------------------------------------------------------------------------


def gate64_setup(seed, tracer):
    lib = verify.scenario_library((64, 64))
    return lib["random_perturbation"].build(seed, T=GATE_T)


def stokes256_setup(seed, tracer):
    lib = verify.scenario_library((256, 256))
    params, initial = lib["random_perturbation"].build(seed, T=STOKES_T)
    params = dataclasses.replace(
        params,
        fluid=fluid.FluidParams(kappa=0.0, eps=params.fluid.eps, phi=params.fluid.phi),
        diagnostics_every=STOKES_RECORD_EVERY,
    )
    return params, dataclasses.replace(initial, u=VectorField.zeros(params.grid))


def trajectory_solve(ctx, checks, digest):
    params, initial = ctx
    traj = stepper.run(params, initial)
    check_trajectory(traj, checks)
    digest.add_trajectory(traj)


def certify_setup(seed, tracer):
    lib16 = verify.scenario_library((16, 16))
    cases = mms_cases()
    if tracer is not None:
        cases = {
            name: dataclasses.replace(
                case,
                forcing_n=tracer.wrap_forcing(case.forcing_n),
                forcing_c=tracer.wrap_forcing(case.forcing_c),
                forcing_u=tracer.wrap_forcing(case.forcing_u),
            )
            for name, case in cases.items()
        }
    ladder = lib16["bump_n"].build(seed, T=0.05)
    weak_params, weak_initial = lib16["bump_n"].build(seed, T=0.1)
    weak = (dataclasses.replace(weak_params, snapshot_every=5), weak_initial)
    calibrate = lib16["random_perturbation"].build(seed)
    return {
        "stokes_grid": make_grid(2, (1.0, 1.0), (32, 32)),
        "square": make_grid(2, (1.0, 1.0), (64, 64)),
        "cube": make_grid(3, (1.0, 1.0, 1.0), (32, 32, 32)),
        "cases": cases,
        "ladder": ladder,
        "weak": weak,
        "calibrate": calibrate,
    }


def certify_solve(ctx, checks, digest):
    lam = diagnostics.stokes_eigenvalue(ctx["stokes_grid"])
    rel = abs(lam - STOKES_LAMBDA1) / STOKES_LAMBDA1
    checks.add("stokes_lambda1", rel <= 0.01, f"{lam:.6f} (rel {rel:.2e})")
    digest.add(lam)

    target = 1.0 / math.pi**2
    for label, grid, tol in (("square", ctx["square"], 0.01), ("cube", ctx["cube"], 0.03)):
        C_N = diagnostics.poincare_constant(grid)
        rel = abs(C_N - target) / target
        checks.add(f"poincare_{label}", rel <= tol, f"{C_N:.6f} (rel {rel:.2e})")
        digest.add(C_N)

    traj = stepper.run(*ctx["weak"])
    checks.add("weak_run_completed", traj.completed, traj.status)
    res = diagnostics.weak_residual(traj)
    finite = all(math.isfinite(float(res[k])) for k in ("r_n", "r_c", "r_u"))
    checks.add("weak_residual_finite", finite, {k: f"{float(v):.3e}" for k, v in res.items()})
    digest.add(*(float(res[k]) for k in sorted(res)))

    ladder = verify.epsilon_ladder(*ctx["ladder"], [0.4, 0.2, 0.1, 0.05])
    ok = ladder.inversions <= 1 and not ladder.failures
    checks.add("ladder_inversions", ok, f"{ladder.inversions} inversions, {len(ladder.failures)} failures")
    digest.add(*(d["total"] for d in ladder.distances))

    for name, case in ctx["cases"].items():
        conv = verify.mms_convergence(case, MMS_RESOLUTIONS)
        if case.expected_order is None:
            ok = max(conv.errors) <= 1e-12
            measured = f"max error {max(conv.errors):.2e}"
        else:
            lo, hi = case.expected_order
            ok = conv.lsq_order >= lo and (hi is None or conv.lsq_order <= hi)
            measured = f"order {conv.lsq_order:.3f}"
        checks.add(f"mms_{name}", ok, measured)
        digest.add(*conv.errors)

    tol_disc = verify.calibrate_tol_disc(*ctx["calibrate"])
    checks.add("tol_disc_finite", math.isfinite(tol_disc) and tol_disc >= 0.0, f"{tol_disc:.3e}")
    digest.add(tol_disc)


WORKLOADS = {
    "gate64": (gate64_setup, trajectory_solve),
    "stokes256": (stokes256_setup, trajectory_solve),
    "certify": (certify_setup, certify_solve),
}


def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    setup, solve = WORKLOADS[workload]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    checks, digest = Checks(), Digest()
    t0 = time.perf_counter()
    ctx = setup(seed, tracer)
    t1 = time.perf_counter()
    solve(ctx, checks, digest)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    out = {
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks.items,
        "digest": digest.h.hexdigest(),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        out["spans"] = {
            name: dataclasses.asdict(st) for name, st in tracer.stats.items()
        }
        out["counts"] = tracer.counts
        out["absent"] = tracer.absent
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
