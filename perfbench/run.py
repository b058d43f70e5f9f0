"""chemofluid benchmark: time to solution on three workloads, and a per-layer split.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gate64 --seed 1 --seconds 30 --trace 0

Each repetition runs ``perfbench/child.py`` in a fresh, single-threaded
interpreter, so the Poincare cache, the verification trajectory cache and the
FFT plans start cold, as they do for a ``chemofluid run`` or ``verify`` user.
Repetitions continue, one after the other (a closed loop with one client),
until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics as medians over repetitions:
``solve_s`` (time to solution after set-up), ``setup_s`` (grid, scenario,
seeded initial state and the cold Poincare constant) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced repetitions; the traced ones wrap
the public functions of each layer from outside (see ``tracer.py``) and give
the per-layer metrics.  Every repetition's outputs are checked, and a traced
repetition must reproduce the untraced one bit for bit.

Workloads, and why each was chosen:

* ``gate64``: the acceptance gate's ``random_perturbation`` scenario at 64^2
  (smallness condition holds, swirl u0, diagnostics every step).  A field is
  32 KiB, so the working set fits in L2: per-call overhead, the Yosida
  resolvent with its extra projection, upwind convection and per-step
  recording dominate.
* ``stokes256``: the kappa = 0 Stokes regime at 256^2 with the same seeded n
  and c, u0 = 0, recording every 20 steps.  A field is 512 KiB, past L2: the
  DCT Poisson solve, the transport and CFL stencils and array traffic
  dominate; Yosida, convection and recording do almost no work.
* ``certify``: the verification harness at reduced size through its public
  functions (Stokes eigenvalue, Poincare constants, weak residual, epsilon
  ladder, MMS convergence, tol_disc calibration): eigen-solvers, manufactured
  forcings and many short runs on 8^2-32^2 grids carry the time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count correctness checks, so their ratio is the failed fraction.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORKLOADS = ("gate64", "stokes256", "certify")
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# per-layer metric -> (span, SpanStats attribute)
SPAN_METRICS = {
    "stepper.run.self_s": ("stepper.run", "self_s"),
    "stepper.advance.self_s": ("stepper.advance", "self_s"),
    "transport.step_n.self_s": ("transport.step_n", "self_s"),
    "transport.step_c.self_s": ("transport.step_c", "self_s"),
    "transport.dissipation_integrals.self_s": ("transport.dissipation_integrals", "self_s"),
    "fluid.ns_substep.self_s": ("fluid.ns_substep", "self_s"),
    "fluid.laplacian_noslip.self_s": ("fluid.laplacian_noslip", "self_s"),
    "fluid.laplacian_noslip.calls": ("fluid.laplacian_noslip", "calls"),
    "fluid.yosida_apply.self_s": ("fluid.yosida_apply", "self_s"),
    "fluid.diffusion_resolvent.self_s": ("fluid.diffusion_resolvent", "self_s"),
    "fluid.convection_upwind.self_s": ("fluid.convection_upwind", "self_s"),
    "fluid.project_with_potential.total_s": ("fluid.project_with_potential", "total_s"),
    "fluid.project_with_potential.calls": ("fluid.project_with_potential", "calls"),
    "fluid.PoissonSolver.solve.self_s": ("fluid.PoissonSolver.solve", "self_s"),
    "fluid.PoissonSolver.solve.calls": ("fluid.PoissonSolver.solve", "calls"),
    "diagnostics.poincare_constant.total_s": ("diagnostics.poincare_constant", "total_s"),
    "diagnostics.poincare_constant.calls": ("diagnostics.poincare_constant", "calls"),
    "diagnostics.stokes_eigenvalue.total_s": ("diagnostics.stokes_eigenvalue", "total_s"),
    "diagnostics.grad_c_norms.self_s": ("diagnostics.grad_c_norms", "self_s"),
    "diagnostics.weak_residual.total_s": ("diagnostics.weak_residual", "total_s"),
    "verify.epsilon_ladder.total_s": ("verify.epsilon_ladder", "total_s"),
    "verify.mms_convergence.total_s": ("verify.mms_convergence", "total_s"),
    "verify.calibrate_tol_disc.total_s": ("verify.calibrate_tol_disc", "total_s"),
    "manufactured.forcing.self_s": ("manufactured.forcing", "self_s"),
    "manufactured.forcing.calls": ("manufactured.forcing", "calls"),
    "manufactured.mms_error.total_s": ("manufactured.mms_error", "total_s"),
    "grid.gradient_cc.self_s": ("grid.gradient_cc", "self_s"),
    "grid.gradient_cc.calls": ("grid.gradient_cc", "calls"),
    "grid.divergence_fc.self_s": ("grid.divergence_fc", "self_s"),
    "grid.divergence_fc.calls": ("grid.divergence_fc", "calls"),
}


def read_steal():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def cache_sizes():
    """Sizes in bytes of the L2 and L3 caches of cpu0, read-only from sysfs."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        sizes[f"L{level}"] = int(text.rstrip("KM")) * scale
    return sizes


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(workload, seed, traced):
    """One repetition in a fresh interpreter: (result dict or None, error, steal share)."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    before = read_steal()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, str(seed), "1" if traced else "0"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s", None
    after = read_steal()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, tail[0], steal
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None, steal
    except (IndexError, ValueError):
        return None, "no result line", steal


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def work_done(rep):
    """Everything a traced repetition counted: it must repeat exactly."""
    calls = {name: span["calls"] for name, span in rep["spans"].items()}
    return {"counts": rep["counts"], "calls": calls}


def layer_metrics(traced, untraced, l2_bytes):
    """Per-layer metrics: times are medians over traced repetitions, counts
    (equal in every traced repetition) come from the first."""
    counts = traced[0]["counts"]
    steps = counts["run_steps"]
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    solve_untraced = statistics.median(r["solve_s"] for r in untraced)
    solve_traced = statistics.median(r["solve_s"] for r in traced)
    durations = sorted(d for r in traced for d in r["spans"]["stepper.advance"]["durations"])

    def pct(p):
        if not durations:
            return 0.0
        return 1e3 * durations[min(len(durations) - 1, int(p * len(durations)))]

    spans = traced[0]["spans"]
    m = {}
    for name, (span, attr) in SPAN_METRICS.items():
        if attr == "calls":
            m[name] = (spans[span]["calls"], "count")
        else:
            m[name] = (statistics.median(r["spans"][span][attr] for r in traced), "s")
    m.update(
        {
            "stepper.steps": (steps, "count"),
            "stepper.rows_recorded": (counts["rows_recorded"], "count"),
            "stepper.advance.p50_ms": (pct(0.50), "ms"),
            "stepper.advance.p99_ms": (pct(0.99), "ms"),
            "stepper.cell_steps_per_s": (counts["cell_steps"] / solve_untraced, "1/s"),
            "fluid.projections_per_step": (
                per_step(spans["fluid.project_with_potential"]["calls"]),
                "count",
            ),
            "fluid.poisson.iterations": (counts["poisson_iterations"], "count"),
            "diagnostics.stokes_eigenvalue.projections": (counts["stokes_projections"], "count"),
            "verify.run_calls": (counts["verify_run_calls"], "count"),
            "fft.transforms_per_step": (per_step(counts["fft_transforms"]), "count"),
            "fft.points_per_step": (per_step(counts["fft_points"]), "count"),
            "state_bytes": (counts["max_state_bytes"], "bytes"),
            "state_bytes_per_l2": (counts["max_state_bytes"] / l2_bytes if l2_bytes else 0.0, "ratio"),
            "trace.overhead_frac": (solve_traced / solve_untraced - 1.0, "ratio"),
            "trace.absent": (len(traced[0]["absent"]), "count"),
        }
    )
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chemofluid", "__init__.py")):
        print(f"no chemofluid sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    caches = cache_sizes()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "commit": git_commit(),
        "threads": {var: "1" for var in THREAD_VARS},
    }

    plan = (True, False) if args.trace else (False,)
    reps = {False: [], True: []}
    errors, steals = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for traced in plan:
            result, error, steal = run_child(args.workload, args.seed, traced)
            if steal is not None:
                steals.append(steal)
            if result is None:
                errors.append(error)
            else:
                reps[traced].append(result)
        now = time.monotonic()
        if (now - start) + (now - t0) > args.seconds:
            break

    all_reps = reps[False] + reps[True]
    if not reps[False] or (args.trace and not reps[True]):
        print(f"no repetition completed: {errors}", file=sys.stderr)
        return 1
    meta["numpy"] = all_reps[0]["versions"]["numpy"]
    meta["scipy"] = all_reps[0]["versions"]["scipy"]
    meta["steal_share_median"] = statistics.median(steals) if steals else None
    meta["steal_share_max"] = max(steals) if steals else None
    meta["repetitions"] = {"untraced": len(reps[False]), "traced": len(reps[True])}
    print("meta " + json.dumps(meta))

    # every repetition's own checks, one check per failed repetition, and
    # bitwise agreement of every repetition with the first untraced one
    attempted = len(errors)
    failed = len(errors)
    for err in errors:
        print(f"FAIL repetition: {err}")
    reference = reps[False][0]["digest"]
    for r in all_reps:
        for name, ok, measured in r["checks"]:
            attempted += 1
            failed += not ok
            if not ok:
                print(f"FAIL {name}: {measured}")
    for r in all_reps[1:]:
        attempted += 1
        if r["digest"] != reference:
            failed += 1
            print("FAIL digest: outputs differ from the first untraced repetition")
    if len(reps[True]) > 1:
        attempted += 1
        if len({json.dumps(work_done(r)) for r in reps[True]}) > 1:
            failed += 1
            print("FAIL counts: traced repetitions counted different work")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} checks)")

    if args.trace:
        layer = layer_metrics(reps[True], reps[False], meta["l2_bytes"])
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
        for name, (v, unit) in layer.items():
            print(f"{name} {v:.6g} {unit}")
        if reps[True][0]["absent"]:
            print("absent: " + ", ".join(reps[True][0]["absent"]))
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            values = [r[name] for r in reps[False]]
            med = statistics.median(values)
            lo, hi = quartiles(values)
            print(f"{name} median {med:.6g} {unit} (q1 {lo:.6g}, q3 {hi:.6g}, n={len(values)})")
            metrics[name] = {"value": med, "unit": unit}

    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
