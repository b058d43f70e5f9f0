"""Spans around the public functions of each chemofluid layer, patched from outside.

The tracer replaces a function in every namespace that looks it up (for
example ``chemofluid.stepper.step_n`` as well as ``chemofluid.transport.step_n``)
with a wrapper that times the call, and restores every original on
``uninstall``.  Wrappers only time and count: arguments and results pass
through untouched, so a traced run computes the same bits as an untraced one.

A span's ``self`` time is its duration minus the time of the spans it encloses.
Spans are aggregated by name in memory and summarised when the run ends.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (layer name, module, attribute path) of every span; a dotted path names a method.
SPANS = (
    ("grid.gradient_cc", "chemofluid.grid", "gradient_cc"),
    ("grid.divergence_fc", "chemofluid.grid", "divergence_fc"),
    ("transport.step_n", "chemofluid.transport", "step_n"),
    ("transport.step_c", "chemofluid.transport", "step_c"),
    ("transport.dissipation_integrals", "chemofluid.transport", "dissipation_integrals"),
    ("fluid.ns_substep", "chemofluid.fluid", "ns_substep"),
    ("fluid.laplacian_noslip", "chemofluid.fluid", "laplacian_noslip"),
    ("fluid.yosida_apply", "chemofluid.fluid", "yosida_apply"),
    ("fluid.diffusion_resolvent", "chemofluid.fluid", "diffusion_resolvent"),
    ("fluid.convection_upwind", "chemofluid.fluid", "convection_upwind"),
    ("fluid.project_with_potential", "chemofluid.fluid", "project_with_potential"),
    ("fluid.PoissonSolver.solve", "chemofluid.fluid", "PoissonSolver.solve"),
    ("stepper.run", "chemofluid.stepper", "run"),
    ("stepper.advance", "chemofluid.stepper", "advance"),
    ("diagnostics.poincare_constant", "chemofluid.diagnostics", "poincare_constant"),
    ("diagnostics.stokes_eigenvalue", "chemofluid.diagnostics", "stokes_eigenvalue"),
    ("diagnostics.grad_c_norms", "chemofluid.diagnostics", "grad_c_norms"),
    ("diagnostics.weak_residual", "chemofluid.diagnostics", "weak_residual"),
    ("verify.epsilon_ladder", "chemofluid.verify", "epsilon_ladder"),
    ("verify.mms_convergence", "chemofluid.verify", "mms_convergence"),
    ("verify.calibrate_tol_disc", "chemofluid.verify", "calibrate_tol_disc"),
    ("manufactured.mms_error", "chemofluid.manufactured", "mms_error"),
)

# the one span whose every duration is kept, for per-step latency percentiles
LATENCY_SPAN = "stepper.advance"

# scipy.fft entry points as chemofluid.fluid calls them (through the scipy.fft module)
FFT_FUNCTIONS = ("dct", "idct", "dctn", "idctn", "dst", "idst", "dstn", "idstn")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Installs timing wrappers; one instance per traced run."""

    def __init__(self):
        self.stats = {name: SpanStats() for name, _, _ in SPANS}
        self.stats["manufactured.forcing"] = SpanStats()
        self.absent = []
        self.counts = {
            "poisson_iterations": 0,
            "rows_recorded": 0,
            "run_steps": 0,
            "cell_steps": 0,
            "max_state_bytes": 0,
            "verify_run_calls": 0,
            "stokes_projections": 0,
            "fft_transforms": 0,
            "fft_points": 0,
        }
        self._stack = []  # [name, child seconds] of each open span
        self._patches = []  # (namespace, attribute, original)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stats = self.stats[name]
        keep = name == LATENCY_SPAN
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
                if keep:
                    stats.durations.append(dt)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _inside(self, prefix):
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def _after_solve(self, args, out):
        self.counts["poisson_iterations"] += int(args[0].last_iterations)

    def _after_projection(self, args, out):
        if self._inside("diagnostics.stokes_eigenvalue"):
            self.counts["stokes_projections"] += 1

    def _before_run(self):
        if self._inside("verify."):
            self.counts["verify_run_calls"] += 1

    def _after_run(self, args, traj):
        grid = traj.params.grid
        cells = 1
        for n in grid.cells:
            cells *= n
        faces = sum(cells // n * (n + 1) for n in grid.cells)
        # n, c and P at cells plus one velocity component per face orientation
        self.counts["max_state_bytes"] = max(self.counts["max_state_bytes"], 8 * (3 * cells + faces))
        self.counts["rows_recorded"] += len(traj.series)
        self.counts["run_steps"] += traj.steps
        self.counts["cell_steps"] += cells * traj.steps

    def wrap_forcing(self, fn):
        """Span for a manufactured forcing callable (``None`` passes through)."""
        return None if fn is None else self._wrap("manufactured.forcing", fn)

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Replace ``original`` in every chemofluid namespace that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "chemofluid" or modname.startswith("chemofluid.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import scipy.fft

        for name, modname, path in SPANS:
            mod = sys.modules.get(modname)
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(
                name,
                original,
                before=self._before_run if name == "stepper.run" else None,
                after={
                    "fluid.PoissonSolver.solve": self._after_solve,
                    "fluid.project_with_potential": self._after_projection,
                    "stepper.run": self._after_run,
                }.get(name),
            )
            if owner_path:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)

        counts = self.counts
        for fname in FFT_FUNCTIONS:
            original = getattr(scipy.fft, fname, None)
            if original is None:
                continue

            def counted(x, *args, _fn=original, **kwargs):
                counts["fft_transforms"] += 1
                counts["fft_points"] += getattr(x, "size", 0)
                return _fn(x, *args, **kwargs)

            self._patches.append((scipy.fft, fname, original))
            setattr(scipy.fft, fname, counted)
            self._patch_everywhere(original, counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
