"""Batch front door: config parsing, run orchestration, output writing.

The config format is plain sectioned ``key = value`` text (no nesting) so
experiment logs diff cleanly.  Every run report starts with an echo block
stating each effective parameter, including the derived decay-certificate
constants when the smallness condition holds.  Time series go to a single
CSV with a fixed column order; field snapshots use the binary format from
:mod:`chemofluid.grid`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import diagnostics, verify
from .diagnostics import (
    CSV_COLUMNS,
    LyapunovConfig,
    fit_decay_rate,
    make_lyapunov_config,
    poincare_constant,
)
from .fluid import DENSE_MAX, FluidParams, PoissonSolver
from .grid import make_grid, write_field_snapshot
from .manufactured import mms_cases
from .sensitivity import KINDS, RegularizationParams, SensitivitySpec
from .stepper import SimParams, Trajectory, run
from .verify import default_phi, mms_convergence, mms_passed, scenario_library

__all__ = ["ConfigError", "UsageError", "RunConfig", "parse_config", "serialize_config", "main"]


class ConfigError(ValueError):
    """Config validation failure with position information."""


class UsageError(ValueError):
    """A command-line input the command cannot use."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

# section -> key -> (value kind, default); a None default marks a required
# key.  The key order is RunConfig's field order and the serialized order.
_SCHEMA = {
    "grid": {
        "dim": (int, None),
        "cells": ("int_list", None),
        "extents": ("float_list", None),
    },
    "model": {
        "alpha": (float, 1.0),
        "cs": (float, 0.5),
        "kind": (str, "scalar_saturating"),
        "theta": (float, 0.0),
        "kappa": (float, 1.0),
        "eps": (float, 0.1),
        "phi_strength": (float, 0.1),
    },
    "run": {
        "T": (float, None),
        "scenario": (str, None),
        "sigma": (float, 0.4),
        "seed": (int, 0),
        "csv_every": (int, 1),
        "snapshot_every": (int, 0),
        "max_steps": (int, 0),  # 0 = unlimited
        "out": (str, ""),
    },
}

@dataclass(frozen=True)
class RunConfig:
    dim: int
    cells: tuple
    extents: tuple
    alpha: float
    cs: float
    kind: str
    theta: float
    kappa: float
    eps: float
    phi_strength: float
    T: float
    scenario: str
    sigma: float
    seed: int
    csv_every: int
    snapshot_every: int
    max_steps: int
    out: str


def _parse_value(kind, raw, where):
    if kind is str:
        return raw
    scalar = float if kind in (float, "float_list") else int
    try:
        value = scalar(raw) if kind in (int, float) else tuple(map(scalar, raw.split(",")))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from None
    # NaN passes every range check below (``nan <= 0`` is False)
    if scalar is float and not np.all(np.isfinite(value)):
        raise ConfigError(f"{where}: {raw!r} is not a finite number")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate the sectioned key=value format.

    Unknown sections or keys, missing required keys, and out-of-range values
    are reported with their line number.
    """
    values = {}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        kind, _ = _SCHEMA[section][key]
        values[(section, key)] = (_parse_value(kind, raw, f"line {lineno}"), lineno)

    effective = {}
    for sec, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            if (sec, key) in values:
                effective[key] = values[(sec, key)][0]
            elif default is None:
                raise ConfigError(f"missing required key {key!r} in section [{sec}]")
            else:
                effective[key] = default
    cfg = RunConfig(**effective)

    def line_of(sec, key):
        return values[(sec, key)][1] if (sec, key) in values else 0

    # range validation, citing the offending line where one exists
    if cfg.alpha < 1.0:
        raise ConfigError(
            f"line {line_of('model', 'alpha')}: alpha must be >= 1 "
            f"(the decay theory requires it), got {cfg.alpha}"
        )
    if cfg.kind not in KINDS:
        raise ConfigError(
            f"line {line_of('model', 'kind')}: kind must be {' or '.join(KINDS)}, got {cfg.kind!r}"
        )
    if cfg.theta != 0.0 and cfg.kind != "rotational":
        where = f"line {line_of('model', 'theta')}"
        raise ConfigError(f"{where}: theta acts only with kind = rotational, got kind = {cfg.kind}")
    if cfg.cs <= 0:
        raise ConfigError(f"line {line_of('model', 'cs')}: cs must be positive")
    if not (0.0 <= cfg.eps <= 1.0):
        raise ConfigError(f"line {line_of('model', 'eps')}: eps must lie in [0, 1]")
    if cfg.T <= 0:
        raise ConfigError(f"line {line_of('run', 'T')}: T must be positive")
    if not (0 < cfg.sigma <= 1.0):
        raise ConfigError(f"line {line_of('run', 'sigma')}: sigma must lie in (0, 1]")
    if cfg.csv_every < 1:
        raise ConfigError(f"line {line_of('run', 'csv_every')}: csv_every must be >= 1")
    for key in ("snapshot_every", "max_steps"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"line {line_of('run', key)}: {key} must be >= 0 (0 = off)")
    if cfg.seed < 0:
        raise ConfigError(f"line {line_of('run', 'seed')}: seed must be >= 0, got {cfg.seed}")

    # the [grid] keys in turn, so that an error cites its own key's line
    def grid_error(key, message):
        return ConfigError(f"line {line_of('grid', key)}: [grid] {message}")

    if cfg.dim not in (2, 3):
        raise grid_error("dim", f"dim must be 2 or 3, got {cfg.dim}")
    for key in ("cells", "extents"):
        length = len(getattr(cfg, key))
        if length != cfg.dim:
            raise grid_error(key, f"extents/cells must have length dim={cfg.dim}, {key} has {length}")
    # make_grid checks the values: the extents first, against valid cells
    for key, cells in (("extents", (4,) * cfg.dim), ("cells", cfg.cells)):
        try:
            make_grid(cfg.dim, cfg.extents, cells)
        except ValueError as exc:
            raise grid_error(key, exc) from None
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    out = []
    for sec, keys in _SCHEMA.items():
        out.append(f"[{sec}]")
        for key in keys:
            val = getattr(cfg, key)
            if isinstance(val, tuple):
                val = ",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
            elif isinstance(val, float):
                val = repr(val)
            out.append(f"{key} = {val}")
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Run assembly and outputs
# ---------------------------------------------------------------------------


def _build_run(cfg: RunConfig):
    """The config's parameters and its scenario's initial state."""
    grid = make_grid(cfg.dim, cfg.extents, cfg.cells)
    lib = scenario_library(grid=grid)
    if cfg.scenario not in lib:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; built-ins: {sorted(lib)}"
        )
    initial = lib[cfg.scenario].initial(cfg.seed)
    phi = default_phi(grid, cfg.phi_strength) if cfg.phi_strength != 0 else None
    params = SimParams(
        grid=grid,
        sensitivity=SensitivitySpec(kind=cfg.kind, C_S=cfg.cs, alpha=cfg.alpha, theta=cfg.theta),
        regularization=RegularizationParams(eps=cfg.eps),
        fluid=FluidParams(kappa=cfg.kappa, eps=cfg.eps, phi=phi),
        T=cfg.T,
        cfl_sigma=cfg.sigma,
        max_steps=cfg.max_steps if cfg.max_steps > 0 else None,
        diagnostics_every=cfg.csv_every,
        snapshot_every=cfg.snapshot_every,
    )
    return params, initial


def _fmt(x) -> str:
    return repr(float(x))


def echo_block(cfg: RunConfig, C_N: float = None) -> str:
    """Every effective parameter, plus the certificate constants when feasible."""
    lines = ["# echo: effective parameters"]
    for f in dc_fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name} = {v}")
    if C_N is not None:
        lines.append(f"C_N = {_fmt(C_N)}")
        lines.append(f"lambda_1 = {_fmt(1.0 / C_N)}")
        condition = f"cs < 2*sqrt(lambda_1) = 2/sqrt(C_N) = {_fmt(2.0 / np.sqrt(C_N))}"
        feas = make_lyapunov_config(cfg.cs, C_N)
        if isinstance(feas, LyapunovConfig):
            lines.append(f"smallness_condition = satisfied: {condition}")
            lines.append(f"B = {_fmt(feas.B)}")
            lines.append(f"a1 = {_fmt(feas.a1)}")
            lines.append(f"a2 = {_fmt(feas.a2)}")
            lines.append(f"kappa_pred = {_fmt(feas.kappa_pred)}")
        else:
            lines.append(
                f"smallness_condition = violated: not {condition} "
                "(run proceeds; certificate suite skipped)"
            )
    return "\n".join(lines)


def write_csv(path: str, traj: Trajectory) -> None:
    s = traj.series
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        cols = [s.column(name) for name in CSV_COLUMNS]
        for i in range(len(s)):
            fh.write(",".join(_fmt(col[i]) for col in cols) + "\n")


def _parse_csv(text: str) -> dict:
    """Columns of a numeric CSV by header name; ``ValueError`` names the
    first line that is not one float per header field."""
    lines = [(k, line.strip()) for k, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError("no header line")
    header = lines[0][1].split(",")
    rows = []
    for k, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {k}: {len(cells)} fields, the header has {len(header)}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError:
            raise ValueError(f"line {k}: a field is not a number: {line!r}") from None
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return {h: table[:, i].copy() for i, h in enumerate(header)}


def _read_input(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc.strerror}") from None


def _cannot_write(exc: OSError, path: str) -> UsageError:
    return UsageError(f"cannot write {(exc.filename or path)!r}: {exc.strerror or exc}")


def _usable_grid(dim, extents, cells):
    try:
        return make_grid(dim, extents, cells)
    except ValueError as exc:
        raise UsageError(f"grid: {exc}") from None


def _write_snapshots(outdir: str, traj: Trajectory) -> None:
    g = traj.params.grid
    for step, st in traj.snapshots:
        for name, fld in (("n", st.n), ("c", st.c), ("P", st.P)):
            write_field_snapshot(
                os.path.join(outdir, f"{name}_{step:08d}.kssf"), fld.data, g.extents
            )
        for d, comp in enumerate(st.u.components):
            write_field_snapshot(
                os.path.join(outdir, f"u{d}_{step:08d}.kssf"), comp, g.extents
            )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = parse_config(_read_input(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    outdir = args.out or cfg.out or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(exc, outdir) from None

    params, initial = _build_run(cfg)
    C_N = poincare_constant(params.grid)
    echo = echo_block(cfg, C_N)
    print(echo)
    traj = run(params, initial, PoissonSolver(params.grid, workers=args.threads))
    try:
        write_csv(os.path.join(outdir, "series.csv"), traj)
        if cfg.snapshot_every:
            _write_snapshots(outdir, traj)
        with open(os.path.join(outdir, "run_report.txt"), "w") as fh:
            fh.write(echo + "\n")
            fh.write(f"status = {traj.status}\n")
            fh.write(f"steps = {traj.steps}\n")
            fh.write(f"dt_min = {_fmt(traj.dt_min)}\n")
            fh.write(f"dt_max = {_fmt(traj.dt_max)}\n")
            for bound, count in traj.steps_by_bound.items():
                fh.write(f"steps_by_{bound} = {count}\n")
            if traj.error:
                fh.write(f"error = {traj.error}\n")
        with open(os.path.join(outdir, "config.echo"), "w") as fh:
            fh.write(serialize_config(cfg))
    except OSError as exc:
        raise _cannot_write(exc, outdir) from None
    if not traj.completed:
        print(f"run aborted: {traj.error}", file=sys.stderr)
        return 1
    print(f"completed {traj.steps} steps; series -> {os.path.join(outdir, 'series.csv')}")
    return 0


def _report_lines(reports) -> tuple:
    lines = []
    kv = []
    any_fail = False
    for rep in reports:
        lines.append(f"scenario {rep.scenario}")
        for r in rep.results:
            lines.append(f"  [{r.status.upper():6s}] {r.name}: {r.measured}")
            kv.append(f"{rep.scenario}.{r.name}.status = {r.status}")
            kv.append(f"{rep.scenario}.{r.name}.measured = {r.measured}")
            if r.status == "fail":
                any_fail = True
    return lines, kv, any_fail


def _cmd_verify(args) -> int:
    cells = tuple(args.cells)
    _usable_grid(len(cells), (1.0,) * len(cells), cells)  # the suites' unit box
    reports = verify.run_suite(args.suite, cells=cells, seed=args.seed)
    lines, kv, any_fail = _report_lines(reports)
    print("\n".join(lines))
    print("\n# machine-readable")
    print("\n".join(kv))
    return 1 if any_fail else 0


def _cmd_poincare(args) -> int:
    cells = args.cells if len(args.cells) > 1 else args.cells * args.dim
    extents = args.extents if len(args.extents) > 1 else args.extents * args.dim
    grid = _usable_grid(args.dim, extents, cells)
    C_N = poincare_constant(grid)
    print(f"C_N = {_fmt(C_N)}")
    return 0


def _cmd_rates(args) -> int:
    text = _read_input(args.csv)
    try:
        data = _parse_csv(text)
    except ValueError as exc:
        raise UsageError(f"{args.csv}: {exc}") from None
    needed = ["t", "lyapunov"]
    for col in args.columns:
        needed += ["l2_n_dev", "l2_c_dev"] if col == "l2_dev_sum" else [col]
    missing = [col for col in dict.fromkeys(needed) if col not in data]
    if missing:
        raise UsageError(f"{args.csv}: missing column(s) {', '.join(missing)}")
    if data["t"].size == 0:
        raise UsageError(f"{args.csv}: no data rows")
    t = data["t"]
    L = data["lyapunov"]
    drop = np.nonzero(L <= 0.5 * L[0])[0]
    t0 = t[drop[0]] if drop.size else t[0]
    print(f"fit_window_start = {_fmt(t0)}")
    for col in args.columns:
        if col == "l2_dev_sum":
            vals = data["l2_n_dev"] + data["l2_c_dev"]
        else:
            vals = data[col]
        mask = (t >= t0) & (vals > 0)
        try:
            fit = fit_decay_rate(t[mask], vals[mask])
            print(f"{col}.rate = {_fmt(fit.rate)}")
            print(f"{col}.r_squared = {_fmt(fit.r_squared)}")
        except ValueError as exc:
            print(f"{col}.error = {exc}")
    return 0


def _cmd_mms(args) -> int:
    cases = mms_cases()
    if args.case is not None and args.case not in cases:
        raise UsageError(f"unknown case {args.case!r}; choose from {sorted(cases)}")
    names = [args.case] if args.case else list(cases)
    ok = True
    for name in names:
        try:
            conv = mms_convergence(cases[name], args.resolutions)
        except ValueError as exc:  # too few resolutions, or one too coarse for a grid
            raise UsageError(f"--resolutions: {exc}") from None
        errs = ", ".join(f"{e:.4e}" for e in conv.errors)
        print(f"case {name}: errors [{errs}]")
        if conv.note:
            print(f"  note: {conv.note}")
        if conv.pair_orders:
            pairs = ", ".join(f"{p:.3f}" for p in conv.pair_orders)
            print(f"  pair orders [{pairs}], least-squares order {conv.lsq_order:.3f}")
        good = mms_passed(cases[name], conv)
        ok = ok and good
        exp = cases[name].expected_order
        if exp is not None:
            lo, hi = exp
            print(f"  expected order in [{lo}, {hi if hi is not None else 'inf'}]: {'ok' if good else 'FAIL'}")
        else:
            print(f"  expected roundoff errors: {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemofluid",
        description="Chemotaxis-fluid simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one trajectory from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=_int_at_least(0), default=None)
    p_run.add_argument(
        "--threads",
        type=_int_at_least(1),
        default=1,
        help=f"threads per pocketfft transform on axes longer than {DENSE_MAX} cells; shorter "
        "axes are matrix products and use none (results are identical for any count)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", default="all", choices=sorted(verify.SUITES) + ["all"])
    p_ver.add_argument("--seed", type=_int_at_least(0), default=0)
    p_ver.add_argument(
        "--cells",
        type=lambda s: [int(v) for v in s.split(",")],
        default=[64, 64],
        help="suite grid (smaller grids for quick smoke runs); the mms suite refines "
        "N/4, N/2, N on a square N,N grid (N a multiple of 4, at least 16) and skips "
        "on any other; --suite all fails at 8,8, where the swirl run's u_decay fit gets "
        "9 of the 10 samples it needs",
    )
    p_ver.set_defaults(fn=_cmd_verify)

    p_poi = sub.add_parser("poincare", help="print the grid's Poincare constant")
    p_poi.add_argument("--dim", type=int, required=True)
    p_poi.add_argument("--cells", type=lambda s: [int(v) for v in s.split(",")], required=True)
    p_poi.add_argument("--extents", type=lambda s: [float(v) for v in s.split(",")], required=True)
    p_poi.set_defaults(fn=_cmd_poincare)

    p_rat = sub.add_parser("rates", help="re-fit decay rates from an existing CSV")
    p_rat.add_argument("--csv", required=True)
    p_rat.add_argument(
        "--columns",
        type=lambda s: s.split(","),
        default=["l2_dev_sum", "grad_c_l2", "grad_c_l4", "l2_u"],
    )
    p_rat.set_defaults(fn=_cmd_rates)

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    p_mms.add_argument("--case", default=None)
    p_mms.add_argument(
        "--resolutions", type=lambda s: [int(v) for v in s.split(",")], default=[16, 32, 64]
    )
    p_mms.set_defaults(fn=_cmd_mms)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"chemofluid {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
