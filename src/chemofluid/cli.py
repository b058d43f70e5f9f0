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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dc_fields

import numpy as np
import scipy.fft

from . import diagnostics, verify
from .diagnostics import (
    CSV_COLUMNS,
    LyapunovConfig,
    fit_decay_rate,
    make_lyapunov_config,
    poincare_constant,
)
from .grid import make_grid, write_field_snapshot
from .stepper import Trajectory, run
from .verify import scenario_library

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
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind == "int_list":
            return tuple(int(v.strip()) for v in raw.split(","))
        if kind == "float_list":
            return tuple(float(v.strip()) for v in raw.split(","))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}")
    raise ConfigError(f"{where}: unknown value kind {kind}")


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
    if cfg.kind not in ("scalar_saturating", "rotational"):
        raise ConfigError(
            f"line {line_of('model', 'kind')}: kind must be scalar_saturating or "
            f"rotational (user_table tensors are library-only), got {cfg.kind!r}"
        )
    if cfg.cs <= 0:
        raise ConfigError(f"line {line_of('model', 'cs')}: cs must be positive")
    if not (0.0 <= cfg.eps <= 1.0):
        raise ConfigError(f"line {line_of('model', 'eps')}: eps must lie in [0, 1]")
    if cfg.T <= 0:
        raise ConfigError(f"line {line_of('run', 'T')}: T must be positive")
    if not (0 < cfg.sigma <= 1.0):
        raise ConfigError(f"line {line_of('run', 'sigma')}: sigma must lie in (0, 1]")
    if cfg.csv_every < 1 or cfg.snapshot_every < 0 or cfg.max_steps < 0:
        raise ConfigError("cadences must be positive (snapshot/max_steps may be 0 = off)")
    try:
        make_grid(cfg.dim, cfg.extents, cfg.cells)
    except ValueError as exc:
        raise ConfigError(f"line {line_of('grid', 'cells')}: [grid] {exc}")
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
    lib = scenario_library(grid=make_grid(cfg.dim, cfg.extents, cfg.cells))
    if cfg.scenario not in lib:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; built-ins: {sorted(lib)}"
        )
    params, initial = lib[cfg.scenario].build(cfg.seed)
    import dataclasses

    from .fluid import FluidParams
    from .sensitivity import RegularizationParams, SensitivitySpec
    from .verify import default_phi

    grid = params.grid
    spec = SensitivitySpec(
        kind=cfg.kind,
        C_S=cfg.cs,
        alpha=cfg.alpha,
        theta=cfg.theta,
    )
    phi = default_phi(grid, cfg.phi_strength) if cfg.phi_strength != 0 else None
    params = dataclasses.replace(
        params,
        sensitivity=spec,
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
        feas = make_lyapunov_config(cfg.cs, C_N)
        if isinstance(feas, LyapunovConfig):
            lines.append("smallness_condition = satisfied")
            lines.append(f"B = {_fmt(feas.B)}")
            lines.append(f"a1 = {_fmt(feas.a1)}")
            lines.append(f"a2 = {_fmt(feas.a2)}")
            lines.append(f"kappa_pred = {_fmt(feas.kappa_pred)}")
        else:
            lines.append("smallness_condition = violated (run proceeds; certificate suite skipped)")
    return "\n".join(lines)


def write_csv(path: str, traj: Trajectory) -> None:
    s = traj.series
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        cols = [s.column(name) for name in CSV_COLUMNS]
        for i in range(len(s)):
            fh.write(",".join(_fmt(col[i]) for col in cols) + "\n")


def read_csv(path: str):
    with open(path) as fh:
        return _parse_csv(fh.read())


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
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=args.seed)
    outdir = args.out or cfg.out or "."
    os.makedirs(outdir, exist_ok=True)

    params, initial = _build_run(cfg)
    C_N = poincare_constant(params.grid)
    echo = echo_block(cfg, C_N)
    print(echo)
    with scipy.fft.set_workers(args.threads):
        traj = run(params, initial)
    write_csv(os.path.join(outdir, "series.csv"), traj)
    if cfg.snapshot_every:
        _write_snapshots(outdir, traj)
    with open(os.path.join(outdir, "run_report.txt"), "w") as fh:
        fh.write(echo + "\n")
        fh.write(f"status = {traj.status}\n")
        fh.write(f"steps = {traj.steps}\n")
        if traj.error:
            fh.write(f"error = {traj.error}\n")
    with open(os.path.join(outdir, "config.echo"), "w") as fh:
        fh.write(serialize_config(cfg))
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
    suites = [args.suite] if args.suite != "all" else list(verify.SUITES)
    cells = tuple(args.cells)
    _usable_grid(len(cells), (1.0,) * len(cells), cells)  # the suites' unit box
    reports = []
    if args.threads > 1 and len(suites) > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as ex:
            futures = [ex.submit(verify.run_suite, s, cells, args.seed) for s in suites]
            for fut in futures:
                reports.extend(fut.result())
    else:
        for s in suites:
            reports.extend(verify.run_suite(s, cells=cells, seed=args.seed))
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
    from .manufactured import mms_cases
    from .verify import mms_convergence

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
        exp = cases[name].expected_order
        if exp is not None:
            lo, hi = exp
            good = conv.lsq_order >= lo and (hi is None or conv.lsq_order <= hi)
            print(f"  expected order in [{lo}, {hi if hi is not None else 'inf'}]: {'ok' if good else 'FAIL'}")
            ok = ok and good
        else:
            good = max(conv.errors) <= 1e-12
            print(f"  expected roundoff errors: {'ok' if good else 'FAIL'}")
            ok = ok and good
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemofluid",
        description="Chemotaxis-fluid simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one trajectory from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="scipy.fft workers per transform (results are identical for any count)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", default="all", choices=sorted(verify.SUITES) + ["all"])
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--threads", type=_positive_int, default=1)
    p_ver.add_argument(
        "--cells",
        type=lambda s: [int(v) for v in s.split(",")],
        default=[64, 64],
        help="suite grid (smaller grids for quick smoke runs)",
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
