"""Config parsing, CSV determinism, and the subcommands."""

import dataclasses

import numpy as np
import pytest

from chemofluid.cli import (
    _SCHEMA,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    read_csv,
    serialize_config,
)
from chemofluid.diagnostics import CSV_COLUMNS

MINIMAL = """
[grid]
dim = 2
cells = 24,24
extents = 1.0,1.0

[run]
T = 0.004
scenario = bump_n
"""

# malformed series files for `chemofluid rates`, by file name
RATES_INPUTS = {
    "header_only.csv": "t,x\n",
    "no_rows.csv": ",".join(CSV_COLUMNS) + "\n",
    "empty.csv": "",
    "text_cell.csv": "t,lyapunov\n0,1\n0.1,abc\n",
    "ragged.csv": "t,lyapunov\n0,1\n0.1\n",
    "good.csv": "t,lyapunov\n0,1\n0.1,0.5\n",
}


class TestParseConfig:
    def test_minimal_with_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dim == 2 and cfg.cells == (24, 24)
        assert cfg.sigma == 0.4
        assert cfg.eps == 0.1
        assert cfg.kappa == 1.0
        assert cfg.alpha == 1.0

    def test_alpha_below_one_cites_requirement(self):
        text = MINIMAL + "\n[model]\nalpha = 0.5\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "alpha must be >= 1" in str(exc.value)
        assert "line" in str(exc.value)

    def test_large_cs_parses_fine(self):
        # the smallness condition gates the certificate, not the simulation
        cfg = parse_config(MINIMAL + "\n[model]\ncs = 0.9\n")
        assert cfg.cs == 0.9

    def test_user_table_is_library_only(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[model]\nkind = user_table\n")
        assert "library-only" in str(exc.value)

    def test_unknown_key_with_line_number(self):
        text = "[grid]\ndim = 2\ncells = 8,8\nextents = 1,1\nwibble = 3\n[run]\nT = 1\nscenario = bump_n\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "line 5" in str(exc.value) and "wibble" in str(exc.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[conjuring]\nx = 1\n")
        assert "line 1" in str(exc.value)

    def test_missing_required(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\ndim = 2\ncells = 8,8\nextents = 1,1\n")
        assert "required" in str(exc.value)

    def test_duplicate_key(self):
        text = MINIMAL + "\n[model]\neps = 0.1\neps = 0.2\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "duplicate" in str(exc.value)

    def test_schema_order_is_field_order(self):
        # serialization and the echo block both rely on this order
        names = [key for keys in _SCHEMA.values() for key in keys]
        assert names == [f.name for f in dataclasses.fields(RunConfig)]

    def test_round_trip_identity(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)

    def test_comments_ignored(self):
        cfg = parse_config(MINIMAL + "\n[model]\nkappa = 0.0  # stokes limit\n")
        assert cfg.kappa == 0.0


class TestRunCommand:
    def _write_cfg(self, tmp_path, body=MINIMAL):
        p = tmp_path / "run.cfg"
        p.write_text(body)
        return str(p)

    def test_run_writes_csv_and_report(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "echo: effective parameters" in captured
        assert "C_N" in captured
        data = read_csv(out / "series.csv")
        assert "lyapunov" in data and len(data["t"]) > 1
        assert (out / "run_report.txt").exists()

    def test_byte_identical_rerun_and_threads(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        outs = []
        for i, threads in enumerate((1, 4)):
            out = tmp_path / f"out{i}"
            rc = main(
                [
                    "run",
                    "--config",
                    cfg,
                    "--out",
                    str(out),
                    "--seed",
                    "5",
                    "--threads",
                    str(threads),
                ]
            )
            assert rc == 0
            outs.append((out / "series.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_snapshots_written(self, tmp_path):
        body = MINIMAL.replace("scenario = bump_n", "scenario = bump_n\nsnapshot_every = 10")
        cfg = self._write_cfg(tmp_path, body)
        out = tmp_path / "snaps"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        kssf = sorted(out.glob("n_*.kssf"))
        assert len(kssf) >= 2
        from chemofluid.grid import read_field_snapshot

        data, extents = read_field_snapshot(kssf[0])
        assert data.shape == (24, 24) and extents == (1.0, 1.0)

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, MINIMAL + "\n[model]\nalpha = 0.2\n")
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--config", "{cfg}"], "config error: line 4: [grid] extents/cells must have length dim=3"),
            (["poincare", "--dim", "4", "--cells", "8", "--extents", "1"], "dim must be 2 or 3"),
            (["poincare", "--dim", "2", "--cells", "2", "--extents", "1"], "at least 4 cells"),
            (["verify", "--cells", "2,2"], "at least 4 cells"),
            (["mms", "--case", "bogus"], "unknown case 'bogus'"),
            (["mms", "--resolutions", "8,12"], "at least 3 resolutions"),
            (["run", "--config", "{tmp}/missing.cfg"], "cannot read"),
            (["rates", "--csv", "{tmp}/missing.csv"], "cannot read"),
            (["rates", "--csv", "{tmp}/header_only.csv"], "missing column(s) lyapunov"),
            (["rates", "--csv", "{tmp}/no_rows.csv"], "no data rows"),
            (["rates", "--csv", "{tmp}/empty.csv"], "no header line"),
            (["rates", "--csv", "{tmp}/text_cell.csv"], "line 3: a field is not a number"),
            (["rates", "--csv", "{tmp}/ragged.csv"], "line 3: 1 fields, the header has 2"),
            (["rates", "--csv", "{tmp}/good.csv", "--columns", "bogus"], "missing column(s) bogus"),
        ],
        ids=[
            "run-dim3",
            "poincare-dim4",
            "poincare-cells2",
            "verify-cells2",
            "mms-bogus-case",
            "mms-two-resolutions",
            "run-missing-config",
            "rates-missing-csv",
            "rates-header-only",
            "rates-no-rows",
            "rates-empty-csv",
            "rates-text-cell",
            "rates-ragged-row",
            "rates-missing-column",
        ],
    )
    def test_grid_shape_error_exit_code(self, tmp_path, capsys, argv, message):
        cfg = self._write_cfg(tmp_path, MINIMAL.replace("dim = 2", "dim = 3"))
        for name, body in RATES_INPUTS.items():
            (tmp_path / name).write_text(body)
        argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.splitlines()) == 1, err

    def test_anisotropic_grid_honoured(self, tmp_path, capsys):
        body = MINIMAL.replace("cells = 24,24", "cells = 16,8").replace(
            "extents = 1.0,1.0", "extents = 2.0,1.0"
        )
        body = body.replace("scenario = bump_n", "scenario = bump_n\nsnapshot_every = 10")
        out = tmp_path / "aniso"
        assert main(["run", "--config", self._write_cfg(tmp_path, body), "--out", str(out)]) == 0
        echo = dict(
            line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line
        )
        # closed form for the 2 x 1 box: the long axis, h = 1/8, N = 16
        closed = 1.0 / ((4.0 / 0.125**2) * np.sin(np.pi / 32) ** 2)
        assert float(echo["C_N"]) == pytest.approx(closed, rel=1e-14)
        assert float(echo["C_N"]) == pytest.approx(0.40659, abs=5e-6)
        from chemofluid.grid import read_field_snapshot

        data, extents = read_field_snapshot(sorted(out.glob("n_*.kssf"))[0])
        assert data.shape == (16, 8) and extents == (2.0, 1.0)

    def test_three_d_bump_conserves_mass(self, tmp_path):
        body = (
            MINIMAL.replace("dim = 2", "dim = 3")
            .replace("cells = 24,24", "cells = 8,8,8")
            .replace("extents = 1.0,1.0", "extents = 1.0,1.0,1.0")
        )
        out = tmp_path / "cube"
        assert main(["run", "--config", self._write_cfg(tmp_path, body), "--out", str(out)]) == 0
        data = read_csv(out / "series.csv")
        assert len(data["t"]) > 2 and data["t"][-1] == pytest.approx(0.004)
        mass = data["mass_n"]
        assert np.abs(mass - mass[0]).max() <= 1e-14 * mass[0]


class TestPoincareCommand:
    def test_unit_square(self, capsys):
        rc = main(["poincare", "--dim", "2", "--cells", "64", "--extents", "1,1"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.strip().split("=")[1])
        assert value == pytest.approx(1.0 / np.pi**2, rel=0.01)


class TestRatesCommand:
    def test_refit_from_csv(self, tmp_path, capsys):
        # synthetic series with known decay rates
        t = np.linspace(0, 2, 120)
        cols = {
            "t": t,
            "l2_n_dev": 0.4 * np.exp(-3.0 * t),
            "l2_c_dev": 0.6 * np.exp(-3.0 * t),
            "grad_c_l2": 2.0 * np.exp(-5.0 * t),
            "grad_c_l4": 4.0 * np.exp(-9.0 * t),
            "l2_u": np.exp(-7.0 * t),
            "lyapunov": np.exp(-3.0 * t),
        }
        path = tmp_path / "series.csv"
        names = list(cols)
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for i in range(t.size):
                fh.write(",".join(repr(float(cols[k][i])) for k in names) + "\n")
        rc = main(["rates", "--csv", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        kv = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(kv["l2_dev_sum.rate"]) == pytest.approx(3.0, rel=1e-6)
        assert float(kv["grad_c_l2.rate"]) == pytest.approx(5.0, rel=1e-6)
        assert float(kv["l2_u.rate"]) == pytest.approx(7.0, rel=1e-6)


class TestMmsCommand:
    def test_exact_steady_case(self, capsys):
        rc = main(["mms", "--case", "exact_steady", "--resolutions", "8,16,32"])
        assert rc == 0
        assert "roundoff" in capsys.readouterr().out


class TestVerifyCommand:
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_must_be_positive(self, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "ladder", "--threads", threads])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_ladder_suite_small_grid(self, capsys):
        rc = main(["verify", "--suite", "ladder", "--cells", "16,16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epsilon_ladder" in out
        assert "machine-readable" in out
