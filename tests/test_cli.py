"""Config parsing, CSV determinism, and the subcommands."""

import dataclasses

import numpy as np
import pytest

from chemofluid import fluid, stepper, verify
from chemofluid.cli import (
    _SCHEMA,
    ConfigError,
    RunConfig,
    _build_run,
    _parse_csv,
    main,
    parse_config,
    serialize_config,
)
from chemofluid.diagnostics import CSV_COLUMNS
from chemofluid.fluid import DENSE_MAX, PoissonSolver, SolverFailure
from chemofluid.stepper import STEP_BOUNDS

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

    def test_unknown_kind_cites_its_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[model]\nkind = user_table\n")
        assert "line 12: kind must be scalar_saturating or rotational" in str(exc.value)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("dim = 2", "dim = 4", "line 2: [grid] dim must be 2 or 3, got 4"),
            ("extents = 1.0,1.0", "extents = -1.0,1.0", "line 4: [grid] extents must be positive"),
            ("T = 1", "T = 1\ncsv_every = 0", "line 7: csv_every must be >= 1"),
            ("T = 1", "T = 1\nsnapshot_every = -1", "line 7: snapshot_every must be >= 0"),
            ("T = 1", "T = 1\nmax_steps = -3", "line 7: max_steps must be >= 0"),
            ("T = 1", "T = 1\nseed = -3", "line 7: seed must be >= 0, got -3"),
        ],
    )
    def test_out_of_range_value_cites_its_own_line(self, old, new, message):
        text = "[grid]\ndim = 2\ncells = 8,8\nextents = 1.0,1.0\n[run]\nT = 1\nscenario = bump_n\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text.replace(old, new))
        assert message in str(exc.value)

    @pytest.mark.parametrize("kind", ["", "kind = scalar_saturating\n"], ids=["default", "explicit"])
    def test_theta_without_rotational_kind_cites_its_line(self, kind):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[model]\n" + kind + "theta = 0.7\n")
        line = 13 if kind else 12
        assert f"line {line}: theta acts only with kind = rotational" in str(exc.value)

    def test_theta_with_rotational_kind_parses(self):
        cfg = parse_config(MINIMAL + "\n[model]\nkind = rotational\ntheta = 0.7\n")
        assert (cfg.kind, cfg.theta) == ("rotational", 0.7)
        assert parse_config(MINIMAL + "\n[model]\ntheta = 0.0\n").theta == 0.0

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
        data = _parse_csv((out / "series.csv").read_text())
        assert "lyapunov" in data and len(data["t"]) > 1
        report = dict(
            line.split(" = ", 1)
            for line in (out / "run_report.txt").read_text().splitlines()
            if " = " in line
        )
        assert report["smallness_condition"].startswith("satisfied: cs < 2*sqrt(lambda_1)")
        assert float(report["lambda_1"]) == 1.0 / float(report["C_N"])
        # the report says which bound set each step, and the step range
        steps = int(report["steps"])
        by_bound = {k[len("steps_by_"):]: int(v) for k, v in report.items() if k.startswith("steps_by_")}
        assert list(by_bound) == list(STEP_BOUNDS)
        assert sum(by_bound.values()) == steps == len(data["t"]) - 1
        assert float(report["dt_min"]) == data["dt"][1:].min()
        assert float(report["dt_max"]) == data["dt"][1:].max()

    def test_byte_identical_rerun_and_threads(self, tmp_path, monkeypatch):
        # 24^2 runs on matrix products only; the long axis of the second grid
        # takes pocketfft kernel calls, which get the requested thread count
        long_axis = MINIMAL.replace("cells = 24,24", f"cells = {DENSE_MAX + 1},8").replace(
            "extents = 1.0,1.0", "extents = 4.0,1.0"
        )
        # the nthreads of every kernel call a transform makes (the dense bases
        # are built by kernel calls too, outside any transform)
        workers, inside = [], []
        transform = PoissonSolver.transform

        def recorded_transform(self, *args, **kwargs):
            inside.append(True)
            try:
                return transform(self, *args, **kwargs)
            finally:
                inside.pop()

        def recorded(kernel):
            def call(*args):  # kernel(a, type, axes, inorm, out, nthreads, ortho)
                if inside:
                    workers.append(args[5])
                return kernel(*args)

            return call

        monkeypatch.setattr(PoissonSolver, "transform", recorded_transform)
        for name, kernel in list(fluid._KERNELS.items()):
            monkeypatch.setitem(fluid._KERNELS, name, recorded(kernel))
        for k, body in enumerate((MINIMAL, long_axis)):
            cfg = self._write_cfg(tmp_path, body)
            outs = []
            for threads in (1, 4):
                workers.clear()
                out = tmp_path / f"out{k}_{threads}"
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
                assert set(workers) == (set() if k == 0 else {threads})
                outs.append((out / "series.csv").read_bytes())
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_must_be_positive(self, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "unread.cfg", "--threads", threads])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", self._write_cfg(tmp_path), "--seed", "-5"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -5" in capsys.readouterr().err

    def test_negative_seed_in_the_config_exits_2(self, tmp_path, capsys):
        body = MINIMAL.replace("scenario = bump_n", "scenario = random_perturbation\nseed = -3")
        assert main(["run", "--config", self._write_cfg(tmp_path, body)]) == 2
        assert capsys.readouterr().err == "config error: line 10: seed must be >= 0, got -3\n"

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

    def test_aborted_run_writes_its_report_and_exits_1(self, tmp_path, monkeypatch, capsys):
        calls = []
        substep = stepper.ns_substep

        def failing_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise SolverFailure("injected", 1.0)
            return substep(*args, **kwargs)

        monkeypatch.setattr(stepper, "ns_substep", failing_third_call)
        body = MINIMAL.replace("cells = 24,24", "cells = 8,8").replace("T = 0.004", "T = 0.1")
        out = tmp_path / "out"
        assert main(["run", "--config", self._write_cfg(tmp_path, body), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "run aborted: step 3: SolverFailure: injected (relative residual=1.000e+00)\n"
        report = dict(
            line.split(" = ", 1)
            for line in (out / "run_report.txt").read_text().splitlines()
            if " = " in line
        )
        assert report["status"] == "aborted"
        assert report["steps"] == "2"
        assert report["error"] == "step 3: SolverFailure: injected (relative residual=1.000e+00)"

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, MINIMAL + "\n[model]\nalpha = 0.2\n")
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("", "[model]\ncs = nan", "line 12: 'nan' is not a finite number"),
            ("", "[model]\nalpha = nan", "line 12: 'nan' is not a finite number"),
            ("", "[model]\ntheta = nan", "line 12: 'nan' is not a finite number"),
            ("", "[model]\nkappa = nan", "line 12: 'nan' is not a finite number"),
            ("", "[model]\nphi_strength = inf", "line 12: 'inf' is not a finite number"),
            ("T = 0.004", "T = nan", "line 8: 'nan' is not a finite number"),
            ("extents = 1.0,1.0", "extents = 1.0,-inf", "line 5: '1.0,-inf' is not a finite number"),
        ],
        ids=["cs", "alpha", "theta", "kappa", "phi_strength", "T", "extents"],
    )
    def test_non_finite_value_exits_2_with_one_line(self, tmp_path, capsys, old, new, message):
        body = MINIMAL.replace(old, new) if old else MINIMAL + "\n" + new + "\n"
        assert main(["run", "--config", self._write_cfg(tmp_path, body)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"  # one line, no traceback

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--config", "{cfg}"], "config error: line 4: [grid] extents/cells must have length dim=3"),
            (["poincare", "--dim", "4", "--cells", "8", "--extents", "1"], "dim must be 2 or 3"),
            (["poincare", "--dim", "2", "--cells", "2", "--extents", "1"], "at least 4 cells"),
            (["verify", "--cells", "2,2"], "at least 4 cells"),
            (["mms", "--case", "bogus"], "unknown case 'bogus'"),
            (["mms", "--resolutions", "8,12"], "at least 3 resolutions"),
            (["mms", "--resolutions", "8,12,8"], "resolutions must strictly increase"),
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
            "mms-not-refining",
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

    @pytest.mark.parametrize("blocked", ["directory", "output"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, blocked):
        cfg = self._write_cfg(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("")
        if blocked == "directory":  # os.makedirs below a regular file
            out, path = afile / "sub", afile / "sub"
        else:  # a directory where series.csv goes
            out, path = tmp_path / "out", tmp_path / "out" / "series.csv"
            path.mkdir(parents=True)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"chemofluid run: cannot write {str(path)!r}: "), err
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
        data = _parse_csv((out / "series.csv").read_text())
        assert len(data["t"]) > 2 and data["t"][-1] == pytest.approx(0.004)
        mass = data["mass_n"]
        assert np.abs(mass - mass[0]).max() <= 1e-14 * mass[0]

    @pytest.mark.parametrize("name", sorted(verify.scenario_library((8, 8))))
    def test_scenario_supplies_only_the_initial_state(self, monkeypatch, name):
        """The config sets the model; the scenario's parameters are never built."""

        def refuse(*args, **kwargs):
            raise AssertionError("the run built a scenario's parameters")

        monkeypatch.setattr(verify, "_base_params", refuse)
        cfg = parse_config(MINIMAL.replace("bump_n", name) + "seed = 2\n\n[model]\ncs = 0.3\n")
        params, initial = _build_run(cfg)
        assert (params.sensitivity.C_S, params.T) == (0.3, 0.004)
        expected = verify.scenario_library((24, 24))[name].initial(2)
        def arrays(state):
            return [a.tobytes() for a in (state.n.data, state.c.data, state.P.data, *state.u.components)]

        assert arrays(initial) == arrays(expected)


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
    def test_mms_suite_skips_a_grid_it_cannot_refine(self, capsys):
        rc = main(["verify", "--suite", "mms", "--cells", "16,8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[SKIP  ] convergence_order") == 3
        assert "mms_diffusion_only.convergence_order.status = skip" in out

    def test_threads_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "stabilization", "--cells", "8,8", "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_ladder_suite_small_grid(self, capsys):
        rc = main(["verify", "--suite", "ladder", "--cells", "16,16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epsilon_ladder" in out
        assert "machine-readable" in out
