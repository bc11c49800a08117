"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import jsonschema
import numpy as np
import pytest

from taubounds import MarginMode, analyze, cli, population_bounds, read_csv, write_csv, Dataset
from taubounds.cli import main


def run_cli(*argv):
    return main(list(argv))


def run_child(*argv):
    """Run ``python argv...`` in a fresh interpreter and return its stdout;
    fails the test on a nonzero exit.

    The child imports the package the suite imported: its source directory
    goes first on ``PYTHONPATH``, then the caller's, as pytest's
    ``pythonpath`` setting does not reach child processes.
    """
    source = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestAnalyzeCommand:
    def test_report_round_trip(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        report = tmp_path / "report.json"
        assert run_cli("simulate", "--scenario", "P2", "--n", "5000",
                       "--seed", "3", "--output", str(data)) == 0
        assert run_cli("analyze", "--input", str(data), "--margins", "uniform01",
                       "--theta", "0.4", "--output", str(report)) == 0
        payload = json.loads(report.read_text())
        assert payload["n"] == 5000
        assert payload["margins_mode"] == "uniform01"
        assert payload["theta"] == 0.4
        assert payload["refined"] is not None
        assert sum(payload["pattern_counts"]) == 5000
        out = capsys.readouterr().out
        assert "decision:" in out

    def test_json_to_stdout(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        run_cli("simulate", "--scenario", "P3", "--n", "500", "--seed", "1",
                "--output", str(data))
        capsys.readouterr()  # drop the simulate status line
        assert run_cli("analyze", "--input", str(data), "--margins", "unknown",
                       "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["margins_mode"] == "unknown"
        assert payload["refined"] is None

    def test_report_validator_raises_what_jsonschema_validate_raises(self, tmp_path):
        data = tmp_path / "data.csv"
        run_cli("simulate", "--scenario", "P3", "--n", "300", "--seed", "2",
                "--output", str(data))
        report = analyze(read_csv(data), MarginMode.uniform01(), theta=0.4)
        assert cli._validated_report(report) == report.to_report_dict()
        payload = report.to_report_dict()
        payload["decision"] = "maybe"
        del payload["n"]
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, json.loads(
                (Path(cli.__file__).parent / "report_schema.json").read_text()))
        with pytest.raises(jsonschema.ValidationError) as got:
            cli._validated_report(SimpleNamespace(to_report_dict=lambda: payload))
        assert str(got.value) == str(expected.value)
        assert cli._report_validator() is cli._report_validator()

    def test_empty_input_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y\n", encoding="utf-8")
        assert run_cli("analyze", "--input", str(empty)) == 2
        assert "empty input" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert run_cli("analyze", "--input", str(tmp_path / "nope.csv")) == 1

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.1,0.2\noops,0.3\n", encoding="utf-8")
        assert run_cli("analyze", "--input", str(bad)) == 2
        assert "line 3" in capsys.readouterr().err

    def test_oversized_field_exit_2(self, tmp_path, capsys):
        # longer than csv.field_size_limit(), in the data file and in a CDF table
        huge = tmp_path / "huge.csv"
        huge.write_text("x,y\n" + "1" * 200_000 + ",0.5\n", encoding="utf-8")
        assert run_cli("analyze", "--input", str(huge)) == 2
        assert capsys.readouterr().err.startswith("error: field larger than field limit")
        table = tmp_path / "table.csv"
        table.write_text("0,0\n" + "1" * 200_000 + ",1\n", encoding="utf-8")
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.1,0.2\n", encoding="utf-8")
        assert run_cli("analyze", "--input", str(data), "--margins", "from-file",
                       "--x-cdf", str(table), "--y-cdf", str(table)) == 2
        assert capsys.readouterr().err.startswith("error: field larger than field limit")

    def test_theta_with_unknown_margins_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.1,0.2\n0.4,0.5\n", encoding="utf-8")
        assert run_cli("analyze", "--input", str(data), "--margins", "unknown",
                       "--theta", "0.4") == 2
        assert "known margins" in capsys.readouterr().err

    def test_nan_se_guard_exit_2(self, tmp_path, capsys):
        # four countermonotone rows: at theta = 0 the refined upper endpoint
        # is -0.4, so the decision is negative, and a NaN guard must not turn
        # it into an inconclusive exit 0
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.1,0.9\n0.9,0.1\n0.3,0.7\n0.7,0.3\n", encoding="utf-8")
        args = ("analyze", "--input", str(data), "--theta", "0", "--format", "json")
        assert run_cli(*args, "--se-guard", "0") == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "dependence_negative"
        assert run_cli(*args, "--se-guard", "nan") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "se_guard must be a nonnegative number" in captured.err

    def test_single_complete_row_has_finite_ses(self, tmp_path, capsys):
        # the per-row SE spans all rows, so one complete row no longer makes
        # the SEs undefined (null) and a guard widens by them
        rng = np.random.default_rng(5)
        data = tmp_path / "data.csv"
        write_csv(Dataset([0.8] + list(rng.random(100)) + [math.nan] * 50,
                          [0.9] + [math.nan] * 150), data)
        report = tmp_path / "report.json"
        assert run_cli("analyze", "--input", str(data), "--theta", "0.4",
                       "--se-guard", "2", "--output", str(report)) == 0
        payload = json.loads(report.read_text())
        assert payload["pattern_counts"] == [1, 100, 0, 50]
        for block in ("worst_case", "refined"):
            for side in ("lower", "upper"):
                se = payload[block]["se"][side]
                assert se is not None and math.isfinite(se) and se > 0.0
        refined_clipped = payload["refined"]["clipped"]
        assert refined_clipped["lower"] - 2 * payload["refined"]["se"]["lower"] < 0.0
        assert payload["decision"] == "inconclusive"
        assert "(se " in capsys.readouterr().out

    def test_from_file_margins(self, tmp_path):
        table = tmp_path / "uniform.csv"
        table.write_text("value,cdf\n0.0,0.0\n1.0,1.0\n", encoding="utf-8")
        data = tmp_path / "data.csv"
        run_cli("simulate", "--scenario", "P3", "--n", "1000", "--seed", "2",
                "--output", str(data))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli("analyze", "--input", str(data), "--margins", "from-file",
                       "--x-cdf", str(table), "--y-cdf", str(table),
                       "--output", str(out_a)) == 0
        assert run_cli("analyze", "--input", str(data), "--margins", "uniform01",
                       "--output", str(out_b)) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["worst_case"] == b["worst_case"]

    def test_from_file_requires_both_tables(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.1,0.2\n0.4,0.5\n", encoding="utf-8")
        assert run_cli("analyze", "--input", str(data),
                       "--margins", "from-file") == 2
        assert "--x-cdf" in capsys.readouterr().err

    @pytest.mark.parametrize("margins", ["uniform01", "unknown"])
    @pytest.mark.parametrize("tables", ["x_missing", "y_missing", "both_valid"])
    def test_stray_cdf_tables_exit_2(self, tmp_path, capsys, margins, tables):
        # rejected before any table is opened: a missing table exits 2, not 1
        table = tmp_path / "uniform.csv"
        table.write_text("value,cdf\n0.0,0.0\n1.0,1.0\n", encoding="utf-8")
        missing = str(tmp_path / "missing.csv")
        flags = {"x_missing": ["--x-cdf", missing],
                 "y_missing": ["--y-cdf", missing],
                 "both_valid": ["--x-cdf", str(table), "--y-cdf", str(table)]}[tables]
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.1,0.2\n0.4,0.5\n", encoding="utf-8")
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--input", str(data), "--margins", margins,
                       *flags, "--output", str(out)) == 2
        captured = capsys.readouterr()
        assert "--x-cdf" in captured.err and "--y-cdf" in captured.err
        assert margins in captured.err
        assert captured.out == "" and not out.exists()


class TestSimulateCommand:
    def test_byte_identical_repeats(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("simulate", "--scenario", "P3", "--n", "1000",
                           "--seed", "7", "--output", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_gamma_uniform_patterns(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run_cli("simulate", "--rho", "0", "--gamma", "zeros",
                       "--n", "100000", "--seed", "5", "--output", str(out)) == 0
        ds = read_csv(out)
        freq = ds.pattern_counts() / len(ds)
        assert np.max(np.abs(freq - 0.25)) < 0.007

    def test_complete_fraction_matches_population(self, tmp_path):
        out = tmp_path / "p1.csv"
        n = 100_000
        assert run_cli("simulate", "--scenario", "P1", "--n", str(n),
                       "--seed", "9", "--output", str(out)) == 0
        ds = read_csv(out)
        pb = population_bounds("P1", draws=400_000, seed=123)
        p1_hat = ds.pattern_counts()[0] / n
        se = math.sqrt(pb.p_z[0] * (1 - pb.p_z[0]) / n + pb.p_z_se[0] ** 2)
        assert abs(p1_hat - pb.p_z[0]) < 3 * se

    def test_bounds_report(self, tmp_path):
        out = tmp_path / "d.csv"
        bounds_out = tmp_path / "pb.json"
        assert run_cli("simulate", "--scenario", "P3", "--n", "100", "--seed", "0",
                       "--output", str(out), "--bounds-output", str(bounds_out),
                       "--theta", "0.4") == 0
        payload = json.loads(bounds_out.read_text())
        assert payload["engine"] == "quadrature"
        assert "draws" not in payload and "seed" not in payload
        assert payload["refined"]["lower"] <= payload["refined"]["upper"]
        assert payload["worst_case"]["lower"] <= 0.0 <= payload["worst_case"]["upper"]

    def test_draws_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--scenario", "P3", "--n", "10", "--draws", "50000",
                  "--output", str(tmp_path / "d.csv")])
        assert err.value.code == 2

    def test_invalid_gamma_exit_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--rho", "0.5", "--gamma", "1,2,3",
                       "--n", "10", "--output", str(tmp_path / "x.csv")) == 2
        assert "8 comma-separated" in capsys.readouterr().err

    def test_invalid_rho_exit_2(self, tmp_path):
        assert run_cli("simulate", "--rho", "1.5", "--gamma", "zeros",
                       "--n", "10", "--output", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("rho, pair", [("1", lambda x: x), ("-1", lambda x: 1.0 - x)],
                             ids=["comonotone", "countermonotone"])
    def test_extremal_rho(self, tmp_path, rho, pair):
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--rho", rho, "--gamma", "zeros", "--n", "2000",
                       "--output", str(out)) == 0
        ds = read_csv(out)
        complete = ds.z == 1
        assert np.count_nonzero(complete) > 300
        assert np.allclose(ds.y[complete], pair(ds.x[complete]), rtol=0.0, atol=1e-15)
        if rho == "1":
            assert np.array_equal(ds.y[complete], ds.x[complete])

    def test_extremal_rho_bounds_output_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the quadrature needs |rho| < 1, and is run before the CSV is written
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", "--rho", "1", "--gamma", "zeros", "--n", "10",
                       "--output", "a.csv", "--bounds-output", "b.json") == 2
        assert "rho" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_scenario_conflicts_with_rho(self, tmp_path):
        assert run_cli("simulate", "--scenario", "P1", "--rho", "0.2",
                       "--n", "10", "--output", str(tmp_path / "x.csv")) == 2


class TestReproduceCommand:
    def test_structure_and_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["reproduce", "--draws", "20000", "--seed", "4"]
        assert run_cli(*base, "--workers", "1", "--output", str(a)) == 0
        assert run_cli(*base, "--workers", "8", "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert {row["scenario"] for row in payload["results"]} == {"P1", "P2", "P3"}
        assert {row["covariate_scale"] for row in payload["results"]} \
            == {"uniform01", "normal_score"}
        assert "matched_convention" in payload
        for row in payload["results"]:
            assert row["refined"]["lower"] <= row["refined"]["upper"]
            assert set(row["targets"]) == set(row["deviations"])

    def test_scale_restriction_and_strict(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("reproduce", "--draws", "20000", "--seed", "1",
                       "--scale", "uniform01", "--tolerance", "0.005",
                       "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["tolerance"] == 0.005
        assert {row["covariate_scale"] for row in payload["results"]} == {"uniform01"}

    def test_strict_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--strict"])
        assert exc.value.code == 2
        assert "--strict" in capsys.readouterr().err

    def test_zero_tolerance_is_valid(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("reproduce", "--scale", "uniform01", "--tolerance", "0",
                       "--output", str(out)) == 0
        assert json.loads(out.read_text())["tolerance"] == 0.0

    def test_scenario_manifest_export(self, tmp_path):
        manifest = tmp_path / "scenarios.json"
        assert run_cli("reproduce", "--draws", "20000", "--seed", "0",
                       "--scale", "uniform01",
                       "--export-scenarios", str(manifest)) == 0
        payload = json.loads(manifest.read_text())
        assert payload["P1"]["gamma"] == [[2.0, 2.0], [-5.0, 0.25],
                                          [5.0, -0.25], [-5.0, -5.0]]

    @pytest.mark.parametrize("command, extras, hidden", [
        (["reproduce"],
         ([], ["--draws", "100"], ["--draws", "2000000", "--seed", "9", "--workers", "2"],
          ["--seed", "-3"]),
         ("--draws", "--seed", "--workers")),
        (["simulate", "--scenario", "P2", "--n", "5000", "--seed", "3"],
         ([], ["--workers", "2"], ["--workers", "8"]),
         ("--workers",)),
    ], ids=["reproduce", "simulate"])
    def test_sampling_flags_change_nothing(self, tmp_path, capsys, command, extras, hidden):
        outputs = []
        for extra in extras:
            path = tmp_path / f"out{len(outputs)}"
            assert run_cli(*command, *extra, "--output", str(path)) == 0
            outputs.append(path.read_bytes())
        assert len(set(outputs)) == 1
        if command[0] == "reproduce":
            payload = json.loads(outputs[0])
            assert payload["engine"] == "quadrature"
            assert "draws" not in payload and "seed" not in payload
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([command[0], "--help"])
        usage = capsys.readouterr().out
        assert not any(flag in usage for flag in hidden)


@pytest.mark.parametrize("argv", [
    ["simulate", "--rho", "0.5", "--n", "10", "--output", "y.csv", "--theta", "0.6"],
    ["simulate", "--rho", "0.5", "--n", "10", "--output", "y.csv",
     "--bounds-output", "b.json", "--theta", "0.6"],
    ["reproduce", "--theta", "0.7", "--export-scenarios", "m.json"],
], ids=["simulate", "simulate-bounds-output", "reproduce"])
def test_invalid_theta_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    assert "theta must lie in [0, 0.5]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_invalid_tolerance_writes_nothing(tmp_path, monkeypatch, capsys, tolerance):
    monkeypatch.chdir(tmp_path)
    assert run_cli("reproduce", "--tolerance", tolerance, "--export-scenarios", "m.json",
                   "--output", "r.json") == 2
    assert "--tolerance must be a finite number >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestCsvRoundTrip:
    def test_missing_cells(self, tmp_path):
        ds = Dataset.from_records([(0.25, 0.5), (0.75, None), (None, 0.125),
                                   (None, None)])
        path = tmp_path / "round.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert np.array_equal(ds.x, back.x, equal_nan=True)
        assert np.array_equal(ds.y, back.y, equal_nan=True)
        assert np.array_equal(ds.z, back.z)

    def test_na_literal(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("x,y\n0.5,NA\nNA,0.25\n", encoding="utf-8")
        ds = read_csv(path)
        assert ds.z.tolist() == [2, 3]

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n0.5,0.5\n", encoding="utf-8")
        assert run_cli("analyze", "--input", str(path)) == 2

    def test_nonfinite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x,y\ninf,0.5\n", encoding="utf-8")
        assert run_cli("analyze", "--input", str(path)) == 2


class TestParser:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--input", "x.csv", "--frobnicate"])
        assert err.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "m.csv"
        run_child("-m", "taubounds", "simulate", "--scenario", "P3",
                  "--n", "50", "--seed", "1", "--output", str(out))
        assert out.exists()


class TestRepeatedCalls:
    """Many ``main`` calls in one process: the parser is built once, and no
    call sees the options, outputs or warnings of another."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "data.csv"
        run_cli("simulate", "--scenario", "P3", "--n", "300", "--seed", "4",
                "--output", str(path))
        return path

    def test_parser_built_once(self, data, capsys):
        cli._parser.cache_clear()
        with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
            for _ in range(20):
                assert run_cli("analyze", "--input", str(data), "--format", "json") == 0
        assert built.call_count == 1
        capsys.readouterr()

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_theta_does_not_carry_over(self, data, capsys):
        capsys.readouterr()
        base = ("analyze", "--input", str(data), "--format", "json")
        assert run_cli(*base, "--theta", "0.4") == 0
        assert json.loads(capsys.readouterr().out)["theta"] == 0.4
        assert run_cli(*base) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"] is None and payload["refined"] is None

    def test_margins_do_not_carry_over(self, data, tmp_path, capsys):
        table = tmp_path / "uniform.csv"
        table.write_text("value,cdf\n0.0,0.0\n1.0,1.0\n", encoding="utf-8")
        capsys.readouterr()
        base = ("analyze", "--input", str(data), "--format", "json")
        assert run_cli(*base, "--margins", "from-file",
                       "--x-cdf", str(table), "--y-cdf", str(table)) == 0
        assert json.loads(capsys.readouterr().out)["margins_mode"] == "from_file"
        assert run_cli(*base, "--margins", "unknown") == 0
        assert json.loads(capsys.readouterr().out)["margins_mode"] == "unknown"

    def test_bounds_output_does_not_carry_over(self, tmp_path, capsys):
        base = ("simulate", "--scenario", "P3", "--n", "50", "--seed", "1")
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        assert run_cli(*base, "--output", str(first / "d.csv"),
                       "--bounds-output", str(first / "b.json"), "--theta", "0.4") == 0
        assert run_cli(*base, "--output", str(second / "d.csv")) == 0
        assert sorted(p.name for p in first.iterdir()) == ["b.json", "d.csv"]
        assert [p.name for p in second.iterdir()] == ["d.csv"]
        assert capsys.readouterr().out.count("population bounds written") == 1

    def test_rejected_call_leaves_no_trace(self, data, capsys):
        argv = ("analyze", "--input", str(data), "--theta", "0.3", "--format", "json")
        capsys.readouterr()
        assert run_cli(*argv) == 0
        before = capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--input", str(data), "--margins", "bogus"])
        assert err.value.code == 2
        capsys.readouterr()
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == before

    def test_each_call_reports_its_warnings(self, tmp_path):
        # in a fresh interpreter: pytest installs warning filters of its own
        paths = []
        for k in range(3):
            path = tmp_path / f"tied{k}.csv"
            path.write_text(f"x,y\n0.{k}1,0.2\n0.{k}1,0.5\n0.7,\n,0.4\n0.9,0.8\n",
                            encoding="utf-8")
            paths.append(str(path))
        code = ("import contextlib, io, json, sys, warnings\n"
                "from taubounds.cli import main\n"
                "def warned():\n"
                "    err = io.StringIO()\n"
                "    with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(err):\n"
                "        for path in json.loads(sys.argv[1]):\n"
                "            assert main(['analyze', '--input', path]) == 0\n"
                "    return err.getvalue().count('TiedDataWarning')\n"
                "shown = warned()\n"
                "warnings.simplefilter('ignore')\n"
                "print(shown, warned())")
        # one warning per call, and the caller's ignore filter still holds
        assert run_child("-c", code, json.dumps(paths)) == "3 0\n"


# the scipy modules an interpreter has loaded, as a Python expression
_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestColdStart:
    """scipy is loaded only by the functions that call it."""

    def test_parser_loads_no_scipy(self):
        code = ("import sys, taubounds, taubounds.cli\n"
                f"taubounds.cli.build_parser()\nprint({_SCIPY_LOADED})")
        assert run_child("-c", code) == "[]\n"

    def test_analyze_loads_no_scipy(self, tmp_path):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(8)
        x, y = rng.random(300), rng.random(300)
        x[rng.random(300) < 0.3] = math.nan
        y[rng.random(300) < 0.3] = math.nan
        write_csv(Dataset(x, y), data)
        table = tmp_path / "uniform.csv"
        table.write_text("value,cdf\n0.0,0.0\n1.0,1.0\n", encoding="utf-8")
        margins = (["--margins", "uniform01", "--theta", "0.4"],
                   ["--margins", "unknown"],
                   ["--margins", "from-file", "--x-cdf", str(table), "--y-cdf", str(table),
                    "--theta", "0.3"])
        calls = [["analyze", "--input", str(data), *m, "--format", f]
                 for m in margins for f in ("plain", "json")]
        code = ("import contextlib, io, json, sys\n"
                "from taubounds.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                f"print(codes, {_SCIPY_LOADED})")
        # every call exits 0 and none loads scipy
        assert run_child("-c", code, json.dumps(calls)) == f"{[0] * len(calls)} []\n"

    def test_cold_runs_write_what_warm_ones_do(self, tmp_path, capsys):
        commands = (["simulate", "--scenario", "P2", "--n", "3000", "--seed", "3",
                     "--covariate-scale", "normal-score", "--theta", "0.4",
                     "--output", "{}/d.csv", "--bounds-output", "{}/b.json"],
                    ["reproduce", "--output", "{}/r.json"])
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        cold.mkdir()
        warm.mkdir()
        for command in commands:
            run_child("-m", "taubounds", *(a.format(cold) for a in command))
            assert run_cli(*(a.format(warm) for a in command)) == 0
        capsys.readouterr()
        for name in ("d.csv", "b.json", "r.json"):
            assert (cold / name).read_bytes() == (warm / name).read_bytes()
