"""Command-line front end: exit codes, output formats, file handling."""

import json
import math

import pytest

from ltmag import (BelowThresholdError, ConvergenceError,
                   InvalidConfigError, LtmagError, NotLasableError,
                   OutputTable, PhysicsDomainError, StiffnessError,
                   experiment, find_operating_point, preset, save_config,
                   with_drive)
from ltmag import cli
from ltmag.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _table(out):
    return OutputTable.from_csv(out)


def _strict_json(text):
    """``json.loads`` that rejects the non-standard Infinity and NaN."""
    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_steady_state_stdout(capsys):
    code, out, err = _run(capsys, "steady-state", "--preset", "baseline",
                          "--delta", "1e8")
    assert code == 0 and err == ""
    table = _table(out)
    assert table.rows[0][table.column_index("n")] \
        == pytest.approx(6.681892e-2, rel=1e-6)
    assert table.rows[0][table.column_index("branch")] == "lasing"
    assert table.provenance["preset"] == "baseline"


def test_steady_state_json_format(capsys):
    code, out, _ = _run(capsys, "steady-state", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["columns"]]
    assert payload["rows"][0][names.index("n")] \
        == pytest.approx(4.161192e-3, rel=1e-6)


@pytest.mark.parametrize("flag, value, argv", [
    ("--delta", "-1e8", ("steady-state",)),
    ("--b-field", "-2e-4", ("steady-state",)),
    ("--b-field", "-2e-4", ("sensitivity-dc", "--preset", "high_sensitivity")),
    ("--bias", "-1.64e-4", ("sensitivity-ac", "--preset", "high_sensitivity",
                            "--amplitude", "1e-9", "--omega", "2e5",
                            "--method", "ac_quasistatic")),
])
def test_negative_values_in_scientific_notation(capsys, flag, value, argv):
    # "--flag -1e8" reads as "--flag=-1e8", not as an unknown option
    spaced = _run(capsys, *argv, flag, value)
    assert spaced[0] == 0 and spaced[2] == ""
    assert spaced == _run(capsys, *argv, f"{flag}={value}")


def test_steady_state_rejects_conflicting_bias(capsys):
    code, _, err = _run(capsys, "steady-state", "--delta", "1e8",
                        "--b-field", "1e-4")
    assert code == 1
    assert "not allowed with" in err


def test_set_override_changes_result(capsys):
    _, base_out, _ = _run(capsys, "steady-state", "--delta", "1e8")
    code, out, _ = _run(capsys, "steady-state", "--delta", "1e8",
                        "--set", "drive.pump12=2e6",
                        "--set", "drive.pump45=2e6")
    assert code == 0
    n_base = _table(base_out).rows[0][2]
    n_hot = _table(out).rows[0][2]
    assert n_hot > n_base


def test_bad_set_values_are_config_errors(capsys):
    for bad in ("drive.pump12=nan", "cavity.emission_bandwidth=inf",
                "constants.c=-1"):
        code, out, err = _run(capsys, "steady-state", "--set", bad)
        assert code == 1 and out == "" and err.startswith("error:")


def test_tiny_drive_rate_is_a_config_error(capsys):
    code, out, err = _run(capsys, "steady-state", "--set",
                          "drive.omega=1e-308")
    assert code == 1 and out == "" and "omega" in err


def test_config_file_input(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    save_config(preset("high_sensitivity"), path)
    code, out, _ = _run(capsys, "steady-state", "--config", str(path),
                        "--b-field", "164e-6")
    assert code == 0
    assert _table(out).rows[0][2] > 0.0


def test_missing_config_file(capsys):
    code, _, err = _run(capsys, "steady-state", "--config", "/nope.json")
    assert code == 1 and "cannot read config" in err


@pytest.mark.parametrize("suffix", [".json", ".ini"])
def test_non_utf8_config_file_is_a_config_error(tmp_path, capsys, suffix):
    path = tmp_path / f"cfg{suffix}"
    path.write_bytes(b"\xff\xfe" + "[rates]\n".encode("utf-16-le"))
    code, out, err = _run(capsys, "steady-state", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read config")
    assert len(err.splitlines()) == 1


def test_unknown_subcommand(capsys):
    code, _, err = _run(capsys, "does-not-exist")
    assert code == 1 and err != ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_sweep_rows_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = _run(capsys, "sweep", "--axis1",
                        "drive.delta:0:1e8:5", "--outputs", "n,branch",
                        "--out", str(out_path))
    assert code == 0 and out == ""
    table = OutputTable.from_csv(out_path.read_text())
    assert len(table.rows) == 5
    assert table.rows[-1][table.column_index("branch")] == "lasing"


def test_sweep_bad_axis(capsys):
    code, _, err = _run(capsys, "sweep", "--axis1", "drive.delta:0:1e8")
    assert code == 1 and "axis" in err
    for bad in ("b_field:a:1e-4:3", "b_field:0:1e-4:x", "b_field:0:1e-4:0"):
        code, out, err = _run(capsys, "sweep", "--axis1", bad)
        assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("axis", ["pump:0:2e-300:5", "drive.omega:-1e6:1e6:3",
                                  "b_field:0:1e300:3"])
def test_sweep_invalid_grid_values_are_config_errors(capsys, axis):
    code, out, err = _run(capsys, "sweep", "--axis1", axis)
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("axis1, axis2", [
    ("pump:1e6:4e6:3", "pump:1e6:2e6:2"),
    ("b_field:1e-4:2e-4:2", "drive.delta:0:1e8:2"),
    ("drive.pump12:1e6:4e6:2", "pump:1e6:2e6:2")])
def test_sweep_axes_that_set_the_same_value_are_config_errors(capsys, axis1,
                                                              axis2):
    _one_error_line(*_run(capsys, "sweep", "--axis1", axis1,
                          "--axis2", axis2, "--outputs", "n"))


def test_response_summary_and_timeseries(tmp_path, capsys):
    ts_path = tmp_path / "series.csv"
    code, out, _ = _run(capsys, "response", "--delta-before", "0",
                        "--delta-after", "1e8",
                        "--timeseries", str(ts_path))
    assert code == 0
    table = _table(out)
    row = table.rows[0]
    assert row[table.column_index("t_63")] \
        == pytest.approx(13.272e-6, rel=0.02)
    text = ts_path.read_text()
    header = [ln for ln in text.splitlines() if not ln.startswith("#")][0]
    assert header.split(",")[0] == "t"
    assert header.split(",")[-1] == "P_out_W"


@pytest.mark.parametrize("seed", ["nan", "inf"])
def test_response_non_finite_seed_is_config_error(capsys, seed):
    code, out, err = _run(capsys, "response", "--delta-before", "0",
                          "--delta-after", "1e8", "--seed-n", seed)
    assert code == 1 and out == "" and "seed_n" in err


def test_response_degenerate_is_physics_exit(capsys):
    code, _, err = _run(capsys, "response", "--delta-before", "1e8",
                        "--delta-after", "1e8")
    assert code == 3 and err != ""


def test_ac_command(capsys):
    code, out, _ = _run(capsys, "ac", "--preset", "high_sensitivity",
                        "--bias", "164e-6", "--amplitude", "1e-9",
                        "--omega", "2e5")
    assert code == 0
    table = _table(out)
    assert table.rows[0][table.column_index("n_signal")] \
        == pytest.approx(1.3764e-10, rel=0.01)


@pytest.mark.parametrize("argv", [
    ("ac", "--amplitude", "1e-9", "--omega", "nan"),
    ("ac", "--amplitude", "1e-9", "--omega", "inf"),
    ("ac", "--amplitude", "nan", "--omega", "2e5"),
    ("sensitivity-ac", "--amplitude", "1e-9", "--omega", "2e5",
     "--method", "ac_quasistatic", "--excess-noise", "nan"),
])
def test_non_finite_ac_inputs_are_config_errors(capsys, argv):
    code, out, err = _run(capsys, *argv, "--preset", "high_sensitivity",
                          "--bias", "164e-6")
    assert code == 1 and out == "" and err.startswith("error:")


def test_sensitivity_dc_point_and_grid(capsys):
    code, out, _ = _run(capsys, "sensitivity-dc", "--preset",
                        "high_sensitivity", "--b-field", "164e-6")
    assert code == 0
    table = _table(out)
    assert table.rows[0][table.column_index("eta")] \
        == pytest.approx(1.1181e-15, rel=1e-3)
    # a d.c. curve is a b_field sweep
    code, out, _ = _run(capsys, "sweep", "--preset", "high_sensitivity",
                        "--axis1", "b_field:100e-6:300e-6:5",
                        "--outputs", "n,dn_dB,eta_dc")
    assert code == 0
    grid = _table(out)
    assert len(grid.rows) == 5
    # 100 uT is dark: n reads 0.0 and both d.c. cells are absent
    assert grid.rows[0][1:] == (0.0, None, None)
    assert all(eta > 0.0 for eta in grid.column_values("eta_dc")[1:])


def test_json_tables_write_non_finite_cells_as_strict_json(tmp_path,
                                                          capsys):
    # eta_dc diverges at B = 0; fig4's ratio-0.1 curve has no common points
    code, out, _ = _run(capsys, "sweep", "--preset", "baseline", "--axis1",
                        "b_field:-1e-6:1e-6:3", "--outputs", "n,eta_dc",
                        "--format", "json")
    assert code == 0
    assert _strict_json(out)["rows"][1][2] == "inf"
    assert OutputTable.from_json(out).column_values("eta_dc")[1] == math.inf
    code, _, _ = _run(capsys, "experiment", "--name", "fig4", "--format",
                      "json", "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "fig4_summary.json").read_text()
    _strict_json(text)
    row = dict(zip(("ratio", "common", "max", "median"),
                   OutputTable.from_json(text).rows[-1]))
    assert row == {"ratio": 0.1, "common": 0, "max": math.inf,
                   "median": math.inf}


def test_sensitivity_dc_dark_is_physics_exit(capsys):
    code, _, err = _run(capsys, "sensitivity-dc", "--preset",
                        "high_sensitivity", "--b-field", "0")
    assert code == 3 and err != ""


def test_sensitivity_dc_needs_exactly_one_target(capsys):
    for argv in ((), ("--b-grid", "0:1e-4:3"),
                 ("--b-field", "1e-4", "--b-grid", "0:1e-4:3")):
        code, out, err = _run(capsys, "sensitivity-dc", *argv)
        assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("error, code, prefix", [
    (InvalidConfigError, 1, "error: "),
    (ConvergenceError, 2, "error: did not converge: "),
    (StiffnessError, 2, "error: did not converge: "),
    (PhysicsDomainError, 3, "error: "),
    (NotLasableError, 3, "error: "),
    (BelowThresholdError, 3, "error: "),
    (LtmagError, 1, "error: "),
])
def test_error_classes_map_to_exit_codes(capsys, monkeypatch, error, code,
                                         prefix):
    def fail(config):
        raise error("forced")

    monkeypatch.setattr(cli, "solve_steady_state", fail)
    got, out, err = _run(capsys, "steady-state")
    assert got == code and out == ""
    assert err == f"{prefix}forced\n"


def test_sensitivity_ac_quasistatic(capsys):
    code, out, _ = _run(capsys, "sensitivity-ac", "--preset",
                        "high_sensitivity", "--bias", "164e-6",
                        "--amplitude", "1e-9", "--omega", "2e5",
                        "--method", "ac_quasistatic")
    assert code == 0
    table = _table(out)
    assert table.rows[0][table.column_index("eta")] \
        == pytest.approx(1.7430e-15, rel=0.002)


@pytest.mark.parametrize("argv", [
    ("response", "--delta-before", "1e8", "--delta-after", "0"),
    ("sensitivity-dc", "--preset", "high_sensitivity", "--b-field",
     "1.64e-4"),
    ("sensitivity-ac", "--preset", "high_sensitivity", "--bias", "164e-6",
     "--amplitude", "1e-9", "--omega", "2e5", "--method", "ac_quasistatic"),
    ("optimize", "--preset", "high_sensitivity", "--max-evaluations", "3")],
    ids=lambda argv: argv[0])
def test_csv_and_json_tables_read_back_equal_rows(capsys, argv):
    tables = []
    for fmt, read in (("csv", OutputTable.from_csv),
                      ("json", OutputTable.from_json)):
        code, out, _ = _run(capsys, *argv, "--format", fmt)
        assert code == 0
        tables.append(read(out))
    assert tables[0].columns == tables[1].columns
    assert tables[0].rows == tables[1].rows


def test_operating_point_command(capsys):
    code, out, _ = _run(capsys, "operating-point", "--preset", "baseline")
    assert code == 0
    table = _table(out)
    assert table.rows[0][table.column_index("pump")] \
        == pytest.approx(find_operating_point(preset("baseline")),
                         rel=1e-9)


def test_optimize_smoke(tmp_path, capsys):
    saved = tmp_path / "opt.json"
    code, out, _ = _run(capsys, "optimize", "--preset", "high_sensitivity",
                        "--vary", "pump", "--bounds-decades", "0.2",
                        "--b-min", "100e-6", "--b-max", "300e-6",
                        "--max-evaluations", "6",
                        "--save-config", str(saved))
    assert code == 0
    table = _table(out)
    assert table.rows[0][table.column_index("best_eta")] \
        <= table.rows[0][table.column_index("start_eta")]
    assert saved.exists()
    assert json.loads(saved.read_text())["drive"]["pump12"]["unit"] \
        == "rad/s"


def test_optimize_empty_vary_is_config_error(capsys):
    code, out, err = _run(capsys, "optimize", "--preset", "high_sensitivity",
                          "--vary", "")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_experiment_to_directory(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = _run(capsys, "experiment", "--name", "fig1b",
                        "--out", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["fig1b_detuned_100MHz.csv", "fig1b_on_resonance.csv"]
    table = OutputTable.from_csv((out_dir / files[1]).read_text())
    assert table.provenance["experiment"] == "fig1b"


def test_experiment_stdout_sections(capsys):
    code, out, _ = _run(capsys, "experiment", "--name", "fig1b")
    assert code == 0
    assert out.count("## ") == 2


def _one_error_line(code, out, err):
    """Exit 1 with a single ``error:`` line on stderr and no table."""
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_steady_state_unwritable_out_is_one_error_line(tmp_path, capsys):
    _one_error_line(*_run(capsys, "steady-state", "--out",
                          str(tmp_path / "missing" / "x.csv")))


def test_response_unwritable_timeseries_is_one_error_line(tmp_path,
                                                          capsys):
    _one_error_line(*_run(capsys, "response", "--delta-before", "1e8",
                          "--delta-after", "0", "--timeseries",
                          str(tmp_path / "missing" / "t.csv")))


def test_experiment_unwritable_out_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    _one_error_line(*_run(capsys, "experiment", "--name", "fig1b", "--out",
                          str(blocker / "dir")))


def test_optimize_unwritable_save_config_is_one_error_line(tmp_path,
                                                           capsys):
    _one_error_line(*_run(capsys, "optimize", "--preset", "high_sensitivity",
                          "--vary", "pump", "--bounds-decades", "0.2",
                          "--b-min", "100e-6", "--b-max", "300e-6",
                          "--max-evaluations", "2", "--save-config",
                          str(tmp_path / "missing" / "x.json")))


def test_optimize_checks_save_config_extension_before_searching(
        tmp_path, capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the search ran")
    monkeypatch.setattr(cli, "optimize_sensitivity", search)
    _one_error_line(*_run(capsys, "optimize", "--preset", "high_sensitivity",
                          "--save-config", str(tmp_path / "out.yaml")))


def _experiment_stdout(tables):
    return "".join(f"## {key}\n{table.to_csv()}"
                   for key, table in tables.items())


def test_experiment_with_preset_matches_library(capsys):
    code, out, err = _run(capsys, "experiment", "--name", "fig1b",
                          "--preset", "high_sensitivity")
    assert code == 0 and err == ""
    assert out == _experiment_stdout(
        experiment("fig1b", config=preset("high_sensitivity")))


def test_experiment_with_config_file_matches_library(tmp_path, capsys):
    cfg = with_drive(preset("baseline"), omega=5e6)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    code, out, err = _run(capsys, "experiment", "--name", "fig1b",
                          "--config", str(path))
    assert code == 0 and err == ""
    assert out == _experiment_stdout(experiment("fig1b", config=cfg))
    assert out != _experiment_stdout(experiment("fig1b"))
