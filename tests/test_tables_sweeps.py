"""Output tables (CSV/JSON) and parameter sweeps."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltmag import (Column, ConvergenceError, InvalidConfigError,
                   OrientationModel, OutputTable, SweepAxis, SweepSpec,
                   dc_sensitivity_curve, find_operating_point, net_gain,
                   preset, run_sweep, solve_steady_state, with_drive,
                   with_pump)
from ltmag import steady, sweeps
from ltmag.configio import DRIVE_PATHS, param_unit, set_param

# Bounded, reproducible property runs: fixed example counts, no timing
# deadline and no example database.
_PROPERTY = dict(deadline=None, derandomize=True, database=None)


def _sample_table():
    cols = (Column("delta", "rad/s"), Column("n", "1"),
            Column("branch", ""), Column("ok", ""), Column("count", "1"))
    return OutputTable(columns=cols,
                       rows=[(0.0, 4.2e-3, "lasing", True, 3),
                             (1e8, None, "below_threshold", False, 0),
                             (-1e8, math.inf, "lasing", True, -1)],
                       provenance={"kind": "unit-test",
                                   "config_digest": "abc"})


def test_table_csv_round_trip():
    t = _sample_table()
    text = t.to_csv()
    assert text.startswith("# ")
    assert "# kind = unit-test" in text
    assert "delta [rad/s],n [1],branch,ok,count [1]" in text
    back = OutputTable.from_csv(text)
    assert back.provenance == t.provenance
    assert [c.name for c in back.columns] == [c.name for c in t.columns]
    assert back.rows == t.rows


def test_table_json_round_trip():
    t = _sample_table()
    back = OutputTable.from_json(t.to_json())
    assert back.rows == t.rows
    assert back.provenance == t.provenance


@pytest.mark.parametrize("doc", [
    "[]", "5", '"table"',
    '{"columns": 5}',
    '{"columns": ["n"]}',
    '{"columns": [{"name": "n"}]}',
    '{"columns": [{"name": "n", "unit": "1"}], "rows": 5}',
    '{"columns": [{"name": "n", "unit": "1"}], "rows": [5]}',
    '{"columns": [{"name": "n", "unit": "1"}], "rows": [[1.0, 2.0]]}',
    '{"columns": [{"name": "n", "unit": "1"}], "provenance": 5}',
    '{"columns": [',
])
def test_table_from_json_rejects_malformed_documents(doc):
    with pytest.raises(InvalidConfigError):
        OutputTable.from_json(doc)


def test_table_json_writes_non_finite_cells_as_csv_text():
    t = OutputTable(columns=(Column("x", "1"),),
                    rows=[(math.inf,), (-math.inf,), (math.nan,), (None,)])

    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    doc = json.loads(t.to_json(), parse_constant=reject)
    csv_cells = t.to_csv().splitlines()[1:]
    assert doc["rows"] == [[c or None] for c in csv_cells]
    assert doc["rows"] == [["inf"], ["-inf"], ["nan"], [None]]
    back = OutputTable.from_json(t.to_json()).column_values("x")
    assert back[:2] == [math.inf, -math.inf]
    assert math.isnan(back[2]) and back[3] is None


def test_table_short_row_is_a_config_error_in_both_formats():
    t = _sample_table()
    short = t.to_csv().rstrip("\n").rpartition(",")[0] + "\n"
    with pytest.raises(InvalidConfigError):
        OutputTable.from_csv(short)
    doc = json.loads(t.to_json())
    doc["rows"][-1].pop()
    with pytest.raises(InvalidConfigError):
        OutputTable.from_json(json.dumps(doc))


def test_table_lookups_and_layout_errors():
    t = _sample_table()
    with pytest.raises(KeyError):
        t.column_index("linewidth")
    with pytest.raises(InvalidConfigError, match="no header row"):
        OutputTable.from_csv("# kind = empty\n\n")
    for text in ("a,b", "two\nlines", "#comment"):
        bad = OutputTable(columns=(Column("label", ""),), rows=[(text,)])
        with pytest.raises(InvalidConfigError, match="corrupt the CSV"):
            bad.to_csv()


def test_table_absent_cells_stay_absent():
    t = _sample_table()
    lines = t.to_csv().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    # absent cell renders as an empty field, never as 0
    assert data[2].split(",")[1] == ""
    back = OutputTable.from_csv(t.to_csv())
    assert back.rows[1][1] is None


def test_table_floats_round_trip_exactly():
    value = 0.1 + 0.2  # not representable prettily
    t = OutputTable(columns=(Column("x", "1"),), rows=[(value,)],
                    provenance={})
    back = OutputTable.from_csv(t.to_csv())
    assert back.rows[0][0] == value


def test_table_rejects_ragged_rows():
    t = _sample_table()
    with pytest.raises(InvalidConfigError):
        OutputTable(columns=t.columns, rows=[*t.rows, (1.0, 2.0)])


def test_table_render_dispatch():
    t = _sample_table()
    assert t.render("csv") == t.to_csv()
    assert t.render("json") == t.to_json()
    with pytest.raises(InvalidConfigError):
        t.render("parquet")


def test_axis_values_and_validation():
    lin = SweepAxis("drive.delta", -1e8, 1e8, 5)
    assert np.allclose(lin.values(), np.linspace(-1e8, 1e8, 5))
    log = SweepAxis("cavity.kappa", 1e6, 1e8, 3, scale="log")
    assert np.allclose(log.values(), [1e6, 1e7, 1e8])
    single = SweepAxis("pump", 2e6, 9e9, 1)
    assert single.values().tolist() == [2e6]
    for start, stop, points in ((-1e8, 1e8, 0), (0, 1, 2.5), (0, 1, 3.0),
                                (math.nan, 1, 3), (0, math.inf, 3),
                                (-math.inf, 0, 3), (0, 1, True),
                                (0, 1, np.True_)):
        with pytest.raises(InvalidConfigError):
            SweepAxis("drive.delta", start, stop, points)
    with pytest.raises(InvalidConfigError):
        SweepAxis("cavity.kappa", -1.0, 1e8, 3, scale="log")
    with pytest.raises(InvalidConfigError):
        SweepAxis("drive.delta", 0, 1, 3, scale="cubic")
    with pytest.raises(InvalidConfigError):
        SweepAxis("orientation.mode", 0, 1, 3)
    with pytest.raises(InvalidConfigError):
        SweepAxis("nonsense", 0, 1, 3)


def test_spec_rejects_unknown_output():
    axis = SweepAxis("drive.delta", 0, 1e8, 3)
    with pytest.raises(InvalidConfigError):
        SweepSpec(axis1=axis, outputs=("n", "linewidth"))
    with pytest.raises(InvalidConfigError):
        SweepSpec(axis1=axis, outputs=())


_AXIS = SweepAxis("pump", 0.0, 1e6, 3)

# SweepAxis and SweepSpec arguments of the wrong type
_WRONG_SWEEPS = {
    "start_text": lambda: SweepAxis("pump", "0", 1e6, 2),
    "start_none": lambda: SweepAxis("pump", None, 1e6, 3),
    "stop_list": lambda: SweepAxis("pump", 0.0, [1e6], 3),
    "points_none": lambda: SweepAxis("pump", 0.0, 1e6, None),
    "points_text": lambda: SweepAxis("pump", 0.0, 1e6, "3"),
    "scale_none": lambda: SweepAxis("pump", 0.0, 1e6, 3, None),
    "path_list": lambda: SweepAxis(["pump"], 0.0, 1e6, 3),
    "outputs_none": lambda: SweepSpec(_AXIS, outputs=None),
    "outputs_nested": lambda: SweepSpec(_AXIS, outputs=[["n"]]),
    "axis1_text": lambda: SweepSpec("pump:0:1e6:3"),
    "axis2_text": lambda: SweepSpec(_AXIS, axis2="drive.omega:0:1e6:3"),
}


@pytest.mark.parametrize("case", list(_WRONG_SWEEPS))
def test_sweep_arguments_of_the_wrong_type_are_config_errors(case):
    with pytest.raises(InvalidConfigError):
        _WRONG_SWEEPS[case]()


def test_spec_takes_outputs_as_a_tuple_or_list():
    for outputs in (("n", "P_out"), ["n", "P_out"]):
        assert list(SweepSpec(_AXIS, outputs=outputs).outputs) \
            == ["n", "P_out"]
    # text is not a list of names, even when it names outputs
    for text in ("n", "n,P_out"):
        with pytest.raises(InvalidConfigError, match="tuple or list"):
            SweepSpec(_AXIS, outputs=text)


@pytest.mark.parametrize("paths", [("pump", "pump"),
                                   ("b_field", "drive.delta"),
                                   ("drive.pump12", "pump")])
def test_spec_rejects_axes_that_set_the_same_value(paths):
    axes = [SweepAxis(path, 1.0, 2.0, 2) for path in paths]
    for pair in (axes, axes[::-1]):
        with pytest.raises(InvalidConfigError, match="same config value"):
            SweepSpec(*pair)


def test_sweep_single_axis_matches_direct_solve(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("drive.delta", 0.0, 1e8, 5),
                     outputs=("n", "branch"))
    table = run_sweep(baseline_config, spec)
    deltas = table.column_values("drive.delta")
    ns = table.column_values("n")
    for delta, n in zip(deltas, ns):
        ss = solve_steady_state(with_drive(baseline_config, delta=delta))
        assert n == pytest.approx(ss.n, rel=1e-12)
    assert table.provenance["axes"] == "drive.delta"
    assert len(table.provenance["config_digest"]) == 12


def test_sweep_two_axes_order(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("drive.delta", 0.0, 1e8, 20),
                     axis2=SweepAxis("pump", 1e6, 2e6, 20),
                     outputs=("n",))
    table = run_sweep(baseline_config, spec)
    assert len(table.rows) == 400
    # axis2 varies fastest: the first twenty rows share the axis1 value
    first = [row[0] for row in table.rows[:20]]
    assert all(v == first[0] for v in first)
    pumps = [row[1] for row in table.rows[:20]]
    assert pumps == sorted(pumps)


def test_sweep_eta_dc_reuses_the_point_solve(high_sens_config, monkeypatch):
    calls = []
    solves = []
    real = steady.solve_steady_state
    real_solve = steady._refined_solve

    def counted(config):
        calls.append(config.drive.delta)
        return real(config)

    def counted_solve(m, rhs):
        solves.append(m.shape)
        return real_solve(m, rhs)

    monkeypatch.setattr(steady, "solve_steady_state", counted)
    monkeypatch.setattr(steady, "_refined_solve", counted_solve)
    axis = SweepAxis("b_field", -300e-6, 300e-6, 10)
    table = run_sweep(high_sens_config,
                      SweepSpec(axis1=axis, outputs=("n", "dn_dB", "eta_dc")))
    # the points share one device: one n = 0 factorization serves every
    # point and both d.c. outputs
    assert calls == []
    assert solves == [(1, 9, 9)]
    monkeypatch.undo()
    # the d.c. curve solves the same points through the same evaluator
    curve = dc_sensitivity_curve(high_sens_config, axis.values())
    for name, attr in (("eta_dc", "eta"), ("dn_dB", "slope_dn_db")):
        cells = table.column_values(name)
        assert cells == [None if res is None else getattr(res, attr)
                         for res in curve]
    assert None in cells and cells.count(None) < len(cells)
    dark = [n for n, eta in zip(table.column_values("n"),
                                table.column_values("eta_dc"))
            if eta is None]
    assert dark == [0.0] * len(dark)


def test_sweep_dark_points_leave_cells_absent(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("pump", 1e5, 3e6, 4),
                     outputs=("n", "eta_dc"))
    table = run_sweep(baseline_config, spec)
    ns = table.column_values("n")
    etas = table.column_values("eta_dc")
    assert ns[0] == 0.0           # below threshold still solves to dark
    assert etas[0] is None        # but has no sensitivity
    assert ns[-1] > 0.0
    # baseline bias sits at the symmetric point, so the slope vanishes
    assert etas[-1] == math.inf


def test_sweep_unconverged_point_leaves_cells_absent(baseline_config,
                                                    monkeypatch):
    real_batch = steady._steady_states
    real = steady.solve_steady_state
    alone = []

    def uncertified(points):
        # the batch leaves the middle point to the per-point solve
        return [None if drive.delta == 5e7 else ss
                for (_, drive), ss in zip(points, real_batch(points))]

    def flaky(config):
        alone.append(config.drive.delta)
        if config.drive.delta == 5e7:
            raise ConvergenceError("forced failure")
        return real(config)

    monkeypatch.setattr(steady, "_steady_states", uncertified)
    monkeypatch.setattr(steady, "solve_steady_state", flaky)
    spec = SweepSpec(axis1=SweepAxis("drive.delta", 0.0, 1e8, 3),
                     outputs=("n", "P_out", "branch", "populations"))
    table = run_sweep(baseline_config, spec)
    assert alone == [5e7]
    failed = table.rows[1]
    assert failed[0] == 5e7
    assert all(cell is None for cell in failed[1:])
    for row in (table.rows[0], table.rows[2]):
        assert all(cell is not None for cell in row)


def test_sweep_b_field_axis_is_symmetric(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("b_field", -1e-3, 1e-3, 5),
                     outputs=("n",))
    table = run_sweep(baseline_config, spec)
    ns = table.column_values("n")
    assert ns[0] == pytest.approx(ns[-1], rel=1e-9)
    assert ns[1] == pytest.approx(ns[-2], rel=1e-9)


# two values per path, for the point builder below
_POINT_VALUES = {"cavity.kappa": (1e6, 3e6), "pump": (1e6, 2e6),
                 "drive.omega": (1e6, 2e6), "b_field": (-1e-4, 2e-4),
                 "constants.mu_bohr": (9.2e-24, 9.3e-24)}


@pytest.mark.parametrize("paths", [
    ("cavity.kappa", "pump"), ("pump", "cavity.kappa"),
    ("pump", "drive.omega"), ("drive.omega", "b_field"),
    ("constants.mu_bohr", "b_field"), ("b_field", "constants.mu_bohr")])
def test_sweep_points_equal_set_param_chains(baseline_config, paths):
    # a grid that run_sweep builds: SweepSpec accepts the pair of axes
    SweepSpec(*(SweepAxis(path, *_POINT_VALUES[path], 2) for path in paths))
    grid = list(itertools.product(
        *[[(path, v) for v in _POINT_VALUES[path]] for path in paths]))
    points = list(sweeps._points(baseline_config, grid))
    for assignments, (config, drive) in zip(grid, points):
        built = dataclasses.replace(config, drive=drive)
        chained = baseline_config
        for path, value in assignments:
            chained = set_param(chained, path, value)
        if paths[0] == "b_field":
            # drive paths come last: the field is converted with the
            # point's own constants
            chained = set_param(chained, "b_field", assignments[0][1])
        assert built == chained
    # a config is rebuilt only where its non-drive assignments change
    others = [[pv for pv in a if pv[0] not in DRIVE_PATHS]
              for a in grid]
    rebuilt = sum(1 for a, b in zip([None] + others, others) if a != b)
    assert len({id(config) for config, _ in points}) == rebuilt


# grid values that no point config may take: a pump below the drive-rate
# floor, a negative Rabi rate, a field whose detuning overflows
_INVALID_AXES = (SweepAxis("pump", 0.0, 2e-300, 5),
                 SweepAxis("drive.omega", -1e6, 1e6, 3),
                 SweepAxis("b_field", 0.0, 1e300, 3))


@pytest.mark.parametrize("axis", _INVALID_AXES, ids=lambda a: a.path)
def test_sweep_rejects_invalid_grid_values(baseline_config, axis):
    with pytest.raises(InvalidConfigError):
        run_sweep(baseline_config, SweepSpec(axis))
    with pytest.raises(InvalidConfigError):
        run_sweep(baseline_config,
                  SweepSpec(SweepAxis("drive.delta", 0.0, 1e8, 3), axis))


def test_sweep_populations_output(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("drive.delta", 1e8, 1e8, 1),
                     outputs=("populations",))
    table = run_sweep(baseline_config, spec)
    occ = [table.column_values(f"rho{k}{k}")[0] for k in range(1, 8)]
    assert sum(occ) == pytest.approx(1.0, abs=1e-10)


_ALL_OUTPUTS = tuple(sweeps.OUTPUTS)

# path -> (start, stop, scale) of a drawn axis
_ORACLE_AXES = {
    "drive.delta": (-3e8, 3e8, "linear"),
    "b_field": (-1e-3, 1e-3, "linear"),
    "pump": (0.0, 2e7, "linear"),
    "drive.pump12": (0.0, 2e7, "linear"),
    "cavity.kappa": (1e5, 1e11, "log"),
    "drive.omega": (0.0, 2e7, "linear"),
}


def _per_point_sweep(config, spec):
    """``run_sweep`` with every point left to ``solve_steady_state``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(steady, "_steady_states",
                  lambda points: [None] * len(points))
        return run_sweep(config, spec)


@st.composite
def _oracle_axis(draw, path):
    lo, hi, scale = _ORACLE_AXES[path]
    if scale == "log":
        start, stop = sorted(draw(st.floats(np.log10(lo), np.log10(hi)))
                             for _ in range(2))
        start, stop = 10.0 ** start, 10.0 ** stop
    else:
        # rates in whole rad/s, so that none falls below MIN_DRIVE_RATE
        whole = round if param_unit(path) == "rad/s" else float
        start, stop = sorted(float(whole(draw(st.floats(lo, hi))))
                             for _ in range(2))
    return SweepAxis(path, start, stop, draw(st.integers(1, 6)), scale)


# axis pairs that set the same config value, which SweepSpec rejects
_CLASHING_AXES = ({"drive.delta", "b_field"}, {"pump", "drive.pump12"})


@st.composite
def _oracle_grids(draw):
    paths = draw(st.permutations(sorted(_ORACLE_AXES)).filter(
        lambda p: set(p[:2]) not in _CLASHING_AXES))
    axis2 = (draw(_oracle_axis(paths[1])) if draw(st.booleans())
             else None)
    return SweepSpec(draw(_oracle_axis(paths[0])), axis2, _ALL_OUTPUTS)


@settings(max_examples=40, **_PROPERTY)
@given(name=st.sampled_from(["baseline", "high_sensitivity"]),
       mode=st.sampled_from(["single_orientation", "four_orientation"]),
       spec=_oracle_grids())
# straddles threshold, with a pump-free point
@example(name="baseline", mode="single_orientation",
         spec=SweepSpec(SweepAxis("pump", 0.0, 4e6, 9),
                        SweepAxis("drive.delta", 0.0, 1.5e8, 3),
                        _ALL_OUTPUTS))
@example(name="baseline", mode="four_orientation",
         spec=SweepSpec(SweepAxis("drive.delta", -1e8, 1e8, 5),
                        outputs=_ALL_OUTPUTS))
@example(name="high_sensitivity", mode="single_orientation",
         spec=SweepSpec(SweepAxis("b_field", -3e-4, 3e-4, 13),
                        outputs=_ALL_OUTPUTS))
# fig2a order, over more than one chunk: a chunk holds more devices than
# the single-call cache keeps
@example(name="baseline", mode="single_orientation",
         spec=SweepSpec(SweepAxis("drive.delta", -1.5e8, 1.5e8, 7),
                        SweepAxis("pump", 0.0, 4e6, 41), _ALL_OUTPUTS))
# the pump-free, unmixed corner makes the chunk's stacked solve singular,
# so the chunk is solved point by point
@example(name="baseline", mode="single_orientation",
         spec=SweepSpec(SweepAxis("drive.omega", 0.0, 1e7, 5),
                        SweepAxis("pump", 0.0, 4e6, 9), _ALL_OUTPUTS))
def test_batched_rows_match_per_point_rows(name, mode, spec):
    config = dataclasses.replace(preset(name),
                                 orientation=OrientationModel(mode=mode))
    # the grid evaluator runs the single solve's own algebra
    assert run_sweep(config, spec).rows == _per_point_sweep(config, spec).rows


def test_batch_falls_back_per_point(baseline_config, monkeypatch):
    alone = []
    real = steady.solve_steady_state

    def counted(config):
        alone.append(config)
        return real(config)

    monkeypatch.setattr(steady, "solve_steady_state", counted)
    axis = SweepAxis("drive.delta", -1e8, 1e8, 5)
    run_sweep(baseline_config, SweepSpec(axis))
    assert alone == []
    four = dataclasses.replace(
        baseline_config, orientation=OrientationModel(mode="four_orientation"))
    run_sweep(four, SweepSpec(axis))
    assert len(alone) == 5
    # right at threshold the root is taken on the direct gain, per point
    alone.clear()
    op = find_operating_point(baseline_config)
    tol = steady._GAIN_RESIDUAL_RTOL * baseline_config.cavity.kappa
    for factor in (1.0, 1.0 + 1e-11, 1.0 + 1e-10):
        if 0.0 < net_gain(with_pump(baseline_config, op * factor), 0.0) <= tol:
            break
    else:
        pytest.fail("no pump with 0 < g0 <= tolerance near the threshold")
    table = run_sweep(baseline_config,
                      SweepSpec(SweepAxis("pump", op * factor, op * factor, 1),
                                outputs=("n", "branch")))
    assert len(alone) == 1
    assert table.rows[0][1:] == (real(alone[0]).n, "lasing")
