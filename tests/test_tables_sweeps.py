"""Output tables (CSV/JSON) and parameter sweeps."""

import math

import numpy as np
import pytest

from ltmag import (Column, ConvergenceError, InvalidConfigError,
                   OutputTable, SweepAxis, SweepSpec, dc_sensitivity_curve,
                   run_sweep, solve_steady_state, with_drive)
from ltmag import sensitivity, steady, sweeps


def _sample_table():
    cols = (Column("delta", "rad/s"), Column("n", "1"),
            Column("branch", ""), Column("ok", ""), Column("count", "1"))
    t = OutputTable(columns=cols, rows=[],
                    provenance={"kind": "unit-test", "config_digest": "abc"})
    t.append((0.0, 4.2e-3, "lasing", True, 3))
    t.append((1e8, None, "below_threshold", False, 0))
    t.append((-1e8, math.inf, "lasing", True, -1))
    return t


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
    with pytest.raises(ValueError):
        t.append((1.0, 2.0))


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
                                (-math.inf, 0, 3)):
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


def test_sweep_single_axis_matches_direct_solve(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("drive.delta", 0.0, 1e8, 5),
                     outputs=("n", "branch"))
    table = run_sweep(baseline_config, spec, parallel=False)
    deltas = table.column_values("drive.delta")
    ns = table.column_values("n")
    for delta, n in zip(deltas, ns):
        ss = solve_steady_state(with_drive(baseline_config, delta=delta))
        assert n == pytest.approx(ss.n, rel=1e-12)
    assert table.provenance["axes"] == "drive.delta"
    assert len(table.provenance["config_digest"]) == 12


def test_sweep_two_axes_order_and_parallel_equivalence(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("drive.delta", 0.0, 1e8, 20),
                     axis2=SweepAxis("pump", 1e6, 2e6, 20),
                     outputs=("n",))
    serial = run_sweep(baseline_config, spec, parallel=False)
    parallel = run_sweep(baseline_config, spec, parallel=True)
    assert serial.rows == parallel.rows
    assert len(serial.rows) == 400 >= sweeps.POOL_MIN_POINTS
    # axis2 varies fastest: the first twenty rows share the axis1 value
    first = [row[0] for row in serial.rows[:20]]
    assert all(v == first[0] for v in first)
    pumps = [row[1] for row in serial.rows[:20]]
    assert pumps == sorted(pumps)


class _PoolRecorder:
    """Stands in for ProcessPoolExecutor: records each pool it builds and
    maps in this process."""

    built = []

    def __init__(self):
        self.built.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads, chunksize=1):
        return map(fn, payloads)


def test_sweep_builds_a_pool_only_at_the_threshold(baseline_config,
                                                   monkeypatch):
    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "built", [])
    threshold = sweeps.POOL_MIN_POINTS

    def sweep(points, parallel):
        spec = SweepSpec(SweepAxis("pump", 0.0, 4e6, points),
                         outputs=("n",))
        return run_sweep(baseline_config, spec, parallel=parallel)

    below = sweep(threshold - 1, parallel=True)
    assert _PoolRecorder.built == []
    at = sweep(threshold, parallel=True)
    assert len(_PoolRecorder.built) == 1
    assert len(below.rows) == threshold - 1 and len(at.rows) == threshold
    sweep(threshold, parallel=False)
    assert len(_PoolRecorder.built) == 1


def test_sweep_eta_dc_reuses_the_point_solve(high_sens_config, monkeypatch):
    calls = []
    solves = []
    real = sweeps.solve_steady_state
    real_solve = steady._solve_linear

    def counted(config):
        calls.append(config.drive.delta)
        return real(config)

    def counted_solve(a, rhs):
        solves.append(rhs.shape)
        return real_solve(a, rhs)

    monkeypatch.setattr(sweeps, "solve_steady_state", counted)
    monkeypatch.setattr(sensitivity, "solve_steady_state", counted)
    monkeypatch.setattr(steady, "_solve_linear", counted_solve)
    axis = SweepAxis("b_field", -300e-6, 300e-6, 10)
    table = run_sweep(high_sens_config,
                      SweepSpec(axis1=axis, outputs=("n", "dn_dB", "eta_dc")),
                      parallel=False)
    assert len(calls) == 10
    # the point's one n = 0 solve serves both d.c. outputs
    assert len(solves) == 10
    monkeypatch.undo()
    # the d.c. curve solves at the same detunings, so the cells are equal
    curve = dc_sensitivity_curve(high_sens_config, axis.values())
    expected = [None if res is None else res.eta for res in curve]
    assert table.column_values("eta_dc") == expected
    assert table.column_values("dn_dB") == [
        None if res is None else res.slope_dn_db for res in curve]
    assert None in expected and expected.count(None) < len(expected)
    dark = [n for n, eta in zip(table.column_values("n"), expected)
            if eta is None]
    assert dark == [0.0] * len(dark)


def test_sweep_dark_points_leave_cells_absent(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("pump", 1e5, 3e6, 4),
                     outputs=("n", "eta_dc"))
    table = run_sweep(baseline_config, spec, parallel=False)
    ns = table.column_values("n")
    etas = table.column_values("eta_dc")
    assert ns[0] == 0.0           # below threshold still solves to dark
    assert etas[0] is None        # but has no sensitivity
    assert ns[-1] > 0.0
    # baseline bias sits at the symmetric point, so the slope vanishes
    assert etas[-1] == math.inf


def test_sweep_unconverged_point_leaves_cells_absent(baseline_config,
                                                    monkeypatch):
    real = sweeps.solve_steady_state

    def flaky(config):
        if config.drive.delta == 5e7:
            raise ConvergenceError("forced failure")
        return real(config)

    monkeypatch.setattr(sweeps, "solve_steady_state", flaky)
    spec = SweepSpec(axis1=SweepAxis("drive.delta", 0.0, 1e8, 3),
                     outputs=("n", "P_out", "branch", "populations"))
    table = run_sweep(baseline_config, spec, parallel=False)
    failed = table.rows[1]
    assert failed[0] == 5e7
    assert all(cell is None for cell in failed[1:])
    for row in (table.rows[0], table.rows[2]):
        assert all(cell is not None for cell in row)


def test_sweep_b_field_axis_is_symmetric(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("b_field", -1e-3, 1e-3, 5),
                     outputs=("n",))
    table = run_sweep(baseline_config, spec, parallel=False)
    ns = table.column_values("n")
    assert ns[0] == pytest.approx(ns[-1], rel=1e-9)
    assert ns[1] == pytest.approx(ns[-2], rel=1e-9)


def test_sweep_populations_output(baseline_config):
    spec = SweepSpec(axis1=SweepAxis("drive.delta", 1e8, 1e8, 1),
                     outputs=("populations",))
    table = run_sweep(baseline_config, spec, parallel=False)
    occ = [table.column_values(f"rho{k}{k}")[0] for k in range(1, 8)]
    assert sum(occ) == pytest.approx(1.0, abs=1e-10)
