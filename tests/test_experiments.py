"""Named experiment recipes produce coherent, well-labeled tables."""

import math

import numpy as np
import pytest

from ltmag import (EXPERIMENT_NAMES, ConvergenceError, DriveSettings,
                   InvalidConfigError, apply_overrides, experiment,
                   find_operating_point, preset, solve_steady_state,
                   with_drive, with_pump)
from ltmag import steady
from ltmag.cli import main


def test_experiment_registry():
    assert EXPERIMENT_NAMES == ("fig1b", "fig2a", "fig2b", "fig3a",
                                "fig3b", "fig4")
    with pytest.raises(InvalidConfigError):
        experiment("fig99")


# Work of the benchmark's grid studies from a cold device cache: the
# devices of each stacked solve of the grid evaluator, the single fixed-n
# solves and the points it solves alone (fig2b's delta = 0 row sits on
# threshold); run again, fig2b takes that point's device from the cache
_GRID_WORK = {"fig2a": ([41] * 10, 0, 0), "fig1b": ([161] * 2, 0, 0),
              "fig2b": ([1, 1], 21, 1)}


def test_work_of_the_grid_studies(monkeypatch):
    refined, single, alone = (steady._refined_solve, steady._solve_linear,
                              steady.solve_steady_state)
    stacks, counts = [], {"single": 0, "alone": 0}

    def stacked(m, rhs):
        if m.ndim == 3:
            stacks.append(m.shape[0])
        return refined(m, rhs)

    def counted(call, key):
        def wrapper(*args):
            counts[key] += 1
            return call(*args)
        return wrapper

    monkeypatch.setattr(steady, "_refined_solve", stacked)
    monkeypatch.setattr(steady, "_solve_linear", counted(single, "single"))
    monkeypatch.setattr(steady, "solve_steady_state", counted(alone, "alone"))
    for name, work in _GRID_WORK.items():
        steady._device.cache_clear()
        stacks.clear()
        counts.update(single=0, alone=0)
        experiment(name)
        assert (stacks, counts["single"], counts["alone"]) == work, name
    counts.update(single=0, alone=0)
    experiment("fig2b")
    assert (counts["single"], counts["alone"]) == (20, 1)


def test_fig2a_builds_no_record_per_point(monkeypatch):
    # the map's 2,501 points travel as columns: one DriveSettings check per
    # axis value (61 detunings, 41 pumps), and no SteadyStateResult or
    # PopulationState, since the batch certifies every point
    built = dict.fromkeys(("drive", "state", "populations"), 0)

    def counted(cls, method, key):
        real = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            built[key] += 1
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, method, wrapper)

    counted(DriveSettings, "__post_init__", "drive")
    counted(steady.SteadyStateResult, "__init__", "state")
    counted(steady.PopulationState, "__init__", "populations")
    rows = experiment("fig2a")["map"].rows
    assert len(rows) == 61 * 41
    assert built["drive"] <= 61 + 41
    assert built["state"] == built["populations"] == 0


def test_fig1b_threshold_kink():
    tables = experiment("fig1b")
    assert set(tables) == {"on_resonance", "detuned_100MHz"}

    def first_bright_pump(table):
        for pump, n, _ in table.rows:
            if n > 0.0:
                return pump
        raise AssertionError("curve never turns on")

    # resonant mixing raises the threshold above the detuned one
    th_on = first_bright_pump(tables["on_resonance"])
    th_det = first_bright_pump(tables["detuned_100MHz"])
    assert th_det < th_on
    # output grows monotonically past threshold
    ns = [row[1] for row in tables["detuned_100MHz"].rows]
    bright = [n for n in ns if n > 0.0]
    assert all(b > a for a, b in zip(bright, bright[1:]))
    assert tables["on_resonance"].provenance["experiment"] == "fig1b"


def test_fig2a_map_shape():
    tables = experiment("fig2a")
    table = tables["map"]
    assert len(table.rows) == 61 * 41
    branches = set(table.column_values("branch"))
    assert branches == {"lasing", "below_threshold"}
    # zero pump never lases, max pump on resonance does
    by_point = {(row[0], row[1]): row for row in table.rows}
    assert by_point[(0.0, 0.0)][table.column_index("branch")] \
        == "below_threshold"
    assert by_point[(0.0, 4e6)][table.column_index("branch")] == "lasing"


def test_fig2b_profile_dip():
    tables = experiment("fig2b")
    table = tables["profile"]
    assert len(table.rows) == 301
    deltas = np.array(table.column_values("delta"))
    ns = np.array(table.column_values("n"))
    mid = len(ns) // 2
    assert deltas[mid] == 0.0
    # pumped exactly at the resonant threshold: the center sits on the
    # knife edge (dark up to root tolerance), the wings are bright
    assert ns[mid] < 1e-10
    assert ns[0] > 0.0 and ns[-1] > 0.0
    assert np.allclose(ns, ns[::-1], rtol=1e-6, atol=1e-15)
    op = float(table.provenance["operating_point_pump"])
    assert op == pytest.approx(find_operating_point(preset("baseline")),
                               rel=1e-9)
    # the batch leaves the knife edge to the per-point solve
    center = with_drive(with_pump(preset("baseline"), op), delta=0.0)
    assert ns[mid] == solve_steady_state(center).n


def test_fig2b_unconverged_point_leaves_cells_absent(monkeypatch):
    real_batch, real = steady._steady_states, steady.solve_steady_state

    def uncertified(configs, which, drive):
        states = real_batch(configs, which, drive)
        states.ok[drive["delta"] == 0.0] = False
        return states

    def flaky(config):
        if config.drive.delta == 0.0:
            raise ConvergenceError("forced failure")
        return real(config)

    monkeypatch.setattr(steady, "_steady_states", uncertified)
    monkeypatch.setattr(steady, "solve_steady_state", flaky)
    rows = experiment("fig2b")["profile"].rows
    assert rows[150] == (0.0, 0.0, None, None)
    assert all(None not in row for row in rows[:150] + rows[151:])


def test_fig3a_sensitivity_valley():
    tables = experiment("fig3a")
    table = tables["sensitivity"]
    assert len(table.rows) == 121
    rows = {round(row[0] * 1e6, 3): row for row in table.rows}
    # dark near zero bias: all value cells absent
    assert rows[0.0][1] is None and rows[0.0][3] is None
    etas = {b: row[3] for b, row in rows.items() if row[3] is not None}
    finite = {b: e for b, e in etas.items() if math.isfinite(e)}
    best_b = min(finite, key=finite.get)
    assert 130.0 < abs(best_b) < 140.0
    assert 0.2e-15 < finite[best_b] < 0.4e-15


def test_fig3b_rolloff():
    tables = experiment("fig3b")
    table = tables["rolloff"]
    omegas = table.column_values("omega")
    etas = table.column_values("eta_ac")
    quasi = table.column_values("eta_quasistatic")
    assert len(omegas) == 10
    assert omegas[0] == pytest.approx(2e4)
    assert omegas[-1] == pytest.approx(2e7)
    # the slowest signal behaves quasistatically
    assert etas[0] == pytest.approx(quasi[0], rel=0.05)
    # sensitivity deteriorates at high frequency
    assert etas[-1] > 2.0 * etas[0]
    assert all(q == quasi[0] for q in quasi)
    distortion = table.column_values("distortion")
    assert max(distortion) < 0.05


def test_fig4_robustness_summary():
    tables = experiment("fig4")
    assert set(tables) == {"ratio_0", "ratio_0.01", "ratio_0.1", "summary"}
    base = tables["ratio_0"]
    assert len(base.rows) == 61
    summary = {row[0]: row for row in tables["summary"].rows}
    # regression values, frozen from this implementation
    assert summary[0.01][1] == 32
    assert summary[0.01][2] == pytest.approx(0.6428, rel=0.05)
    assert summary[0.01][3] == pytest.approx(0.059, rel=0.2)
    # the stronger crossing drains the excited state: no lasing at all
    assert summary[0.1][1] == 0
    assert summary[0.1][2] == math.inf
    alt = tables["ratio_0.1"]
    assert all(row[1] is None for row in alt.rows)


def test_experiment_accepts_overrides(capsys):
    cfg = apply_overrides(preset("baseline"), ["drive.delta=0"])
    assert main(["experiment", "--name", "fig1b",
                 "--set", "drive.delta=0"]) == 0
    assert capsys.readouterr().out == "".join(
        f"## {key}\n{table.to_csv()}"
        for key, table in experiment("fig1b", cfg).items())
