"""Shot-noise sensitivity figures, bias search, optimization, robustness."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltmag import (AcSignalModel, BelowThresholdError, ConvergenceError,
                   InvalidConfigError, METHOD_AC_QUASISTATIC, METHOD_AC_TIME,
                   METHOD_DC, METHOD_DC_IMPLICIT, OrientationModel,
                   PhysicsDomainError, detuning_to_b_field, preset,
                   ac_sensitivity, best_eta_over_field,
                   dc_sensitivity, dc_sensitivity_curve, find_bias_point,
                   find_operating_point, l27_robustness, optimize_sensitivity,
                   with_bias_field, with_drive, with_pump)
from ltmag import sensitivity, steady

BIAS = 164e-6


def test_dc_sensitivity_frozen_value(high_sens_config):
    # regression value, frozen from this implementation
    res = dc_sensitivity(high_sens_config, BIAS)
    assert res.eta == pytest.approx(1.1181e-15, rel=1e-3)
    assert res.method == METHOD_DC
    assert not res.diverged
    assert res.fd_rel_error is not None and res.fd_rel_error < 1e-3
    # eta is exactly the shot factor over the slope magnitude
    assert res.eta == pytest.approx(
        sensitivity._shot_factor(high_sens_config, res.n)
        / abs(res.slope_dn_db), rel=1e-12)


def test_harmonic_without_signal_is_a_physics_domain_error(
        high_sens_config):
    signal = AcSignalModel(bias_field=BIAS, amplitude_field=1e-9,
                           omega_signal=2e5)
    flat = SimpleNamespace(n_mean=1e-3, n_signal=0.0)
    with pytest.raises(PhysicsDomainError, match="amplitude is zero"):
        sensitivity.sensitivity_from_harmonic(high_sens_config, signal, flat)


def test_dc_sensitivity_below_threshold(high_sens_config):
    with pytest.raises(BelowThresholdError):
        dc_sensitivity(high_sens_config, 0.0)


def test_dc_sensitivity_diverges_at_symmetry_point(baseline_config):
    # baseline lases at zero field where the output curve is flat
    res = dc_sensitivity(baseline_config, 0.0)
    assert res.diverged
    assert res.eta == math.inf
    assert res.fd_rel_error is None


def test_quasistatic_ac_at_diverged_point(baseline_config):
    signal = AcSignalModel(bias_field=0.0, amplitude_field=1e-9,
                           omega_signal=2e4)
    res = ac_sensitivity(baseline_config, signal,
                         method=METHOD_AC_QUASISTATIC)
    assert res.diverged
    assert res.eta == math.inf
    assert res.method == METHOD_AC_QUASISTATIC
    assert res.n_signal is None
    # the d.c. result at the bias, under the quasistatic method's name
    assert res == dataclasses.replace(dc_sensitivity(baseline_config, 0.0),
                                      method=METHOD_AC_QUASISTATIC)


def test_dc_curve_marks_dark_points_absent(high_sens_config):
    grid = [0.0, 50e-6, 164e-6, 200e-6]
    curve = dc_sensitivity_curve(high_sens_config, grid)
    assert curve[0] is None and curve[1] is None
    assert curve[2] is not None and curve[3] is not None
    assert curve[2].eta < curve[3].eta


@pytest.mark.parametrize("grid", [164e-6, [[164e-6, 200e-6]],
                                  [[164e-6], [200e-6, 280e-6]], ["164e-6x"]])
def test_field_scans_reject_a_grid_that_is_not_one_dimensional(
        high_sens_config, grid):
    with pytest.raises(InvalidConfigError, match="b_grid"):
        dc_sensitivity_curve(high_sens_config, grid)
    with pytest.raises(InvalidConfigError, match="b_grid"):
        l27_robustness(high_sens_config, ratios=(0.01,), b_grid=grid)


def test_dc_curve_marks_unconverged_points_absent(high_sens_config,
                                                 monkeypatch):
    real_batch = steady._steady_states
    real = steady.solve_steady_state
    failing = with_bias_field(high_sens_config, 200e-6).drive.delta
    alone = []

    def uncertified(points):
        # the batch leaves the failing point to the per-point solve
        return [None if drive.delta == failing else ss
                for (_, drive), ss in zip(points, real_batch(points))]

    def flaky(config):
        alone.append(config.drive.delta)
        if config.drive.delta == failing:
            raise ConvergenceError("forced failure")
        return real(config)

    monkeypatch.setattr(steady, "_steady_states", uncertified)
    monkeypatch.setattr(steady, "solve_steady_state", flaky)
    curve = dc_sensitivity_curve(high_sens_config, [164e-6, 200e-6, 280e-6])
    assert alone == [failing]
    assert curve[1] is None
    assert curve[0].b_field == 164e-6 and curve[2].b_field == 280e-6


# Bounded, reproducible property runs, as in test_steady.py.
_PROPERTY = dict(deadline=None, derandomize=True, database=None)


@settings(max_examples=60, **_PROPERTY)
@given(name=st.sampled_from(["baseline", "high_sensitivity"]),
       mode=st.sampled_from(["single_orientation", "four_orientation"]),
       magnitude=st.floats(150e-6, 1.5e-3), sign=st.sampled_from([-1, 1]))
def test_implicit_slope_matches_finite_differences(name, mode, magnitude,
                                                   sign):
    # both presets lase everywhere in this window, in either mode
    cfg = dataclasses.replace(preset(name),
                              orientation=OrientationModel(mode=mode))
    b = sign * magnitude
    fd = dc_sensitivity(cfg, b)
    implicit = dc_sensitivity_curve(cfg, [b])[0]
    assert implicit.method == METHOD_DC_IMPLICIT
    assert implicit.fd_step is None and implicit.fd_rel_error is None
    assert implicit.n == fd.n
    assert fd.fd_rel_error is not None and not implicit.diverged
    assert abs(implicit.slope_dn_db - fd.slope_dn_db) \
        <= fd.fd_rel_error * abs(fd.slope_dn_db)
    # the output curve is even in B, so its slope is odd; mirroring the
    # field flips the sign of every coherence term, so exactly
    assert dc_sensitivity_curve(cfg, [-b])[0].slope_dn_db \
        == -implicit.slope_dn_db


def test_implicit_slope_vanishes_at_symmetry_point(baseline_config):
    res = dc_sensitivity_curve(baseline_config, [0.0])[0]
    assert res.n > 0.0
    assert res.slope_dn_db == 0.0
    assert res.diverged
    assert res.eta == math.inf


def test_implicit_result_holds_python_floats(high_sens_config):
    res = dc_sensitivity_curve(high_sens_config, [BIAS])[0]
    for value in (res.eta, res.b_field, res.n, res.slope_dn_db):
        assert type(value) is float


def test_dc_curve_field_symmetry(high_sens_config):
    plus = dc_sensitivity(high_sens_config, BIAS)
    minus = dc_sensitivity(high_sens_config, -BIAS)
    assert minus.eta == pytest.approx(plus.eta, rel=1e-6)
    assert minus.slope_dn_db == pytest.approx(-plus.slope_dn_db, rel=1e-6)


def test_ac_sensitivity_frozen_values(high_sens_config):
    # regression values, frozen from this implementation
    signal = AcSignalModel(bias_field=BIAS, amplitude_field=1e-9,
                           omega_signal=2e5)
    timed = ac_sensitivity(high_sens_config, signal)
    assert timed.method == METHOD_AC_TIME
    assert timed.eta == pytest.approx(1.7523e-15, rel=0.01)
    quasi = ac_sensitivity(high_sens_config, signal,
                           method=METHOD_AC_QUASISTATIC)
    assert quasi.method == METHOD_AC_QUASISTATIC
    assert quasi.eta == pytest.approx(1.7430e-15, rel=0.002)
    # slow signals are quasistatic, the two routes must nearly agree
    assert timed.eta == pytest.approx(quasi.eta, rel=0.02)


def test_ac_sensitivity_excess_noise_scaling(high_sens_config):
    base = AcSignalModel(bias_field=BIAS, amplitude_field=1e-9,
                         omega_signal=2e5, excess_noise=1.0)
    noisy = AcSignalModel(bias_field=BIAS, amplitude_field=1e-9,
                          omega_signal=2e5, excess_noise=4.0)
    eta1 = ac_sensitivity(high_sens_config, base,
                          method=METHOD_AC_QUASISTATIC).eta
    eta4 = ac_sensitivity(high_sens_config, noisy,
                          method=METHOD_AC_QUASISTATIC).eta
    assert eta4 == pytest.approx(2.0 * eta1, rel=1e-12)


def test_ac_sensitivity_rejects_unknown_method(high_sens_config):
    signal = AcSignalModel(bias_field=BIAS, amplitude_field=1e-9,
                           omega_signal=2e5)
    with pytest.raises(InvalidConfigError):
        ac_sensitivity(high_sens_config, signal, method="fourier")


def test_ac_signal_validation():
    # one record, defined in model and named by sensitivity too
    assert sensitivity.AcSignalModel is AcSignalModel
    with pytest.raises(InvalidConfigError):
        AcSignalModel(bias_field=BIAS, amplitude_field=0.0,
                      omega_signal=2e5)
    with pytest.raises(InvalidConfigError):
        AcSignalModel(bias_field=BIAS, amplitude_field=1e-9,
                      omega_signal=0.0)
    with pytest.raises(InvalidConfigError):
        AcSignalModel(bias_field=BIAS, amplitude_field=1e-9,
                      omega_signal=2e5, excess_noise=0.5)
    for field in ("amplitude_field", "omega_signal", "excess_noise"):
        for value in (math.nan, math.inf):
            kwargs = dict(bias_field=BIAS, amplitude_field=1e-9,
                          omega_signal=2e5)
            kwargs[field] = value
            with pytest.raises(InvalidConfigError):
                AcSignalModel(**kwargs)


def test_find_bias_point_frozen_value(high_sens_config):
    # regression value, frozen from this implementation
    res = find_bias_point(high_sens_config, -300e-6, 300e-6)
    assert res.b_field == pytest.approx(152.505e-6, abs=0.5e-6)
    assert not res.diverged


def test_find_bias_point_breaks_ties_toward_positive(high_sens_config):
    res = find_bias_point(high_sens_config, -300e-6, 300e-6)
    assert res.b_field > 0.0


def test_find_bias_point_returns_dc_sensitivity(high_sens_config):
    res = find_bias_point(high_sens_config, 100e-6, 300e-6)
    assert res == dc_sensitivity(high_sens_config, res.b_field)


@pytest.mark.parametrize("window", [(100e-6, 140e-6), (160e-6, 300e-6),
                                    (100e-6, 150e-6), (-300e-6, -160e-6)])
def test_find_bias_point_stays_inside_an_edge_optimum_window(
        high_sens_config, window):
    # the best |slope| of each window lies at one of its edges
    res = find_bias_point(high_sens_config, *window)
    assert window[0] <= res.b_field <= window[1]
    assert res == dc_sensitivity(high_sens_config, res.b_field)


def test_find_bias_point_dark_window(high_sens_config):
    with pytest.raises(BelowThresholdError):
        find_bias_point(high_sens_config, 0.0, 50e-6)


def test_find_bias_point_flat_window(high_sens_config):
    # with no microwave drive the output does not depend on the field
    with pytest.raises(PhysicsDomainError, match="does not vary"):
        find_bias_point(with_drive(high_sens_config, omega=0.0), 0.0, 300e-6)


def test_slope_that_never_settles_is_a_convergence_error(high_sens_config,
                                                         monkeypatch):
    # n = 1 + cbrt(B): at B = 0 each halving of the step h scales the
    # stencil's slopes by 2**(2/3), so their Richardson error stays a
    # fixed fraction of the slope and every step is halved
    def solve(config):
        b = detuning_to_b_field(config.drive.delta, config.constants)
        return SimpleNamespace(n=1.0 + np.cbrt(b))

    monkeypatch.setattr(sensitivity, "solve_steady_state", solve)
    with pytest.raises(ConvergenceError, match="did not stabilize") as info:
        dc_sensitivity(high_sens_config, 0.0)
    assert info.value.detail["last_step"] == 1e-9 * 0.5 ** 40


def test_best_eta_over_field(high_sens_config):
    eta, b = best_eta_over_field(high_sens_config, 0.0, 300e-6)
    # the sensitivity keeps improving toward the lasing edge where the
    # slope blows up, so the refined optimum hugs that edge
    assert 0.0 < eta < 0.3e-15
    assert 125e-6 < b < 150e-6
    at_bias = dc_sensitivity(high_sens_config, BIAS).eta
    assert eta < at_bias
    assert eta == dc_sensitivity(high_sens_config, b).eta


@pytest.mark.parametrize("window", [(300e-6, 100e-6), (200e-6, 200e-6),
                                    (0.0, math.inf), (math.nan, 300e-6)])
def test_field_searches_reject_reversed_and_empty_windows(high_sens_config,
                                                          window):
    for search in (find_bias_point, best_eta_over_field):
        with pytest.raises(InvalidConfigError, match="b_max > b_min"):
            search(high_sens_config, *window)


def test_best_eta_over_field_dark_window(high_sens_config):
    with pytest.raises(BelowThresholdError):
        best_eta_over_field(high_sens_config, 0.0, 50e-6)


def test_optimize_sensitivity_improves_and_is_deterministic(
        high_sens_config):
    kwargs = dict(vary=("pump", "drive.omega"), bounds_decades=0.3,
                  b_window=(100e-6, 300e-6), max_evaluations=12)
    out1 = optimize_sensitivity(high_sens_config, **kwargs)
    out2 = optimize_sensitivity(high_sens_config, **kwargs)
    assert out1.eta <= out1.start_eta
    assert out1.eta == out2.eta
    assert out1.b_field == out2.b_field
    assert out1.config.drive.pump12 == out2.config.drive.pump12
    assert out1.evaluations <= 12 + 1
    assert out1.varied == ("pump", "drive.omega")


def test_optimize_sensitivity_rejects_unknown_knob(high_sens_config):
    # unknown, text and unset paths cannot be varied on a log scale, and
    # the field search overwrites the bias at every point
    for path in ("finesse", "omega", "orientation.mode",
                 "gain.coupling_override", "b_field", "drive.delta"):
        with pytest.raises(InvalidConfigError):
            optimize_sensitivity(high_sens_config, vary=(path,))
    # and there must be at least one knob
    with pytest.raises(InvalidConfigError):
        optimize_sensitivity(high_sens_config, vary=())


def test_optimize_objective_scores_log_eta_plus_the_bound_penalty(
        high_sens_config, monkeypatch):
    import scipy.optimize

    captured = []

    def minimize(objective, start, **kwargs):
        captured.append(objective)
        return SimpleNamespace(success=False)

    monkeypatch.setattr(scipy.optimize, "minimize", minimize)
    window = (100e-6, 300e-6)
    optimize_sensitivity(high_sens_config, vary=("pump",), bounds_decades=0.1,
                         b_window=window)
    (objective,) = captured
    start = math.log10(high_sens_config.drive.pump12)
    inside = np.array([start + 0.05])
    eta, _ = best_eta_over_field(
        with_pump(high_sens_config, float(10.0 ** inside[0])), *window)
    assert objective(inside) == math.log10(eta)
    # 0.5 decade past the upper bound: the clipped point's score plus 0.5^2
    edge = np.array([start + 0.1])
    assert objective(edge + 0.5) == pytest.approx(objective(edge) + 0.25,
                                                  rel=0.0, abs=1e-12)


def test_optimize_sensitivity_rejects_zero_start(high_sens_config):
    with pytest.raises(InvalidConfigError):
        optimize_sensitivity(with_drive(high_sens_config, omega=0.0),
                             vary=("drive.omega",))


def test_l27_zero_ratio_is_bit_identical(high_sens_config):
    grid = np.linspace(100e-6, 300e-6, 9)
    rep = l27_robustness(high_sens_config, ratios=(0.0,), b_grid=grid)
    base = [r.eta if r is not None else None for r in rep.base_curve]
    alt = [r.eta if r is not None else None for r in rep.curves[0.0]]
    assert base == alt
    assert rep.max_rel_dev[0.0] == 0.0


def test_l27_small_ratio_deviation(high_sens_config):
    # regression values, frozen from this implementation
    grid = np.linspace(100e-6, 300e-6, 9)
    rep = l27_robustness(high_sens_config, ratios=(0.01,), b_grid=grid)
    assert rep.common_points[0.01] >= 5
    assert rep.max_rel_dev[0.01] == pytest.approx(0.6428, rel=0.05)
    assert rep.median_rel_dev[0.01] < rep.max_rel_dev[0.01]


def test_l27_large_ratio_kills_lasing(high_sens_config):
    grid = np.linspace(100e-6, 300e-6, 9)
    rep = l27_robustness(high_sens_config, ratios=(0.1,), b_grid=grid)
    assert rep.common_points[0.1] == 0
    assert rep.max_rel_dev[0.1] == math.inf



def test_work_counts_of_the_threshold_and_the_slope(baseline_config,
                                                    high_sens_config,
                                                    monkeypatch):
    # linear solves and steady solves per call: a speed-up that keeps
    # these counts comes from less overhead, not from less work
    solves, steadies = [], []
    real_solve, real_steady = steady._solve_linear, steady.solve_steady_state

    def solve(a, rhs):
        solves.append(rhs.shape)
        return real_solve(a, rhs)

    def steady_state(config):
        steadies.append(config.drive.delta)
        return real_steady(config)

    monkeypatch.setattr(steady, "_solve_linear", solve)
    monkeypatch.setattr(sensitivity, "solve_steady_state", steady_state)
    four = dataclasses.replace(
        baseline_config, orientation=OrientationModel(mode="four_orientation"))
    # one fixed-n solve per sub-ensemble and pump the threshold tries;
    # Brent's iteration count moves with the Rabi rate
    for config, omega, count in ((baseline_config, None, 16),
                                 (four, None, 30), (four, 6e6, 32)):
        solves.clear()
        find_operating_point(config, omega)
        assert len(solves) == count
    steady._device.cache_clear()
    for cold in (True, False):
        solves.clear()
        steadies.clear()
        result = dc_sensitivity(high_sens_config, 2e-4)
        assert result.fd_step == 1e-3 * 2e-4  # no halving
        assert len(solves) == cold
        # the bias point, then the four points of the stencil
        assert len(steadies) == 5
