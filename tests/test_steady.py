"""Steady-state solvers: fixed-n populations, gain root, thresholds."""

import dataclasses
import functools
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltmag import (BELOW_THRESHOLD, OUTPUTS, ConvergenceError,
                   DegenerateConfigError, InvalidConfigError, LASING,
                   LevelRates, NotLasableError, OrientationModel,
                   dc_sensitivity_curve, find_operating_point, net_gain,
                   populations_at_fixed_n, solve_steady_state,
                   threshold_pump, with_bias_field, with_drive, with_pump)
from ltmag import steady
from ltmag.configio import _UNITS, get_param, set_param
from ltmag.dynamics import TIMESERIES_COLUMNS
from ltmag.model import MIN_DRIVE_RATE, RATE_FIELDS, preset
from ltmag.steady import PopulationState

# Bounded, reproducible property runs: fixed example counts, no timing
# deadline (a draw includes threshold searches) and no example database.
_PROPERTY = dict(deadline=None, derandomize=True, database=None)

_MODES = st.sampled_from(["single_orientation", "four_orientation"])
_DETUNINGS = st.floats(-1.5e8, 1.5e8)


def _with_mode(config, mode):
    return dataclasses.replace(config,
                               orientation=OrientationModel(mode=mode))


def _direct_root(config):
    """Gain root by the bracket and the Brent root (bit-identical to
    scipy's brentq, see test_brent_root.py) on full fixed-n solves."""
    return steady._gain_root(lambda n: net_gain(config, n))


def test_unpumped_unmixed_splits_ground_states(baseline_config):
    cfg = with_drive(with_pump(baseline_config, 0.0), omega=0.0)
    state = populations_at_fixed_n(cfg, 0.0)
    # nothing drives the system; all excited levels empty, the ground
    # split is undetermined and the minimum-norm solution is symmetric
    assert state.rho11 + state.rho44 == pytest.approx(1.0, abs=1e-8)
    for occ in (state.rho22, state.rho33, state.rho55, state.rho66,
                state.rho77):
        assert abs(occ) < 1e-8


def _all_zero(config):
    zero = LevelRates(L21=0, L23=0, L31=0, L54=0, L56=0, L64=0,
                      L57=0, L71=0, L74=0, L27=0, gamma14=0)
    return dataclasses.replace(
        with_drive(with_pump(config, 0.0), omega=0.0), rates=zero)


def test_all_zero_rates_is_degenerate(baseline_config):
    with pytest.raises(DegenerateConfigError):
        populations_at_fixed_n(_all_zero(baseline_config), 0.0)


def test_no_pump_means_loss_only_gain(baseline_config):
    cfg = with_pump(baseline_config, 0.0)
    g = net_gain(cfg, 0.0)
    assert g == pytest.approx(-baseline_config.cavity.kappa, rel=1e-12)


def test_trace_and_residual(baseline_config):
    ss = solve_steady_state(with_drive(baseline_config, delta=1e8))
    assert abs(ss.aligned.trace() - 1.0) < 1e-12
    assert ss.residual < 1e-10
    assert abs(ss.net_gain) <= 1e-8 * baseline_config.cavity.kappa


def test_branch_labels_match_photon_number(baseline_config):
    dark = solve_steady_state(with_pump(baseline_config, 1e5))
    assert dark.branch == BELOW_THRESHOLD and dark.n == 0.0
    bright = solve_steady_state(with_drive(baseline_config, delta=1e8))
    assert bright.branch == LASING and bright.n > 0.0


def test_frozen_photon_numbers(baseline_config):
    # regression values, frozen from this implementation
    ss0 = solve_steady_state(baseline_config)
    assert ss0.n == pytest.approx(4.161192e-3, rel=1e-6)
    ss1 = solve_steady_state(with_drive(baseline_config, delta=1e8))
    assert ss1.n == pytest.approx(6.681892e-2, rel=1e-6)


def test_spin_zero_branch_holds_population_off_resonance(baseline_config):
    state = populations_at_fixed_n(with_drive(baseline_config, delta=1e8),
                                   0.0)
    spin0 = state.rho11 + state.rho22 + state.rho33
    assert spin0 == pytest.approx(0.95077, abs=2e-4)


def test_detuning_sign_symmetry(baseline_config):
    for delta in (3e6, 1.7e7, 1e8):
        np_ = solve_steady_state(with_drive(baseline_config, delta=delta))
        nm_ = solve_steady_state(with_drive(baseline_config, delta=-delta))
        assert abs(np_.n - nm_.n) <= 1e-10 * max(np_.n, 1e-30)
        # the coherence is odd in detuning, its imaginary part even
        assert np_.aligned.rho14_re == pytest.approx(
            -nm_.aligned.rho14_re, rel=1e-8)
        assert np_.aligned.rho14_im == pytest.approx(
            nm_.aligned.rho14_im, rel=1e-8)


def test_photon_number_monotone_in_pump(baseline_config):
    cfg = with_drive(baseline_config, delta=1e8)
    ns = [solve_steady_state(with_pump(cfg, p)).n
          for p in (1.2e6, 1.6e6, 2.2e6, 3.0e6)]
    assert all(b > a for a, b in zip(ns, ns[1:]))


def test_operating_point_and_thresholds(baseline_config):
    op = find_operating_point(baseline_config)
    assert op == pytest.approx(1.046143e6, rel=1e-6)
    th_detuned = threshold_pump(baseline_config, delta=1e8)
    assert th_detuned == pytest.approx(8.548506e5, rel=1e-6)
    # mixing at zero detuning suppresses the inversion, raising threshold
    assert op > th_detuned


def test_operating_point_nondecreasing_in_rabi_rate(baseline_config):
    ops = [find_operating_point(baseline_config, omega=w)
           for w in (0.0, 1.5e6, 3.67e6, 6.0e6)]
    assert all(b >= a for a, b in zip(ops, ops[1:]))


def test_zero_rabi_rate_reduces_to_plain_threshold(baseline_config):
    op0 = find_operating_point(baseline_config, omega=0.0)
    # with the drive far off resonance the mixing is negligible
    th_far = threshold_pump(with_drive(baseline_config, omega=0.0),
                            delta=1e12)
    assert op0 == pytest.approx(th_far, rel=1e-9)


def test_not_lasable(baseline_config):
    heavy_loss = dataclasses.replace(
        baseline_config,
        cavity=dataclasses.replace(baseline_config.cavity, kappa=1e9))
    with pytest.raises(NotLasableError):
        threshold_pump(heavy_loss, delta=1e8)


def test_threshold_pump_rejects_gain_at_zero_pump(baseline_config,
                                                  monkeypatch):
    monkeypatch.setattr(steady, "net_gain", lambda config, n: 1.0)
    with pytest.raises(ConvergenceError, match="gain positive at zero pump"):
        threshold_pump(baseline_config)


def test_threshold_pump_rejects_non_monotone_gain(baseline_config,
                                                  monkeypatch):
    # on the first bracket [0, 1e5] the gain is -1 at pumps 0 and 5e4
    # and +1 elsewhere
    monkeypatch.setattr(
        steady, "net_gain",
        lambda config, n: -1.0 if config.drive.pump12 in (0.0, 5e4) else 1.0)
    with pytest.raises(ConvergenceError, match="not monotone") as info:
        threshold_pump(baseline_config)
    assert info.value.detail["gain_samples"] == [-1.0, 1.0, -1.0, 1.0, 1.0]


def test_gain_root_stops_at_the_photon_number_cap():
    with pytest.raises(ConvergenceError, match="photon-number cap") as info:
        steady._gain_root(lambda n: 1.0)
    assert info.value.detail["last_bracket"][1] > steady._BRACKET_CAP


def test_photon_root_without_a_positive_leading_coefficient_is_nan():
    # C = 0 makes the quadratic's leading coefficient A = kappa det(C)
    # zero, so there is no root to take on floats
    wx = ((0.5, 0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0, 0.0))
    qa, n = steady._photon_root(2.0, 1.0, wx, math)
    assert qa == 0.0 and math.isnan(n)


def test_gain_residual_at_the_root_is_checked(baseline_config, monkeypatch):
    real = steady._states

    def off(config, n, solutions):
        # the real populations, with the net gain at a root 1e-6 kappa off
        states, gain, residual, partials = real(config, n, solutions)
        if n > 0.0:
            gain += 1e-6 * config.cavity.kappa
        return states, gain, residual, partials

    monkeypatch.setattr(steady, "_states", off)
    cfg = with_drive(baseline_config, delta=1e8)
    with pytest.raises(ConvergenceError, match="gain residual") as info:
        solve_steady_state(cfg)
    monkeypatch.undo()
    assert info.value.detail["n"] == solve_steady_state(cfg).n
    assert info.value.detail["gain_residual"] == pytest.approx(
        1e-6 * cfg.cavity.kappa, rel=1e-3)


def test_four_orientation_weights_and_reduction(baseline_config):
    four = dataclasses.replace(
        baseline_config,
        orientation=OrientationModel(mode="four_orientation"))
    cfg = with_drive(four, delta=1e8)
    ss = solve_steady_state(cfg)
    assert len(ss.populations) == 2
    # one population per sub-ensemble, with its weight and detuning
    assert steady._ensembles(cfg) == ((0.25, 1e8), (0.75, 1e9))
    # when the aligned detuning equals the off-axis pin the split is moot
    pinned = with_drive(four, delta=four.orientation.off_axis_detuning)
    single = with_drive(baseline_config,
                        delta=four.orientation.off_axis_detuning)
    cfg_hot = with_pump(pinned, 2e6)
    ref_hot = with_pump(single, 2e6)
    assert solve_steady_state(cfg_hot).n == pytest.approx(
        solve_steady_state(ref_hot).n, rel=1e-12)


def test_four_orientation_operating_point(baseline_config):
    # regression value, frozen from this implementation
    four = dataclasses.replace(
        baseline_config,
        orientation=OrientationModel(mode="four_orientation"))
    assert find_operating_point(four) == pytest.approx(8.80581e5, rel=1e-5)


def test_population_state_invariants():
    with pytest.raises(ConvergenceError):
        PopulationState(1.5, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ConvergenceError):
        PopulationState(0.5, 0, 0, 0.5, 0, 0, 0, 0.6, 0.5)
    state = PopulationState(0.5, 0, 0, 0.5, 0, 0, 0, 0.1, -0.2)
    assert PopulationState(*state.as_array().tolist()) == state


def test_population_column_names():
    names = ("rho11", "rho22", "rho33", "rho44", "rho55", "rho66", "rho77",
             "rho14_re", "rho14_im")
    assert steady.POPULATION_NAMES == names
    assert TIMESERIES_COLUMNS == ("t", *names, "n", "P_out_W")
    assert tuple(col.name for col in OUTPUTS["populations"]) == names


def test_negative_photon_number_rejected(baseline_config):
    with pytest.raises(ValueError):
        populations_at_fixed_n(baseline_config, -1e-6)
    with pytest.raises(ValueError):
        net_gain(baseline_config, -1e-6)


# n = 1e300 overflows G*n in the rate matrix; a non-finite delta is
# rejected where the drive is built
@pytest.mark.parametrize("call, n, delta, error", [
    (populations_at_fixed_n, math.nan, None, InvalidConfigError),
    (populations_at_fixed_n, math.inf, None, InvalidConfigError),
    (populations_at_fixed_n, 1e300, None, ConvergenceError),
    (populations_at_fixed_n, 0.0, math.nan, InvalidConfigError),
    (populations_at_fixed_n, 0.0, math.inf, InvalidConfigError),
    (populations_at_fixed_n, 0.0, -math.inf, InvalidConfigError),
    (net_gain, math.nan, None, InvalidConfigError),
    (net_gain, math.inf, None, InvalidConfigError),
    (net_gain, 1e300, None, ConvergenceError),
])
def test_bad_fixed_n_inputs_raise_typed_errors_quietly(
        baseline_config, capfd, call, n, delta, error):
    with pytest.raises(error):
        call(baseline_config if delta is None
             else with_drive(baseline_config, delta=delta), n)
    assert capfd.readouterr() == ("", "")


# Nine evenly spaced photon numbers from 0 up to 1e-3 .. 10.
_PHOTON_NUMBERS = st.floats(1e-3, 10.0).map(
    lambda top: [top * k / 8 for k in range(9)])


@settings(max_examples=200, **_PROPERTY)
@given(mode=_MODES, delta=_DETUNINGS, pump=st.floats(2e5, 4e6),
       ns=_PHOTON_NUMBERS)
@example(mode="single_orientation", delta=1e8, pump=1.06e6,
         ns=[0.0, 0.02, 0.05, 0.1])
def test_gain_monotone_decreasing_in_photon_number(baseline_config, mode,
                                                   delta, pump, ns):
    cfg = with_drive(with_pump(_with_mode(baseline_config, mode), pump),
                     delta=delta)
    gains = [net_gain(cfg, n) for n in ns]
    assert all(b < a for a, b in zip(gains, gains[1:]))


@settings(max_examples=200, **_PROPERTY)
@given(mode=_MODES, delta=_DETUNINGS, factor=st.floats(1.01, 4.0))
def test_closed_form_matches_direct_root(baseline_config, mode, delta,
                                         factor):
    cfg = with_drive(_with_mode(baseline_config, mode), delta=delta)
    cfg = with_pump(cfg, factor * threshold_pump(cfg))
    ss = solve_steady_state(cfg)
    assert net_gain(cfg, 0.0) > 0.0
    assert ss.branch == LASING
    assert ss.n == pytest.approx(_direct_root(cfg), rel=1e-10)


def test_gain_at_threshold_takes_direct_path(baseline_config):
    # At the operating point the zero-photon gain is positive only by the
    # rounding of kappa; the closed form is not trusted there.
    op = find_operating_point(baseline_config)
    tol = steady._GAIN_RESIDUAL_RTOL * baseline_config.cavity.kappa
    for factor in (1.0, 1.0 + 1e-11, 1.0 + 1e-10):
        cfg = with_pump(baseline_config, op * factor)
        if 0.0 < net_gain(cfg, 0.0) <= tol:
            break
    else:
        pytest.fail("no pump with 0 < g0 <= tolerance near the threshold")
    assert solve_steady_state(cfg).n == _direct_root(cfg)


# Drive rates are either off or at least MIN_DRIVE_RATE (1e-300 rad/s),
# the smallest nonzero rate a DriveSettings accepts; smaller ones are
# rejected (see test_tiny_drive_rates_are_rejected).
def _drive_rate(top):
    return st.just(0.0) | st.floats(MIN_DRIVE_RATE, top)


@settings(max_examples=300, **_PROPERTY)
@given(mode=_MODES, delta=_DETUNINGS, pump=_drive_rate(4e6),
       omega=_drive_rate(1e7))
def test_steady_state_invariants(baseline_config, mode, delta, pump, omega):
    cfg = with_drive(with_pump(_with_mode(baseline_config, mode), pump),
                     delta=delta, omega=omega)
    ss = solve_steady_state(cfg)
    assert ss.n >= 0.0
    assert (ss.branch == LASING) == (ss.n > 0.0)
    assert ss.residual <= 1e-8
    for state in ss.populations:
        assert abs(state.trace() - 1.0) <= 1e-9
        # exact zeros may come out as rounding noise of either sign
        occ = state.as_array()[:7]
        assert np.all(occ >= -1e-12) and np.all(occ <= 1.0 + 1e-12)


@settings(max_examples=300, **_PROPERTY)
@given(mode=_MODES, delta=_DETUNINGS, pump=_drive_rate(4e6),
       omega=_drive_rate(1e7))
def test_steady_state_matches_fixed_n_kernel(baseline_config, mode, delta,
                                             pump, omega):
    cfg = with_drive(with_pump(_with_mode(baseline_config, mode), pump),
                     delta=delta, omega=omega)
    ss = solve_steady_state(cfg)
    # the residual recomputed from the rate matrix at the returned state
    residual = max(
        float(np.max(np.abs(steady.rate_matrix(cfg, ss.n, d)
                            @ state.as_array()))) / steady._max_rate(cfg, ss.n)
        for state, (_, d) in zip(ss.populations, steady._ensembles(cfg)))
    assert ss.residual == residual
    # dark: column 0 of the five-column n = 0 solve; lasing: the rank-2
    # update of that solve, not a one-column solve at the root
    direct = populations_at_fixed_n(cfg, ss.n)
    np.testing.assert_allclose(ss.aligned.as_array(), direct.as_array(),
                               rtol=0.0, atol=1e-14)


def _partials_by_solve(cfg, ss):
    """(dg/dn, dg/d delta) at a lasing root by one two-column solve per
    sub-ensemble on the rate matrix at the root: M dv = -(dM) v, with
    dM/dn = -G W W^T and dM/d delta nonzero only in the coherence rows
    (of the aligned sub-ensemble; the off-axis detuning is fixed)."""
    g = cfg.derived.gain_coupling
    dg_dn = dg_dd = 0.0
    for k, (state, (weight, delta)) in enumerate(zip(
            ss.populations, steady._ensembles(cfg))):
        rhs = np.zeros((9, 2))
        rhs[1, 0] = g * (state.rho22 - state.rho33)
        rhs[2, 0] = -rhs[1, 0]
        rhs[4, 0] = g * (state.rho55 - state.rho66)
        rhs[5, 0] = -rhs[4, 0]
        if k == 0:
            rhs[7, 1] = state.rho14_im
            rhs[8, 1] = -state.rho14_re
        x = steady._solve_linear(steady.rate_matrix(cfg, ss.n, delta), rhs)
        dn, dd = ((x[1] - x[2]) + (x[4] - x[5])).tolist()
        dg_dn += weight * g * dn
        dg_dd += weight * g * dd
    return dg_dn, dg_dd


# The example is the operating point of `baseline`: lasing by the
# rounding of kappa only, so its root is found on the direct gain.
@settings(max_examples=200, **_PROPERTY)
@given(mode=_MODES, delta=_DETUNINGS, pump=st.floats(2e5, 4e6))
@example(mode="single_orientation", delta=0.0, pump=1046142.826574039)
def test_lasing_state_from_the_zero_n_solve(baseline_config, mode, delta,
                                            pump):
    cfg = with_drive(with_pump(_with_mode(baseline_config, mode), pump),
                     delta=delta)
    ss = solve_steady_state(cfg)
    for state, (_, d) in zip(ss.populations, steady._ensembles(cfg)):
        np.testing.assert_allclose(
            state.as_array(),
            populations_at_fixed_n(with_drive(cfg, delta=d), ss.n).as_array(),
            rtol=0.0, atol=1e-14)
    if ss.branch != LASING:
        assert ss.gain_partials is None
        return
    # relative, down to the smallest normal double: a detuning near
    # 1e-300 gives a subnormal dg/d delta, whose products lose bits
    for value, oracle in zip(ss.gain_partials, _partials_by_solve(cfg, ss)):
        assert value == pytest.approx(oracle, rel=1e-12,
                                      abs=sys.float_info.min)


@pytest.mark.parametrize("mode", ["single_orientation", "four_orientation"])
def test_one_linear_solve_per_sub_ensemble(high_sens_config, mode,
                                           monkeypatch):
    calls = []
    real = steady._solve_linear

    def counted(a, rhs):
        calls.append(rhs.shape)
        return real(a, rhs)

    monkeypatch.setattr(steady, "_solve_linear", counted)
    steady._device.cache_clear()
    cfg = _with_mode(high_sens_config, mode)
    b = 200e-6
    ss = solve_steady_state(with_bias_field(cfg, b))
    assert ss.branch == LASING
    # both sub-ensembles share the device's one n = 0 factorization
    assert calls == [(9, 5)]
    # the implicit slope takes its gain partials from that solve, and a
    # second field of the same device makes none
    assert dc_sensitivity_curve(cfg, [b])[0].n == ss.n
    assert solve_steady_state(with_bias_field(cfg, 1.5 * b)).n > 0.0
    assert calls == [(9, 5)]


# The detuning update against a direct solve at each detuning, over the
# pumps and Rabi rates that the presets and the benchmark span.
@settings(max_examples=400, **_PROPERTY)
@given(name=st.sampled_from(["baseline", "high_sensitivity"]),
       delta=st.floats(-1e10, 1e10), pump=st.floats(1e4, 4e6),
       omega=_drive_rate(1e7))
@example(name="baseline", delta=0.0, pump=1e6, omega=0.0)
def test_detuning_update_matches_direct_solve(name, delta, pump, omega):
    cfg = with_drive(with_pump(preset(name), pump), omega=omega)
    a, x, q, wx = steady._zero_n_solution(cfg, delta)
    updated = x + x[:, 3:5] @ np.array(q)
    direct = steady._solve_linear(steady.rate_matrix(cfg, 0.0, delta),
                                  steady._ZERO_N_RHS)
    error = np.abs(updated - direct)
    assert np.max(error) <= 2e-15 * np.max(np.abs(direct))
    # column by column, the update's rounding scales with X0: the
    # coherence columns of X(delta) shrink as 1 / delta, those of X0 not
    base = np.max(np.abs(x), axis=0)
    assert np.all(error <= 1e-14 * np.maximum(np.max(np.abs(direct), axis=0),
                                              base))
    # W^T X(delta), the rows every later step reads
    w_direct = direct[[1, 4]] - direct[[2, 5]]
    assert np.all(np.abs(np.array(wx) - w_direct) <= 1e-14 * np.maximum(
        np.max(np.abs(w_direct), axis=0), base))
    assert np.array_equal(a, steady.rate_matrix(cfg, 0.0, 0.0))


def test_device_cache_is_read_only_and_bounded(baseline_config):
    steady._device.cache_clear()
    d = baseline_config.drive
    a, x, wx, rows = steady._device(baseline_config.rates, d.pump12,
                                    d.pump45, d.omega)
    for array in (a, x):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    assert isinstance(wx, tuple) and isinstance(rows, tuple)
    # every detuning shares the cached arrays; A(n, delta) is a copy
    solution = steady._zero_n_solution(baseline_config, 1e8)
    assert solution[0] is a and solution[1] is x
    assert steady._shifted(a, 0.5, 1e8).flags.writeable
    for k in range(steady.DEVICE_CACHE_SIZE + 5):
        solve_steady_state(with_drive(baseline_config, omega=1e6 + k))
    info = steady._device.cache_info()
    assert info.maxsize == steady.DEVICE_CACHE_SIZE
    assert info.currsize == steady.DEVICE_CACHE_SIZE


def test_singular_detuning_update_falls_back_to_a_direct_solve(
        baseline_config, monkeypatch):
    delta = 1e8
    d = baseline_config.drive
    a, x, wx, (r7, r8) = steady._device(baseline_config.rates, d.pump12,
                                        d.pump45, d.omega)
    # coherence rows that make K = I + delta J X0[7:9, 3:5] singular
    rows = (r7, (*r8[:3], 1.0 / delta, 0.0))
    monkeypatch.setattr(steady, "_device", lambda *key: (a, x, wx, rows))
    _, direct, q, w_direct = steady._zero_n_solution(baseline_config, delta)
    assert q == steady._NO_UPDATE
    expected = steady._solve_linear(
        steady.rate_matrix(baseline_config, 0.0, delta), steady._ZERO_N_RHS)
    assert np.array_equal(direct, expected)
    assert np.array_equal(np.array(w_direct),
                          expected[[1, 4]] - expected[[2, 5]])


# a NaN in the cached X, in the trace column, in a column of W or in the
# row of Re rho14, makes the residual NaN, which must fail its check
@pytest.mark.parametrize("entry", [(1, 0), (4, 2), (7, 0)])
def test_non_finite_solution_fails_the_residual_check(baseline_config,
                                                     monkeypatch, entry):
    d = baseline_config.drive
    a, x, wx, rows = steady._device(baseline_config.rates, d.pump12,
                                    d.pump45, d.omega)
    x = x.copy()
    x[entry] = math.nan
    monkeypatch.setattr(steady, "_device", lambda *key: (a, x, wx, rows))
    with pytest.raises(ConvergenceError, match="residual") as info:
        solve_steady_state(baseline_config)
    assert math.isnan(info.value.detail["residual"])


@pytest.mark.parametrize("name", ["baseline", "high_sensitivity"])
def test_overflowed_stimulated_rate_gives_inf_not_nan(name):
    cfg = preset(name)
    a = steady.rate_matrix(cfg, 1e300, 0.0)
    exchange = steady._WWT != 0.0
    # G n overflows: -inf on the four diagonal entries, +inf off them
    assert a[exchange].tolist() == [-math.inf, math.inf, math.inf,
                                    -math.inf] * 2
    assert np.array_equal(a[~exchange],
                          steady.rate_matrix(cfg, 0.0, 0.0)[~exchange])
    # without pump and drive, -pump12, -2 omega and -omega are -0.0; a
    # stimulated rate of either sign leaves them, and every other entry
    # off the exchange, as they are, signed zeros too
    dark = with_drive(cfg, pump12=0.0, pump45=0.0, omega=0.0)
    at_zero = steady.rate_matrix(dark, 0.0, 0.0)[~exchange]
    assert np.signbit(at_zero).any()
    for n in (1e300, 1e-3, -1e-3):
        assert (steady.rate_matrix(dark, n, 0.0)[~exchange].tobytes()
                == at_zero.tobytes())


def test_overflowing_rates_raise_a_typed_error(baseline_config):
    cfg = set_param(set_param(baseline_config, "rates.L21", 1e308),
                    "rates.L23", 1e308)
    with pytest.raises(ConvergenceError, match="not finite"):
        solve_steady_state(cfg)


def _changed(config, path):
    """``config`` with the registry path ``path`` moved off its value."""
    value = get_param(config, path)
    if value is None or value == 0.0:
        return set_param(config, path, 2.5e5)
    try:
        return set_param(config, path, 0.5 * value)
    except InvalidConfigError:  # an upper bound such as a fraction <= 1
        return set_param(config, path, 1.5 * value)


@pytest.mark.parametrize("name", ["baseline", "high_sensitivity"])
def test_device_cache_misses_exactly_when_the_matrix_changes(name):
    cfg = preset(name)
    a00 = steady.rate_matrix(cfg, 0.0, 0.0)
    steady._device.cache_clear()
    solve_steady_state(cfg)
    missed = set()
    for path in [p for p, unit in _UNITS.items() if unit != "str"]:
        changed = _changed(cfg, path)
        misses = steady._device.cache_info().misses
        steady._zero_n_solution(changed, 0.0)
        if steady._device.cache_info().misses > misses:
            missed.add(path)
        moved = not np.array_equal(steady.rate_matrix(changed, 0.0, 0.0),
                                   a00)
        assert (path in missed) == moved, path
    assert missed == {"pump", "drive.pump12", "drive.pump45", "drive.omega",
                      *(f"rates.{field}" for field in RATE_FIELDS)}


def test_tiny_drive_rates_are_rejected(baseline_config):
    for name in ("pump12", "pump45", "omega"):
        with pytest.raises(InvalidConfigError, match=name):
            with_drive(baseline_config, **{name: 1e-308})
        # the floor itself and an exact zero are valid settings
        for valid in (0.0, MIN_DRIVE_RATE):
            cfg = with_drive(baseline_config, **{name: valid})
            assert getattr(cfg.drive, name) == valid


# --- the grid evaluator, steady.solve_steady_states ---


def _detuned(config, count):
    """(config, drive) points of ``count`` detunings."""
    return [(config, dataclasses.replace(config.drive, delta=d))
            for d in np.linspace(-1.5e8, 1.5e8, count).tolist()]


def _built(point):
    config, drive = point
    return dataclasses.replace(config, drive=drive)


def test_grid_evaluator_keeps_order_across_a_chunk_boundary(baseline_config,
                                                            monkeypatch):
    points = _detuned(baseline_config, steady.CHUNK_POINTS + 1)
    stacks, alone = [], []
    real_batch, real = steady._steady_states, steady.solve_steady_state

    def batch(chunk):
        stacks.append(len(chunk))
        return real_batch(chunk)

    def single(config):
        alone.append(config)
        return real(config)

    monkeypatch.setattr(steady, "_steady_states", batch)
    monkeypatch.setattr(steady, "solve_steady_state", single)
    out = list(steady.solve_steady_states(iter(points)))
    # one stack, then the one-point chunk built and solved alone
    assert stacks == [steady.CHUNK_POINTS]
    assert alone == [_built(points[-1])]
    assert len(out) == len(points)
    monkeypatch.undo()
    # Re rho14 is odd in the detuning, so the populations also tell a
    # point from its mirror image, whose n is the same
    assert out == [solve_steady_state(_built(point)) for point in points]


@functools.cache
def _operating_pump(name):
    return find_operating_point(preset(name))


def _grid(name, cases, size):
    """``size`` (config, drive) points of a preset that cycle through
    ``cases``, (mode, detuning, pump) triples; the k-th point takes
    (k + 1) / size of its case's detuning, so a repeated case keeps its
    device.  A pump is a rate, "dark" (0), "nominal" (the preset's) or
    "threshold" (``find_operating_point``'s, at threshold at detuning 0).
    """
    configs = {mode: _with_mode(preset(name), mode)
               for mode in ("single_orientation", "four_orientation")}
    pumps = {"dark": 0.0, "threshold": _operating_pump(name),
             "nominal": configs["single_orientation"].drive.pump12}
    points = []
    for k in range(size):
        mode, delta, pump = cases[k % len(cases)]
        pump = pumps.get(pump, pump)
        points.append((configs[mode], dataclasses.replace(
            configs[mode].drive, pump12=pump, pump45=pump,
            delta=delta * (k + 1) / size)))
    return points


def _solved_alone(point):
    try:
        return solve_steady_state(_built(point))
    except ConvergenceError:
        return None


# dark, lasing, at-threshold and four_orientation points across a chunk
# boundary; tools/output_digest.py pins the grid evaluator's results on
# this grid as ``repr.solve_steady_states``
_FIXED_CASES = [("single_orientation", 1e8, "nominal"),
                ("single_orientation", -3e7, "dark"),
                ("single_orientation", 0.0, "threshold"),
                ("four_orientation", 5e7, "nominal"),
                ("single_orientation", -1.2e8, 2e6)]
_FIXED_SIZE = steady.CHUNK_POINTS + 3


@settings(max_examples=25, **_PROPERTY)
@given(name=st.sampled_from(["baseline", "high_sensitivity"]),
       cases=st.lists(st.tuples(
           _MODES, st.one_of(st.just(0.0), _DETUNINGS),
           st.one_of(st.sampled_from(["dark", "nominal", "threshold"]),
                     st.floats(2e5, 4e6))), min_size=1, max_size=6),
       size=st.one_of(st.integers(1, 24),
                      st.integers(steady.CHUNK_POINTS - 1,
                                  steady.CHUNK_POINTS + 24)))
@example(name="baseline", cases=_FIXED_CASES, size=_FIXED_SIZE)
def test_grid_evaluator_equals_the_single_solve(name, cases, size):
    points = _grid(name, cases, size)
    assert list(steady.solve_steady_states(points)) == [
        _solved_alone(point) for point in points]


def test_fixed_grid_certifies_dark_and_lasing_points_in_the_batch():
    # the equality above is not vacuous: the batch itself certifies dark
    # and lasing points, and leaves the at-threshold and four_orientation
    # ones to solve_steady_state
    points = _grid("baseline", _FIXED_CASES, _FIXED_SIZE)
    batch = steady._steady_states(points[:steady.CHUNK_POINTS])
    kinds = {(ss.branch if ss is not None else None, k % len(_FIXED_CASES))
             for k, ss in enumerate(batch)}
    assert kinds == {(LASING, 0), (BELOW_THRESHOLD, 1), (None, 2), (None, 3),
                     (LASING, 4)}


def test_grid_evaluator_pulls_one_chunk_at_a_time(baseline_config):
    pulled = []

    def endless():
        for k in itertools.count():
            pulled.append(k)
            yield baseline_config, dataclasses.replace(
                baseline_config.drive, delta=1e5 * k)

    first = list(itertools.islice(steady.solve_steady_states(endless()), 3))
    assert len(first) == 3
    assert len(pulled) == steady.CHUNK_POINTS


@pytest.mark.parametrize("count", [1, 3])
def test_grid_evaluator_gives_none_where_the_solve_fails(baseline_config,
                                                         monkeypatch, count):
    points = _detuned(baseline_config, count)
    failing = points[count // 2][1].delta
    real_batch, real = steady._steady_states, steady.solve_steady_state

    def uncertified(chunk):
        return [None if d.delta == failing else ss
                for (_, d), ss in zip(chunk, real_batch(chunk))]

    def flaky(config):
        if config.drive.delta == failing:
            raise ConvergenceError("forced failure")
        return real(config)

    monkeypatch.setattr(steady, "_steady_states", uncertified)
    monkeypatch.setattr(steady, "solve_steady_state", flaky)
    out = list(steady.solve_steady_states(points))
    assert [ss is None for ss in out] == [d.delta == failing
                                          for _, d in points]


@pytest.mark.parametrize("neighbours", [0, 1])
def test_grid_evaluator_lets_a_degenerate_config_raise(baseline_config,
                                                       neighbours):
    zero = _all_zero(baseline_config)
    points = ([(baseline_config, baseline_config.drive)] * neighbours
              + [(zero, zero.drive)])
    with pytest.raises(DegenerateConfigError):
        list(steady.solve_steady_states(points))


def _stacked_solves(monkeypatch):
    """The leading dimension of every stacked ``_refined_solve``."""
    stacks = []
    real = steady._refined_solve

    def counted(m, rhs):
        if m.ndim == 3:
            stacks.append(len(m))
        return real(m, rhs)

    monkeypatch.setattr(steady, "_refined_solve", counted)
    return stacks


def test_grid_evaluator_factors_each_device_once_per_chunk(baseline_config,
                                                           monkeypatch):
    # fig2a order: detuning outer, 41 pumps inner, so that every chunk
    # holds more devices than the single-call cache keeps
    pumps = np.linspace(0.0, 4e6, 41).tolist()
    points = [(baseline_config, dataclasses.replace(
        baseline_config.drive, pump12=p, pump45=p, delta=d))
        for d in np.linspace(-1.5e8, 1.5e8, 13).tolist() for p in pumps]
    assert len(pumps) > steady.DEVICE_CACHE_SIZE
    stacks = _stacked_solves(monkeypatch)
    out = list(steady.solve_steady_states(points))
    size = steady.CHUNK_POINTS
    assert stacks == [len({d.pump12 for _, d in points[k:k + size]})
                      for k in range(0, len(points), size)]
    assert stacks[0] == len(pumps)
    assert None not in out
    # a field sweep is one device, factored once
    stacks.clear()
    assert None not in steady.solve_steady_states(
        _detuned(baseline_config, 50))
    assert stacks == [1]
