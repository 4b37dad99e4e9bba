"""Time-domain integration: RHS consistency, step and a.c. responses."""

import dataclasses
import io
import logging
import math
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ltmag import (AcSignalModel, ConvergenceError, DegenerateStepError,
                   InvalidConfigError, NoSignalError, OrientationModel,
                   StiffnessError, ac_response, derive_constants, integrate,
                   output_power, preset, solve_steady_state, step_response,
                   with_bias_field, with_drive, with_pump)
from ltmag import dynamics, steady
from ltmag.dynamics import (DEFAULT_SEED_N, TIMESERIES_COLUMNS, jacobian,
                            rhs, state_from_populations)


def _steady_state_vector(config, delta):
    ss = solve_steady_state(with_drive(config, delta=delta))
    return state_from_populations(ss.aligned, ss.n)


def _first_step(config, y0):
    # the first step of the library's LSODA runs (``dynamics._lsoda``),
    # passed to the stock solver so that both start alike
    return dynamics._FIRST_STEP_RATES / steady._max_rate(config, y0[9])


def test_rhs_vanishes_at_steady_state(baseline_config):
    d = derive_constants(baseline_config)
    for delta in (0.0, 1e8):
        y = _steady_state_vector(baseline_config, delta)
        dy = rhs(0.0, y, with_drive(baseline_config, delta=delta))
        scale = max(baseline_config.rates.L31, d.gain_coupling)
        assert np.max(np.abs(dy)) < 1e-9 * scale


def test_occupation_derivatives_sum_to_zero(baseline_config):
    # trace conservation is built into the rate matrix, not corrected after
    rng = np.random.default_rng(7)
    cfg = with_drive(baseline_config, delta=4e7)
    for _ in range(5):
        occ = rng.random(7)
        occ /= occ.sum()
        y = np.concatenate([occ, rng.normal(0, 0.1, 2), [rng.random()]])
        dy = rhs(0.0, y, cfg)
        assert abs(np.sum(dy[:7])) < 1e-12 * np.max(np.abs(dy[:7]))


def test_dark_cavity_stays_dark(baseline_config):
    y = np.zeros(10)
    y[0] = y[3] = 0.5
    dy = rhs(0.0, y, baseline_config)
    assert dy[9] == 0.0


def test_jacobian_matches_finite_differences(baseline_config):
    cfg = with_drive(baseline_config, delta=3e7)
    rng = np.random.default_rng(11)
    occ = rng.random(7)
    occ /= occ.sum()
    y0 = np.concatenate([occ, [0.01, -0.02], [0.03]])
    jac = jacobian(0.0, y0, cfg)
    eps = 1e-7
    for j in range(10):
        yp = y0.copy()
        ym = y0.copy()
        step = eps * max(1.0, abs(y0[j]))
        yp[j] += step
        ym[j] -= step
        col = (rhs(0.0, yp, cfg) - rhs(0.0, ym, cfg)) / (2 * step)
        assert np.allclose(jac[:, j], col, rtol=1e-6,
                           atol=1e-6 * np.max(np.abs(jac)))


def _dense_system(t, y, config, signal):
    """Right-hand side and Jacobian from the whole ``rate_matrix`` at
    (n, delta(t)), built anew on every call: the oracle of the affine
    system that ``dynamics._system`` builds once per run.  delta(t) is
    the config's detuning, or the test field ``signal``'s when given."""
    g = config.derived.gain_coupling
    delta = (config.drive.delta if signal is None
             else signal.detuning(t, config.constants))
    a = steady.rate_matrix(config, y[9], delta)
    d23, d56 = y[1] - y[2], y[4] - y[5]
    net = g * (d23 + d56) - config.cavity.kappa
    dy = np.append(a @ y[:9], net * y[9])
    jac = np.zeros((10, 10))
    jac[:9, :9] = a
    jac[[1, 2, 4, 5], 9] = -g * d23, g * d23, -g * d56, g * d56
    gn = g * y[9]
    jac[9, [1, 2, 4, 5]] = gn, -gn, gn, -gn
    jac[9, 9] = net
    return dy, jac, np.abs(a) @ np.abs(y[:9])


# Bounded, reproducible property runs, as in test_steady.py.
_PROPERTY = dict(deadline=None, derandomize=True, database=None)


@settings(max_examples=300, **_PROPERTY)
@given(name=st.sampled_from(["baseline", "high_sensitivity"]),
       sine=st.booleans(),
       occupations=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
       coherence=st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2),
       n=st.floats(0.0, 10.0), t=st.floats(0.0, 1e-3),
       delta=st.floats(-3e8, 3e8), field=st.floats(-3e-4, 3e-4),
       amplitude=st.floats(1e-12, 1e-6), omega=st.floats(1e3, 1e8))
def test_affine_system_matches_rate_matrix(name, sine, occupations,
                                           coherence, n, t, delta, field,
                                           amplitude, omega):
    config = preset(name) if sine else with_drive(preset(name), delta=delta)
    signal = AcSignalModel(field, amplitude, omega) if sine else None
    y = np.array([*occupations, *coherence, n])
    f, jac = dynamics._system(config, signal)
    dy, dense_jac, scale = _dense_system(t, y, config, signal)
    ours = f(t, y)
    assert np.all(np.abs(ours[:9] - dy[:9]) <= 1e-14 * scale)
    # the photon row and every Jacobian entry are the same floating-point
    # operations in both, so they agree bit for bit
    assert ours[9] == dy[9]
    assert np.array_equal(jac(t, y), dense_jac)
    # the public functions are the integrator's closures
    if not sine:
        assert np.array_equal(rhs(t, y, config), ours)
        assert np.array_equal(jacobian(t, y, config), jac(t, y))


def test_integrate_from_steady_state_is_flat(baseline_config):
    cfg = with_drive(baseline_config, delta=1e8)
    ss = solve_steady_state(cfg)
    y0 = state_from_populations(ss.aligned, ss.n)
    series = integrate(cfg, y0, (0.0, 2e-5))
    assert series.trace_drift() < 1e-9
    assert np.max(np.abs(series.n - ss.n)) < 1e-6 * ss.n


def test_integrate_rows_are_stock_lsoda_steps(baseline_config):
    # integrate's contract: one row per LSODA step, the last one ending on
    # t_span[1], as stock solve_ivp's LSODA gives them
    after = with_drive(baseline_config, delta=1e8)
    y0 = _steady_state_vector(baseline_config, 0.0)
    series = integrate(after, y0, (0.0, 2e-7))
    sol = solve_ivp(rhs, (0.0, 2e-7), y0, method="LSODA", rtol=1e-10,
                    atol=1e-14, jac=jacobian, args=(after,),
                    first_step=_first_step(after, y0))
    assert series.t[-1] == 2e-7
    assert np.array_equal(series.t, sol.t)
    assert np.allclose(series.states, sol.y.T, rtol=1e-12, atol=1e-18)
    for bad_span in ((2e-7, 0.0), (0.0, 0.0), (0.0, math.nan),
                     (0.0, math.inf)):
        with pytest.raises(InvalidConfigError):
            integrate(after, y0, bad_span)


def test_step_response_frozen_values(baseline_config):
    # regression values, frozen from this implementation
    res = step_response(baseline_config, delta_before=0.0, delta_after=1e8)
    assert res.t_63 == pytest.approx(13.272e-6, rel=0.02)
    assert res.t_90 == pytest.approx(22.226e-6, rel=0.02)
    assert res.n_final == pytest.approx(6.6819e-2, rel=1e-3)
    assert res.n_initial == pytest.approx(4.1612e-3, rel=1e-3)
    assert res.settled
    assert res.t_63 < res.t_90
    assert res.series.t[-1] >= res.t_90


def test_lasing_to_lasing_step_terminates(baseline_config):
    # Both steady states lase, so the before-state gain under the new
    # detuning is zero up to rounding; dividing by it once gave a horizon
    # of ~6e7 s and the call never returned.  A spawned child with a
    # timeout turns such a regression into a failure instead of a hang.
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        job = pool.apply_async(step_response, (baseline_config, 1e8, 1.2e8))
        res = job.get(timeout=150)
    assert res.settled
    assert res.t_63 == pytest.approx(1.187e-5, rel=1e-3)
    assert res.t_90 == pytest.approx(2.511e-5, rel=1e-3)


def test_reverse_lasing_to_lasing_step_terminates(baseline_config):
    # regression values, frozen from this implementation
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        job = pool.apply_async(step_response, (baseline_config, 1.2e8, 1e8))
        res = job.get(timeout=60)
    assert res.settled
    assert res.t_63 == pytest.approx(1.1547e-5, rel=1e-3)
    assert res.t_90 == pytest.approx(2.4356e-5, rel=1e-3)


def _step_with_root_shifted(config, ulps, delta_before, delta_after):
    """``step_response`` with every lasing root ``ulps`` ulp low; runs in
    a spawned child, so the patch dies with it."""
    gain_root = steady._gain_root

    def shifted(gain):
        n = gain_root(gain)
        for _ in range(ulps):
            n = math.nextafter(n, 0.0)
        return n

    steady._gain_root = shifted
    return step_response(config, delta_before, delta_after)


@pytest.mark.parametrize("ulps", [1, 2])
def test_lasing_to_lasing_step_survives_root_off_by_ulps(baseline_config,
                                                          ulps):
    # A start state whose lasing root is an ulp or two off once made each
    # horizon extension restart LSODA in Adams mode, where it stalled for
    # minutes; one continuous run has no restart to stall in.
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        job = pool.apply_async(_step_with_root_shifted,
                               (baseline_config, ulps, 1e8, 1.2e8))
        res = job.get(timeout=150)
    assert res.settled
    assert res.t_63 == pytest.approx(1.187e-5, rel=1e-3)
    assert res.t_90 == pytest.approx(2.511e-5, rel=1e-3)


def _stock_step_oracle(config, delta_before, delta_after, horizon, method):
    """One stock ``solve_ivp`` run from t = 0 over the whole horizon, with
    the crossings found by ``brentq`` on its dense output."""
    ss_before = solve_steady_state(with_drive(config, delta=delta_before))
    after = with_drive(config, delta=delta_after)
    n_f = solve_steady_state(after).n
    seed = max(ss_before.n, DEFAULT_SEED_N)
    span = n_f - seed
    y0 = state_from_populations(ss_before.aligned, seed)
    sol = solve_ivp(rhs, (0.0, horizon), y0, method=method, rtol=1e-10,
                    atol=1e-14, jac=jacobian, dense_output=True,
                    first_step=_first_step(after, y0), args=(after,))
    assert sol.success
    crossings = []
    for frac in (1.0 - math.exp(-1.0), 0.9):
        target = seed + frac * span
        f = (sol.y[9] - target) * math.copysign(1.0, span)
        i = int(np.flatnonzero(f >= 0.0)[0])
        crossings.append(brentq(lambda t: sol.sol(t)[9] - target,
                                sol.t[i - 1], sol.t[i], xtol=1e-300))
    return crossings


def _work(steps, nfev, njev, checkpoints, extensions):
    return dict(steps=steps, nfev=nfev, njev=njev, nlu=njev,
                checkpoints=checkpoints, extensions=extensions)


# The integrator work of the benchmark's time-domain calls, exactly as
# LSODA does it under scipy 1.17.1 (the version CI pins): a change to the
# system or its run that moves one count moves the benchmark's work
_STEP_WORK = {(0.0, 1e8): _work(27_289, 46_937, 2_123, 4_000, 1),
              (1e8, 0.0): _work(3_679, 6_152, 298, 8_000, 2)}
_AC_WORK = _work(1_291, 1_808, 106, 640, 0)


@pytest.mark.parametrize("delta_before, delta_after",
                         [(0.0, 1e8), (1e8, 0.0)])
def test_step_response_extensions_match_restart_oracle(
        baseline_config, delta_before, delta_after):
    res = step_response(baseline_config, delta_before, delta_after)
    assert res.work == _STEP_WORK[delta_before, delta_after]
    # the run was extended at least once, and the series ends on the
    # final horizon, the first one doubled once per extension
    extensions = res.work["extensions"]
    assert extensions >= 1
    # LSODA left Adams mode: BDF steps form Jacobians
    assert res.work["njev"] > 0
    horizon = res.series.t[-1]
    assert horizon == 20.0 * dynamics._singlet_cycle_time(
        baseline_config) * 2 ** extensions
    assert res.work["checkpoints"] == 2000 * 2 ** extensions

    t_63, t_90 = _stock_step_oracle(baseline_config, delta_before,
                                    delta_after, horizon, "LSODA")
    assert res.t_63 == pytest.approx(t_63, rel=1e-9)
    assert res.t_90 == pytest.approx(t_90, rel=1e-9)


def test_ac_response_ignores_the_config_detuning(high_sens_config):
    # the test field sets the detuning, so a far detuned config, whose
    # detuning is the largest rate, runs as its own preset does: from the
    # same first step, to the same work and bits
    far = with_drive(high_sens_config, delta=1e14)
    res = ac_response(far, 164e-6, 1e-9, 2e5)
    assert res.work == _AC_WORK
    assert res == ac_response(high_sens_config, 164e-6, 1e-9, 2e5)


def test_step_response_logs_extensions_and_reports_them(baseline_config,
                                                         caplog, monkeypatch):
    # from a 1e-30 seed the turn-on is still far off after two horizons
    monkeypatch.setattr(dynamics, "_MAX_DOUBLINGS", 2)
    with caplog.at_level(logging.DEBUG, logger="ltmag.dynamics"):
        with pytest.raises(ConvergenceError) as err:
            step_response(baseline_config, 0.0, 1e8, seed_n=1e-30)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "ltmag.dynamics" and "horizon" in r.getMessage()]
    assert len(lines) == 2
    assert all("settled False" in line for line in lines)
    detail = err.value.detail
    assert detail["extensions"] == 1
    assert detail["steps"] > 0
    # the detail sums the per-segment step counts of the debug lines
    assert detail["steps"] == sum(
        int(re.search(r"(\d+) steps", line).group(1)) for line in lines)
    assert detail["nfev"] >= detail["steps"]
    assert detail["njev"] > 0 and detail["nlu"] > 0
    assert detail["n_end"] < 1e-6


def _stock_ac_oracle(config, ours, method):
    """The demodulated response of ``ours``, from an ``ac_response``
    call, recomputed from one stock ``solve_ivp`` run of the system under
    its test field over the same transient and sampling grid: 10 periods
    of 64 samples."""
    periods, samples_per_period = 10, 64
    ss = solve_steady_state(with_bias_field(config, ours.bias_field))
    y0 = state_from_populations(ss.aligned, max(ss.n, DEFAULT_SEED_N))
    period = 2.0 * math.pi / ours.omega_signal
    n_samples = periods * samples_per_period
    t_k = ours.transient_time + np.arange(n_samples) * (
        periods * period / n_samples)
    f, jac = dynamics._system(config, AcSignalModel(
        ours.bias_field, ours.amplitude_field, ours.omega_signal))
    sol = solve_ivp(f, (0.0, t_k[-1]), y0, method=method, rtol=1e-10,
                    atol=1e-16, jac=jac, t_eval=t_k,
                    max_step=period / samples_per_period,
                    first_step=_first_step(config, y0))
    assert sol.success
    spectrum = np.fft.rfft(sol.y[9])
    return (float(np.abs(2.0 * spectrum[periods] / n_samples)),
            float(spectrum[0].real) / n_samples)


def test_lsoda_matches_stock_bdf_oracle(baseline_config, high_sens_config):
    # scipy's stock BDF is the oracle: one run per call, from t = 0 over
    # the step's final horizon or the a.c. call's whole sampled span
    for before, after in ((0.0, 1e8), (1e8, 0.0)):
        ours = step_response(baseline_config, before, after)
        t_63, t_90 = _stock_step_oracle(baseline_config, before, after,
                                        ours.series.t[-1], "BDF")
        assert ours.t_63 == pytest.approx(t_63, rel=1e-8)
        assert ours.t_90 == pytest.approx(t_90, rel=1e-8)
    for omega in (2e4, 2e6, 2e7):
        ours = ac_response(high_sens_config, bias_field=164e-6,
                           amplitude_field=1e-9, omega_signal=omega)
        n_signal, n_mean = _stock_ac_oracle(high_sens_config, ours, "BDF")
        assert ours.n_signal == pytest.approx(n_signal, rel=1e-3)
        assert ours.n_mean == pytest.approx(n_mean, rel=1e-3)


def test_ac_response_leaves_adams_mode(high_sens_config):
    # From LSODA's default first step, sized on an rhs that nearly
    # vanishes at the steady start, this call took 500,000 Adams steps
    # to t = 3.1e-7 s without one Jacobian and raised StiffnessError.
    res = ac_response(high_sens_config, bias_field=170e-6,
                      amplitude_field=1e-9, omega_signal=2e6)
    assert res.work["njev"] > 0


def test_ac_scan_never_stalls_in_adams_mode(high_sens_config, monkeypatch):
    # 40 frequencies at two bias fields; from LSODA's default first step
    # 5 of these 80 runs stalled in Adams mode until the step cap (11
    # with the affine rhs).  Each completed run takes a few thousand
    # steps.
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 60_000)
    for bias in (164e-6, 170e-6):
        for omega in np.geomspace(2e4, 2e7, 40):
            res = ac_response(high_sens_config, bias_field=bias,
                              amplitude_field=1e-9,
                              omega_signal=float(omega))
            assert res.work["njev"] > 0


def test_ac_scan_around_the_benchmark_bias_never_stalls(high_sens_config,
                                                       monkeypatch):
    # From a first step of 1 / max rate, 9 of these fields (164 uT moved
    # by -9, -1 and +7 parts in 1e9, at each frequency) stalled in Adams
    # mode to t = 2.8e-7 s and raised StiffnessError; the last bits of
    # the steady start decide which ones.  The coarse grid spans the
    # lasing window of the d.c. searches.
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 60_000)
    fields = [164e-6 * (1.0 + k * 1e-9) for k in range(-10, 11)]
    fields += np.linspace(150e-6, 300e-6, 11).tolist()
    for omega in (2e4, 2e6, 2e7):
        for bias in fields:
            res = ac_response(high_sens_config, bias_field=bias,
                              amplitude_field=1e-9, omega_signal=omega)
            assert res.work["njev"] > 0 and res.n_signal > 0.0


@pytest.mark.filterwarnings("error")
def test_step_budget_raises_stiffness_error(baseline_config,
                                            high_sens_config, monkeypatch):
    # a cap of 50 steps: the a.c. transient needs more within one call,
    # which LSODA itself stops (istate -1); stepping one step per call,
    # integrate passes the cap between calls.  Neither may leak scipy's
    # UserWarning.
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 50)
    with pytest.raises(StiffnessError) as err:
        ac_response(high_sens_config, bias_field=164e-6,
                    amplitude_field=1e-9, omega_signal=2e5)
    detail = err.value.detail
    assert detail["istate"] == -1
    assert 0.0 < detail["t_reached"] < detail["t_target"]
    assert 0 < detail["steps"] <= 50 and detail["nfev"] >= detail["steps"]

    y0 = _steady_state_vector(baseline_config, 0.0)
    with pytest.raises(StiffnessError) as err:
        integrate(with_drive(baseline_config, delta=1e8), y0, (0.0, 2e-5))
    detail = err.value.detail
    assert detail["istate"] > 0 and detail["steps"] == 51
    assert 0.0 < detail["t_reached"] < 2e-5


def test_step_response_seed_floors_dark_start(baseline_config):
    dim = with_pump(baseline_config, 9e5)
    res = step_response(dim, delta_before=0.0, delta_after=1e8,
                        seed_n=1e-5)
    # below threshold before the step, so the start is the seed itself
    assert res.n_initial == pytest.approx(1e-5)
    assert res.series.n[0] == 1e-5
    assert res.n_final > 1e-3


def test_step_response_degenerate_cases(baseline_config):
    with pytest.raises(DegenerateStepError):
        step_response(baseline_config, delta_before=1e8, delta_after=1e8)
    # opposite detunings give the same steady output, so no step to time
    with pytest.raises(DegenerateStepError):
        step_response(baseline_config, delta_before=1e8, delta_after=-1e8)


def test_turn_on_accelerates_with_faster_cavity(baseline_config):
    # scaling kappa and omega together and re-deriving the pump keeps the
    # operating point shape while shrinking the photon lifetime
    base = step_response(baseline_config, delta_before=0.0, delta_after=1e8)
    fast_cfg = dataclasses.replace(
        baseline_config,
        cavity=dataclasses.replace(baseline_config.cavity, kappa=9e6))
    fast_cfg = with_drive(with_pump(fast_cfg, 3.577079e6), omega=11.01e6)
    fast = step_response(fast_cfg, delta_before=0.0, delta_after=1e8)
    assert fast.t_63 == pytest.approx(8.02e-6, rel=0.05)
    assert fast.t_63 < base.t_63


def test_ac_response_frozen_values(high_sens_config):
    # regression values, frozen from this implementation
    res = ac_response(high_sens_config, bias_field=164e-6,
                      amplitude_field=1e-9, omega_signal=2e5)
    assert res.n_signal == pytest.approx(1.3764e-10, rel=0.01)
    assert res.n_mean > 0.0
    assert res.distortion < 1e-4
    assert res.work == _AC_WORK
    # the demodulation grid: 10 periods of 64 samples
    assert res.work["checkpoints"] == 10 * 64
    assert res.work["extensions"] == 0
    assert res.work["nfev"] >= res.work["steps"] > 0
    # LSODA left Adams mode: BDF steps form Jacobians
    assert res.work["njev"] > 0
    period = 2 * np.pi / 2e5
    cycles = res.transient_time / period
    assert cycles == pytest.approx(round(cycles), abs=1e-9)


def test_ac_response_is_linear_in_amplitude(high_sens_config):
    one = ac_response(high_sens_config, bias_field=164e-6,
                      amplitude_field=1e-9, omega_signal=2e5)
    two = ac_response(high_sens_config, bias_field=164e-6,
                      amplitude_field=2e-9, omega_signal=2e5)
    assert two.n_signal == pytest.approx(2 * one.n_signal, rel=0.01)


def test_ac_response_rolls_off(high_sens_config):
    slow = ac_response(high_sens_config, bias_field=164e-6,
                       amplitude_field=1e-9, omega_signal=2e5)
    fast = ac_response(high_sens_config, bias_field=164e-6,
                       amplitude_field=1e-9, omega_signal=2e7)
    assert fast.n_signal < 0.2 * slow.n_signal


def test_ac_response_dark_everywhere_raises(high_sens_config):
    with pytest.raises(NoSignalError):
        ac_response(high_sens_config, bias_field=50e-6,
                    amplitude_field=1e-9, omega_signal=2e5)


def test_ac_response_with_no_sampled_output_raises(high_sens_config,
                                                    monkeypatch):
    # lasing at the bias, so only the sampled window can be dark: every
    # advance of the run returns the zero state
    monkeypatch.setattr(dynamics, "_advance",
                        lambda solver, t, **kwargs: np.zeros(10))
    with pytest.raises(NoSignalError, match="sampled window"):
        ac_response(high_sens_config, bias_field=164e-6,
                    amplitude_field=1e-9, omega_signal=2e5)


def test_integrate_rejects_a_short_initial_state(baseline_config):
    y0 = _steady_state_vector(baseline_config, 1e8)
    with pytest.raises(InvalidConfigError, match="10 components"):
        integrate(with_drive(baseline_config, delta=1e8), y0[:9],
                  (0.0, 1e-6))


@pytest.mark.parametrize("amplitude, omega", [
    (1e-9, math.nan), (1e-9, math.inf), (math.nan, 2e5), (math.inf, 2e5)])
def test_ac_response_rejects_non_finite_signal(high_sens_config, amplitude,
                                               omega):
    with pytest.raises(InvalidConfigError):
        ac_response(high_sens_config, bias_field=164e-6,
                    amplitude_field=amplitude, omega_signal=omega)


def test_ac_response_rejects_zero_amplitude(high_sens_config):
    with pytest.raises(InvalidConfigError, match="amplitude_field"):
        ac_response(high_sens_config, bias_field=164e-6,
                    amplitude_field=0.0, omega_signal=2e5)


@pytest.mark.parametrize("seed", [0.0, -1e-6, math.nan, math.inf])
def test_step_response_rejects_bad_seed(baseline_config, seed):
    with pytest.raises(InvalidConfigError):
        step_response(baseline_config, 0.0, 1e8, seed_n=seed)


@pytest.mark.parametrize("omega", [0.0, math.nan, math.inf])
def test_sine_field_rejects_bad_omega(high_sens_config, omega):
    with pytest.raises(InvalidConfigError):
        ac_response(high_sens_config, 1e-4, 1e-9, omega)


# The time domain's detuning: a step's detunings, which replace the
# config's, and ac_response's test field, an AcSignalModel built from its
# arguments; each call is given by its keyword arguments
@pytest.mark.parametrize("fields", [
    dict(delta_before=0.0, delta_after=math.nan),
    dict(delta_before=0.0, delta_after=-math.inf),
    dict(bias_field=math.nan, amplitude_field=1e-9, omega_signal=2e5),
    dict(bias_field=1e-4, amplitude_field=math.inf, omega_signal=2e5),
    dict(bias_field=1e-4, amplitude_field=1e-9, omega_signal=0.0),
])
def test_modulation_rejects_bad_fields(high_sens_config, fields):
    call = ac_response if "omega_signal" in fields else step_response
    with pytest.raises(InvalidConfigError):
        call(high_sens_config, **fields)


# (bias, amplitude, omega) of a test field, and whether it is accepted
_SIGNALS = [
    ((1e-4, 1e-9, 2e5), True),
    ((-1e-4, 1e-9, 2e5), True),
    ((0.0, 1e-9, 2e5), True),
    ((1e-4, 1e-9, 1), True),
    ((1e-4, 0.0, 2e5), False),
    ((1e-4, -1e-9, 2e5), False),
    ((1e-4, 1e-9, 0.0), False),
    ((1e-4, 1e-9, -2e5), False),
    ((math.nan, 1e-9, 2e5), False),
    ((1e-4, math.inf, 2e5), False),
    ((1e-4, 1e-9, math.nan), False),
    (("1e-4", 1e-9, 2e5), False),
    ((1e-4, 10**400, 2e5), False),
]


def _rejection(build, *args):
    """The message of the InvalidConfigError ``build(*args)`` raises, or
    None when it accepts the arguments."""
    try:
        build(*args)
    except InvalidConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("signal, accepted", _SIGNALS)
def test_sine_field_accepts_what_its_signal_accepts(high_sens_config, signal,
                                                    accepted):
    message = _rejection(AcSignalModel, *signal)
    assert (message is None) == accepted
    # ac_response builds its test field before any solve, so it rejects
    # a field with AcSignalModel's own message
    if not accepted:
        assert _rejection(ac_response, high_sens_config, *signal) == message


def test_non_finite_trajectory_raises(baseline_config):
    cfg = with_drive(baseline_config, delta=1e8)
    ss = solve_steady_state(cfg)
    y0 = state_from_populations(ss.aligned, ss.n)
    with pytest.raises(InvalidConfigError):
        integrate(with_drive(baseline_config, delta=math.nan), y0,
                  (0.0, 1e-6))
    # a NaN detuning set past the constructor, on a copied DriveSettings,
    # stops at the rate matrix's argument check; a NaN start reaches the
    # trajectory check
    nan_drive = dataclasses.replace(baseline_config.drive)
    object.__setattr__(nan_drive, "delta", math.nan)
    with pytest.raises(InvalidConfigError, match="delta must be finite"):
        integrate(dataclasses.replace(baseline_config, drive=nan_drive), y0,
                  (0.0, 1e-6))
    nan_start = y0.copy()
    nan_start[7] = math.nan
    with pytest.raises(StiffnessError, match="not finite"):
        integrate(cfg, nan_start, (0.0, 1e-6))


# entries of the second sample of a two-sample trajectory (all population
# in level 1, n = 1) that break one check of ``_sanitize``
_BROKEN_SAMPLES = {
    "trajectory is not finite": {9: math.nan},
    r"occupation left \[0, 1\]": {0: 1.0 + 1e-6, 1: -1e-6},
    "photon number went negative": {9: -1e-6},
    "trace drift": {0: 0.5},
}


def _two_samples(second):
    states = np.zeros((2, 10))
    states[:, 0] = states[:, 9] = 1.0
    for column, value in second.items():
        states[1, column] = value
    return states


@pytest.mark.parametrize("message", list(_BROKEN_SAMPLES))
def test_sanitize_rejects_broken_trajectories(message):
    with pytest.raises(StiffnessError, match=message):
        dynamics._sanitize(np.array([0.0, 1.0]),
                           _two_samples(_BROKEN_SAMPLES[message]))


def test_sanitize_clamps_excursions_within_tolerance():
    states = _two_samples({0: 1.0 + 1e-12, 1: -1e-12, 9: -1e-12})
    series = dynamics._sanitize(np.array([0.0, 1.0]), states)
    assert series.states[1, 0] == 1.0 and series.states[1, 1] == 0.0
    assert series.n[1] == 0.0
    assert states[1, 9] == -1e-12  # clamped on a copy


def test_time_domain_rejects_four_orientation(baseline_config):
    four = dataclasses.replace(
        baseline_config,
        orientation=OrientationModel(mode="four_orientation"))
    with pytest.raises(InvalidConfigError):
        step_response(four, delta_before=0.0, delta_after=1e8)


def test_timeseries_csv_round_trip(baseline_config):
    cfg = with_drive(baseline_config, delta=1e8)
    ss = solve_steady_state(cfg)
    y0 = state_from_populations(ss.aligned, ss.n)
    series = integrate(cfg, y0, (0.0, 1e-6))
    text = series.to_csv(cfg)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == ",".join(TIMESERIES_COLUMNS)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[10]) == pytest.approx(ss.n, rel=1e-9)
    assert float(first[11]) == pytest.approx(
        output_power(ss.n, cfg), rel=1e-9)
    # body parses cleanly as a rectangular float table
    body = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
    assert body.shape[1] == len(TIMESERIES_COLUMNS)


def test_timeseries_shape_error_is_typed():
    with pytest.raises(InvalidConfigError):
        dynamics.TimeSeries(np.zeros(3), np.zeros((3, 9)))


def test_modulation_kinds(baseline_config):
    sine = AcSignalModel(bias_field=1e-4, amplitude_field=1e-6,
                         omega_signal=2e5)
    d0 = sine.detuning(0.0, baseline_config.constants)
    d_half = sine.detuning(np.pi / 2e5, baseline_config.constants)
    ratio = d0 / d_half
    assert ratio == pytest.approx((1e-4 + 1e-6) / (1e-4 - 1e-6), rel=1e-9)
