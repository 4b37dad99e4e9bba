"""Time-domain integration of the full rate equations.

State vector layout (length 10):

    y = [rho11, rho22, rho33, rho44, rho55, rho66, rho77,
         Re rho14, Im rho14, n]

The occupation/coherence block is linear at fixed n (see
``steady.rate_matrix``); the photon equation dn/dt = g(y) * n makes the
system bilinear.  ``_system`` builds the rate matrix once per run and
adds the n- and time-dependent terms on each call.  The system is stiff
(rates span up to six orders of magnitude), so integration uses LSODA
(ODEPACK; Hindmarsh, ODEPACK, 1983; Petzold, SIAM J. Sci. Stat.
Comput. 4, 136, 1983) with the analytic Jacobian.  LSODA switches
between Adams and BDF formulas on its own and, from a first step of ten
times the fastest rate's time (``_lsoda``), takes BDF on nearly every
step here.

Each public call makes one continuous run (``_lsoda``, on
``scipy.integrate.ode``) and advances it to the times it needs:
``integrate`` one internal step at a time, ``step_response`` to a grid
of checkpoints, ``ac_response`` to its sample times.  Every advance
continues the same ODEPACK state, so the integrator never restarts, and
its step loop runs in compiled code that calls back only the two
closures of ``_system``.  A failed advance, or a run past ``_MAX_STEPS``
steps, raises ``StiffnessError``.  ``scipy.integrate`` is imported on
the first integration, not with the package, so the steady-state path
loads no scipy module.

Time-domain operations are defined for single_orientation configurations;
a four_orientation ensemble would need parallel copies of the level block.
"""

from __future__ import annotations

import contextlib
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateStepError,
                     InvalidConfigError, NoSignalError, StiffnessError)
from .model import (AcSignalModel, ModelConfig, _is_number,
                    with_bias_field, with_drive)
from .steady import (_WWT, POPULATION_NAMES, PopulationState, _brent_root,
                     _max_rate, rate_matrix, solve_steady_state)
from .tables import Column, OutputTable

logger = logging.getLogger("ltmag.dynamics")

TIMESERIES_COLUMNS = ("t", *POPULATION_NAMES, "n", "P_out_W")

# Floor used to seed the photon number when starting from a dark state;
# spontaneous emission into the mode is not modeled, so turn-on needs a
# small classical seed.
DEFAULT_SEED_N = 1e-6

_TRACE_TOL = 1e-9

# LSODA tolerances (a.c. signals are small, so theirs is tighter), the
# integrator steps of one time-domain call (LSODA stops a single advance
# there, ``_advance`` the whole run once its total passes it), and the
# horizon doublings a step response may take
_RTOL, _ATOL, _AC_ATOL = 1e-10, 1e-14, 1e-16
_MAX_STEPS = 500_000
_MAX_DOUBLINGS = 10

# LSODA's first step, in units of the fastest rate's time (see _lsoda)
_FIRST_STEP_RATES = 10.0

# samples of a step response's trajectory; its checkpoints are spaced
# (first horizon) / (_OUTPUT_POINTS - 1)
_OUTPUT_POINTS = 2001

# signal periods an a.c. response demodulates, and samples per period
_AC_PERIODS, _AC_SAMPLES_PER_PERIOD = 10, 64


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory; rows of ``states`` follow the state layout."""

    t: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.states.ndim != 2 or self.states.shape[1] != 10 \
                or self.states.shape[0] != self.t.shape[0]:
            raise InvalidConfigError("states must have shape (len(t), 10)")

    @property
    def occupations(self) -> np.ndarray:
        return self.states[:, :7]

    @property
    def n(self) -> np.ndarray:
        return self.states[:, 9]

    def trace_drift(self) -> float:
        return float(np.max(np.abs(self.occupations.sum(axis=1) - 1.0)))

    def to_csv(self, config: ModelConfig) -> str:
        """``OutputTable`` CSV with the plain header t, rho11..rho77,
        rho14_re, rho14_im, n, P_out_W (seconds and watts) and no
        provenance lines; P_out_W is max(n, 0) * N * kappa * h nu."""
        d = config.derived
        scale = d.n_centers * config.cavity.kappa * d.photon_energy
        return OutputTable(
            columns=[Column(name, "") for name in TIMESERIES_COLUMNS],
            rows=[(ti, *row, max(row[9], 0.0) * scale)
                  for ti, row in zip(self.t.tolist(), self.states.tolist())],
        ).to_csv()


@dataclass(frozen=True)
class ResponseResult:
    """Step-response timing extracted from the photon trajectory; the
    step's two detunings are the caller's arguments, not repeated here."""

    t_63: float
    t_90: float
    n_initial: float         # the photon number the run starts from
    n_final: float
    settled: bool
    series: TimeSeries
    work: dict[str, int]     # integrator counters, checkpoints, extensions


@dataclass(frozen=True)
class HarmonicResult:
    """Demodulated response to a sinusoidal test field."""

    n_mean: float
    n_signal: float          # amplitude of the component at omega_signal
    phase: float             # rad, relative to the driving cosine
    distortion: float        # harmonic content relative to the fundamental
    omega_signal: float
    bias_field: float
    amplitude_field: float
    transient_time: float
    work: dict[str, int]     # integrator counters, checkpoints, extensions


def state_from_populations(state: PopulationState, n: float) -> np.ndarray:
    y = np.empty(10)
    y[:9] = state.as_array()
    y[9] = n
    return y


def _require_single_orientation(config: ModelConfig, what: str) -> None:
    if config.orientation.mode != "single_orientation":
        raise InvalidConfigError(
            f"{what} supports single_orientation configurations only")


# W W^T of the stimulated exchange (see ``steady``), padded to 10 x 10
_WWT = np.pad(_WWT, (0, 1))


def _system(config: ModelConfig, signal: AcSignalModel | None):
    """The ``(rhs, jacobian)`` pair of one run, as functions of (t, y),
    at the config's detuning or, when ``signal`` is not None, at its test
    field's (``AcSignalModel.detuning``).

    A(n, delta) = A(0, delta0) - G n W W^T + (delta - delta0) D, with
    W W^T the stimulated exchange (``_WWT``, see ``steady``) and D the
    rotation of (Re, Im) rho14.  A(0, delta0) is built once, delta0
    being ``config.drive.delta``, or 0 under a test field; each call
    adds the exchange, the rotation (test field only) and the photon row
    to one product with it.
    """
    g = config.derived.gain_coupling
    kappa = config.cavity.kappa
    constants = config.constants
    sine = signal is not None
    a0 = np.zeros((10, 10))
    a0[:9, :9] = rate_matrix(config, 0.0, 0.0 if sine else config.drive.delta)

    def f(t, y):
        _, y1, y2, _, y4, y5, _, y7, y8, n = y.tolist()
        d23, d56, gn = y1 - y2, y4 - y5, g * n
        dy = a0.dot(y)
        dy[1] -= gn * d23
        dy[2] += gn * d23
        dy[4] -= gn * d56
        dy[5] += gn * d56
        if sine:
            delta = signal.detuning(t, constants)
            dy[7] -= delta * y8
            dy[8] += delta * y7
        dy[9] = (g * (d23 + d56) - kappa) * n
        return dy

    def jac(t, y):
        _, y1, y2, _, y4, y5, _, _, _, n = y.tolist()
        d23, d56, gn = y1 - y2, y4 - y5, g * n
        j = a0 - gn * _WWT
        if sine:
            delta = signal.detuning(t, constants)
            j[7, 8] -= delta
            j[8, 7] += delta
        # d/dn of the stimulated exchange terms, and the photon row
        j[1, 9], j[2, 9] = -g * d23, g * d23
        j[4, 9], j[5, 9] = -g * d56, g * d56
        j[9, 1] = j[9, 4] = gn
        j[9, 2] = j[9, 5] = -gn
        j[9, 9] = g * (d23 + d56) - kappa
        return j

    return f, jac


def rhs(t: float, y: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Full right-hand side at time t, as integrated (``_system``).

    The occupation block conserves the trace exactly and dn/dt vanishes
    identically at n = 0.
    """
    return _system(config, None)[0](t, y)


def jacobian(t: float, y: np.ndarray, config: ModelConfig) -> np.ndarray:
    return _system(config, None)[1](t, y)


def _sanitize(t: np.ndarray, states: np.ndarray) -> TimeSeries:
    """Enforce the trajectory invariants on integrator output.

    Occupations may stray from [0, 1] and n below 0 by no more than the
    accumulated tolerance; such excursions are clamped (and logged),
    anything larger, or any non-finite state, is an integration failure.
    """
    if not np.all(np.isfinite(states)):
        raise StiffnessError("trajectory is not finite")
    occ = states[:, :7]
    n = states[:, 9]
    occ_tol = max(_ATOL, 10.0 * _RTOL)
    n_tol = max(_ATOL, _RTOL * float(np.max(np.abs(n), initial=0.0)))
    worst_occ = float(min(np.min(occ), 1.0 - np.max(occ)))
    if worst_occ < -occ_tol:
        raise StiffnessError(
            "occupation left [0, 1] beyond tolerance",
            detail={"excursion": worst_occ, "tolerance": occ_tol})
    worst_n = float(np.min(n))
    if worst_n < -n_tol:
        raise StiffnessError(
            "photon number went negative beyond tolerance",
            detail={"n_min": worst_n, "tolerance": n_tol})
    if worst_occ < 0.0 or worst_n < 0.0:
        logger.debug("clamping small invariant violations "
                     "(occ %.3e, n %.3e)", worst_occ, worst_n)
        states = states.copy()
        np.clip(states[:, :7], 0.0, 1.0, out=states[:, :7])
        states[:, 9] = np.maximum(states[:, 9], 0.0)
    series = TimeSeries(t=np.asarray(t, dtype=float), states=states)
    drift = series.trace_drift()
    if drift > _TRACE_TOL:
        raise StiffnessError("trace drift above tolerance",
                             detail={"trace_drift": drift})
    return series


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on the first call.

    The library no longer calls it: every integration runs on
    ``_lsoda``.  The name stays bound because ``perfbench/tracing.py``
    looks it up; ROADMAP item 1 deletes it.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


@contextlib.contextmanager
def _lsoda(config: ModelConfig, y0: np.ndarray, t0: float,
           signal: AcSignalModel | None, *, atol: float,
           max_step: float = 0.0):
    """One continuous LSODA run of the full system (``_system``) from
    (t0, y0), with the analytic Jacobian, for ``_advance`` to continue;
    ``max_step`` 0 means unbounded.

    The first step is 10 / ``steady._max_rate`` at y0.  LSODA starts in
    Adams mode, and a steady start gives it almost nothing to size a
    step on, so too short a first step can trap it there: from LSODA's
    own, ``ac_response(high_sensitivity, 170e-6, 1e-9, 2e6)`` took
    500,000 Adams steps without one Jacobian; from 1 / max rate, 9 of
    156 calls ``ac_response(high_sensitivity, b, 1e-9, w)`` near
    164 uT still did (to t = 2.8e-7 s), and which ones depended on the
    last bits of the steady start.  From 10 / max rate none does.
    """
    from scipy.integrate import ode

    solver = ode(*_system(config, signal)).set_integrator(
        "lsoda", rtol=_RTOL, atol=atol, max_step=max_step,
        first_step=_FIRST_STEP_RATES / _max_rate(config, y0[9]),
        nsteps=_MAX_STEPS)
    solver.set_initial_value(np.array(y0, dtype=float), t0)
    with warnings.catch_warnings():
        # scipy reports a failed call only by this warning; _advance
        # raises StiffnessError for it instead
        warnings.filterwarnings("ignore", "lsoda: ", UserWarning)
        yield solver


def _work(solver) -> dict[str, int]:
    """LSODA's counters so far (``iwork[10:13]``): steps, rhs and
    Jacobian evaluations, and LU factorizations, one per Jacobian."""
    steps, nfev, njev = (int(c) for c in solver._integrator.iwork[10:13])
    return {"steps": steps, "nfev": nfev, "njev": njev, "nlu": njev}


def _advance(solver, t: float, *, one_step: bool = False) -> np.ndarray:
    """Continue ``solver`` to t, or with ``one_step`` by one internal
    step that does not pass t, and return a copy of the state there (the
    solver overwrites its own on the next advance).

    scipy's ``lsoda`` ignores ``integrate(t, step=True)``, so LSODA's own
    itask is set: 1 runs to t and interpolates there, 5 takes one step
    and stops at tcrit = t, as ``solve_ivp``'s LSODA does.  Raises
    ``StiffnessError`` when LSODA fails or the run's steps pass
    ``_MAX_STEPS``.
    """
    lsoda = solver._integrator
    lsoda.call_args[2] = 5 if one_step else 1
    lsoda.rwork[0] = t
    y = solver.integrate(t)
    failed = not solver.successful()
    if failed or lsoda.iwork[10] > _MAX_STEPS:
        raise StiffnessError(
            "time integration failed" if failed
            else "time integration passed its step budget",
            detail={"t_reached": float(solver.t), "t_target": float(t),
                    "istate": solver.get_return_code(),
                    "max_steps": _MAX_STEPS, **_work(solver)})
    return y.copy()


def integrate(config: ModelConfig, y0: np.ndarray,
              t_span: tuple[float, float]) -> TimeSeries:
    """Integrate the full system at the config's detuning over t_span and
    validate the trajectory.

    Rows are at the integrator's own steps; the last step ends exactly on
    t_span[1].
    """
    _require_single_orientation(config, "integrate")
    if len(y0) != 10:
        raise InvalidConfigError("initial state must have 10 components")
    t0, t1 = (float(t) for t in t_span)
    if not t0 < t1:
        raise InvalidConfigError("t_span must run forward in time")
    ts, ys = [t0], [np.asarray(y0, dtype=float)]
    with _lsoda(config, y0, t0, None, atol=_ATOL) as solver:
        while solver.t < t1:
            ys.append(_advance(solver, t1, one_step=True))
            ts.append(solver.t)
    return _sanitize(np.array(ts), np.array(ys))


def _first_crossing(dydt, t: np.ndarray, states: np.ndarray, target: float,
                    rising: bool) -> float | None:
    """Earliest time where n(t) crosses ``target`` on a run's checkpoints
    ``t`` and ``states``: bracketed on the checkpoints, refined on the
    cubic Hermite interpolant of n and of dn/dt at the bracket's ends,
    dn/dt being the last component of the run's own right-hand side
    ``dydt(t, y)`` (the solver's ``f``, from ``_system``)."""
    n = states[:, 9]
    f = n - target if rising else target - n
    idx = np.flatnonzero(f >= 0.0)
    if idx.size == 0:
        return None
    i = int(idx[0])
    t_lo, t_hi = float(t[i - 1]), float(t[i])
    h = t_hi - t_lo
    n_lo, n_hi = float(n[i - 1]), float(n[i])
    d_lo, d_hi = (float(dydt(tt, y)[9]) * h
                  for tt, y in ((t_lo, states[i - 1]), (t_hi, states[i])))

    def hermite(tt: float) -> float:
        s = (tt - t_lo) / h
        return ((1.0 - s) ** 2 * ((1.0 + 2.0 * s) * n_lo + s * d_lo)
                + s * s * ((3.0 - 2.0 * s) * n_hi + (s - 1.0) * d_hi)
                - target)

    return _brent_root(hermite, t_lo, t_hi, rtol=1e-13, xtol=1e-13 * t_hi,
                       maxiter=100)


def step_response(config: ModelConfig, delta_before: float,
                  delta_after: float, *,
                  seed_n: float | None = None) -> ResponseResult:
    """Photon-number response to an instantaneous detuning step at t = 0.

    The system starts in the steady state of ``delta_before`` with the
    photon number floored at ``seed_n`` (default: max of the old steady
    value and 1e-6, since turn-on from an ideal dark state never starts).
    Reports the times to cover 63.2% and 90% of the photon-number span.
    From a dark start they grow about 9.9 us per decade of smaller seed:
    baseline 0 -> 1e8 rad/s gives t_63 = 14.76 / 24.63 / 34.50 us for
    seed_n = 1e-3 / 1e-6 / 1e-9.

    One continuous LSODA run visits checkpoints spaced h0 / 2000, where
    h0 is the first horizon.  The horizon doubles until both targets are
    crossed and n has settled; each extension continues the run over the
    new checkpoints only.  Each crossing is bracketed on the checkpoints
    and refined on a cubic Hermite interpolant of n with dn/dt from the
    rate equation, to 1e-13 relative.  The 2001-point output series is
    every 2**k-th checkpoint of the final horizon h0 * 2**k, so none of
    it is interpolated.
    """
    _require_single_orientation(config, "step_response")
    if delta_after == delta_before:
        raise DegenerateStepError(
            "step requires distinct before/after detunings")
    before = with_drive(config, delta=delta_before)
    after = with_drive(config, delta=delta_after)
    ss_before = solve_steady_state(before)
    ss_after = solve_steady_state(after)
    n_i = seed_n if seed_n is not None else max(ss_before.n, DEFAULT_SEED_N)
    if not (_is_number(n_i) and 0.0 < n_i < math.inf):
        raise InvalidConfigError("seed_n must be finite and > 0")
    n_f = ss_after.n
    span = n_f - n_i
    if abs(span) <= 1e-9 * max(abs(n_f), abs(n_i)):
        raise DegenerateStepError(
            "steady photon number is unchanged by the step")
    y0 = state_from_populations(ss_before.aligned, n_i)

    # The start populations are the before-state's own, whose net gain is
    # <= 0 (dark) or zero up to the root tolerance (lasing), so there is
    # no growth rate to size the horizon from; the doubling loop below
    # extends this one as far as needed.
    h0 = 20.0 * _singlet_cycle_time(config)
    per_h0 = _OUTPUT_POINTS - 1

    rising = span > 0.0
    targets = (n_i + (1.0 - math.exp(-1.0)) * span, n_i + 0.9 * span)
    states = y0[None, :]
    steps_before = 0
    with _lsoda(after, y0, 0.0, None, atol=_ATOL) as solver:
        for extensions in range(_MAX_DOUBLINGS):
            # checkpoint j sits at h0 * (j / per_h0), so the last one of
            # this extension is the horizon h0 * 2**extensions exactly
            last = per_h0 << extensions
            states = np.concatenate((states, [
                _advance(solver, h0 * (j / per_h0))
                for j in range(len(states), last + 1)]))
            t = h0 * (np.arange(last + 1) / per_h0)
            t_63, t_90 = (_first_crossing(solver.f, t, states, target,
                                          rising) for target in targets)
            n_end = float(states[-1, 9])
            settled = abs(n_end - n_f) <= 1e-3 * abs(span)
            work = _work(solver)
            logger.debug("step response horizon %.6e s after %d extensions: "
                         "%d steps, n_end %.6e, settled %s", t[-1],
                         extensions, work["steps"] - steps_before, n_end,
                         settled)
            steps_before = work["steps"]
            if t_63 is not None and t_90 is not None and settled:
                break
    work.update(checkpoints=last, extensions=extensions)
    if t_63 is None or t_90 is None:
        raise ConvergenceError(
            "photon number never covered the requested span",
            detail={"horizon": float(t[-1]), "n_final_target": n_f,
                    "n_end": n_end, **work})
    stride = 1 << extensions
    series = _sanitize(t[::stride], states[::stride])
    return ResponseResult(t_63=t_63, t_90=t_90, n_initial=n_i, n_final=n_f,
                          settled=settled, series=series, work=work)


def _singlet_cycle_time(config: ModelConfig) -> float:
    drv = config.drive
    r = config.rates
    return sum(1.0 / x for x in (max(drv.pump12, drv.pump45), r.L57, r.L74,
                                 config.cavity.kappa) if x > 0.0)


def ac_response(config: ModelConfig, bias_field: float,
                amplitude_field: float, omega_signal: float) -> HarmonicResult:
    """Response to a small sinusoidal field on top of a bias field.

    Integrates through a transient of max(5 periods, 10 relaxation times),
    rounded up to whole periods so the sampling grid stays phase aligned,
    then demodulates ``_AC_PERIODS`` periods of ``_AC_SAMPLES_PER_PERIOD``
    samples each by quadrature sums at the signal frequency.
    ``distortion`` collects the relative weight of higher harmonics of the
    signal frequency.
    """
    _require_single_orientation(config, "ac_response")
    signal = AcSignalModel(bias_field, amplitude_field, omega_signal)

    biased = with_bias_field(config, bias_field)
    ss_bias = solve_steady_state(biased)
    edge_n = []
    for b in (bias_field - amplitude_field, bias_field + amplitude_field):
        edge_n.append(solve_steady_state(with_bias_field(config, b)).n)
    if ss_bias.n == 0.0 and max(edge_n) == 0.0:
        raise NoSignalError(
            "below threshold across the whole modulation cycle")

    period = 2.0 * math.pi / omega_signal
    t_relax = _singlet_cycle_time(config)
    transient = max(5.0 * period, 10.0 * t_relax)
    transient = math.ceil(transient / period - 1e-12) * period
    n_samples = _AC_PERIODS * _AC_SAMPLES_PER_PERIOD

    seed = max(ss_bias.n, DEFAULT_SEED_N)
    y0 = state_from_populations(ss_bias.aligned, seed)
    t_k = transient + np.arange(n_samples) * (
        _AC_PERIODS * period / n_samples)
    with _lsoda(config, y0, 0.0, signal, atol=_AC_ATOL,
                max_step=period / _AC_SAMPLES_PER_PERIOD) as solver:
        n_k = np.array([_advance(solver, t)[9] for t in t_k])
        work = {**_work(solver), "checkpoints": n_samples, "extensions": 0}
    if float(np.max(n_k)) <= 10.0 * _AC_ATOL:
        raise NoSignalError("no photon output during the sampled window")

    spectrum = np.fft.rfft(n_k)
    n_mean = float(spectrum[0].real) / n_samples
    c1 = 2.0 * spectrum[_AC_PERIODS] / n_samples
    n_signal = float(np.abs(c1))
    phase = float(np.angle(c1))
    harm_power = 0.0
    h = 2
    while h * _AC_PERIODS < n_samples // 2:
        harm_power += float(np.abs(2.0 * spectrum[h * _AC_PERIODS]
                                   / n_samples)) ** 2
        h += 1
    distortion = math.sqrt(harm_power) / n_signal if n_signal > 0.0 else 0.0
    return HarmonicResult(n_mean=n_mean, n_signal=n_signal, phase=phase,
                          distortion=distortion, omega_signal=omega_signal,
                          bias_field=bias_field,
                          amplitude_field=amplitude_field,
                          transient_time=transient, work=work)
