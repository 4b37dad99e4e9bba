"""Shot-noise-limited magnetic-field sensitivity.

The detected quantity is the photon output; the photon shot noise in a
one-second measurement corresponds to a field uncertainty

    eta_dc = sqrt(n / (N_centers * kappa)) / |dn/dB|      (T / sqrt(Hz))

for a static read-out, and for a sinusoidal test field of amplitude B_S
producing a demodulated photon amplitude n_S

    eta_ac = (B_S / n_S) * sqrt(n_mean * excess_noise / (N_centers * kappa))

where ``excess_noise`` accounts for technical noise above the shot
level in the demodulated band.

The slope dn/dB has two evaluators.  ``dc_sensitivity`` takes adaptive
central differences with Richardson extrapolation (method
``dc_finite_difference``).  Every field scan (the d.c. curve, both field
searches, the sweeps' ``dn_dB`` and ``eta_dc`` cells) solves its steady
states through the grid evaluator ``steady.solve_steady_states`` and
takes the implicit slope (``dc_implicit``): the net gain g(n, delta)
vanishes at a lasing root, so dn/d delta = -(dg/d delta) / (dg/dn),
with both partials taken from the steady state's own n = 0 solve in
place of a stencil of steady states.  The two agree to about 1e-11
relative; the finite differences are the oracle of the implicit slope.

Near the zero-crossing of the slope (the bottom of the symmetric output
dip) the sensitivity genuinely diverges; that is reported by an explicit
``diverged`` flag rather than a number pretending to be finite.  The
implicit slope is diverged only where it is exactly 0.0, as at B = 0.
The finite differences are diverged wherever the slope is below what
root-solver noise resolves, so close to a symmetry point (|B| below
about 1e-9 T on ``baseline``) they report diverged where the implicit
slope gives a large finite eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .configio import get_param, set_param
from .dynamics import ac_response
from .errors import (BelowThresholdError, ConvergenceError,
                     InvalidConfigError, PhysicsDomainError)
from .model import (AT_LEAST_ONE, FINITE, POSITIVE, ModelConfig,
                    _check_fields, _field, b_field_to_detuning,
                    with_bias_field)
from .steady import (SteadyStateResult, solve_steady_state,
                     solve_steady_states)

METHOD_DC = "dc_finite_difference"
METHOD_DC_IMPLICIT = "dc_implicit"
METHOD_AC_TIME = "ac_timedomain"
METHOD_AC_QUASISTATIC = "ac_quasistatic"

# Demodulated noise above the shot level (dimensionless power factor),
# representative of a lock-in read-out.
DEFAULT_EXCESS_NOISE = 2.43

_SLOPE_TARGET_REL = 1e-3
_MAX_HALVINGS = 40

# field searches: find_bias_point's coarse grid and zoom rounds, and
# best_eta_over_field's golden-section iterations
_BIAS_COARSE_POINTS = 41
_BIAS_REFINE_ROUNDS = 4
_GOLDEN_ITERS = 16
# best_eta_over_field's coarse grid
_ETA_GRID_POINTS = 25

# field window that optimize_sensitivity searches for the best bias (T)
DEFAULT_B_WINDOW = (0.0, 300e-6)


@dataclass(frozen=True)
class AcSignalModel:
    """Sinusoidal test-field specification for a.c. sensitivity."""

    bias_field: float = _field("T", FINITE)
    amplitude_field: float = _field("T", POSITIVE)
    omega_signal: float = _field("rad/s", POSITIVE)
    excess_noise: float = _field(None, AT_LEAST_ONE,
                                 default=DEFAULT_EXCESS_NOISE)

    __post_init__ = _check_fields


@dataclass(frozen=True)
class SensitivityResult:
    """Sensitivity at one operating point.

    ``eta`` is in T/sqrt(Hz); it is +inf when ``diverged`` is set (the
    slope vanished, e.g. at the bottom of the output dip; see the module
    docstring for how each d.c. method decides).  ``fd_step`` and
    ``fd_rel_error`` document the final finite-difference step and its
    Richardson error estimate for the finite-difference methods
    (``dc_finite_difference`` and ``ac_quasistatic``); implicit-slope
    results (``dc_implicit``) leave both None.  a.c. time-domain results
    carry the demodulated amplitude in ``n_signal`` instead.
    """

    eta: float
    b_field: float
    n: float
    slope_dn_db: float
    shot_factor: float
    method: str
    diverged: bool = False
    fd_step: float | None = None
    fd_rel_error: float | None = None
    n_signal: float | None = None
    omega_signal: float | None = None
    amplitude_field: float | None = None
    excess_noise: float | None = None


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of a sensitivity optimization over device parameters;
    ``varied`` holds the parameter registry paths that were tuned."""

    config: ModelConfig
    eta: float
    b_field: float
    start_eta: float
    evaluations: int
    converged: bool
    varied: tuple[str, ...]


@dataclass(frozen=True)
class RobustnessReport:
    """Sensitivity-curve deviations when the weak crossing L27 is enabled."""

    b_grid: np.ndarray
    ratios: tuple[float, ...]
    base_curve: tuple
    curves: dict
    max_rel_dev: dict
    median_rel_dev: dict
    common_points: dict


def _slope_dn_db(config: ModelConfig, b_field: float):
    """Adaptive central-difference slope with Richardson extrapolation.

    Starts at the step max(1e-3 |B|, 1e-9 T) and halves it until the
    two-point Richardson error estimate is below ``_SLOPE_TARGET_REL``;
    shrinks further if a stencil point falls below threshold (the slope
    at a point near the lasing edge must be one-sided in field but the
    stencil must stay on the lasing branch).
    Returns (slope, step, relative error); the error is None when the
    measured slope is too small to distinguish from root-solver noise.
    """
    h = max(1e-3 * abs(b_field), 1e-9)
    for _ in range(_MAX_HALVINGS):
        n_m2, n_m1, n_p1, n_p2 = (
            solve_steady_state(with_bias_field(config, b_field + s)).n
            for s in (-h, -0.5 * h, 0.5 * h, h))
        if min(n_m2, n_m1, n_p1, n_p2) <= 0.0 and h > 1e-15:
            # stencil straddles the lasing edge; tighten around the point
            h *= 0.5
            continue
        s_h = (n_p2 - n_m2) / (2.0 * h)
        s_h2 = (n_p1 - n_m1) / h
        err = abs(s_h2 - s_h) / 3.0
        slope = s_h2 + (s_h2 - s_h) / 3.0
        floor = 1e-10 * max(n_p2, n_m2, n_p1, n_m1) / h
        if abs(slope) <= 10.0 * floor:
            return slope, h, None
        if err <= _SLOPE_TARGET_REL * abs(slope):
            return slope, h, err / abs(slope)
        h *= 0.5
    raise ConvergenceError(
        "finite-difference slope did not stabilize",
        detail={"b_field": b_field, "last_step": h})


def _shot_factor(config: ModelConfig, n: float) -> float:
    return math.sqrt(n / (config.derived.n_centers * config.cavity.kappa))


def _ac_eta(config: ModelConfig, signal: AcSignalModel, n_signal: float,
            n_mean: float) -> float:
    return (signal.amplitude_field / n_signal) * math.sqrt(
        n_mean * signal.excess_noise
        / (config.derived.n_centers * config.cavity.kappa))


def _dc_result(config: ModelConfig, b_field: float, n: float, slope: float,
               method: str, diverged: bool, **fd) -> SensitivityResult:
    """d.c. result: eta = shot factor / |slope|, or +inf when diverged."""
    shot = _shot_factor(config, n)
    return SensitivityResult(
        eta=math.inf if diverged else shot / abs(slope), b_field=b_field,
        n=n, slope_dn_db=slope, shot_factor=shot, method=method,
        diverged=diverged, **fd)


def dc_sensitivity(config: ModelConfig, b_field: float) -> SensitivityResult:
    """Shot-noise d.c. sensitivity at a bias field, from the adaptive
    finite-difference slope (first step max(1e-3 |B|, 1e-9 T)).

    Raises BelowThresholdError when there is no output at the bias.  A
    vanishing slope (symmetry point of the output curve) is reported as a
    diverged result with eta = +inf and no ``fd_rel_error``.
    """
    ss = solve_steady_state(with_bias_field(config, b_field))
    if ss.n <= 0.0:
        raise BelowThresholdError(
            f"no optical output at B = {b_field:.6e} T")
    slope, step, rel_err = _slope_dn_db(config, b_field)
    return _dc_result(config, b_field, ss.n, slope, METHOD_DC,
                      rel_err is None, fd_step=step, fd_rel_error=rel_err)


def _dc_at_state(point: ModelConfig, ss: SteadyStateResult, b_field: float
                 ) -> SensitivityResult | None:
    """Implicit-slope d.c. sensitivity at an already solved steady state
    ``ss`` of ``point``, or None where it is dark or its gain does not
    fall with n (dg/dn < 0 at every true lasing root).

    dn/dB = -(dg/d delta) / (dg/dn) / (field per detuning) from
    ``ss.gain_partials``.  The slope is exactly 0.0 at a symmetry point,
    which is then reported as diverged.
    """
    if ss.gain_partials is None or not ss.gain_partials[0] < 0.0:
        return None
    dg_dn, dg_dd = ss.gain_partials
    slope = -dg_dd / dg_dn / point.constants.field_per_detuning
    return _dc_result(point, b_field, ss.n, slope, METHOD_DC_IMPLICIT,
                      slope == 0.0)


def _field_grid(b_grid) -> np.ndarray:
    """``b_grid`` as a one-dimensional float array; raises
    InvalidConfigError for anything else (a scalar, a nested or ragged
    grid, a value that is not a number)."""
    try:
        grid = np.asarray(b_grid, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"b_grid is not a grid of fields: {exc}"
                                 ) from exc
    if grid.ndim != 1:
        raise InvalidConfigError("b_grid must be a one-dimensional sequence "
                                 f"of fields, got shape {grid.shape}")
    return grid


def dc_sensitivity_curve(config: ModelConfig, b_grid
                         ) -> list[SensitivityResult | None]:
    """Implicit-slope d.c. sensitivity (``dc_implicit``) over a field
    grid, whose steady states come from ``steady.solve_steady_states``.

    Points that are below threshold or whose solve does not converge are
    reported as None (absent), never as zero sensitivity; diverged points
    keep their flag.  This is the one rule of every field scan.  Raises
    InvalidConfigError unless ``b_grid`` is a one-dimensional sequence of
    fields.
    """
    b_grid = _field_grid(b_grid).tolist()
    points = ((config, replace(config.drive, delta=b_field_to_detuning(
        b, config.constants))) for b in b_grid)
    return [None if ss is None else _dc_at_state(config, ss, b)
            for b, ss in zip(b_grid, solve_steady_states(points))]


def ac_sensitivity(config: ModelConfig, signal: AcSignalModel, *,
                   method: str = METHOD_AC_TIME) -> SensitivityResult:
    """Sensitivity to a small sinusoidal field at a bias point.

    ``ac_timedomain`` integrates the driven system and demodulates the
    photon output; ``ac_quasistatic`` replaces the demodulated amplitude
    by |dn/dB| * B_S, valid when the signal period is long compared with
    the laser response time.
    """
    if method == METHOD_AC_QUASISTATIC:
        base = replace(dc_sensitivity(config, signal.bias_field),
                       method=METHOD_AC_QUASISTATIC,
                       amplitude_field=signal.amplitude_field,
                       omega_signal=signal.omega_signal,
                       excess_noise=signal.excess_noise)
        if base.diverged:
            return base
        n_signal = abs(base.slope_dn_db) * signal.amplitude_field
        return replace(base, eta=_ac_eta(config, signal, n_signal, base.n),
                       n_signal=n_signal)
    if method != METHOD_AC_TIME:
        raise InvalidConfigError(
            f"unknown a.c. method {method!r}; expected "
            f"{METHOD_AC_TIME!r} or {METHOD_AC_QUASISTATIC!r}")
    hr = ac_response(config, signal.bias_field, signal.amplitude_field,
                     signal.omega_signal)
    return sensitivity_from_harmonic(config, signal, hr)


def sensitivity_from_harmonic(config: ModelConfig, signal: AcSignalModel,
                              harmonic) -> SensitivityResult:
    """Sensitivity from an already-demodulated response (a HarmonicResult)."""
    if harmonic.n_signal <= 0.0:
        raise PhysicsDomainError("demodulated amplitude is zero")
    return SensitivityResult(
        eta=_ac_eta(config, signal, harmonic.n_signal, harmonic.n_mean),
        b_field=signal.bias_field, n=harmonic.n_mean,
        slope_dn_db=harmonic.n_signal / signal.amplitude_field,
        shot_factor=_shot_factor(config, harmonic.n_mean),
        method=METHOD_AC_TIME, diverged=False, n_signal=harmonic.n_signal,
        omega_signal=signal.omega_signal,
        amplitude_field=signal.amplitude_field,
        excess_noise=signal.excess_noise)


def _check_window(b_min: float, b_max: float) -> None:
    """The field window of both searches: finite, with b_max > b_min."""
    if not -math.inf < b_min < b_max < math.inf:
        raise InvalidConfigError(
            f"need b_max > b_min, both finite, got [{b_min!r}, {b_max!r}]")


def find_bias_point(config: ModelConfig, b_min: float,
                    b_max: float) -> SensitivityResult:
    """Bias field maximizing |dn/dB| inside [b_min, b_max], and
    ``dc_sensitivity`` there.

    Searches a coarse grid of implicit slopes, then repeatedly zooms
    around the best point; each zoom is clipped to the window, so the
    result never leaves it.  The output-vs-field curve is symmetric in B,
    so two mirror maximizers can exist; exact ties are broken toward
    positive field.  Raises InvalidConfigError unless the window is
    finite with b_max > b_min.
    """
    _check_window(b_min, b_max)
    lo, hi = float(b_min), float(b_max)
    points = _BIAS_COARSE_POINTS
    for _ in range(_BIAS_REFINE_ROUNDS):
        results = dc_sensitivity_curve(config, np.linspace(lo, hi, points))
        scored = [(abs(r.slope_dn_db), r.b_field)
                  for r in results if r is not None]
        if not scored:
            raise BelowThresholdError(
                "no lasing output anywhere in the search window")
        top = max(sb[0] for sb in scored)
        if top == 0.0:
            raise PhysicsDomainError(
                "output does not vary with field anywhere in the window")
        # mirror maximizers differ only by grid roundoff; treat slopes
        # within a hair of the top as tied and settle toward positive B
        tied = [sb for sb in scored if sb[0] >= top * (1.0 - 1e-9)]
        best = max(tied, key=lambda sb: (sb[1] > 0.0, sb[1]))
        width = (hi - lo) / (points - 1)
        lo = max(best[1] - width, float(b_min))
        hi = min(best[1] + width, float(b_max))
        points = 21
    return dc_sensitivity(config, best[1])


def best_eta_over_field(config: ModelConfig, b_min: float,
                        b_max: float) -> tuple[float, float]:
    """Smallest finite d.c. sensitivity over a field window.

    Returns (eta, b), with eta from ``dc_sensitivity`` at b.  Coarse
    grid scan of the implicit-slope sensitivity followed by golden-section
    refinement between the neighbours of the best grid point.  Raises
    InvalidConfigError unless the window is finite with b_max > b_min,
    and BelowThresholdError when nothing in the window lases.
    """
    _check_window(b_min, b_max)

    def etas_at(grid):
        return [math.inf if res is None else res.eta
                for res in dc_sensitivity_curve(config, grid)]

    def eta_at(b):
        return etas_at([b])[0]

    grid = np.linspace(b_min, b_max, _ETA_GRID_POINTS)
    etas = np.asarray(etas_at(grid))
    if not np.any(np.isfinite(etas)):
        raise BelowThresholdError(
            "no finite sensitivity anywhere in the field window")
    k = int(np.argmin(etas))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, _ETA_GRID_POINTS - 1)]

    # golden-section shrink on the bracket
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    dpt = a + invphi * (b - a)
    fc, fd = eta_at(c), eta_at(dpt)
    for _ in range(_GOLDEN_ITERS):
        if fc <= fd:
            b, dpt, fd = dpt, c, fc
            c = b - invphi * (b - a)
            fc = eta_at(c)
        else:
            a, c, fc = c, dpt, fd
            dpt = a + invphi * (b - a)
            fd = eta_at(dpt)
    candidates = [(fc, c), (fd, dpt), (float(etas[k]), float(grid[k]))]
    b_best = min(candidates, key=lambda eb: eb[0])[1]
    return dc_sensitivity(config, b_best).eta, b_best


def optimize_sensitivity(config: ModelConfig, *,
                         vary: tuple[str, ...] = ("cavity.kappa", "pump",
                                                  "drive.omega"),
                         bounds_decades: float = 1.0,
                         b_window: tuple[float, float] = DEFAULT_B_WINDOW,
                         max_evaluations: int = 200) -> OptimizationOutcome:
    """Minimize the best-over-field d.c. sensitivity over device knobs.

    ``vary`` names parameter registry paths (see ``configio``), each of
    which must start at a number > 0; the bias (``b_field``,
    ``drive.delta``) belongs to the field search and cannot be varied.
    Works in log10 parameter space with box bounds of ``bounds_decades``
    around the starting values, using Nelder-Mead (derivative-free; the
    objective has kinks where the lasing window changes).  Out-of-bounds
    proposals are clipped and penalized.  The search is deterministic and
    the returned point is never worse than the start.
    """
    if not vary:
        raise InvalidConfigError("optimize needs at least one knob to vary")
    for path in vary:
        value = get_param(config, path)
        if path in ("b_field", "drive.delta") or not (
                isinstance(value, (int, float)) and value > 0.0):
            raise InvalidConfigError(
                f"cannot vary {path}: a knob starts at a number > 0 on a "
                "log scale, and the field search sets the bias")
    from scipy.optimize import minimize

    def apply(logs):
        cfg = config
        for path, value in zip(vary, 10.0 ** logs):
            cfg = set_param(cfg, path, value)
        return cfg

    start = np.array([math.log10(get_param(config, p)) for p in vary])
    lo = start - bounds_decades
    hi = start + bounds_decades
    start_eta, start_b = best_eta_over_field(config, *b_window)

    state = {"best_eta": start_eta, "best_logs": start.copy(),
             "best_b": start_b, "evals": 0}

    def objective(logs):
        state["evals"] += 1
        clipped = np.clip(logs, lo, hi)
        penalty = float(np.sum((logs - clipped) ** 2))
        try:
            eta, b_at = best_eta_over_field(apply(clipped), *b_window)
        except (PhysicsDomainError, ConvergenceError):
            return 1.0 + penalty
        if eta < state["best_eta"]:
            state["best_eta"] = eta
            state["best_logs"] = clipped.copy()
            state["best_b"] = b_at
        # work on a log scale so the simplex sees O(1) variations
        return math.log10(eta) + penalty

    res = minimize(objective, start, method="Nelder-Mead",
                   options={"maxfev": max_evaluations, "xatol": 1e-3,
                            "fatol": 1e-4, "disp": False})
    return OptimizationOutcome(
        config=apply(state["best_logs"]), eta=state["best_eta"],
        b_field=state["best_b"], start_eta=start_eta,
        evaluations=state["evals"], converged=bool(res.success),
        varied=tuple(vary))


def l27_robustness(config: ModelConfig,
                   ratios: tuple[float, ...] = (0.01, 0.1),
                   b_grid=None) -> RobustnessReport:
    """Effect of the weak excited-state crossing on the sensitivity curve.

    For each ratio r the rate L27 is set to r * L57 and the d.c.
    sensitivity curve recomputed on ``b_grid`` (default: +-300 uT).  The
    deviation for a ratio is measured against the L27 = 0 curve on the
    points where both are finite.  Ratio 0 reproduces the base curve
    identically.  ``max_rel_dev`` is +inf for a ratio with no common
    lasing points left.  Raises InvalidConfigError unless ``b_grid`` is
    a one-dimensional sequence of fields.
    """
    if b_grid is None:
        b_grid = np.linspace(-300e-6, 300e-6, 61)
    b_grid = _field_grid(b_grid)

    def curve_for(ratio):
        cfg = set_param(config, "rates.L27", ratio * config.rates.L57)
        return dc_sensitivity_curve(cfg, b_grid)

    base = curve_for(0.0)
    curves, max_dev, med_dev, common = {}, {}, {}, {}
    for ratio in ratios:
        curves[ratio] = cur = curve_for(ratio)
        devs = [abs(rv.eta - rb.eta) / rb.eta for rb, rv in zip(base, cur)
                if not (rb is None or rv is None
                        or rb.diverged or rv.diverged)]
        common[ratio] = len(devs)
        max_dev[ratio] = float(max(devs)) if devs else math.inf
        med_dev[ratio] = float(np.median(devs)) if devs else math.inf
    return RobustnessReport(b_grid=b_grid, ratios=tuple(ratios),
                            base_curve=tuple(base), curves=curves,
                            max_rel_dev=max_dev, median_rel_dev=med_dev,
                            common_points=common)
