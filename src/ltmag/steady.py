"""Steady-state solvers.

The level occupations and the ground-spin coherence obey a linear system
at fixed photon number n, because n only enters through the stimulated
rates G*n.  The full steady state is therefore found in two stages:

1. ``populations_at_fixed_n`` solves the 9x9 linear system (seven
   occupations plus Re/Im of the ground coherence) with the trace
   constraint replacing one redundant rate equation;
2. ``solve_steady_state`` finds the photon number at which the net gain
   crosses zero.  The stimulated exchange 2<->3 and 5<->6 is a rank-2
   term, M(n) = M0 - s W W^T with s = G*n and W = [e2 - e3, e5 - e6], so
   one factorization of the n = 0 matrix against the trace vector and
   the two columns of W gives z0 = W^T M0^-1 e1 and C = W^T M0^-1 W.  By
   the Sherman-Morrison-Woodbury identity each sub-ensemble's inversion
   is then 1^T (I - s C)^-1 z0 = (a + b s) / (1 - tr(C) s + det(C) s^2),
   and the root of the weighted sum of these ratios minus kappa is
   bracketed and refined on that cheap rational function by
   ``_brent_root``, a line-for-line port of scipy's ``brentq`` (Brent's
   method; R. P. Brent, *Algorithms for Minimization without
   Derivatives*, 1973, ch. 4).  Net gain decreases monotonically with n
   (stimulated emission burns the inversion), so a bracketed scalar root
   is enough.  The port performs scipy's floating-point operations in
   scipy's order, so every root is bit-identical to ``brentq``'s while
   the steady-state path loads no scipy module.  The time domain does
   not depend on those last bits: ``dynamics.step_response`` starts
   from the lasing n in one continuous LSODA run, which returns the
   same crossing times from a root an ulp or two off.

If the zero-photon gain is not positive there is no lasing solution and
the n = 0 branch is returned, reusing the populations of that decision.
Right at threshold (0 < g0 <= 1e-8 * kappa) the root is set by the
rounding of kappa rather than by the model, so there the same bracket
runs on the direct gain of full fixed-n solves instead.  On every call
the populations are re-solved directly at the root: they pass the
fixed-n residual check and the occupation bounds, and their net gain
must lie within 1e-8 * kappa of zero, which checks the closed form
independently of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConvergenceError, DegenerateConfigError, NotLasableError)
from .model import ModelConfig, with_drive, with_pump

BELOW_THRESHOLD = "below_threshold"
LASING = "lasing"

# Relative tolerances of the two solve stages.  The linear stage is
# checked against the largest rate in the system; the root stage is
# checked against the cavity loss.
_LINEAR_RESIDUAL_RTOL = 1e-10
_GAIN_RESIDUAL_RTOL = 1e-8
_N_ROOT_RTOL = 1e-12
_BRACKET_CAP = 1e12


@dataclass(frozen=True)
class PopulationState:
    """Occupations of the seven levels plus the ground-spin coherence.

    Occupations must lie in [0, 1] and the coherence magnitude below 1/2,
    up to solver tolerance.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho55: float
    rho66: float
    rho77: float
    rho14_re: float
    rho14_im: float

    _BOUND_SLACK = 1e-7

    def __post_init__(self):
        occ = (self.rho11, self.rho22, self.rho33, self.rho44,
               self.rho55, self.rho66, self.rho77)
        s = self._BOUND_SLACK
        if min(occ) < -s or max(occ) > 1.0 + s:
            raise ConvergenceError(
                "occupation outside [0, 1]", detail={"occupations": occ})
        if self.rho14_re ** 2 + self.rho14_im ** 2 > 0.25 + s:
            raise ConvergenceError(
                "ground coherence magnitude above 1/2",
                detail={"rho14_re": self.rho14_re,
                        "rho14_im": self.rho14_im})

    def trace(self) -> float:
        return (self.rho11 + self.rho22 + self.rho33 + self.rho44
                + self.rho55 + self.rho66 + self.rho77)

    def coherence_mag(self) -> float:
        return float(np.hypot(self.rho14_re, self.rho14_im))

    def as_array(self) -> np.ndarray:
        return np.array([self.rho11, self.rho22, self.rho33, self.rho44,
                         self.rho55, self.rho66, self.rho77,
                         self.rho14_re, self.rho14_im])

    @classmethod
    def from_array(cls, v) -> "PopulationState":
        v = np.asarray(v, dtype=float)
        if v.shape != (9,):
            raise ValueError(f"expected 9 components, got shape {v.shape}")
        return cls(*v.tolist())


# Column names of a population state, in the state-vector order.
POPULATION_NAMES = tuple(f.name for f in fields(PopulationState))


@dataclass(frozen=True)
class SteadyStateResult:
    """Self-consistent operating point of the full system.

    ``populations`` holds one entry per sub-ensemble (a single entry in
    single_orientation mode) with matching ``weights`` and ``detunings``.
    ``branch`` is ``"below_threshold"`` exactly when ``n == 0``.
    ``residual`` is the largest occupation/coherence rate at the solution
    relative to the largest rate constant in the system.
    """

    n: float
    branch: str
    net_gain: float
    residual: float
    populations: tuple[PopulationState, ...]
    weights: tuple[float, ...]
    detunings: tuple[float, ...]

    @property
    def aligned(self) -> PopulationState:
        return self.populations[0]


def rate_matrix(config: ModelConfig, n: float, delta: float) -> np.ndarray:
    """Generator A of the linear part: d/dt v = A v.

    v = [rho11, rho22, rho33, rho44, rho55, rho66, rho77,
         Re rho14, Im rho14].  The occupation block conserves the trace
    by construction (every loss term reappears as a gain elsewhere), and
    the coherence rows do not feed back into the trace.
    """
    r = config.rates
    d = config.drive
    gn = config.derived.gain_coupling * n
    gamma = r.gamma14 + 0.5 * (d.pump12 + d.pump45)
    a = np.zeros((9, 9))
    # rho11: pumped out, refilled by decays and the singlet, driven by Im rho14
    a[0, 0] = -d.pump12
    a[0, 1] = r.L21
    a[0, 2] = r.L31
    a[0, 6] = r.L71
    a[0, 8] = -2.0 * d.omega
    # rho22: pump in, decays out, stimulated exchange with rho33
    a[1, 0] = d.pump12
    a[1, 1] = -(r.L21 + r.L23 + r.L27) - gn
    a[1, 2] = gn
    # rho33
    a[2, 1] = r.L23 + gn
    a[2, 2] = -r.L31 - gn
    # rho44
    a[3, 3] = -d.pump45
    a[3, 4] = r.L54
    a[3, 5] = r.L64
    a[3, 6] = r.L74
    a[3, 8] = 2.0 * d.omega
    # rho55
    a[4, 3] = d.pump45
    a[4, 4] = -(r.L54 + r.L56 + r.L57) - gn
    a[4, 5] = gn
    # rho66
    a[5, 4] = r.L56 + gn
    a[5, 5] = -r.L64 - gn
    # rho77: fed by both intersystem crossings
    a[6, 1] = r.L27
    a[6, 4] = r.L57
    a[6, 6] = -(r.L71 + r.L74)
    # Re rho14
    a[7, 7] = -gamma
    a[7, 8] = -delta
    # Im rho14: driven by the ground-state population difference
    a[8, 0] = d.omega
    a[8, 3] = -d.omega
    a[8, 7] = delta
    a[8, 8] = -gamma
    return a


def _max_rate(config: ModelConfig, n: float) -> float:
    r = config.rates
    d = config.drive
    rates = [r.L21, r.L23, r.L31, r.L54, r.L56, r.L64, r.L57, r.L71,
             r.L74, r.L27, r.gamma14, d.pump12, d.pump45, d.omega,
             abs(d.delta), config.cavity.kappa,
             config.derived.gain_coupling * n]
    return max(rates)


def _solve_linear(a: np.ndarray, rhs: np.ndarray | None = None
                  ) -> np.ndarray:
    """Solve M v = rhs, where M is A with the first row replaced by the
    trace constraint; ``rhs`` is (9,) or (9, k).  The default solves
    A v = 0 with unit trace.  One step of iterative refinement keeps the
    residual near machine precision; rank-deficient systems (pump-free
    configurations) fall back to the least-squares minimum-norm solution.
    """
    if rhs is None:
        rhs = np.zeros(9)
        rhs[0] = 1.0
    m = a.copy()
    m[0, :] = 0.0
    m[0, :7] = 1.0
    try:
        v = np.linalg.solve(m, rhs)
        resid = rhs - m @ v
        v = v + np.linalg.solve(m, resid)
        if not np.all(np.isfinite(v)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        v = np.linalg.lstsq(m, rhs, rcond=None)[0]
    return v


def populations_at_fixed_n(config: ModelConfig, n: float,
                           delta: float | None = None) -> PopulationState:
    """Steady occupations of one sub-ensemble at frozen photon number.

    ``delta`` defaults to the configured drive detuning.  Raises
    DegenerateConfigError when every transition rate, pump, and drive is
    zero (the occupation split is then undetermined), and
    ConvergenceError when the linear solve fails its residual check.
    """
    if n < 0.0:
        raise ValueError(f"photon number must be >= 0, got {n!r}")
    if config.rates.all_zero() and config.drive.pump12 == 0.0 \
            and config.drive.pump45 == 0.0 and config.drive.omega == 0.0:
        raise DegenerateConfigError(
            "all transition rates and drives are zero; occupations are "
            "undetermined")
    if delta is None:
        delta = config.drive.delta
    a = rate_matrix(config, n, delta)
    v = _solve_linear(a)
    scale = _max_rate(config, n)
    residual = float(np.max(np.abs(a @ v))) / scale
    if residual > _LINEAR_RESIDUAL_RTOL:
        raise ConvergenceError(
            "fixed-n linear solve residual above tolerance",
            detail={"residual": residual, "n": n, "delta": delta})
    return PopulationState(*v.tolist())


def _ensembles(config: ModelConfig) -> tuple[tuple[float, float], ...]:
    """(weight, detuning) for each sub-ensemble."""
    ori = config.orientation
    delta = config.drive.delta
    if ori.mode == "single_orientation":
        return ((1.0, delta),)
    return ((ori.aligned_fraction, delta),
            (1.0 - ori.aligned_fraction, ori.off_axis_detuning))


def _gain_of_state(state: PopulationState, gain_coupling: float) -> float:
    return gain_coupling * ((state.rho22 - state.rho33)
                            + (state.rho55 - state.rho66))


def _ensemble_states(config: ModelConfig, n: float
                     ) -> tuple[tuple[PopulationState, ...], float]:
    """Direct fixed-n populations of every sub-ensemble and the net gain."""
    g = config.derived.gain_coupling
    states = []
    total = 0.0
    for weight, delta in _ensembles(config):
        state = populations_at_fixed_n(config, n, delta=delta)
        states.append(state)
        total += weight * _gain_of_state(state, g)
    return tuple(states), total - config.cavity.kappa


def net_gain(config: ModelConfig, n: float) -> float:
    """Photon growth rate d(ln n)/dt at frozen photon number (rad/s).

    Weighted over sub-ensembles in four_orientation mode, minus the
    cavity loss.
    """
    return _ensemble_states(config, n)[1]


def _closed_form_gain(config: ModelConfig):
    """Net gain as a function of n from one n = 0 factorization per
    sub-ensemble (see the module docstring)."""
    g = config.derived.gain_coupling
    # Right-hand sides: the trace vector and the columns of W (the
    # stimulated exchange 2<->3 and 5<->6 enters as -G*n * W W^T).
    rhs = np.zeros((9, 3))
    rhs[0, 0] = 1.0
    rhs[[1, 4], [1, 2]] = 1.0
    rhs[[2, 5], [1, 2]] = -1.0
    terms = []
    for weight, delta in _ensembles(config):
        x = _solve_linear(rate_matrix(config, 0.0, delta), rhs)
        # rows: W^T applied to M0^-1 [e1, W]
        w = x[[1, 4]] - x[[2, 5]]
        (z0, c00, c01), (z1, c10, c11) = w.tolist()
        terms.append((weight * g, z0 + z1,
                      (c10 - c11) * z0 + (c01 - c00) * z1,
                      -(c00 + c11), c00 * c11 - c01 * c10))
    kappa = config.cavity.kappa

    def gain(n):
        s = g * n
        total = 0.0
        for wg, a, b, p, q in terms:
            total += wg * (a + b * s) / (1.0 + s * (p + q * s))
        return total - kappa

    return gain


def _root_error(message: str, iterations: int, bracket, x: float,
                fx: float) -> ConvergenceError:
    return ConvergenceError(message, detail={
        "iterations": iterations, "bracket": tuple(sorted(bracket)),
        "x": x, "f": fx})


def _brent_root(f, a: float, b: float, *, rtol: float, xtol: float,
                maxiter: int) -> float:
    """Root of ``f`` in [a, b] by Brent's method.

    A line-for-line port of scipy's ``brentq`` (``brentq.c``): the same
    floating-point operations in the same order, with C's ``signbit``
    mirrored by ``math.copysign``, so the root is bit-identical to
    scipy's (see the module docstring for why that matters).  Returns an
    endpoint at which f is exactly zero.  Raises ConvergenceError, with
    ``iterations``, ``bracket``, ``x`` and ``f`` in its detail, when f
    returns NaN, when f(a) and f(b) share a sign, or when ``maxiter``
    iterations end unconverged.  ``bracket`` is [a, b] before the first
    iteration and afterwards the interval that held the root before ``x``
    was evaluated.
    """
    copysign = math.copysign
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    if fpre != fpre:
        raise _root_error("root function returned NaN", 0, (a, b), xpre,
                          fpre)
    fcur = float(f(xcur))
    if fcur != fcur:
        raise _root_error("root function returned NaN", 0, (a, b), xcur,
                          fcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise _root_error("root function has the same sign at both ends",
                          0, (a, b), xcur, fcur)
    for iterations in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 \
                and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # a product of small slopes can underflow to 0; C then
                # gives inf or nan, and either fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _root_error("root function returned NaN", iterations,
                              (xpre, xblk), xcur, fcur)
    raise _root_error(f"root not converged after {maxiter} iterations",
                      maxiter, (xpre, xblk), xcur, fcur)


def _gain_root(gain) -> float:
    """Photon number where ``gain`` (positive at n = 0, decreasing)
    crosses zero: geometric bracket from 1e-6, then ``_brent_root`` to
    relative precision 1e-12, bit-identical to ``brentq``'s with the
    same arguments."""
    hi = 1e-6
    g_hi = gain(hi)
    while g_hi > 0.0:
        hi *= 4.0
        if hi > _BRACKET_CAP:
            raise ConvergenceError(
                "gain stayed positive up to the photon-number cap",
                detail={"last_bracket": (hi / 4.0, hi), "gain_at_cap": g_hi})
        g_hi = gain(hi)
    return _brent_root(gain, 0.0, hi, rtol=_N_ROOT_RTOL, xtol=1e-300,
                       maxiter=200)


def _steady_result(config: ModelConfig, n: float, branch: str,
                   states: tuple[PopulationState, ...],
                   gain: float) -> SteadyStateResult:
    if branch == LASING \
            and abs(gain) > _GAIN_RESIDUAL_RTOL * config.cavity.kappa:
        raise ConvergenceError(
            "gain residual at the photon-number root above tolerance",
            detail={"n": n, "gain_residual": gain})
    weights, deltas = zip(*_ensembles(config))
    residual = 0.0
    for state, delta in zip(states, deltas):
        a = rate_matrix(config, n, delta)
        r = float(np.max(np.abs(a @ state.as_array())))
        residual = max(residual, r / _max_rate(config, n))
    return SteadyStateResult(n=n, branch=branch, net_gain=gain,
                             residual=residual, populations=states,
                             weights=weights, detunings=deltas)


def _gain_partials(config: ModelConfig, result: SteadyStateResult
                   ) -> tuple[float, float]:
    """(dg/dn, dg/d delta) of the net gain at a lasing root, where delta
    is the drive detuning; the off-axis detuning does not follow it.

    Differentiating M v = e1 keeps the trace row, so M dv = -(dM) v with
    dM/dn = -G W W^T (see the module docstring) and dM/d delta nonzero
    only in the coherence rows.  One two-column solve per sub-ensemble
    on the matrix at the root gives both derivatives of v, and G W^T of
    them the partials (implicit differentiation at a root: Griewank &
    Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 15).
    Raises ConvergenceError when dg/dn is not negative, which a lasing
    root of a gain decreasing in n rules out.
    """
    g = config.derived.gain_coupling
    dg_dn = dg_dd = 0.0
    for k, (state, weight, delta) in enumerate(zip(
            result.populations, result.weights, result.detunings)):
        rhs = np.zeros((9, 2))
        rhs[1, 0] = g * (state.rho22 - state.rho33)
        rhs[2, 0] = -rhs[1, 0]
        rhs[4, 0] = g * (state.rho55 - state.rho66)
        rhs[5, 0] = -rhs[4, 0]
        if k == 0:
            rhs[7, 1] = state.rho14_im
            rhs[8, 1] = -state.rho14_re
        x = _solve_linear(rate_matrix(config, result.n, delta), rhs)
        dn, dd = ((x[1] - x[2]) + (x[4] - x[5])).tolist()
        dg_dn += weight * g * dn
        dg_dd += weight * g * dd
    if not dg_dn < 0.0:
        raise ConvergenceError(
            "net gain does not decrease with n at the root",
            detail={"n": result.n, "dg_dn": dg_dn})
    return dg_dn, dg_dd


def solve_steady_state(config: ModelConfig) -> SteadyStateResult:
    """Self-consistent photon number and populations.

    Zero-photon net gain <= 0 selects the dark branch (exactly zero gain
    included, so marginal configurations report below_threshold).  Above
    threshold, the bracket [0, n_hi] is expanded geometrically and the
    root of the closed-form gain located to relative precision 1e-12 in
    n (on the direct gain when g0 <= 1e-8 * kappa); the direct gain at
    the root must be below 1e-8 * kappa.
    """
    states, g0 = _ensemble_states(config, 0.0)
    if g0 <= 0.0:
        return _steady_result(config, 0.0, BELOW_THRESHOLD, states, g0)
    if g0 <= _GAIN_RESIDUAL_RTOL * config.cavity.kappa:
        n_root = _gain_root(lambda n: net_gain(config, n))
    else:
        n_root = _gain_root(_closed_form_gain(config))
    states, gain = _ensemble_states(config, n_root)
    return _steady_result(config, n_root, LASING, states, gain)


def threshold_pump(config: ModelConfig, delta: float | None = None) -> float:
    """Pump rate at which zero-photon net gain crosses zero (rad/s).

    Both branch pumps are varied together.  Gain must increase
    monotonically along the bracket; a non-monotone profile aborts rather
    than returning an arbitrary crossing.  Raises NotLasableError when no
    pump below ``_BRACKET_CAP`` (1e12 rad/s) reaches threshold.
    """
    if delta is not None:
        config = with_drive(config, delta=delta)

    def g(pump):
        cfg = with_pump(config, pump)
        return net_gain(cfg, 0.0)

    g_lo = g(0.0)
    if g_lo > 0.0:
        raise ConvergenceError(
            "gain positive at zero pump; the model should not lase unpumped",
            detail={"gain_at_zero_pump": g_lo})
    hi = 1e5
    g_hi = g(hi)
    while g_hi <= 0.0:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise NotLasableError(
                f"no lasing threshold below pump {_BRACKET_CAP:.3e} rad/s",
                pump_ceiling=_BRACKET_CAP)
        g_hi = g(hi)
    lo = 0.0
    # Sanity-check monotonicity on the bracket before trusting the root.
    samples = [g(lo + frac * (hi - lo)) for frac in (0.25, 0.5, 0.75)]
    seq = [g_lo, *samples, g_hi]
    slack = 1e-12 * config.cavity.kappa
    if any(b < a - slack for a, b in zip(seq, seq[1:])):
        raise ConvergenceError(
            "zero-photon gain is not monotone in the pump on the bracket",
            detail={"bracket": (lo, hi), "gain_samples": seq})
    return _brent_root(g, lo, hi, rtol=1e-12, xtol=1e-300, maxiter=200)


def find_operating_point(config: ModelConfig,
                         omega: float | None = None) -> float:
    """Threshold pump at zero detuning for the given Rabi rate (rad/s).

    This is the pump setting that parks the resonant (zero-field) system
    exactly at threshold, so any detuning pushes it into lasing.  With
    omega = 0 the microwave drive decouples and the result reduces to
    the plain optical threshold.
    """
    if omega is not None:
        config = with_drive(config, omega=omega)
    return threshold_pump(config, delta=0.0)
