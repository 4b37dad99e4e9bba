"""Steady-state solvers.

The level occupations and the ground-spin coherence obey a linear system
at fixed photon number n, because n only enters through the stimulated
rates G*n.  ``_fixed_n`` solves the 9x9 system of one sub-ensemble
(seven occupations plus Re/Im of the ground coherence, the trace
constraint replacing one redundant rate equation) and checks its
residual.  The stimulated exchange 2<->3 and 5<->6 is a rank-2 term,
M(n) = M0 - s W W^T with s = G*n and W = [e2 - e3, e5 - e6], so
``solve_steady_state`` needs one solve per sub-ensemble, at n = 0:
X = M0^-1 [e1, W, E], E = [e8, e9] the coherence rows, gives
z0 = W^T X e1 and C = W^T X W.  By the Sherman-Morrison-Woodbury
identity (W. W. Hager, *SIAM Review* 31, 221, 1989), with
y = (I - s C)^-1 z0:

- the inversion is 1^T y = (a + b s) / (1 - tr(C) s + det(C) s^2);
- the populations are v = X e1 + s (X W) y;
- dM/dn = -G W W^T gives dg/dn = G^2 1^T C (I - s C)^-1 W^T v, and
  dM/d delta, nonzero only in the coherence rows, gives
  dg/d delta = G 1^T (I - s C)^-1 W^T X E u, u = (Im rho14, -Re rho14),
  for the aligned sub-ensemble only (implicit differentiation at a
  root: Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008).

The detuning is a second rank-2 term: M0(delta) = M0(0) + delta E J E^T,
J = [[0, -1], [1, 0]] rotating (Re, Im) rho14.  ``_device`` keeps
X0 = M0(0)^-1 [e1, W, E], one ``_solve_linear`` of
``rate_matrix(c, 0, 0)``, in a bounded ``functools.lru_cache`` keyed by
the fields that matrix reads (level rates, pumps, Rabi rate), with
read-only arrays.  With Y = X0 E and K = I + delta J E^T Y, the same
identity gives X(delta) = X0 - delta Y K^-1 J E^T X0: a 2x2 solve on
floats (``_zero_n_solution``), exact at delta = 0, with a direct solve
where K is singular.  Every detuning of a device, and both
sub-ensembles of four_orientation, share one factorization.

A zero-photon gain g0 <= 0 gives the dark branch.  Otherwise, with
p = -tr(C) and q = det(C), n solves A s^2 + B s + c = 0, A = kappa q,
B = kappa p - G b, c = kappa - G a.  ``_photon_root`` takes the root in
the sign-safe form q' = -(B + sgn(B) sqrt(B^2 - 4 A c)) / 2,
s = c / q' or q' / A (Press et al., *Numerical Recipes*, 3rd ed., 5.6),
which never subtracts nearly equal numbers; with A > 0 and c < 0 it is
the one positive root, and the single-orientation n.  A four_orientation
gain, a weighted sum of two such ratios, is no quadratic; its root, and
one the quadratic does not give in (0, 2.5e11), is bracketed and refined
on the rational gain by ``_brent_root``, a line-for-line port of scipy's
``brentq`` (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4): net gain falls monotonically with n, and the
port's roots are bit-identical to ``brentq``'s while the steady path
loads no scipy module.  The two roots agree to Brent's 1e-12 tolerance.
Right at threshold (g0 <= 1e-8 * kappa) the root is set by the rounding
of kappa, so the bracket runs on the direct gain of full fixed-n solves
instead; ``threshold_pump`` brackets the n = 0 gain in the pump.  The
populations at n = 0 and at the root pass the fixed-n residual check
against the rate matrix there (built from the cached A(0, 0) to the
last bit of ``rate_matrix``) and the occupation bounds, and the net gain
at the root must lie within 1e-8 * kappa of zero, which checks the
closed form independently.

``_steady_states`` does the same for a chunk of grid points: one stacked
``np.linalg.solve`` of their distinct devices, with the same refinement
step, then the single solve's functions on arrays of points, so each
result it certifies equals ``solve_steady_state``'s bit for bit.  The
grid evaluator ``solve_steady_states`` solves the rest alone: points
that fail a check above, four_orientation points, points with A <= 0, a
singular K, 0 < g0 <= 1e-8 * kappa or a non-finite matrix or solution,
and a whole stack whose solve raises LinAlgError.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConvergenceError, DegenerateConfigError,
                     InvalidConfigError, NotLasableError)
from .model import ModelConfig, _is_number, with_drive, with_pump

BELOW_THRESHOLD = "below_threshold"
LASING = "lasing"

# Relative tolerances of the two solve stages.  The linear stage is
# checked against the largest rate in the system; the root stage is
# checked against the cavity loss.
_LINEAR_RESIDUAL_RTOL = 1e-10
_GAIN_RESIDUAL_RTOL = 1e-8
_N_ROOT_RTOL = 1e-12
_BRACKET_CAP = 1e12

# Points per stack of ``solve_steady_states``: stacked whole, the
# 2,501-point fig2a map peaked 7.3 MiB higher in RSS than in chunks.
CHUNK_POINTS = 256

# Devices (rates, pumps and Rabi rate) whose n = 0 factorization
# ``_device`` keeps for ``solve_steady_state``.
DEVICE_CACHE_SIZE = 32


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

    def as_array(self) -> np.ndarray:
        return np.array([self.rho11, self.rho22, self.rho33, self.rho44,
                         self.rho55, self.rho66, self.rho77,
                         self.rho14_re, self.rho14_im])


# Column names of a population state, in the state-vector order.
POPULATION_NAMES = tuple(f.name for f in fields(PopulationState))


@dataclass(frozen=True)
class SteadyStateResult:
    """Self-consistent operating point of the full system.

    ``populations`` holds one entry per sub-ensemble, in the order of
    ``_ensembles(config)``, which gives each one's weight and detuning:
    the aligned sub-ensemble first (``aligned``), and in four_orientation
    mode the off-axis one second.
    ``branch`` is ``"below_threshold"`` exactly when ``n == 0``.
    ``residual`` is the largest occupation/coherence rate at the solution
    relative to the largest rate constant in the system.
    ``gain_partials`` is (dg/dn, dg/d delta) of the net gain at a lasing
    root, delta being the drive detuning (the off-axis detuning does not
    follow it), and None on the dark branch.
    """

    n: float
    branch: str
    net_gain: float
    residual: float
    populations: tuple[PopulationState, ...]
    gain_partials: tuple[float, float] | None

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
    d = config.drive
    return _shifted(_device_matrix(config.rates, d.pump12, d.pump45, d.omega),
                    config.derived.gain_coupling * n, delta)


def _device_matrix(r, pump12: float, pump45: float,
                   omega: float) -> np.ndarray:
    """``rate_matrix`` without its stimulated (G n) and detuning terms."""
    gamma = r.gamma14 + 0.5 * (pump12 + pump45)
    a = np.zeros((9, 9))
    # rho11: pumped out, refilled by decays and the singlet, driven by Im rho14
    a[0, 0] = -pump12
    a[0, 1] = r.L21
    a[0, 2] = r.L31
    a[0, 6] = r.L71
    a[0, 8] = -2.0 * omega
    # rho22: pump in, decays out, stimulated exchange with rho33
    a[1, 0] = pump12
    a[1, 1] = -(r.L21 + r.L23 + r.L27)
    # rho33
    a[2, 1] = r.L23
    a[2, 2] = -r.L31
    # rho44
    a[3, 3] = -pump45
    a[3, 4] = r.L54
    a[3, 5] = r.L64
    a[3, 6] = r.L74
    a[3, 8] = 2.0 * omega
    # rho55
    a[4, 3] = pump45
    a[4, 4] = -(r.L54 + r.L56 + r.L57)
    # rho66
    a[5, 4] = r.L56
    a[5, 5] = -r.L64
    # rho77: fed by both intersystem crossings
    a[6, 1] = r.L27
    a[6, 4] = r.L57
    a[6, 6] = -(r.L71 + r.L74)
    # Re rho14
    a[7, 7] = -gamma
    # Im rho14: driven by the ground-state population difference
    a[8, 0] = omega
    a[8, 3] = -omega
    a[8, 8] = -gamma
    return a


# W W^T of the stimulated exchange (see the module docstring), and its
# nonzero entries as flat indices and values
_WWT = np.zeros((9, 9))
_WWT[1:3, 1:3] = _WWT[4:6, 4:6] = [[1.0, -1.0], [-1.0, 1.0]]
_WWT_AT = np.flatnonzero(_WWT)
_WWT_VALUES = _WWT.ravel()[_WWT_AT]


def _shifted(a: np.ndarray, gn: float, delta: float) -> np.ndarray:
    """A copy of ``a``, the matrix of ``_device_matrix`` or A(0, 0), with
    the stimulated exchange G n = ``gn`` and the detuning added: A(n,
    delta), equal to the last bit to a ``rate_matrix`` built whole."""
    a = a.copy()
    if gn:  # at n = 0, as for every batched point, it would add zeros
        # the nonzero entries only: an overflowed gn gives inf, not inf * 0
        a.flat[_WWT_AT] -= gn * _WWT_VALUES
    a[7, 8] = -delta
    a[8, 7] = delta
    return a


def _device_rate(r, pump12: float, pump45: float, omega: float) -> float:
    """The largest of a device's level rates, pumps and Rabi rate."""
    return max(r.L21, r.L23, r.L31, r.L54, r.L56, r.L64, r.L57, r.L71,
               r.L74, r.L27, r.gamma14, pump12, pump45, omega)


def _max_rate(config: ModelConfig, n: float) -> float:
    d = config.drive
    return max(_device_rate(config.rates, d.pump12, d.pump45, d.omega),
               abs(d.delta), config.cavity.kappa,
               config.derived.gain_coupling * n)


# Right-hand sides of the n = 0 solve: the trace vector (alone, A v = 0
# with unit trace), the columns of W and e8, e9 (see the module
# docstring).
_ZERO_N_RHS = np.zeros((9, 5))
_ZERO_N_RHS[0, 0] = 1.0
_ZERO_N_RHS[[1, 4], [1, 2]] = 1.0
_ZERO_N_RHS[[2, 5], [1, 2]] = -1.0
_ZERO_N_RHS[[7, 8], [3, 4]] = 1.0
_TRACE_RHS = _ZERO_N_RHS[:, 0].copy()


def _trace_system(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` (one rate matrix or a stack of them) with the first
    row replaced by the trace constraint."""
    m = a.copy()
    m[..., 0, :] = 0.0
    m[..., 0, :7] = 1.0
    return m


def _refined_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` plus one step of iterative refinement; ``m``
    may be a stack of matrices sharing ``rhs``."""
    v = np.linalg.solve(m, rhs)
    return v + np.linalg.solve(m, rhs - m @ v)


def _solve_linear(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M v = rhs, where M is A with the first row replaced by the
    trace constraint; ``rhs`` is (9,) or (9, k).  One step of iterative
    refinement keeps the residual near machine precision.  Singular
    systems, and each column left non-finite by a nearly singular one
    (pump-free configurations), fall back to the least-squares
    minimum-norm solution, so every column comes out as if solved alone.
    """
    m = _trace_system(a)
    try:
        v = _refined_solve(m, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(m, rhs, rcond=None)[0]
    if np.isfinite(v).all():
        return v
    return np.where(np.isfinite(v).all(axis=0), v,
                    np.linalg.lstsq(m, rhs, rcond=None)[0])


def _checked_matrix(rates, pump12: float, pump45: float, omega: float,
                    n: float, gn: float, delta: float) -> np.ndarray:
    """A(n, delta) of a device, G n = ``gn``, as ``rate_matrix`` builds
    it; raises as ``populations_at_fixed_n`` does."""
    if rates.all_zero() and pump12 == pump45 == omega == 0.0:
        raise DegenerateConfigError("all transition rates and drives are "
                                    "zero; occupations are undetermined")
    a = _shifted(_device_matrix(rates, pump12, pump45, omega), gn, delta)
    if not np.isfinite(a).all():
        raise ConvergenceError("rate matrix is not finite",
                               detail={"n": n, "delta": delta})
    return a


def _fixed_n(config: ModelConfig, n: float, delta: float) -> PopulationState:
    """The one fixed-n population solve of a sub-ensemble at a config's
    detuning ``delta``; raises as ``populations_at_fixed_n`` does."""
    if not (_is_number(n) and 0.0 <= n < math.inf):
        raise InvalidConfigError(
            f"need a finite photon number n >= 0, got n={n!r}")
    d = config.drive
    a = _checked_matrix(config.rates, d.pump12, d.pump45, d.omega, n,
                        config.derived.gain_coupling * n, delta)
    v = _solve_linear(a, _TRACE_RHS)
    return _checked_state(n, delta, v.tolist(),
                          float(abs(a @ v).max()) / _max_rate(config, n))


def _checked_state(n: float, delta: float, v: list,
                   residual: float) -> PopulationState:
    """The population state of ``v`` at (n, delta), whose max|A v| /
    ``_max_rate`` is ``residual``; raises ConvergenceError above
    tolerance (where ``v`` is not finite too) or outside the bounds."""
    if not residual <= _LINEAR_RESIDUAL_RTOL:  # NaN fails too
        raise ConvergenceError(
            "fixed-n linear solve residual above tolerance",
            detail={"residual": residual, "n": n, "delta": delta})
    return PopulationState(*v)


def populations_at_fixed_n(config: ModelConfig, n: float) -> PopulationState:
    """Steady occupations of one sub-ensemble at frozen photon number and
    the drive detuning (``with_drive(config, delta=d)`` for another).

    Raises InvalidConfigError (a ValueError) for a negative or non-finite
    n, DegenerateConfigError when every rate, pump and drive is zero (the
    occupation split is undetermined), and ConvergenceError when the rate
    matrix is not finite or the solve fails its residual check.
    """
    return _fixed_n(config, n, config.drive.delta)


def _ensembles(config: ModelConfig) -> tuple[tuple[float, float], ...]:
    """(weight, detuning) for each sub-ensemble."""
    ori = config.orientation
    delta = config.drive.delta
    if ori.mode == "single_orientation":
        return ((1.0, delta),)
    return ((ori.aligned_fraction, delta),
            (1.0 - ori.aligned_fraction, ori.off_axis_detuning))


def net_gain(config: ModelConfig, n: float) -> float:
    """Photon growth rate d(ln n)/dt at frozen photon number (rad/s).

    Weighted over sub-ensembles in four_orientation mode, minus the
    cavity loss.
    """
    g = config.derived.gain_coupling
    total = 0.0
    for weight, delta in _ensembles(config):
        state = _fixed_n(config, n, delta)
        total += weight * (g * ((state.rho22 - state.rho33)
                                + (state.rho55 - state.rho66)))
    return total - config.cavity.kappa


def _w_rows(x: np.ndarray) -> tuple:
    """W^T x as two tuples of floats."""
    return tuple(map(tuple, (x[[1, 4]] - x[[2, 5]]).tolist()))


@functools.lru_cache(maxsize=DEVICE_CACHE_SIZE)
def _device(rates, pump12: float, pump45: float, omega: float) -> tuple:
    """The n = 0 factorization that every detuning of a device shares.

    Keyed by the fields ``rate_matrix(c, 0, 0)`` reads, it returns that
    matrix A(0, 0) and X0 = M(0)^-1 [e1, W, E] (``_solve_linear``) as
    read-only arrays, with W^T X0 and the coherence rows X0[7:9] as
    tuples of floats.  Raises as ``populations_at_fixed_n`` does at
    n = delta = 0 (an exception is not cached).
    """
    a = _checked_matrix(rates, pump12, pump45, omega, 0.0, 0.0, 0.0)
    a.flags.writeable = False
    x = _solve_linear(a, _ZERO_N_RHS)
    x.flags.writeable = False
    return a, x, _w_rows(x), tuple(map(tuple, x[7:9].tolist()))


_NO_UPDATE = ((0.0,) * 5,) * 2


def _detuning_update(delta, wx, r7, r8, xp):
    """(det K, Q, W^T X(delta)) of the module docstring, from W^T X0
    ``wx`` and X0's rows 7, 8; on floats (``xp`` is ``math``; None where
    K is singular) or on arrays over points (``numpy``, under
    ``np.errstate``; the caller masks det K), as ``_photon_root``."""
    # K = I + delta J X0[7:9, 3:5], J = [[0, -1], [1, 0]]
    k00, k01 = 1.0 - delta * r8[3], -delta * r8[4]
    k10, k11 = delta * r7[3], 1.0 + delta * r7[4]
    det = k00 * k11 - k01 * k10
    if xp is math and not (det != 0.0 and math.isfinite(det)):
        return None
    # Q = -delta K^-1 J X0[7:9], with J X0[7:9] = [-X0[8]; X0[7]]
    h = -delta / det
    q0 = [h * (-k11 * v - k01 * u) for u, v in zip(r7, r8)]
    q1 = [h * (k10 * v + k00 * u) for u, v in zip(r7, r8)]
    return det, (q0, q1), [[w + row[3] * u + row[4] * v
                            for w, u, v in zip(row, q0, q1)] for row in wx]


def _zero_n_solution(config: ModelConfig, delta: float) -> tuple:
    """The n = 0 solve of one sub-ensemble at detuning ``delta``:
    (A(0, 0), X, Q, W^T X(delta)) with X(delta) = X + X[:, 3:5] Q.

    X is the device's cached X0 and Q the detuning update of the module
    docstring, taken on floats; where K is singular X is X(delta) solved
    directly and Q is zero.  Raises as ``populations_at_fixed_n`` does.
    """
    d = config.drive
    a, x, wx, (r7, r8) = _device(config.rates, d.pump12, d.pump45, d.omega)
    update = _detuning_update(delta, wx, r7, r8, math)
    if update is None:
        x = _solve_linear(_shifted(a, 0.0, delta), _ZERO_N_RHS)
        return a, x, _NO_UPDATE, _w_rows(x)
    return a, x, *update[1:]


def _gain_coefficients(wx) -> tuple:
    """(a, b, p, q) of a sub-ensemble's gain G (a + b s) / (1 + p s + q s^2),
    s = G n, from its W^T X(delta) ``wx``; on floats or on arrays."""
    (z0, c00, c01, *_), (z1, c10, c11, *_) = wx
    return (z0 + z1, (c10 - c11) * z0 + (c01 - c00) * z1, -(c00 + c11),
            c00 * c11 - c01 * c10)


def _closed_form_gain(config: ModelConfig, wxs):
    """Net gain as a function of n from W^T X(delta) of each
    sub-ensemble's n = 0 solution (see the module docstring)."""
    g = config.derived.gain_coupling
    terms = [(weight * g, *_gain_coefficients(wx))
             for (weight, _), wx in zip(_ensembles(config), wxs)]
    kappa = config.cavity.kappa

    def gain(n):
        s = g * n
        total = 0.0
        for wg, a, b, p, q in terms:
            total += wg * (a + b * s) / (1.0 + s * (p + q * s))
        return total - kappa

    return gain


def _photon_root(g, kappa, wx, xp):
    """(A, n): the leading coefficient A of the photon-number quadratic
    A s^2 + B s + c = 0, s = G n, and its root n in the sign-safe form of
    the module docstring, from W^T X(delta) ``wx``; on floats (``xp`` is
    ``math``) or on arrays (``numpy``, under ``np.errstate``).  With
    A > 0 and c < 0 (g0 > 0) n is the one positive root; on floats it is
    nan where A or the discriminant is not positive."""
    a, b, p, q = _gain_coefficients(wx)
    qa, qb, qc = kappa * q, kappa * p - g * b, kappa - g * a
    disc = qb * qb - 4.0 * qa * qc
    if xp is math and not (qa > 0.0 and disc > 0.0):
        return qa, math.nan
    root = -0.5 * (qb + xp.copysign(xp.sqrt(disc), qb))
    if xp is math:
        return qa, (qc / root if qb >= 0.0 else root / qa) / g
    return qa, np.where(qb >= 0.0, qc / root, root / qa) / g


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


def _at_n(g, wg, s, x, q, wx, a, rate, xp):
    """One sub-ensemble at s = G n, from its ``_zero_n_solution`` X, Q
    and W^T X(delta) (see the module docstring): the populations v, the
    residual max|A v| / ``rate`` for A(n, delta) ``a``, the gain term
    G (v2 - v3 + v5 - v6) and (dg/dn, dg/d delta) times ``wg`` =
    weight * G.  On floats (``xp`` is ``math``) v is a list; on arrays
    over points (``numpy``, under ``np.errstate``) v is 9 rows, and the
    stacked products give the bits of the per-point ones."""
    (z0, c00, c01, f00, f01), (z1, c10, c11, f10, f11) = wx
    det = (1.0 - s * c00) * (1.0 - s * c11) - s * s * c01 * c10

    def solve_2x2(p0, p1):  # (I - s C)^-1 p
        return (((1.0 - s * c11) * p0 + s * c01 * p1) / det,
                (s * c10 * p0 + (1.0 - s * c00) * p1) / det)

    y0, y1 = solve_2x2(z0, z1)
    # v = X(delta) p = X (p + [0, 0, 0, Q p]), p = [1, s y0, s y1, 0, 0]
    (q0, q1), p1, p2 = q, s * y0, s * y1
    p = [1.0, p1, p2, q0[0] + q0[1] * p1 + q0[2] * p2,
         q1[0] + q1[1] * p1 + q1[2] * p2]
    if xp is math:
        v = x.dot(p)
        residual = float(np.abs(a.dot(v)).max()) / rate
        v = v.tolist()
    else:
        p[0] = np.ones_like(p1)
        v = (x @ np.stack(p, -1)[..., None])[..., 0]
        residual = np.abs((a @ v[..., None])[..., 0]).max(axis=1) / rate
        v = v.T
    t0, t1 = v[1] - v[2], v[4] - v[5]
    r0, r1 = solve_2x2(t0, t1)
    u0, u1 = v[8], -v[7]
    d0, d1 = solve_2x2(f00 * u0 + f01 * u1, f10 * u0 + f11 * u1)
    return v, residual, g * (t0 + t1), (
        wg * g * ((c00 + c10) * r0 + (c01 + c11) * r1), wg * (d0 + d1))


def _states(config: ModelConfig, n: float, solutions):
    """Populations, net gain, largest residual and gain partials at
    photon number n, from the n = 0 solutions of ``_zero_n_solution``
    (see the module docstring); dg/d delta is the aligned
    sub-ensemble's.  Raises as ``populations_at_fixed_n`` does."""
    g = config.derived.gain_coupling
    s = g * n
    rate = _max_rate(config, n)
    states = []
    total = residual = dg_dn = 0.0
    for (weight, delta), (a, x, q, wx) in zip(_ensembles(config), solutions):
        v, r, gain, (dn, dd) = _at_n(g, weight * g, s, x, q, wx,
                                     _shifted(a, s, delta), rate, math)
        states.append(_checked_state(n, delta, v, r))
        residual = max(residual, r)
        total += weight * gain
        dg_dn += dn
        if len(states) == 1:
            dg_dd = dd
    return (tuple(states), total - config.cavity.kappa, residual,
            (dg_dn, dg_dd))


def solve_steady_state(config: ModelConfig) -> SteadyStateResult:
    """Self-consistent photon number and populations.

    One n = 0 solution per sub-ensemble, from the device's cached
    factorization and the detuning update, gives the dark populations,
    the zero-photon net gain g0, the closed-form gain and, at a lasing
    root, the populations and ``gain_partials``.  g0 <= 0 selects the
    dark branch (exactly zero gain included).  Above threshold, a
    single-orientation root is the quadratic's; a four_orientation root,
    or one the quadratic does not give, is located to relative precision
    1e-12 in n by expanding the bracket [0, n_hi] geometrically, on the
    closed-form gain (on the direct gain when g0 <= 1e-8 * kappa).  The
    net gain of the populations at the root must be below 1e-8 * kappa.
    ``residual`` is the fixed-n kernel's.
    """
    solutions = [_zero_n_solution(config, delta)
                 for _, delta in _ensembles(config)]
    states, gain, residual, _ = _states(config, 0.0, solutions)
    n, branch, partials = 0.0, BELOW_THRESHOLD, None
    if gain > 0.0:
        kappa = config.cavity.kappa
        if gain <= _GAIN_RESIDUAL_RTOL * kappa:
            n = _gain_root(lambda x: net_gain(config, x))
        else:
            if len(solutions) == 1:
                n = _photon_root(config.derived.gain_coupling, kappa,
                                 solutions[0][3], math)[1]
            if not 0.0 < n < _BRACKET_CAP / 4.0:
                n = _gain_root(_closed_form_gain(
                    config, [wx for *_, wx in solutions]))
        states, gain, residual, partials = _states(config, n, solutions)
        branch = LASING
        if not abs(gain) <= _GAIN_RESIDUAL_RTOL * kappa:
            raise ConvergenceError(
                "gain residual at the photon-number root above tolerance",
                detail={"n": n, "gain_residual": gain})
    return SteadyStateResult(n=n, branch=branch, net_gain=gain,
                             residual=residual, populations=states,
                             gain_partials=partials)


def _steady_states(points) -> list[SteadyStateResult | None]:
    """``solve_steady_state`` of many (config, drive) points, from one
    stacked n = 0 solve of their distinct devices (keyed as ``_device``
    is) and the functions of the single solve on arrays.  None marks a
    point that this does not certify, for the caller to solve with
    ``solve_steady_state``.
    """
    results = [None] * len(points)
    index, devices, where, scalars = [], {}, [], []
    for i, (c, d) in enumerate(points):
        if c.orientation.mode == "single_orientation":
            index.append(i)
            key = (c.rates, d.pump12, d.pump45, d.omega)
            where.append(devices.setdefault(key, len(devices)))
            scalars.append((d.delta, c.derived.gain_coupling, c.cavity.kappa))
    if not index:
        return results
    a = np.array([_shifted(_device_matrix(*k), 0.0, 0.0) for k in devices])
    finite = np.isfinite(a).all(axis=(1, 2))
    a[~finite] = np.eye(9)  # solved, never certified
    try:
        x = _refined_solve(_trace_system(a), _ZERO_N_RHS)
    except np.linalg.LinAlgError:
        return results
    top = np.array([_device_rate(*k) for k in devices])
    # from here on, one row per point
    ok = (finite & np.isfinite(x).all(axis=(1, 2)))[where]
    x, a, top = x[where], a[where], top[where]
    delta, g, kappa = np.array(scalars).T
    a[:, 7, 8], a[:, 8, 7] = -delta, delta  # A(0, delta)
    rate0 = np.maximum(top, np.maximum(np.abs(delta), kappa))  # _max_rate
    slack = PopulationState._BOUND_SLACK

    def at_n(s):
        # _at_n of every point at s = G n, and the checks of _checked_state
        v, residual, gain, partials = _at_n(
            g, g, s, x, q, wx, a - s[:, None, None] * _WWT,
            np.maximum(rate0, s), np)
        passed = ((residual <= _LINEAR_RESIDUAL_RTOL)
                  & (v[:7] >= -slack).all(axis=0)
                  & (v[:7] <= 1.0 + slack).all(axis=0)
                  & (v[7] ** 2 + v[8] ** 2 <= 0.25 + slack))
        return v, residual, gain - kappa, partials, passed

    with np.errstate(all="ignore"):
        det, q, wx = _detuning_update(
            delta, (x[:, [1, 4]] - x[:, [2, 5]]).transpose(1, 2, 0),
            x[:, 7].T, x[:, 8].T, np)
        ok &= (det != 0.0) & np.isfinite(det)
        *_, gain, _, passed = at_n(np.zeros(len(index)))
        ok &= passed
        lasing = gain > 0.0
        qa, n = _photon_root(g, kappa, wx, np)
        n = np.where(lasing, n, 0.0)
        ok &= ~lasing | ((gain > _GAIN_RESIDUAL_RTOL * kappa) & (qa > 0.0)
                         & (n > 0.0) & (n < _BRACKET_CAP / 4.0))
        # at n = 0 this repeats the step above, bit for bit
        v, residual, gain, (dg_dn, dg_dd), passed = at_n(g * n)
        ok &= passed & (~lasing
                        | (np.abs(gain) <= _GAIN_RESIDUAL_RTOL * kappa))
    states = v.T.tolist()
    n, lasing, gain, residual, dg_dn, dg_dd = (
        y.tolist() for y in (n, lasing, gain, residual, dg_dn, dg_dd))
    for k in np.flatnonzero(ok).tolist():
        results[index[k]] = SteadyStateResult(
            n=n[k], branch=LASING if lasing[k] else BELOW_THRESHOLD,
            net_gain=gain[k], residual=residual[k],
            populations=(PopulationState(*states[k]),),
            gain_partials=(dg_dn[k], dg_dd[k]) if lasing[k] else None)
    return results


def solve_steady_states(points):
    """The grid evaluator: yields ``solve_steady_state`` of each of
    ``points``, an iterable of (config, drive) pairs, the DriveSettings
    drive replacing the config's own, in order; None where that solve
    raises ConvergenceError; every other error propagates.

    Points are pulled ``CHUNK_POINTS`` at a time into ``_steady_states``.
    A point it leaves uncertified, like a chunk of one (which solves
    faster alone than as a stack of one), is built into its config and
    solved by ``solve_steady_state``.
    """
    points = iter(points)
    while chunk := list(itertools.islice(points, CHUNK_POINTS)):
        batch = _steady_states(chunk) if len(chunk) > 1 else [None]
        for (config, drive), ss in zip(chunk, batch):
            if ss is None:
                try:
                    ss = solve_steady_state(with_drive(config, **vars(drive)))
                except ConvergenceError:
                    pass
            yield ss
        del chunk, batch  # hold one chunk of points while pulling the next


def threshold_pump(config: ModelConfig, delta: float | None = None) -> float:
    """Pump rate at which zero-photon net gain crosses zero (rad/s).

    Both branch pumps are varied together.  Gain must increase
    monotonically along the bracket; a non-monotone profile aborts rather
    than returning an arbitrary crossing.  Raises NotLasableError when no
    pump below ``_BRACKET_CAP`` (1e12 rad/s) reaches threshold.
    """
    if delta is not None:
        config = with_drive(config, delta=delta)
    config.derived  # computed once, shared by every pump's copy

    def g(pump):
        return net_gain(with_pump(config, pump), 0.0)

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
                f"no lasing threshold below pump {_BRACKET_CAP:.3e} rad/s")
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
