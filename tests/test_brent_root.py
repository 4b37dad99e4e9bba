"""The Brent root of the steady-state path against scipy's ``brentq``.

``steady._brent_root`` is a port of ``scipy.optimize.brentq`` that must
return the same root to the last bit: the lasing photon number seeds the
time domain, whose integrator follows the last bits of its initial state.
So the oracle comparisons below use ``==``, not a tolerance.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ltmag import (ConvergenceError, LtmagError, OrientationModel,
                   net_gain, preset, solve_steady_state, threshold_pump,
                   with_drive, with_pump)
from ltmag import steady
from ltmag.steady import _brent_root

_PROPERTY = dict(deadline=None, derandomize=True, database=None)

_EPS = 2.220446049250313e-16


def _recorded(f):
    """``f`` plus the list of points it was called at."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


def _outcome(solver, f, a, b, **kw):
    """Root, or "unconverged" when ``maxiter`` ran out (scipy raises a
    bare RuntimeError, the port a ConvergenceError), and call sequence."""
    g, xs = _recorded(f)
    try:
        return solver(g, a, b, **kw), xs
    except RuntimeError as exc:
        assert "iterations" in str(exc)
        return "unconverged", xs


def _both(f, a, b, **kw):
    """Outcome and call sequence of the port and of scipy."""
    return _outcome(_brent_root, f, a, b, **kw), _outcome(brentq, f, a, b,
                                                          **kw)


def _config(name, mode, delta):
    cfg = dataclasses.replace(preset(name),
                              orientation=OrientationModel(mode=mode))
    return with_drive(cfg, delta=delta)


@settings(max_examples=120, **_PROPERTY)
@given(name=st.sampled_from(["baseline", "high_sensitivity"]),
       mode=st.sampled_from(["single_orientation", "four_orientation"]),
       delta=st.floats(-1.5e8, 1.5e8), factor=st.floats(1.01, 4.0))
def test_closed_form_gain_root_equals_brentq(name, mode, delta, factor):
    cfg = _config(name, mode, delta)
    cfg = with_pump(cfg, factor * threshold_pump(cfg))
    wxs = [steady._zero_n_solution(cfg, d)[3]
           for _, d in steady._ensembles(cfg)]
    gain = steady._closed_form_gain(cfg, wxs)
    hi = 1e-6
    while gain(hi) > 0.0:
        hi *= 4.0
    kw = dict(rtol=steady._N_ROOT_RTOL, xtol=1e-300, maxiter=200)
    (root, xs), (oracle, oracle_xs) = _both(gain, 0.0, hi, **kw)
    assert root == oracle and xs == oracle_xs
    assert type(root) is float
    n = solve_steady_state(cfg).n
    if mode == "four_orientation":
        assert n == root
    else:
        # the root of the quadratic, which brentq finds to its rtol
        assert n == pytest.approx(oracle, rel=steady._N_ROOT_RTOL, abs=0.0)


@settings(max_examples=40, **_PROPERTY)
@given(name=st.sampled_from(["baseline", "high_sensitivity"]),
       mode=st.sampled_from(["single_orientation", "four_orientation"]),
       delta=st.floats(-1.5e8, 1.5e8))
def test_threshold_pump_root_equals_brentq(name, mode, delta):
    cfg = _config(name, mode, delta)

    def g(pump):
        return net_gain(with_pump(cfg, pump), 0.0)

    hi = 1e5
    while g(hi) <= 0.0:
        hi *= 2.0
    kw = dict(rtol=1e-12, xtol=1e-300, maxiter=200)
    (root, xs), (oracle, oracle_xs) = _both(g, 0.0, hi, **kw)
    assert root == oracle and xs == oracle_xs
    assert threshold_pump(cfg) == root


_SHAPES = {
    "linear": lambda u, s: u,
    "tanh": lambda u, s: math.tanh(s * u),
    "cubic": lambda u, s: u ** 3 + s * u,
    "expm1": lambda u, s: math.expm1(s * u),
    "atan": lambda u, s: math.atan(s * u) + 1e-3 * u ** 3,
}


@settings(max_examples=600, **_PROPERTY)
@given(shape=st.sampled_from(sorted(_SHAPES)),
       root=st.floats(-5.0, 5.0), slope=st.floats(1e-2, 50.0),
       left=st.floats(1e-9, 10.0), right=st.floats(1e-9, 10.0),
       swap=st.booleans(),
       # tiny and huge scales make products of f values under- and
       # overflow, which is where a sign test by multiplication differs
       scale_exp=st.floats(-250.0, 250.0), decreasing=st.booleans(),
       rtol=st.floats(math.log10(4 * _EPS), -6.0).map(
           lambda e: max(10.0 ** e, 4 * _EPS))
       | st.sampled_from([4 * _EPS, 1e-13, 1e-12]),
       xtol=st.sampled_from([1e-300, 2e-12]))
def test_monotone_root_equals_brentq(shape, root, slope, left, right, swap,
                                     scale_exp, decreasing, rtol, xtol):
    scale = (-1.0 if decreasing else 1.0) * 10.0 ** scale_exp
    form = _SHAPES[shape]

    def f(x):
        return scale * form(x - root, slope)

    a, b = root - left, root + right
    if swap:
        a, b = b, a
    (x, xs), (oracle, oracle_xs) = _both(f, a, b, rtol=rtol, xtol=xtol,
                                         maxiter=100)
    assert x == oracle and xs == oracle_xs


def test_typed_error_when_iterations_run_out():
    def f(x):
        return x ** 3 - 2.0

    with pytest.raises(ConvergenceError) as info:
        _brent_root(f, 0.0, 10.0, rtol=1e-12, xtol=1e-300, maxiter=3)
    detail = info.value.detail
    assert detail["iterations"] == 3
    lo, hi = detail["bracket"]
    assert 0.0 <= lo < 2.0 ** (1 / 3) < hi <= 10.0
    assert detail["f"] == f(detail["x"])
    assert isinstance(info.value, LtmagError)
    # scipy gives up after the same count, untyped
    with pytest.raises(RuntimeError, match="3 iterations"):
        brentq(f, 0.0, 10.0, rtol=1e-12, xtol=1e-300, maxiter=3)


def test_typed_error_when_f_is_nan():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else x - 0.5

    with pytest.raises(ConvergenceError, match="NaN") as info:
        _brent_root(f, 0.0, 1.0, rtol=1e-12, xtol=1e-300, maxiter=100)
    detail = info.value.detail
    # the first secant step lands on 0.5
    assert detail["iterations"] == 1
    assert detail["bracket"] == (0.0, 1.0)
    assert detail["x"] == 0.5 and math.isnan(detail["f"])
    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0, rtol=1e-12, xtol=1e-300, maxiter=100)
    # NaN at an end point is caught before any iteration
    with pytest.raises(ConvergenceError, match="NaN") as info:
        _brent_root(lambda x: math.nan if x > 1.5 else x - 1.0, 0.0, 2.0,
                    rtol=1e-12, xtol=1e-300, maxiter=100)
    assert info.value.detail["iterations"] == 0
    assert info.value.detail["x"] == 2.0
    # and at the lower end, which is evaluated first
    with pytest.raises(ConvergenceError, match="NaN") as info:
        _brent_root(lambda x: math.nan if x < 0.5 else x - 1.0, 0.0, 2.0,
                    rtol=1e-12, xtol=1e-300, maxiter=100)
    assert info.value.detail["iterations"] == 0
    assert info.value.detail["x"] == 0.0


def test_zero_at_an_end_point_is_returned():
    kw = dict(rtol=1e-12, xtol=1e-300, maxiter=100)
    for f, a, b, expected in ((lambda x: x, 0.0, 1.0, 0.0),
                              (lambda x: x - 1.0, 0.0, 1.0, 1.0),
                              # the same sign elsewhere does not matter
                              (lambda x: x * x, 0.0, 1.0, 0.0)):
        assert _brent_root(f, a, b, **kw) == expected
        assert brentq(f, a, b, **kw) == expected


def test_same_sign_at_both_ends_is_a_typed_error():
    with pytest.raises(ConvergenceError, match="same sign") as info:
        _brent_root(lambda x: x * x + 1.0, -1.0, 2.0, rtol=1e-12,
                    xtol=1e-300, maxiter=100)
    assert info.value.detail["bracket"] == (-1.0, 2.0)
    assert info.value.detail["iterations"] == 0
