"""Configuration dataclasses, presets, and derived quantities."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ltmag import (AcSignalModel, CavityGeometry, DriveSettings,
                   GainSettings, InvalidConfigError, LevelRates,
                   ModelConfig, OrientationModel, OutputTable, SweepAxis,
                   SweepSpec, ac_sensitivity, apply_overrides,
                   b_field_to_detuning, best_eta_over_field, config_digest,
                   dc_sensitivity, dc_sensitivity_curve, derive_constants,
                   detuning_to_b_field, experiment, find_bias_point,
                   find_operating_point, integrate, l27_robustness, net_gain,
                   optimize_sensitivity, output_power,
                   populations_at_fixed_n, preset, rate_matrix,
                   resolve_config, solve_steady_state, step_response,
                   with_bias_field, with_drive, with_pump)
from ltmag.configio import _UNITS, load_config, save_config, set_param
from ltmag.dynamics import TimeSeries
from ltmag.model import PRESET_NAMES


def test_baseline_preset_rates(baseline_config):
    r = baseline_config.rates
    assert r.L57 == pytest.approx(1.0 / 24.9e-9, rel=1e-15)
    assert r.L74 == pytest.approx(1.0 / 462e-9, rel=1e-15)
    # singlet decay splits 1:2 toward m_s=0 vs |m_s|=1
    assert r.L71 == pytest.approx(0.5 * r.L74, rel=1e-15)
    assert r.L27 == 0.0
    assert baseline_config.cavity.kappa == 3.0e6
    assert baseline_config.drive.omega == 3.67e6
    assert baseline_config.drive.pump12 == baseline_config.drive.pump45


def test_high_sensitivity_preset():
    cfg = preset("high_sensitivity")
    assert cfg.cavity.kappa == 63.1e9
    assert cfg.cavity.nv_concentration == 16e-6
    assert cfg.rates.gamma14 == pytest.approx(1.0 / 0.181e-6, rel=1e-15)
    assert cfg.drive.pump12 == 10.4e6
    assert cfg.drive.omega == 6.14e6


def test_unknown_preset():
    with pytest.raises(InvalidConfigError):
        preset("nothing")


def test_derived_scalars(baseline_config):
    d = derive_constants(baseline_config)
    # regression values, frozen from this implementation
    assert d.n_centers == pytest.approx(1.0032e12, rel=1e-6)
    assert d.gain_coupling == pytest.approx(3.116447e8, rel=1e-6)
    assert d.quality_factor == pytest.approx(8.85591e8, rel=1e-5)
    assert d.photon_energy == pytest.approx(2.8018e-19, rel=1e-4)
    # the ground-coherence decay lives in the rate matrix, not here
    drive = baseline_config.drive
    assert rate_matrix(baseline_config, 0.0, 0.0)[7, 7] == pytest.approx(
        -(baseline_config.rates.gamma14 + 0.5 * (drive.pump12 + drive.pump45)),
        rel=1e-15)


def test_gain_coupling_scales_linearly_with_density(baseline_config):
    doubled = dataclasses.replace(
        baseline_config,
        cavity=dataclasses.replace(baseline_config.cavity,
                                   nv_concentration=2 * 5.7e-9))
    d1 = derive_constants(baseline_config)
    d2 = derive_constants(doubled)
    assert d2.n_centers == pytest.approx(2.0 * d1.n_centers, rel=1e-14)
    assert d2.gain_coupling == pytest.approx(2.0 * d1.gain_coupling,
                                             rel=1e-14)


def test_gain_coupling_override(baseline_config):
    assert baseline_config.gain == GainSettings(coupling_override=None)
    lit = dataclasses.replace(baseline_config,
                              gain=GainSettings(coupling_override=3.08e8))
    d = derive_constants(lit)
    assert d.gain_coupling == 3.08e8
    # the geometry formula's value, which the override replaces
    formula = derive_constants(dataclasses.replace(lit, gain=GainSettings()))
    assert formula.gain_coupling == pytest.approx(3.116447e8, rel=1e-6)
    with pytest.raises(InvalidConfigError):
        GainSettings(coupling_override=-1.0)


def test_derived_is_cached_on_the_config():
    cfg = preset("baseline")
    assert cfg.derived == derive_constants(cfg)
    assert cfg.derived is cfg.derived


def test_replaced_config_derives_its_own_value():
    cfg = preset("baseline")
    base = cfg.derived
    lit = set_param(cfg, "gain.coupling_override", 3.08e8)
    assert lit.derived.gain_coupling == 3.08e8
    lossy = set_param(cfg, "cavity.kappa", 2.0 * cfg.cavity.kappa)
    assert lossy.derived.quality_factor == pytest.approx(
        0.5 * base.quality_factor, rel=1e-15)
    # the source config keeps its own cached value
    assert cfg.derived is base


def test_reading_derived_leaves_identity_alone():
    fresh, cached = preset("high_sensitivity"), preset("high_sensitivity")
    digest, key = config_digest(fresh), hash(fresh)
    cached.derived
    assert cached == fresh
    assert hash(cached) == key
    assert config_digest(cached) == digest


def test_cached_derived_survives_pickle():
    cfg = preset("high_sensitivity")
    cached = cfg.derived
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone == cfg
    assert clone.derived == cached


def test_field_detuning_round_trip(baseline_config):
    cst = baseline_config.constants
    delta = 1.7e7
    assert b_field_to_detuning(detuning_to_b_field(delta, cst), cst) \
        == pytest.approx(delta, rel=1e-15)
    # 1e6 rad/s of detuning corresponds to about 5.68 uT
    assert detuning_to_b_field(1e6, cst) == pytest.approx(5.6791e-6,
                                                          rel=1e-4)


def test_output_power(baseline_config):
    p1 = output_power(1.0, baseline_config)
    assert p1 == pytest.approx(0.84322, rel=1e-4)
    assert output_power(0.5, baseline_config) == pytest.approx(0.5 * p1,
                                                               rel=1e-15)
    assert output_power(0.0, baseline_config) == 0.0
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(InvalidConfigError):
            output_power(bad, baseline_config)


def test_invalid_rates():
    with pytest.raises(InvalidConfigError):
        LevelRates(L21=-1.0, L23=0, L31=0, L54=0, L56=0, L64=0,
                   L57=0, L71=0, L74=0, L27=0, gamma14=0)
    with pytest.raises(InvalidConfigError):
        LevelRates(L21=math.nan, L23=0, L31=0, L54=0, L56=0, L64=0,
                   L57=0, L71=0, L74=0, L27=0, gamma14=0)


def test_invalid_cavity(baseline_config):
    cav = baseline_config.cavity
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(cav, kappa=0.0)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(cav, nv_concentration=1.5)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(cav, refractive_index=0.8)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(cav, medium_volume=-1e-9)


def test_invalid_drive_and_orientation():
    with pytest.raises(InvalidConfigError):
        DriveSettings(pump12=-1.0, pump45=0.0, omega=0.0, delta=0.0)
    with pytest.raises(InvalidConfigError):
        DriveSettings(pump12=0.0, pump45=0.0, omega=0.0, delta=math.inf)
    with pytest.raises(InvalidConfigError):
        OrientationModel(mode="diagonal")
    with pytest.raises(InvalidConfigError):
        OrientationModel(aligned_fraction=0.0)
    with pytest.raises(InvalidConfigError):
        CavityGeometry(kappa=1.0, medium_volume=1e-9, cavity_volume=2e-9,
                       nv_concentration=0.0, nv_fraction=1.0,
                       vacuum_wavelength=709e-9, refractive_index=2.4,
                       emission_bandwidth=24e12)


# Values of the wrong type for any field of any record: text that is
# neither a number nor a token, None, Python's and numpy's booleans, a
# list and ints past the float range, which float() cannot convert
_WRONG_TYPED = ("x", None, True, np.True_, [1.0], 10**400, -10**400)

# The fields whose default, and so a valid value, is None
_NONE_VALID = {("GainSettings", "coupling_override"),
               ("SweepSpec", "axis2")}

_BASE = preset("baseline")
_RECORDS = (_BASE.rates, _BASE.cavity, _BASE.drive, _BASE.orientation,
            _BASE.constants, _BASE.gain, _BASE,
            AcSignalModel(bias_field=164e-6, amplitude_field=1e-9,
                          omega_signal=2e5),
            SweepAxis("pump", 0.0, 1e6, 3),
            SweepSpec(SweepAxis("pump", 0.0, 1e6, 3)))


@pytest.mark.parametrize("record", _RECORDS,
                         ids=lambda record: type(record).__name__)
def test_every_field_rejects_wrong_typed_values(record):
    for f in dataclasses.fields(record):
        for value in _WRONG_TYPED:
            if value is None and (type(record).__name__,
                                  f.name) in _NONE_VALID:
                dataclasses.replace(record, **{f.name: None})
                continue
            with pytest.raises(InvalidConfigError):
                dataclasses.replace(record, **{f.name: value})


_HS = preset("high_sensitivity")

# A valid wavelength whose cube in the medium, in the gain coupling,
# overflows the float range
_FAR = set_param(_BASE, "cavity.vacuum_wavelength", 1e300)

# Valid fields whose product, the number of centers, overflows the float
# range or underflows to 0 (the gain override keeps G finite and > 0)
_CROWDED = set_param(_BASE, "cavity.medium_volume", 1e300)
_EMPTY = apply_overrides(_HS, ["cavity.medium_volume=1e-300",
                               "constants.carbon_site_density=1e-300",
                               "gain.coupling_override=8.7e11"])

# Calls with an argument that is not a field of a checked record, given
# a value of the wrong type or past the float range, calls that derive a
# config's constants past the float range, and a drive copy that names a
# field DriveSettings does not have
_BAD_CALLS = {
    "derived.overflow": lambda: _FAR.derived,
    "derive_constants.overflow": lambda: derive_constants(_FAR),
    "solve_steady_state.overflow": lambda: solve_steady_state(_FAR),
    "output_power.overflow": lambda: output_power(1.0, _FAR),
    "derived.n_centers_overflow": lambda: _CROWDED.derived,
    "solve_steady_state.n_centers_overflow": lambda: solve_steady_state(
        _CROWDED),
    "output_power.n_centers_overflow": lambda: output_power(1.0, _CROWDED),
    "dc_sensitivity.n_centers_underflow": lambda: dc_sensitivity(_EMPTY,
                                                                 2e-4),
    "dc_sensitivity_curve.n_centers_underflow": lambda: dc_sensitivity_curve(
        _EMPTY, [2e-4]),
    "with_drive.unknown_field": lambda: with_drive(_BASE, pump=1e6),
    "step_response.seed_n": lambda: step_response(_BASE, 0.0, 1e8,
                                                  seed_n="1"),
    "step_response.seed_n_past_range": lambda: step_response(
        _BASE, 0.0, 1e8, seed_n=10**400),
    "dc_sensitivity": lambda: dc_sensitivity(_HS, "1e-4"),
    "dc_sensitivity_past_range": lambda: dc_sensitivity(_HS, 10**400),
    "with_bias_field": lambda: with_bias_field(_BASE, "1e-4"),
    "find_bias_point": lambda: find_bias_point(_HS, "1e-4", 3e-4),
    "best_eta_over_field": lambda: best_eta_over_field(_HS, 1e-4, None),
    "populations_at_fixed_n": lambda: populations_at_fixed_n(_BASE, "1"),
    "net_gain": lambda: net_gain(_BASE, None),
    "net_gain_past_range": lambda: net_gain(_BASE, 10**400),
    "output_power": lambda: output_power("1", _BASE),
    "apply_overrides.int": lambda: apply_overrides(_BASE, [5]),
    "apply_overrides.none": lambda: apply_overrides(_BASE, [None]),
    "apply_overrides.bytes": lambda: apply_overrides(
        _BASE, [b"cavity.kappa=1e6"]),
    "apply_overrides.bare_str": lambda: apply_overrides(
        _BASE, "cavity.kappa=1e6"),
    "resolve_config.int": lambda: resolve_config(None, None, [5]),
    "l27_robustness.none": lambda: l27_robustness(_HS, ratios=(None,),
                                                  b_grid=[2e-4]),
    "l27_robustness.scalar": lambda: l27_robustness(_HS, ratios=0.1,
                                                    b_grid=[2e-4]),
    **{f"optimize_sensitivity.{name}={value!r}": (
        lambda name=name, value=value: optimize_sensitivity(
            _HS, **{name: value}))
       for name, value in (
           ("max_evaluations", "5"), ("max_evaluations", True),
           ("max_evaluations", 0), ("bounds_decades", "1"),
           ("bounds_decades", -1.0), ("bounds_decades", math.nan),
           ("vary", "pump"), ("vary", ("pump", "pump")),
           ("vary", ("pump", "drive.pump12")),
           ("b_window", (1e-4,)), ("b_window", None))},
    "rate_matrix.n": lambda: rate_matrix(_BASE, "1", 0),
    "rate_matrix.delta_past_range": lambda: rate_matrix(_BASE, 0, 10**400),
    "rate_matrix.n_infinite": lambda: rate_matrix(_BASE, math.inf, 0),
    "rate_matrix.delta_nan": lambda: rate_matrix(_BASE, 0.0, math.nan),
    "integrate.y0": lambda: integrate(_BASE, 5.0, (0, 1e-7)),
    "integrate.t_span": lambda: integrate(_BASE, _Y0, (None, 1e-7)),
    "experiment.unhashable": lambda: experiment([1.0]),
    "set_param.unhashable": lambda: set_param(_BASE, ["x"], 1.0),
    "save_config.path": lambda: save_config(_BASE, 5),
    "load_config.path": lambda: load_config(None),
    "OutputTable.columns": lambda: OutputTable(columns=5),
    "OutputTable.rows": lambda: OutputTable(columns=(), rows=[5]),
    "OutputTable.rows_not_a_list": lambda: OutputTable(columns=(), rows=5),
    "TimeSeries.lists": lambda: TimeSeries(t=[0.0], states=[[0.0] * 10]),
    "TimeSeries.scalar_t": lambda: TimeSeries(t=np.array(0.0),
                                              states=np.zeros((1, 10))),
}

# A valid start for ``integrate``: all population in level 1, no photons
_Y0 = [1.0] + [0.0] * 9


@pytest.mark.parametrize("call", list(_BAD_CALLS))
def test_call_arguments_outside_a_record_are_config_errors(call):
    with pytest.raises(InvalidConfigError):
        _BAD_CALLS[call]()


# Call arguments checked by a declared rule, each with valid values for
# the call's other arguments
_ARGUMENTS = {
    "rate_matrix.n": lambda v: rate_matrix(_BASE, v, 0.0),
    "rate_matrix.delta": lambda v: rate_matrix(_BASE, 0.0, v),
    "populations_at_fixed_n.n": lambda v: populations_at_fixed_n(_BASE, v),
    "output_power.n": lambda v: output_power(v, _BASE),
    "with_bias_field.b_field": lambda v: with_bias_field(_BASE, v),
    "step_response.seed_n": lambda v: step_response(_BASE, 0.0, 1e8,
                                                    seed_n=v),
    "integrate.y0": lambda v: integrate(_BASE, v, (0.0, 1e-7)),
    "integrate.t_span": lambda v: integrate(_BASE, _Y0, v),
    "find_bias_point.b_max": lambda v: find_bias_point(_HS, 1e-4, v),
    "ac_sensitivity.method": lambda v: ac_sensitivity(
        _HS, AcSignalModel(164e-6, 1e-9, 2e5), method=v),
    "optimize_sensitivity.vary": lambda v: optimize_sensitivity(_HS,
                                                                vary=v),
    "optimize_sensitivity.max_evaluations": lambda v: optimize_sensitivity(
        _HS, max_evaluations=v),
    "experiment.name": experiment,
    "preset.name": preset,
    "apply_overrides.overrides": lambda v: apply_overrides(_BASE, v),
    "OutputTable.render.fmt": lambda v: OutputTable(columns=()).render(v),
    "save_config.path": lambda v: save_config(_BASE, v),
    "load_config.path": load_config,
}


@pytest.mark.parametrize("call", list(_ARGUMENTS))
def test_every_call_argument_rejects_wrong_typed_values(call):
    for value in _WRONG_TYPED:
        if (call, value) == ("step_response.seed_n", None):
            continue  # the default: the photon number of the start
        with pytest.raises(InvalidConfigError):
            _ARGUMENTS[call](value)


def test_every_registry_path_rejects_wrong_typed_values():
    for path in _UNITS:
        for value in _WRONG_TYPED:
            with pytest.raises(InvalidConfigError):
                set_param(_BASE, path, value)


def _built(config, **drive):
    """``config`` with the DriveSettings fields ``drive`` replaced, built
    field by field, so that it holds no derived quantities."""
    d = config.drive
    return ModelConfig(
        rates=config.rates, cavity=config.cavity,
        drive=DriveSettings(pump12=drive.get("pump12", d.pump12),
                            pump45=drive.get("pump45", d.pump45),
                            omega=drive.get("omega", d.omega),
                            delta=drive.get("delta", d.delta)),
        orientation=config.orientation, constants=config.constants,
        gain=config.gain)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_drive_copies_equal_a_config_built_field_by_field(name):
    cfg = preset(name)
    b = 1.5e-4
    assert with_drive(cfg, omega=2e6, delta=-3e7) == _built(
        cfg, omega=2e6, delta=-3e7)
    assert with_pump(cfg, 2e6) == _built(cfg, pump12=2e6, pump45=2e6)
    assert with_bias_field(cfg, b) == _built(
        cfg, delta=b_field_to_detuning(b, cfg.constants))
    assert set_param(cfg, "drive.pump45", 3e6) == _built(cfg, pump45=3e6)
    # every section but the drive is the parent's own, whatever sections
    # ModelConfig declares
    copy = with_drive(cfg, delta=2e7)
    assert copy == dataclasses.replace(
        cfg, drive=dataclasses.replace(cfg.drive, delta=2e7))
    for f in dataclasses.fields(ModelConfig):
        if f.name != "drive":
            assert getattr(copy, f.name) is getattr(cfg, f.name)


def test_drive_copies_share_the_parent_s_derived_quantities():
    parent = preset("baseline")
    copy = with_pump(parent, 2e6)
    # a parent that holds none hands none over, and the copy computes its
    # own only when read
    assert "derived" not in parent.__dict__
    assert "derived" not in copy.__dict__
    assert copy.derived == derive_constants(copy)
    assert "derived" not in parent.__dict__
    derived = parent.derived
    for copy in (with_drive(parent, omega=1e6, delta=2e7),
                 with_pump(parent, 3e6), with_bias_field(parent, 1e-4),
                 set_param(parent, "pump", 5e5),
                 with_pump(with_bias_field(parent, -2e-4), 0.0)):
        assert copy.derived is derived
        assert copy.derived == derive_constants(copy)
    # so copying a config whose constants overflow stays legal
    far = with_pump(_FAR, 2e6)
    with pytest.raises(InvalidConfigError):
        far.derived


def _outcome(call, *args):
    """``call(*args)``, or the type and message of the error it raises."""
    try:
        return call(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(PRESET_NAMES),
       mode=st.sampled_from(["single_orientation", "four_orientation"]),
       pump=st.just(0.0) | st.floats(1e5, 4e7),
       omega=st.just(0.0) | st.floats(1e5, 1e7),
       delta=st.floats(-1.5e8, 1.5e8), n=st.floats(0.0, 1.0))
def test_drive_copies_solve_as_configs_built_fresh(name, mode, pump, omega,
                                                   delta, n):
    parent = dataclasses.replace(preset(name),
                                 orientation=OrientationModel(mode=mode))
    parent.derived
    copy = with_drive(with_pump(parent, pump), omega=omega, delta=delta)
    fresh = _built(parent, pump12=pump, pump45=pump, omega=omega,
                   delta=delta)
    assert copy.derived is parent.derived
    assert "derived" not in fresh.__dict__
    for call, args in ((net_gain, (n,)), (solve_steady_state, ()),
                       (find_operating_point, ())):
        assert _outcome(call, copy, *args) == _outcome(call, fresh, *args)
