"""Configuration dataclasses, presets, and derived quantities."""

import dataclasses
import math
import pickle

import pytest

from ltmag import (CavityGeometry, DriveSettings, InvalidConfigError,
                   LevelRates, OrientationModel, b_field_to_detuning,
                   config_digest, derive_constants, detuning_to_b_field,
                   output_power, preset)
from ltmag.configio import set_param


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
    assert d.coherence_decay == pytest.approx(
        baseline_config.rates.gamma14 + baseline_config.drive.pump12,
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
    lit = dataclasses.replace(baseline_config, gain_coupling_override=3.08e8)
    d = derive_constants(lit)
    assert d.gain_coupling == 3.08e8
    assert d.gain_coupling_formula == pytest.approx(3.116447e8, rel=1e-6)
    with pytest.raises(InvalidConfigError):
        dataclasses.replace(baseline_config, gain_coupling_override=-1.0)


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
