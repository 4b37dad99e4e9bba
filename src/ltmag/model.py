"""Model configuration and derived quantities.

The gain medium is an ensemble of seven-level centers in a diamond slab
inside an optical cavity.  Levels 1..3 are the m_s = 0 branch (ground,
pumped excited state, lower lasing level), 4..6 the same for |m_s| = 1,
and 7 is the metastable singlet.  A microwave drive of Rabi rate omega
and detuning delta mixes the two ground states (1 and 4) through the
coherence rho14.  The cavity photon number per center, n, couples to the
2<->3 and 5<->6 transitions with stimulated rate G * n.

A ModelConfig holds five sections: level rates, cavity, drive,
orientation and physical constants (SI, CODATA 2018 where applicable).
Each field declares its unit and the values it accepts once, on the
dataclass (``_field``); ``_check_fields`` rejects any other value on
construction, and ``configio`` builds the config file schema and the
parameter registry from these declarations.

Unit conventions
----------------
* every rate, Rabi rate, detuning, and linewidth named ``*_rate``,
  ``pump*``, ``omega*``, ``delta*``, ``kappa``, ``L*``, ``gamma*`` is
  angular (rad/s);
* the emission bandwidth entering the gain coupling formula is an
  ordinary frequency (Hz);
* magnetic fields are tesla, volumes m^3, lengths m, powers W.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

from .errors import InvalidConfigError

# Smallest nonzero pump or Rabi rate (rad/s).  Rates near the bottom of
# the float range leave the steady-state matrix so badly scaled that its
# solve gives occupations outside [0, 1] or overflows.
MIN_DRIVE_RATE = 1e-300

# The values a field accepts: a (test, phrase) pair; NaN fails each test
FINITE = (math.isfinite, "finite")
NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
AT_LEAST_ONE = (lambda v: 1.0 <= v < math.inf, "finite and >= 1")
FRACTION = (lambda v: 0.0 < v <= 1.0, "in (0, 1]")
DRIVE_RATE = (lambda v: v == 0.0 or MIN_DRIVE_RATE <= v < math.inf,
              f"0 or finite and >= {MIN_DRIVE_RATE:g} rad/s")


def _field(unit: str | None, valid, **kwargs):
    """A config field with its unit and the values it accepts: None marks
    a dimensionless number, "str" a token; ``valid`` is a (test, phrase)
    pair such as those above.  ``kwargs`` go to ``dataclasses.field``."""
    return field(metadata={"unit": unit, "valid": valid}, **kwargs)


@functools.cache
def _checks(cls) -> tuple:
    """(name, test, phrase) of each field of ``cls`` that declares one."""
    return tuple((f.name, *f.metadata["valid"]) for f in fields(cls)
                 if "valid" in f.metadata)


def _check_fields(self) -> None:
    """The ``__post_init__`` of a dataclass of ``_field``s: raises
    InvalidConfigError for the first value, None aside, that its field
    does not accept."""
    for name, test, phrase in _checks(type(self)):
        value = getattr(self, name)
        if value is not None and not test(value):
            raise InvalidConfigError(f"{name} must be {phrase}, got {value!r}")


@dataclass(frozen=True)
class LevelRates:
    """Spontaneous and non-radiative rates between the seven levels.

    ``Lij`` moves population from level i to level j.  ``gamma14`` is the
    extra dephasing of the ground-spin coherence on top of the pump
    contribution (inhomogeneous broadening, 1/T2*).
    """

    L21: float = _field("rad/s", NONNEGATIVE)  # excited m_s=0 -> ground
    L23: float = _field("rad/s", NONNEGATIVE)  # feeds lower lasing level 3
    L31: float = _field("rad/s", NONNEGATIVE)  # fast drain of level 3
    L54: float = _field("rad/s", NONNEGATIVE)  # excited |m_s|=1 -> ground
    L56: float = _field("rad/s", NONNEGATIVE)  # feeds lower lasing level 6
    L64: float = _field("rad/s", NONNEGATIVE)  # fast drain of level 6
    L57: float = _field("rad/s", NONNEGATIVE)  # crossing into the singlet
    L71: float = _field("rad/s", NONNEGATIVE)  # singlet -> m_s=0 ground
    L74: float = _field("rad/s", NONNEGATIVE)  # singlet -> |m_s|=1 ground
    L27: float = _field("rad/s", NONNEGATIVE)  # weak m_s=0 excited crossing
    gamma14: float = _field("rad/s", NONNEGATIVE)

    __post_init__ = _check_fields

    def all_zero(self) -> bool:
        return all(getattr(self, name) == 0.0 for name in RATE_FIELDS
                   if name != "gamma14")


RATE_FIELDS = tuple(f.name for f in fields(LevelRates))


@dataclass(frozen=True)
class CavityGeometry:
    """Cavity and gain-medium parameters."""

    kappa: float = _field("rad/s", POSITIVE)            # photon loss rate
    medium_volume: float = _field("m^3", POSITIVE)      # doped diamond
    cavity_volume: float = _field("m^3", POSITIVE)      # mode volume
    nv_concentration: float = _field(None, FRACTION)    # per carbon site
    nv_fraction: float = _field(None, FRACTION)         # usable fraction
    vacuum_wavelength: float = _field("m", POSITIVE)    # lasing transition
    refractive_index: float = _field(None, AT_LEAST_ONE)
    emission_bandwidth: float = _field("Hz", POSITIVE)  # emission band width

    __post_init__ = _check_fields


@dataclass(frozen=True)
class DriveSettings:
    """Optical pump and microwave drive."""

    pump12: float = _field("rad/s", DRIVE_RATE)  # optical pump, m_s=0
    pump45: float = _field("rad/s", DRIVE_RATE)  # optical pump, |m_s|=1
    omega: float = _field("rad/s", DRIVE_RATE)   # microwave Rabi rate
    delta: float = _field("rad/s", FINITE)       # detuning from resonance

    __post_init__ = _check_fields


ORIENTATION_MODES = ("single_orientation", "four_orientation")


@dataclass(frozen=True)
class OrientationModel:
    """How the four crystallographic center orientations are treated.

    ``single_orientation`` treats the whole ensemble as aligned with the
    bias field.  ``four_orientation`` keeps an aligned sub-ensemble of
    weight ``aligned_fraction`` at the configured detuning and pins the
    remainder far off resonance at ``off_axis_detuning``.
    """

    mode: str = _field("str", (ORIENTATION_MODES.__contains__,
                               f"one of {ORIENTATION_MODES}"),
                       default="single_orientation")
    aligned_fraction: float = _field(None, FRACTION, default=0.25)
    off_axis_detuning: float = _field("rad/s", FINITE, default=1.0e9)

    __post_init__ = _check_fields


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants used by the model, overridable for testing."""

    hbar: float = _field("J s", POSITIVE, default=1.054571817e-34)
    h: float = _field("J s", POSITIVE, default=6.62607015e-34)
    c: float = _field("m/s", POSITIVE, default=2.99792458e8)
    mu_bohr: float = _field("J/T", POSITIVE, default=9.2740100783e-24)
    g_electron: float = _field(None, POSITIVE, default=2.0023)  # g-factor
    # Number density of carbon sites in diamond; NV concentrations are
    # quoted as an atomic fraction of this.
    carbon_site_density: float = _field("1/m^3", POSITIVE, default=1.76e29)

    __post_init__ = _check_fields

    @property
    def field_per_detuning(self) -> float:
        """T per (rad/s): magnetic field producing unit spin detuning.

        The ground-state spin levels shift by (g mu_B / hbar) B in angular
        frequency, so B = (hbar / (g mu_B)) * delta.
        """
        return self.hbar / (self.g_electron * self.mu_bohr)


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class ModelConfig:
    """Complete, immutable description of one simulated device."""

    rates: LevelRates
    cavity: CavityGeometry
    drive: DriveSettings
    orientation: OrientationModel = field(default_factory=OrientationModel)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    # When set, solvers use this stimulated coupling G instead of the
    # value computed from the cavity geometry.
    gain_coupling_override: float | None = _field("rad/s", POSITIVE,
                                                  default=None)

    __post_init__ = _check_fields

    @cached_property
    def derived(self) -> DerivedQuantities:
        """``derive_constants(self)``, computed on first use.  The config
        is frozen, so the cached value cannot go stale; it is not a field,
        so equality, hashing and serialisation ignore it."""
        return derive_constants(self)


@dataclass(frozen=True)
class DerivedQuantities:
    """Quantities computed from a ModelConfig's device, never its drive,
    and cached on the config; every drive of one device shares them."""

    n_centers: float              # usable centers in the medium
    photon_energy: float          # J, h c / vacuum_wavelength
    gain_coupling: float          # G used by solvers (rad/s)
    gain_coupling_formula: float  # G from the geometry formula (rad/s)
    quality_factor: float         # 2 pi nu / kappa

def derive_constants(config: ModelConfig) -> DerivedQuantities:
    """Compute ensemble size, gain coupling, and related scalars.

    The stimulated coupling per photon per center is

        G = 3 nu L23 lambda_med^3 N / (4 pi^2 dnu V_cavity)

    with lambda_med the wavelength inside the medium and dnu the emission
    bandwidth in Hz.  ``gain_coupling_override`` replaces G for solver use
    without touching the formula value.
    """
    cav = config.cavity
    cst = config.constants
    n_centers = (cav.nv_concentration * cst.carbon_site_density
                 * cav.medium_volume * cav.nv_fraction)
    nu = cst.c / cav.vacuum_wavelength
    wavelength_med = cav.vacuum_wavelength / cav.refractive_index
    g_formula = (3.0 * nu * config.rates.L23 * wavelength_med ** 3 * n_centers
                 / (4.0 * math.pi ** 2 * cav.emission_bandwidth
                    * cav.cavity_volume))
    g_used = (config.gain_coupling_override
              if config.gain_coupling_override is not None else g_formula)
    return DerivedQuantities(
        n_centers=n_centers,
        photon_energy=cst.h * nu,
        gain_coupling=g_used,
        gain_coupling_formula=g_formula,
        quality_factor=2.0 * math.pi * nu / cav.kappa,
    )


def b_field_to_detuning(b_field: float,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Microwave detuning (rad/s) produced by a bias field along the axis."""
    return b_field / constants.field_per_detuning


def detuning_to_b_field(delta: float,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Inverse of :func:`b_field_to_detuning`."""
    return delta * constants.field_per_detuning


def output_power(n: float, config: ModelConfig) -> float:
    """Optical output power (W) for n photons per center.

    Every cavity loss event is counted as useful output:
    P = n * N_centers * kappa * h nu.
    """
    if not (math.isfinite(n) and n >= 0.0):
        raise InvalidConfigError(
            f"photon number must be finite and >= 0, got {n!r}")
    d = config.derived
    return n * d.n_centers * config.cavity.kappa * d.photon_energy


def with_drive(config: ModelConfig, **changes) -> ModelConfig:
    """Copy of config with DriveSettings fields replaced."""
    return dataclasses.replace(
        config, drive=dataclasses.replace(config.drive, **changes))


def with_pump(config: ModelConfig, pump: float) -> ModelConfig:
    """Copy of config with both branch pump rates set to ``pump``."""
    return with_drive(config, pump12=pump, pump45=pump)


def with_bias_field(config: ModelConfig, b_field: float) -> ModelConfig:
    """Copy of config with the detuning set from a bias field (T)."""
    return with_drive(config,
                      delta=b_field_to_detuning(b_field, config.constants))


# Singlet lifetimes: 24.9 ns intersystem crossing, 462 ns singlet decay
# split 1:2 between the m_s=0 and |m_s|=1 ground states.
_BASELINE_RATES = LevelRates(
    L21=68.2e6, L23=18.0e6, L31=1.0e12,
    L54=68.2e6, L56=18.0e6, L64=1.0e12,
    L57=1.0 / 24.9e-9, L71=0.5 / 462e-9, L74=1.0 / 462e-9,
    L27=0.0, gamma14=1.0e6,
)

_BASELINE_CAVITY = CavityGeometry(
    kappa=3.0e6,
    medium_volume=1.0e-9,
    cavity_volume=2.0e-9,
    nv_concentration=5.7e-9,
    nv_fraction=1.0,
    vacuum_wavelength=709e-9,
    refractive_index=2.4,
    emission_bandwidth=24e12,
)

_BASELINE_DRIVE = DriveSettings(pump12=1.06e6, pump45=1.06e6,
                                omega=3.67e6, delta=0.0)


def preset(name: str) -> ModelConfig:
    """Named device configurations.

    ``baseline``: low-loss cavity, dilute ensemble; the regime for
    threshold and output-power studies.

    ``high_sensitivity``: dense ensemble (16 ppm), broadened spin line,
    lossy cavity, harder pump; the regime for field sensing near the
    lasing edge.
    """
    if name == "baseline":
        return ModelConfig(rates=_BASELINE_RATES, cavity=_BASELINE_CAVITY,
                           drive=_BASELINE_DRIVE)
    if name == "high_sensitivity":
        rates = dataclasses.replace(_BASELINE_RATES, gamma14=1.0 / 0.181e-6)
        cavity = dataclasses.replace(_BASELINE_CAVITY,
                                     kappa=63.1e9, nv_concentration=16e-6)
        drive = DriveSettings(pump12=10.4e6, pump45=10.4e6,
                              omega=6.14e6, delta=0.0)
        return ModelConfig(rates=rates, cavity=cavity, drive=drive)
    raise InvalidConfigError(
        f"unknown preset {name!r}; expected 'baseline' or 'high_sensitivity'")


PRESET_NAMES = ("baseline", "high_sensitivity")
