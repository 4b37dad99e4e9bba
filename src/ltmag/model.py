"""Model configuration and derived quantities.

The gain medium is an ensemble of seven-level centers in a diamond slab
inside an optical cavity.  Levels 1..3 are the m_s = 0 branch (ground,
pumped excited state, lower lasing level), 4..6 the same for |m_s| = 1,
and 7 is the metastable singlet.  A microwave drive of Rabi rate omega
and detuning delta mixes the two ground states (1 and 4) through the
coherence rho14.  The cavity photon number per center, n, couples to the
2<->3 and 5<->6 transitions with stimulated rate G * n.

A ModelConfig holds six sections: level rates, cavity, drive,
orientation, physical constants (SI, CODATA 2018 where applicable) and gain.
Each field declares its unit and the values it accepts once, on the
dataclass (``_field``), as a rule such as ``FINITE``: a (test, phrase)
pair whose test checks the value's type too.  ``_check_fields`` applies
the rules on construction, and public calls apply them to their other
arguments through ``_check``, which raises InvalidConfigError as
``<name> must be <phrase>, got <value>``; ``configio`` builds the config
file schema and the parameter registry from these declarations.

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
import numbers
import typing
from dataclasses import dataclass, field, fields
from functools import cached_property

from .errors import InvalidConfigError

# Smallest nonzero pump or Rabi rate (rad/s).  Rates near the bottom of
# the float range leave the steady-state matrix so badly scaled that its
# solve gives occupations outside [0, 1] or overflows.
MIN_DRIVE_RATE = 1e-300

# The values a field or a call argument accepts: a (test, phrase) pair,
# whose test checks the value's type as well; NaN fails each test.  A
# number rule takes a real number (``_is_number``), a float without a call.
FINITE = (lambda v: (type(v) is float or _is_number(v)) and math.isfinite(v),
          "finite")
NONNEGATIVE = (lambda v: (type(v) is float or _is_number(v))
               and 0.0 <= v < math.inf, "finite and >= 0")
POSITIVE = (lambda v: (type(v) is float or _is_number(v))
            and 0.0 < v < math.inf, "finite and > 0")
AT_LEAST_ONE = (lambda v: (type(v) is float or _is_number(v))
                and 1.0 <= v < math.inf, "finite and >= 1")
FRACTION = (lambda v: (type(v) is float or _is_number(v)) and 0.0 < v <= 1.0,
            "in (0, 1]")
DRIVE_RATE = (lambda v: (type(v) is float or _is_number(v))
              and (v == 0.0 or MIN_DRIVE_RATE <= v < math.inf),
              f"0 or finite and >= {MIN_DRIVE_RATE:g} rad/s")
WHOLE = (lambda v: isinstance(v, numbers.Integral) and _is_number(v)
         and v >= 1, "a whole number >= 1")


def one_of(*names: str) -> tuple:
    """The rule of a token that is one of ``names``."""
    return (lambda v: isinstance(v, str) and v in names, f"one of {names}")


def window(low: str, high: str) -> tuple:
    """The rule of a finite interval, a pair (low, high) with low < high."""
    return (lambda v: isinstance(v, (tuple, list)) and len(v) == 2
            and all(map(_is_number, v))
            and -math.inf < v[0] < v[1] < math.inf,
            f"a pair ({low}, {high}) of finite numbers with {high} > {low}")


def _field(unit: str | None, valid, **kwargs):
    """A config field with its unit and the values it accepts: None marks
    a dimensionless number, "str" a token; ``valid`` is a rule such as
    those above.  ``kwargs`` go to ``dataclasses.field``."""
    return field(metadata={"unit": unit, "valid": valid}, **kwargs)


def _is_number(value) -> bool:
    """A real number that is not a bool (numpy.bool_ is not numbers.Real)
    and that float() converts: an int past the float range is not one.
    A float, the common value, is tested first."""
    if type(value) is float:
        return True
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _check(name: str, value, valid) -> None:
    """Raise InvalidConfigError unless ``value``, the field or argument
    ``name``, passes the rule ``valid``, such as those above."""
    test, phrase = valid
    if not test(value):
        raise InvalidConfigError(f"{name} must be {phrase}, got {value!r}")


def _dataclass_fields(cls) -> dict[str, type]:
    """Name -> dataclass of each field of ``cls`` annotated with one (or
    with one or None): ModelConfig's sections, SweepSpec's axes."""
    hints = {name: next((t for t in typing.get_args(hint)
                         if t is not type(None)), hint)
             for name, hint in typing.get_type_hints(cls).items()}
    return {name: t for name, t in hints.items()
            if dataclasses.is_dataclass(t)}


@functools.cache
def _checks(cls) -> tuple:
    """(name, test, rule, None accepted) of each field of ``cls`` that
    declares its rule (``_field``) or is annotated with a dataclass,
    whose instances it takes."""
    sections = _dataclass_fields(cls)
    checks = []
    for f in fields(cls):
        if "valid" in f.metadata:
            valid = f.metadata["valid"]
        elif f.name in sections:
            valid = (sections[f.name].__instancecheck__,
                     f"of type {sections[f.name].__name__}")
        else:
            continue
        checks.append((f.name, valid[0], valid, f.default is None))
    return tuple(checks)


def _check_fields(self) -> None:
    """The ``__post_init__`` of a dataclass of ``_field``s: ``_check``
    raises for the first value that its rule rejects.  None passes only
    where it is the default; any other passing value costs one test."""
    for name, test, valid, nullable in _checks(type(self)):
        value = getattr(self, name)
        if not (test(value) or value is None and nullable):
            _check(name, value, valid)


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

    mode: str = _field("str", one_of(*ORIENTATION_MODES),
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


# Demodulated noise above the shot level (dimensionless power factor),
# representative of a lock-in read-out.
DEFAULT_EXCESS_NOISE = 2.43


@dataclass(frozen=True)
class AcSignalModel:
    """The a.c. test field B(t) = bias_field + amplitude_field *
    cos(omega_signal t), whose detuning (``detuning``) replaces the
    config's in ``ac_response``, and which sets the a.c. sensitivity.
    ``excess_noise`` scales the shot noise of the demodulated read-out
    (see ``sensitivity``); the time domain does not use it."""

    bias_field: float = _field("T", FINITE)
    amplitude_field: float = _field("T", POSITIVE)
    omega_signal: float = _field("rad/s", POSITIVE)
    excess_noise: float = _field(None, AT_LEAST_ONE,
                                 default=DEFAULT_EXCESS_NOISE)

    __post_init__ = _check_fields

    def detuning(self, t: float, constants: PhysicalConstants) -> float:
        """Spin detuning (rad/s) of the field B(t) at time t."""
        return b_field_to_detuning(
            self.bias_field
            + self.amplitude_field * math.cos(self.omega_signal * t),
            constants)


@dataclass(frozen=True)
class GainSettings:
    """A stimulated coupling G that, when set, replaces the geometry's."""

    coupling_override: float | None = _field("rad/s", POSITIVE, default=None)

    __post_init__ = _check_fields


@dataclass(frozen=True)
class ModelConfig:
    """Complete, immutable description of one simulated device."""

    rates: LevelRates
    cavity: CavityGeometry
    drive: DriveSettings
    orientation: OrientationModel = field(default_factory=OrientationModel)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    gain: GainSettings = field(default_factory=GainSettings)

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
    and cached on the config; every drive of one device shares them.  A
    device whose products leave the float range is rejected."""

    n_centers: float = _field(None, POSITIVE)  # usable centers in the medium
    photon_energy: float = _field("J", FINITE)  # h c / vacuum_wavelength
    gain_coupling: float = _field("rad/s", NONNEGATIVE)  # G used by solvers
    quality_factor: float = _field(None, FINITE)  # 2 pi nu / kappa

    __post_init__ = _check_fields


def derive_constants(config: ModelConfig) -> DerivedQuantities:
    """Compute ensemble size, gain coupling, and related scalars.

    The stimulated coupling per photon per center is

        G = 3 nu L23 lambda_med^3 N / (4 pi^2 dnu V_cavity)

    with lambda_med the wavelength inside the medium and dnu the emission
    bandwidth in Hz.  ``gain.coupling_override``, when set, replaces it.
    """
    cav = config.cavity
    cst = config.constants
    n_centers = (cav.nv_concentration * cst.carbon_site_density
                 * cav.medium_volume * cav.nv_fraction)
    nu = cst.c / cav.vacuum_wavelength
    wavelength_med = cav.vacuum_wavelength / cav.refractive_index
    try:
        cubed = wavelength_med ** 3
    except OverflowError:
        raise InvalidConfigError("(vacuum_wavelength / refractive_index) ** 3 "
                                 f"overflows, got {wavelength_med!r} m") from None
    g_formula = (3.0 * nu * config.rates.L23 * cubed * n_centers
                 / (4.0 * math.pi ** 2 * cav.emission_bandwidth
                    * cav.cavity_volume))
    return DerivedQuantities(
        n_centers=n_centers,
        photon_energy=cst.h * nu,
        gain_coupling=(g_formula if config.gain.coupling_override is None
                       else config.gain.coupling_override),
        quality_factor=2.0 * math.pi * nu / cav.kappa,
    )


def b_field_to_detuning(b_field: float, constants: PhysicalConstants) -> float:
    """Microwave detuning (rad/s) produced by a bias field along the axis."""
    return b_field / constants.field_per_detuning


def detuning_to_b_field(delta: float, constants: PhysicalConstants) -> float:
    """Inverse of :func:`b_field_to_detuning`."""
    return delta * constants.field_per_detuning


def output_power(n: float, config: ModelConfig) -> float:
    """Optical output power (W) for n photons per center.

    Every cavity loss event is counted as useful output:
    P = n * N_centers * kappa * h nu.
    """
    _check("n", n, NONNEGATIVE)
    d = config.derived
    return n * d.n_centers * config.cavity.kappa * d.photon_energy


def with_drive(config: ModelConfig, **changes) -> ModelConfig:
    """Copy of config with DriveSettings fields replaced.  It shares the
    parent's ``derived``, which depends on the device only, where the
    parent has computed it."""
    try:
        drive = dataclasses.replace(config.drive, **changes)
    except TypeError:  # a name that is not a field
        unknown = sorted(set(changes).difference(vars(config.drive)))
        raise InvalidConfigError(
            f"DriveSettings has no field {', '.join(unknown)}") from None
    copy = ModelConfig(rates=config.rates, cavity=config.cavity, drive=drive,
                       orientation=config.orientation,
                       constants=config.constants, gain=config.gain)
    if "derived" in config.__dict__:
        copy.__dict__["derived"] = config.derived
    return copy


def with_pump(config: ModelConfig, pump: float) -> ModelConfig:
    """Copy of config with both branch pump rates set to ``pump``."""
    return with_drive(config, pump12=pump, pump45=pump)


def with_bias_field(config: ModelConfig, b_field: float) -> ModelConfig:
    """Copy of config with the detuning set from a bias field (T)."""
    _check("b_field", b_field, FINITE)
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


PRESET_NAMES = ("baseline", "high_sensitivity")

def preset(name: str) -> ModelConfig:
    """Named device configurations.

    ``baseline``: low-loss cavity, dilute ensemble; the regime for
    threshold and output-power studies.

    ``high_sensitivity``: dense ensemble (16 ppm), broadened spin line,
    lossy cavity, harder pump; the regime for field sensing near the
    lasing edge.
    """
    _check("preset", name, one_of(*PRESET_NAMES))
    if name == "baseline":
        return ModelConfig(rates=_BASELINE_RATES, cavity=_BASELINE_CAVITY,
                           drive=_BASELINE_DRIVE)
    rates = dataclasses.replace(_BASELINE_RATES, gamma14=1.0 / 0.181e-6)
    cavity = dataclasses.replace(_BASELINE_CAVITY,
                                 kappa=63.1e9, nv_concentration=16e-6)
    drive = DriveSettings(pump12=10.4e6, pump45=10.4e6,
                          omega=6.14e6, delta=0.0)
    return ModelConfig(rates=rates, cavity=cavity, drive=drive)
