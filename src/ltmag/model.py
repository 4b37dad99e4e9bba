"""Model configuration and derived quantities.

The gain medium is an ensemble of seven-level centers in a diamond slab
inside an optical cavity.  Levels 1..3 are the m_s = 0 branch (ground,
pumped excited state, lower lasing level), 4..6 the same for |m_s| = 1,
and 7 is the metastable singlet.  A microwave drive of Rabi rate omega
and detuning delta mixes the two ground states (1 and 4) through the
coherence rho14.  The cavity photon number per center, n, couples to the
2<->3 and 5<->6 transitions with stimulated rate G * n.

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
import math
from dataclasses import dataclass, field
from functools import cached_property

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import InvalidConfigError

RATE_FIELDS = ("L21", "L23", "L31", "L54", "L56", "L64",
               "L57", "L71", "L74", "L27", "gamma14")

# Smallest nonzero pump or Rabi rate (rad/s).  Rates near the bottom of
# the float range leave the steady-state matrix so badly scaled that its
# solve gives occupations outside [0, 1] or overflows.
MIN_DRIVE_RATE = 1e-300


@dataclass(frozen=True)
class LevelRates:
    """Spontaneous and non-radiative rates between the seven levels (rad/s).

    ``Lij`` moves population from level i to level j.  ``gamma14`` is the
    extra dephasing of the ground-spin coherence on top of the pump
    contribution (inhomogeneous broadening, 1/T2*).
    """

    L21: float   # excited m_s=0 decay back to ground
    L23: float   # feeding of the lower lasing level (m_s=0 branch)
    L31: float   # fast drain of the lower lasing level
    L54: float   # excited |m_s|=1 decay back to ground
    L56: float   # feeding of the lower lasing level (|m_s|=1 branch)
    L64: float   # fast drain of the lower lasing level
    L57: float   # intersystem crossing into the singlet
    L71: float   # singlet decay to m_s=0 ground
    L74: float   # singlet decay to |m_s|=1 ground
    L27: float   # optional weak crossing from the m_s=0 excited state
    gamma14: float

    def __post_init__(self):
        for name in RATE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise InvalidConfigError(
                    f"rate {name} must be finite and >= 0, got {value!r}")

    def all_zero(self) -> bool:
        return all(getattr(self, name) == 0.0 for name in RATE_FIELDS
                   if name != "gamma14")


@dataclass(frozen=True)
class CavityGeometry:
    """Cavity and gain-medium parameters."""

    kappa: float                # photon loss rate (rad/s)
    medium_volume: float        # m^3 of doped diamond
    cavity_volume: float        # m^3 mode volume
    nv_concentration: float     # centers per carbon site (atomic fraction)
    nv_fraction: float          # usable fraction of those centers
    vacuum_wavelength: float    # m, lasing transition
    refractive_index: float
    emission_bandwidth: float   # Hz, width of the emission band

    def __post_init__(self):
        if self.kappa <= 0.0 or not math.isfinite(self.kappa):
            raise InvalidConfigError(f"kappa must be > 0, got {self.kappa!r}")
        for name in ("medium_volume", "cavity_volume", "vacuum_wavelength",
                     "emission_bandwidth"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidConfigError(f"{name} must be finite and > 0")
        if not 0.0 < self.nv_concentration <= 1.0:
            raise InvalidConfigError(
                "nv_concentration is an atomic fraction in (0, 1]")
        if not 0.0 < self.nv_fraction <= 1.0:
            raise InvalidConfigError("nv_fraction must be in (0, 1]")
        if not 1.0 <= self.refractive_index < math.inf:
            raise InvalidConfigError(
                "refractive_index must be finite and >= 1")


@dataclass(frozen=True)
class DriveSettings:
    """Optical pump and microwave drive."""

    pump12: float   # optical pump rate, m_s=0 branch (rad/s)
    pump45: float   # optical pump rate, |m_s|=1 branch (rad/s)
    omega: float    # microwave Rabi rate (rad/s)
    delta: float    # microwave detuning from the spin resonance (rad/s)

    def __post_init__(self):
        for name in ("pump12", "pump45", "omega"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise InvalidConfigError(f"{name} must be finite and >= 0")
            if 0.0 < value < MIN_DRIVE_RATE:
                raise InvalidConfigError(
                    f"{name} must be 0 or >= {MIN_DRIVE_RATE:g} rad/s, "
                    f"got {value!r}")
        if not math.isfinite(self.delta):
            raise InvalidConfigError("delta must be finite")


ORIENTATION_MODES = ("single_orientation", "four_orientation")


@dataclass(frozen=True)
class OrientationModel:
    """How the four crystallographic center orientations are treated.

    ``single_orientation`` treats the whole ensemble as aligned with the
    bias field.  ``four_orientation`` keeps an aligned sub-ensemble of
    weight ``aligned_fraction`` at the configured detuning and pins the
    remainder far off resonance at ``off_axis_detuning``.
    """

    mode: str = "single_orientation"
    aligned_fraction: float = 0.25
    off_axis_detuning: float = 1.0e9   # rad/s

    def __post_init__(self):
        if self.mode not in ORIENTATION_MODES:
            raise InvalidConfigError(
                f"orientation mode must be one of {ORIENTATION_MODES}, "
                f"got {self.mode!r}")
        if not 0.0 < self.aligned_fraction <= 1.0:
            raise InvalidConfigError("aligned_fraction must be in (0, 1]")
        if not math.isfinite(self.off_axis_detuning):
            raise InvalidConfigError("off_axis_detuning must be finite")


@dataclass(frozen=True)
class ModelConfig:
    """Complete, immutable description of one simulated device."""

    rates: LevelRates
    cavity: CavityGeometry
    drive: DriveSettings
    orientation: OrientationModel = field(default_factory=OrientationModel)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    # When set, solvers use this stimulated coupling G (rad/s) instead of
    # the value computed from the cavity geometry.
    gain_coupling_override: float | None = None

    def __post_init__(self):
        if self.gain_coupling_override is not None:
            if not 0.0 < self.gain_coupling_override < math.inf:
                raise InvalidConfigError(
                    "gain_coupling_override must be finite and > 0")

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
    lase_frequency: float         # Hz, c / vacuum_wavelength
    photon_energy: float          # J
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
        lase_frequency=nu,
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
