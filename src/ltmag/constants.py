"""Physical constants (SI, CODATA 2018 where applicable).

All frequencies and rates in this package are angular (rad/s) unless a
name or unit annotation says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidConfigError


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants used by the model, overridable for testing."""

    hbar: float = 1.054571817e-34        # J s
    h: float = 6.62607015e-34            # J s
    c: float = 2.99792458e8              # m / s
    mu_bohr: float = 9.2740100783e-24    # J / T
    g_electron: float = 2.0023           # electron g-factor, dimensionless
    # Number density of carbon sites in diamond; NV concentrations are
    # quoted as an atomic fraction of this.
    carbon_site_density: float = 1.76e29  # 1 / m^3

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise InvalidConfigError(
                    f"constant {f.name} must be finite and positive")

    @property
    def field_per_detuning(self) -> float:
        """T per (rad/s): magnetic field producing unit spin detuning.

        The ground-state spin levels shift by (g mu_B / hbar) B in angular
        frequency, so B = (hbar / (g mu_B)) * delta.
        """
        return self.hbar / (self.g_electron * self.mu_bohr)


DEFAULT_CONSTANTS = PhysicalConstants()
