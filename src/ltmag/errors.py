"""Exception hierarchy.

Errors fall into three groups, whose ``exit_code`` the CLI returns:

* usage / configuration problems and a bare ``LtmagError`` (exit code 1),
* numerical non-convergence (exit code 2),
* physics-domain conditions such as "this configuration cannot lase"
  (exit code 3).

Physics-domain errors are expected outcomes for legitimate inputs and
carry enough context to act on (e.g. the pump bracket searched).
"""

from __future__ import annotations


class LtmagError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidConfigError(LtmagError, ValueError):
    """A configuration value, unit, file, or override path is invalid."""


class DegenerateConfigError(InvalidConfigError):
    """All transition rates are zero; the level occupation is undetermined."""


class ConvergenceError(LtmagError, RuntimeError):
    """An iterative solve failed to reach its tolerance.

    ``detail`` may hold solver state useful for diagnosis (last bracket,
    residual, step count).
    """

    exit_code = 2

    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = dict(detail) if detail else {}


class StiffnessError(ConvergenceError):
    """The time integrator failed (step size collapse or tolerance failure)."""


class PhysicsDomainError(LtmagError, RuntimeError):
    """The request is well posed but has no answer in this physical regime."""

    exit_code = 3


class NotLasableError(PhysicsDomainError):
    """No pump rate below the search ceiling reaches the lasing threshold."""


class BelowThresholdError(PhysicsDomainError):
    """The operating point is below threshold; there is no light to measure."""


class NoSignalError(PhysicsDomainError):
    """The modulated drive never produces output over a full cycle."""


class DegenerateStepError(PhysicsDomainError):
    """A step response was requested with identical before/after drives."""
