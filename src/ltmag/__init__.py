"""Laser threshold magnetometer simulator.

Rate-equation model of a seven-level solid-state gain medium coupled to
an optical cavity, with a microwave-mixed ground-state spin pair whose
detuning maps to a magnetic field.  Provides steady-state solvers,
threshold and operating-point search, stiff time-domain integration,
demodulated a.c. response, and shot-noise-limited field sensitivity,
plus config round-tripping, sweeps, and pre-registered study grids.

All rates and frequencies are angular (rad/s) except where a name or
unit annotation says Hz; fields are tesla, powers watts.
"""

from types import ModuleType as _ModuleType

from .__about__ import __version__
from .errors import (BelowThresholdError, ConvergenceError,
                     DegenerateConfigError, DegenerateStepError,
                     InvalidConfigError, LtmagError, NoSignalError,
                     NotLasableError, PhysicsDomainError, StiffnessError)
from .model import (DEFAULT_CONSTANTS, CavityGeometry, DerivedQuantities,
                    DriveSettings, GainSettings, LevelRates, ModelConfig,
                    OrientationModel, PRESET_NAMES, PhysicalConstants,
                    b_field_to_detuning, derive_constants, detuning_to_b_field,
                    output_power, preset, with_bias_field, with_drive,
                    with_pump)
from .steady import (BELOW_THRESHOLD, LASING, PopulationState,
                     SteadyStateResult, find_operating_point, net_gain,
                     populations_at_fixed_n, rate_matrix,
                     solve_steady_state, threshold_pump)
from .dynamics import (HarmonicResult, ResponseResult, TimeSeries,
                       ac_response, integrate, jacobian, rhs, step_response)
from .sensitivity import (AcSignalModel, METHOD_AC_QUASISTATIC,
                          METHOD_AC_TIME, METHOD_DC, METHOD_DC_IMPLICIT,
                          OptimizationOutcome,
                          RobustnessReport, SensitivityResult,
                          ac_sensitivity, best_eta_over_field,
                          dc_sensitivity, dc_sensitivity_curve,
                          find_bias_point, l27_robustness,
                          optimize_sensitivity, sensitivity_from_harmonic)
from .configio import (apply_overrides, config_digest, config_from_dict,
                       config_to_dict, load_config, resolve_config,
                       save_config)
from .tables import Column, OutputTable
from .sweeps import OUTPUTS, SweepAxis, SweepSpec, run_sweep
from .experiments import EXPERIMENT_NAMES, experiment

# The public API: every name imported above, the submodules aside
__all__ = ["__version__", *(name for name, value in list(globals().items())
                            if not (name.startswith("_")
                                    or isinstance(value, _ModuleType)))]
