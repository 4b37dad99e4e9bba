"""Parameter sweeps over one or two axes.

An axis is any numeric path of the parameter registry in ``configio``:
a dotted config path (``drive.delta``, ``drive.pump12``, ``cavity.kappa``,
...) or one of the derived paths defined there, ``b_field`` (the
detuning from a bias field in tesla) and ``pump`` (both branch pump
rates together).  With two axes the second one varies fastest; two
axes that set the same config value (``pump`` and ``drive.pump12``,
``b_field`` and ``drive.delta``, or one path twice) are rejected, as
is an output named twice.  The
d.c. outputs ``dn_dB`` and ``eta_dc`` share one implicit slope per
point, so a ``b_field`` axis gives ``dc_sensitivity_curve``'s values
exactly (with ``n`` = 0.0 and both cells absent at dark points).

Every grid goes through ``steady.solve_steady_states``, which pulls the
lazily built points one chunk at a time and factors each distinct
device of a chunk once.  A point is the config of its non-drive
assignments, rebuilt only where they change, and the DriveSettings of
its drive assignments (``configio.DRIVE_PATHS``), applied after the
others, so a ``b_field`` value is converted with the point's own
constants.  Points whose solve does not converge keep their axis cells
and leave the value cells absent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .configio import (DRIVE_PATHS, _set_twice, drive_changes, param_unit,
                       set_param)
from .configio import provenance as config_provenance
from .errors import InvalidConfigError
from .model import (FINITE, WHOLE, ModelConfig, _check_fields, _field,
                    detuning_to_b_field, one_of, output_power)
from .sensitivity import _dc_at_state
from .steady import POPULATION_NAMES, solve_steady_states
from .tables import Column, OutputTable

# output name -> columns it contributes
OUTPUTS: dict[str, tuple[Column, ...]] = {
    "n": (Column("n", "1"),),
    "P_out": (Column("P_out", "W"),),
    "branch": (Column("branch", ""),),
    "net_gain": (Column("net_gain", "rad/s"),),
    "populations": tuple(Column(name, "1") for name in POPULATION_NAMES),
    "dn_dB": (Column("dn_dB", "1/T"),),
    "eta_dc": (Column("eta_dc", "T/sqrt(Hz)"),),
}

# A sweep's outputs: names of OUTPUTS, none twice
_OUTPUT_NAMES = (lambda v: isinstance(v, (tuple, list)) and all(
    isinstance(name, str) and name in OUTPUTS for name in v)
    and 0 < len(set(v)) == len(v),
    f"a non-empty tuple or list of distinct names of {tuple(OUTPUTS)}")


@dataclass(frozen=True)
class SweepAxis:
    """``points`` values of the parameter path ``path`` from ``start``
    to ``stop``, both in the path's unit, spaced on a linear or log scale."""

    path: str
    start: float = _field(None, FINITE)
    stop: float = _field(None, FINITE)
    points: int = _field(None, WHOLE)
    scale: str = _field("str", one_of("linear", "log"), default="linear")

    def __post_init__(self):
        _check_fields(self)
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise InvalidConfigError("log axis endpoints must be > 0")
        _axis_unit(self.path)  # validates the path

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)

    def column(self) -> Column:
        return Column(self.path, _axis_unit(self.path))


def _axis_unit(path: str) -> str:
    unit = param_unit(path)
    if unit == "str":
        raise InvalidConfigError(f"cannot sweep path {path!r}")
    return unit or "1"


@dataclass(frozen=True)
class SweepSpec:
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    outputs: tuple[str, ...] = _field("str", _OUTPUT_NAMES,
                                      default=("n", "P_out"))

    def __post_init__(self):
        _check_fields(self)
        if self.axis2 and _set_twice((self.axis1.path, self.axis2.path)):
            raise InvalidConfigError(
                f"sweep axes {self.axis1.path!r} and {self.axis2.path!r} "
                "set the same config value")


def _points(config: ModelConfig, grid):
    """(config, drive) of each grid point, a tuple of (path, value)
    assignments (see the module docstring)."""
    key = point = None
    for assignments in grid:
        other = [pv for pv in assignments if pv[0] not in DRIVE_PATHS]
        if other != key:
            key = other
            point = reduce(lambda c, pv: set_param(c, *pv), other, config)
        changes = {}
        for path, value in assignments:
            if path in DRIVE_PATHS:
                changes.update(drive_changes(path, value, point.constants))
        yield point, replace(point.drive, **changes)


def _eval_point(config: ModelConfig, drive, ss, outputs) -> tuple:
    """Value cells of one grid point, ``config`` with ``drive``, from its
    steady state ``ss``; all absent where ``ss`` is None (the solve did
    not converge)."""
    if ss is None:
        return (None,) * sum(len(OUTPUTS[name]) for name in outputs)
    dc = (_dc_at_state(config, ss,
                       detuning_to_b_field(drive.delta, config.constants))
          if "dn_dB" in outputs or "eta_dc" in outputs else None)
    cells: list = []
    for name in outputs:
        if name == "n":
            cells.append(ss.n)
        elif name == "P_out":
            cells.append(output_power(ss.n, config))
        elif name == "branch":
            cells.append(ss.branch)
        elif name == "net_gain":
            cells.append(ss.net_gain)
        elif name == "populations":
            cells.extend(ss.aligned.as_array().tolist())
        elif name == "dn_dB":
            cells.append(None if dc is None else dc.slope_dn_db)
        elif name == "eta_dc":
            cells.append(None if dc is None else dc.eta)
    return tuple(cells)


def run_sweep(config: ModelConfig, spec: SweepSpec, *,
              provenance: dict | None = None) -> OutputTable:
    """Evaluate the sweep grid and return one row per point.

    ``provenance`` is the table header from ``configio.provenance``
    (built here when not given); the sweep adds its kind, axes and
    outputs."""
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 else [])
    grids = [[(axis.path, float(v)) for v in axis.values()] for axis in axes]
    columns = [axis.column() for axis in axes]
    for name in spec.outputs:
        columns.extend(OUTPUTS[name])

    grid, axis_cells = itertools.tee(itertools.product(*grids))
    points, solved = itertools.tee(_points(config, grid))
    rows = [tuple(value for _, value in assignments)
            + _eval_point(*point, ss, spec.outputs)
            for assignments, point, ss in zip(
                axis_cells, points, solve_steady_states(solved))]

    prov = dict(provenance or config_provenance(config), kind="sweep",
                axes=" x ".join(a.path for a in axes),
                outputs=",".join(spec.outputs))
    return OutputTable(columns=tuple(columns), rows=rows, provenance=prov)


def __getattr__(name):
    # The library starts no process pool.  The name stays resolvable,
    # imported on first lookup, because perfbench/tracing.py looks it up;
    # ROADMAP item 1 deletes it.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
