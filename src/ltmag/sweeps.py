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

Every grid goes through the grid evaluator ``steady._solve_columns`` as
columns: the configs of its non-drive assignments, one per distinct
assignment, each point's index into them, and each point's drive
(``steady.DRIVE_DTYPE``).  Each value of a drive axis
(``configio.DRIVE_PATHS``) is converted and checked once, and applied
after the other assignments, so a ``b_field`` value is converted with
the point's own constants (once per config).  The rows are written
from the evaluator's result columns, with no record per point.  Points
whose solve does not converge keep their axis cells and leave the value
cells absent.
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
from .model import FINITE, WHOLE, ModelConfig, _check_fields, _field, one_of
from .sensitivity import _dc_at_state
from .steady import (BELOW_THRESHOLD, DRIVE_DTYPE, LASING, POPULATION_NAMES,
                     _solve_columns)
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


def _grid(config: ModelConfig, axes) -> tuple:
    """The product of ``axes``, the last varying fastest, as the columns
    (configs, which, drive) of ``steady._solve_columns``, with one list
    of axis cells per axis (see the module docstring)."""
    values = [axis.values().tolist() for axis in axes]
    at = np.indices([len(v) for v in values]).reshape(len(axes), -1)
    other = [k for k, axis in enumerate(axes)
             if axis.path not in DRIVE_PATHS]
    configs = [reduce(lambda c, kv: set_param(c, axes[kv[0]].path, kv[1]),
                      zip(other, assignment), config)
               for assignment in itertools.product(*(values[k]
                                                     for k in other))]
    which = np.zeros(at.shape[1], dtype=int)
    for k in other:
        which = which * len(values[k]) + at[k]
    drive = np.empty(at.shape[1], DRIVE_DTYPE)
    for name in DRIVE_DTYPE.names:
        drive[name] = getattr(config.drive, name)
    for k, axis in enumerate(axes):
        if k in other:
            continue
        # each value converted and checked once, a field once per config,
        # with its constants
        sources, of = ((configs, which) if axis.path == "b_field"
                       else ([config], 0))
        changes = [[drive_changes(axis.path, v, c.constants)
                    for v in values[k]] for c in sources]
        for change in itertools.chain(*changes):
            replace(config.drive, **change)  # the DriveSettings check
        for name in changes[0][0]:
            drive[name] = np.array([[change[name] for change in row]
                                    for row in changes])[of, at[k]]
    cells = [np.array(v)[i].tolist() for v, i in zip(values, at)]
    return configs, which, drive, cells


def _value_cells(configs, which, drive, states, outputs) -> list[list]:
    """One list per value column of ``outputs`` from the StateColumns
    ``states`` of the grid (see ``_grid``), whatever they hold at a point
    without a steady state."""
    n = states.n.tolist()
    dc = [None] * len(n)
    if "dn_dB" in outputs or "eta_dc" in outputs:
        b_field, dg_dn, dg_dd = (y.tolist() for y in (
            drive["delta"] * np.array([c.constants.field_per_detuning
                                       for c in configs])[which],
            states.dg_dn, states.dg_dd))
        for i in np.flatnonzero(states.ok & states.lasing).tolist():
            dc[i] = _dc_at_state(configs[which[i]], n[i],
                                 (dg_dn[i], dg_dd[i]), b_field[i])
    cells: list = []
    for name in outputs:
        if name == "n":
            cells.append(n)
        elif name == "P_out":  # output_power's product, on arrays
            d = [c.derived for c in configs]
            with np.errstate(all="ignore"):
                cells.append((states.n
                              * np.array([x.n_centers for x in d])[which]
                              * np.array([c.cavity.kappa
                                          for c in configs])[which]
                              * np.array([x.photon_energy for x in d])[which]
                              ).tolist())
        elif name == "branch":
            cells.append([LASING if x else BELOW_THRESHOLD
                          for x in states.lasing.tolist()])
        elif name == "net_gain":
            cells.append(states.net_gain.tolist())
        elif name == "populations":
            cells.extend(states.populations.tolist())
        elif name == "dn_dB":
            cells.append([None if r is None else r.slope_dn_db for r in dc])
        elif name == "eta_dc":
            cells.append([None if r is None else r.eta for r in dc])
    return cells


def run_sweep(config: ModelConfig, spec: SweepSpec, *,
              provenance: dict | None = None) -> OutputTable:
    """Evaluate the sweep grid and return one row per point.

    ``provenance`` is the table header from ``configio.provenance``
    (built here when not given); the sweep adds its kind, axes and
    outputs."""
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 else [])
    columns = [axis.column() for axis in axes]
    for name in spec.outputs:
        columns.extend(OUTPUTS[name])

    configs, which, drive, axis_cells = _grid(config, axes)
    states, _ = _solve_columns(configs, which, drive)
    value_cells = _value_cells(configs, which, drive, states, spec.outputs)
    rows = list(zip(*axis_cells, *value_cells))
    blank = (None,) * len(value_cells)
    for i in np.flatnonzero(~states.ok).tolist():
        rows[i] = rows[i][:len(axes)] + blank

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
