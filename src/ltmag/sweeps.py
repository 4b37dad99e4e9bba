"""Parameter sweeps over one or two axes.

An axis is any numeric path of the parameter registry in ``configio``:
a dotted config path (``drive.delta``, ``drive.pump12``, ``cavity.kappa``,
...) or one of the derived paths defined there, ``b_field`` (the
detuning from a bias field in tesla) and ``pump`` (both branch pump
rates together).  With two axes the second one varies fastest.  The
d.c. outputs ``dn_dB`` and ``eta_dc`` share one implicit slope per
point, so a ``b_field`` axis gives ``dc_sensitivity_curve``'s values
to 1e-12 relative (with ``n`` = 0.0 and both cells absent at dark
points).

Every grid runs in one process.  ``steady._steady_states`` solves the
steady states of up to ``CHUNK_POINTS`` points at a time from one
stacked n = 0 solve, with a closed-form photon-number root: branches
and absent cells are those of per-point ``solve_steady_state`` calls,
and numbers agree with theirs to 1e-12 relative.  A point the batch
cannot certify is solved by ``solve_steady_state`` itself.
``parallel=False`` (``--serial`` on the command line) is
accepted and changes nothing.  Points where a solver raises a
physics-domain or convergence error keep their axis cells and leave
the value cells absent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .configio import get_param, param_unit, set_param
from .configio import provenance as config_provenance
from .errors import ConvergenceError, InvalidConfigError, PhysicsDomainError
from .model import ModelConfig, output_power
from .sensitivity import _dc_at_state
from .steady import POPULATION_NAMES, _steady_states, solve_steady_state
from .tables import Column, OutputTable

# Grid points whose steady states are solved in one stack.  It bounds
# the memory of a large grid: stacked whole, the 2,501-point fig2a map
# peaked 7.3 MiB higher in RSS than in chunks of 256.
CHUNK_POINTS = 256

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


@dataclass(frozen=True)
class SweepAxis:
    path: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if not (isinstance(self.points, (int, np.integer))
                and not isinstance(self.points, bool)
                and self.points >= 1
                and np.isfinite([self.start, self.stop]).all()):
            raise InvalidConfigError("axis needs finite endpoints and a "
                                     "whole number of points >= 1")
        if self.scale not in ("linear", "log"):
            raise InvalidConfigError(
                f"axis scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise InvalidConfigError("log axis endpoints must be > 0")
        _axis_unit(self.path)  # validates the path

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start], dtype=float)
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
    outputs: tuple[str, ...] = ("n", "P_out")

    def __post_init__(self):
        for name in self.outputs:
            if name not in OUTPUTS:
                raise InvalidConfigError(
                    f"unknown sweep output {name!r}; "
                    f"available: {sorted(OUTPUTS)}")
        if not self.outputs:
            raise InvalidConfigError("sweep needs at least one output")


def _eval_point(config: ModelConfig, ss, outputs) -> tuple:
    """Value cells of one grid point from its batched steady state ``ss``,
    or from ``solve_steady_state`` when the batch left it None.
    Physics-domain and convergence errors of that solve yield absent
    value cells."""
    if ss is None:
        try:
            ss = solve_steady_state(config)
        except (PhysicsDomainError, ConvergenceError):
            return (None,) * sum(len(OUTPUTS[name]) for name in outputs)
    dc = (_dc_at_state(config, ss, get_param(config, "b_field"))
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


def run_sweep(config: ModelConfig, spec: SweepSpec, *, parallel: bool = True,
              provenance: dict | None = None) -> OutputTable:
    """Evaluate the sweep grid and return one row per point.

    The grid runs in this process, in chunks of ``CHUNK_POINTS`` points
    whose steady states come from one stacked solve (``parallel`` is
    accepted and ignored).  ``provenance`` is the table header from
    ``configio.provenance`` (built here when not given); the sweep adds
    its kind, axes and outputs."""
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 else [])
    grids = [[(axis.path, float(v)) for v in axis.values()] for axis in axes]
    columns = [axis.column() for axis in axes]
    for name in spec.outputs:
        columns.extend(OUTPUTS[name])

    grid = itertools.product(*grids)
    rows = []
    while chunk := list(itertools.islice(grid, CHUNK_POINTS)):
        points = []
        for assignments in chunk:
            point = config
            for path, value in assignments:
                point = set_param(point, path, value)
            points.append(point)
        for assignments, point, ss in zip(chunk, points,
                                          _steady_states(points)):
            rows.append(tuple(value for _, value in assignments)
                        + _eval_point(point, ss, spec.outputs))

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
