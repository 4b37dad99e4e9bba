"""Parameter sweeps over one or two axes.

An axis is any numeric path of the parameter registry in ``configio``:
a dotted config path (``drive.delta``, ``drive.pump12``, ``cavity.kappa``,
...) or one of the derived paths defined there, ``b_field`` (the
detuning from a bias field in tesla) and ``pump`` (both branch pump
rates together).  With two axes the second one varies fastest.  The
d.c. outputs ``dn_dB`` and ``eta_dc`` share one implicit slope per
point, so a ``b_field`` axis gives ``dc_sensitivity_curve``'s values
(with ``n`` = 0.0 and both cells absent at dark points).  Only grids of
``POOL_MIN_POINTS`` points or more run in a process pool, and not with
``parallel=False`` (``--serial`` on the command line); values and row
order do not depend on the backend.  Points where a solver raises a
physics-domain or convergence error keep their axis cells and leave
the value cells absent.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __about__
from .configio import config_digest, get_param, param_unit, set_param
from .errors import ConvergenceError, InvalidConfigError, PhysicsDomainError
from .model import ModelConfig, output_power
from .sensitivity import _dc_at_state
from .steady import POPULATION_NAMES, solve_steady_state
from .tables import Column, OutputTable

# Smallest grid that runs in a process pool.  Serial and pooled runs of a
# `baseline` n,P_out,branch grid on two CPUs take equal time near 400
# points; below that, starting the pool costs more than it saves.
POOL_MIN_POINTS = 400

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


def _eval_point(payload) -> tuple:
    """Evaluate all requested outputs at one grid point.

    Module-level so process pools can pickle it.  Physics-domain and
    convergence errors at a point yield absent value cells.
    """
    config, assignments, outputs = payload
    cells: list = [value for _, value in assignments]
    for path, value in assignments:
        config = set_param(config, path, value)
    try:
        ss = solve_steady_state(config)
    except (PhysicsDomainError, ConvergenceError):
        for name in outputs:
            cells.extend([None] * len(OUTPUTS[name]))
        return tuple(cells)
    dc = (_dc_at_state(config, ss, get_param(config, "b_field"))
          if "dn_dB" in outputs or "eta_dc" in outputs else None)
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
    """Evaluate the sweep grid and return one row per point, in a process
    pool when ``parallel`` is set and the grid has ``POOL_MIN_POINTS``
    points or more."""
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 else [])
    grids = [[(axis.path, float(v)) for v in axis.values()] for axis in axes]
    payloads = [(config, point, spec.outputs)
                for point in itertools.product(*grids)]
    columns = [axis.column() for axis in axes]
    for name in spec.outputs:
        columns.extend(OUTPUTS[name])

    if parallel and len(payloads) >= POOL_MIN_POINTS:
        chunk = max(1, len(payloads) // 64)
        with ProcessPoolExecutor() as pool:
            rows = list(pool.map(_eval_point, payloads, chunksize=chunk))
    else:
        rows = [_eval_point(p) for p in payloads]

    prov = {
        "generator": f"ltmag {__about__.__version__}",
        "kind": "sweep",
        "axes": " x ".join(a.path for a in axes),
        "outputs": ",".join(spec.outputs),
        **(provenance or {}),
    }
    if "config_digest" not in prov:
        prov["config_digest"] = config_digest(config)[:12]
    return OutputTable(columns=tuple(columns), rows=rows, provenance=prov)
