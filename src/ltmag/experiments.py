"""Pre-registered study grids.

Each experiment is a named, fixed recipe (grid, preset, outputs) so that
results are comparable across runs and machines; the names are stable
identifiers used by the command line.  All experiments return a dict of
named OutputTables, each headed by ``configio.provenance`` with the
experiment's name.

* ``fig1b``  output vs pump rate, on resonance and detuned (baseline)
* ``fig2a``  output map over detuning x pump (baseline)
* ``fig2b``  output vs detuning at the self-consistent operating point
* ``fig3a``  d.c. sensitivity vs bias field (high_sensitivity)
* ``fig3b``  a.c. sensitivity vs signal frequency at a fixed bias
* ``fig4``   sensitivity-curve robustness to the weak crossing L27
"""

from __future__ import annotations

import numpy as np

from .configio import apply_overrides, provenance
from .errors import InvalidConfigError
from .model import (ModelConfig, detuning_to_b_field, output_power, preset,
                    with_drive, with_pump)
from .sensitivity import (AcSignalModel, METHOD_AC_QUASISTATIC,
                          ac_sensitivity, dc_sensitivity_curve,
                          l27_robustness)
from .steady import find_operating_point, solve_steady_state
from .sweeps import SweepAxis, SweepSpec, run_sweep
from .tables import Column, OutputTable


def _exp_fig1b(config: ModelConfig, prov: dict) -> dict[str, OutputTable]:
    """Photon output vs pump rate, on resonance and at 1e8 rad/s detuning."""
    spec = SweepSpec(SweepAxis("pump", 0.0, 4e6, 161))
    return {name: run_sweep(with_drive(config, delta=delta), spec,
                            provenance=prov)
            for name, delta in (("on_resonance", 0.0),
                                ("detuned_100MHz", 1e8))}


def _exp_fig2a(config: ModelConfig, prov: dict) -> dict[str, OutputTable]:
    """Output map over the detuning x pump plane (both pumps paired)."""
    spec = SweepSpec(
        axis1=SweepAxis("drive.delta", -1.5e8, 1.5e8, 61),
        axis2=SweepAxis("pump", 0.0, 4e6, 41),
        outputs=("n", "P_out", "branch"))
    return {"map": run_sweep(config, spec, provenance=prov)}


def _exp_fig2b(config: ModelConfig, prov: dict) -> dict[str, OutputTable]:
    """Output vs detuning with the pump parked at the operating point."""
    op = find_operating_point(config)
    cfg = with_pump(config, op)
    table = OutputTable(columns=(Column("delta", "rad/s"),
                                 Column("b_field", "T"),
                                 Column("n", "1"), Column("P_out", "W")),
                        provenance=dict(prov, operating_point_pump=repr(op)))
    for delta in np.linspace(-1.5e8, 1.5e8, 301):
        point = with_drive(cfg, delta=float(delta))
        ss = solve_steady_state(point)
        table.append((float(delta),
                      detuning_to_b_field(float(delta), cfg.constants),
                      ss.n, output_power(ss.n, point)))
    return {"profile": table}


def _sensitivity_table(config: ModelConfig, b_grid: np.ndarray,
                       prov: dict) -> OutputTable:
    table = OutputTable(columns=(Column("b_field", "T"), Column("n", "1"),
                                 Column("dn_dB", "1/T"),
                                 Column("eta_dc", "T/sqrt(Hz)")),
                        provenance=prov)
    for b, res in zip(b_grid, dc_sensitivity_curve(config, b_grid)):
        if res is None:
            table.append((float(b), None, None, None))
        else:
            table.append((float(b), res.n, res.slope_dn_db, res.eta))
    return table


def _exp_fig3a(config: ModelConfig, prov: dict) -> dict[str, OutputTable]:
    """d.c. sensitivity across the bias-field window."""
    b_grid = np.linspace(-300e-6, 300e-6, 121)
    return {"sensitivity": _sensitivity_table(config, b_grid, prov)}


def _exp_fig3b(config: ModelConfig, prov: dict) -> dict[str, OutputTable]:
    """a.c. sensitivity vs signal frequency at a 164 uT bias, 1 nT test
    signal, including the quasistatic reference level."""
    bias = 164e-6
    amplitude = 1e-9
    signal_qs = AcSignalModel(bias_field=bias, amplitude_field=amplitude,
                              omega_signal=2e4)
    qs = ac_sensitivity(config, signal_qs, method=METHOD_AC_QUASISTATIC)
    table = OutputTable(columns=(Column("omega", "rad/s"),
                                 Column("eta_ac", "T/sqrt(Hz)"),
                                 Column("eta_quasistatic", "T/sqrt(Hz)"),
                                 Column("n_signal", "1"),
                                 Column("distortion", "1"),
                                 Column("phase", "rad")),
                        provenance=prov)
    from .dynamics import ac_response
    from .sensitivity import sensitivity_from_harmonic
    for omega in np.geomspace(2e4, 2e7, 10):
        signal = AcSignalModel(bias_field=bias, amplitude_field=amplitude,
                               omega_signal=float(omega))
        hr = ac_response(config, bias, amplitude, float(omega))
        res = sensitivity_from_harmonic(config, signal, hr)
        table.append((float(omega), res.eta, qs.eta, res.n_signal,
                      hr.distortion, hr.phase))
    return {"rolloff": table}


def _exp_fig4(config: ModelConfig, prov: dict) -> dict[str, OutputTable]:
    """Sensitivity curves with the weak excited-state crossing enabled."""
    report = l27_robustness(config)
    out: dict[str, OutputTable] = {}
    curves = {0.0: report.base_curve}
    curves.update(report.curves)
    for ratio, curve in sorted(curves.items()):
        table = OutputTable(columns=(Column("b_field", "T"),
                                     Column("eta_dc", "T/sqrt(Hz)")),
                            provenance=dict(prov, l27_ratio=repr(ratio)))
        for b, res in zip(report.b_grid, curve):
            if res is None:
                table.append((float(b), None))
            else:
                table.append((float(b), res.eta))
        out[f"ratio_{ratio:g}"] = table
    summary = OutputTable(columns=(Column("l27_ratio", "1"),
                                   Column("common_points", "1"),
                                   Column("max_rel_dev", "1"),
                                   Column("median_rel_dev", "1")),
                          provenance=prov)
    for ratio in report.ratios:
        summary.append((float(ratio), report.common_points[ratio],
                        report.max_rel_dev[ratio],
                        report.median_rel_dev[ratio]))
    out["summary"] = summary
    return out


_EXPERIMENTS = {
    "fig1b": (_exp_fig1b, "baseline"),
    "fig2a": (_exp_fig2a, "baseline"),
    "fig2b": (_exp_fig2b, "baseline"),
    "fig3a": (_exp_fig3a, "high_sensitivity"),
    "fig3b": (_exp_fig3b, "high_sensitivity"),
    "fig4": (_exp_fig4, "high_sensitivity"),
}

EXPERIMENT_NAMES = tuple(sorted(_EXPERIMENTS))


def experiment(name: str, config: ModelConfig | None = None,
               overrides=()) -> dict[str, OutputTable]:
    """Run a named study; ``config`` defaults to the experiment's preset."""
    if name not in _EXPERIMENTS:
        raise InvalidConfigError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(EXPERIMENT_NAMES)}")
    fn, preset_name = _EXPERIMENTS[name]
    cfg = config if config is not None else preset(preset_name)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return fn(cfg, provenance(cfg, experiment=name))
