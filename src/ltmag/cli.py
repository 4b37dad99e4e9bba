"""Command-line interface.

``main`` resolves each run's config once, from ``--preset`` or ``--config``
(else baseline, or an experiment's own preset) and then each ``--set``;
every subcommand builds one unit-annotated table from it, which ``main``
prints (CSV by default, JSON with ``--format json``) to stdout or ``--out``.
``experiment`` produces several tables and therefore writes files into
an output directory.  A d.c. sensitivity curve is a ``b_field`` sweep
with outputs ``n,dn_dB,eta_dc``; options left out keep the library's
defaults; negative values may be written ``-1e8``.

Exit codes: 0 success, 1 usage or configuration error or an output
file that cannot be written, 2 numerical non-convergence, 3
physics-domain condition (e.g. the configuration cannot lase at the
requested point).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __about__
from .configio import (_format_for, get_param, param_unit, provenance,
                       resolve_config, save_config, set_param)
from .dynamics import ac_response, step_response
from .errors import ConvergenceError, InvalidConfigError, LtmagError
from .experiments import _EXPERIMENTS, EXPERIMENT_NAMES, experiment
from .model import output_power, PRESET_NAMES
from .sensitivity import (AcSignalModel, DEFAULT_B_WINDOW,
                          METHOD_AC_QUASISTATIC, METHOD_AC_TIME,
                          ac_sensitivity, dc_sensitivity, optimize_sensitivity)
from .steady import POPULATION_NAMES, find_operating_point, solve_steady_state
from .sweeps import OUTPUTS, SweepAxis, SweepSpec, run_sweep
from .tables import Column, OutputTable


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems with exit code 2; ours is 1.  Its
    own negative-number rule misses forms such as -1e8."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token that starts like a negative number (-1e8, -.5, -inf)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.I)

    def error(self, message):
        raise InvalidConfigError(message)


def _add_common(parser: argparse.ArgumentParser, default="baseline") -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--preset", choices=PRESET_NAMES,
                       help=f"named device configuration (default: {default})")
    group.add_argument("--config", metavar="PATH",
                       help="config file (.ini/.cfg or .json); "
                            "mutually exclusive with --preset")
    group.add_argument("--set", action="append", default=[],
                       metavar="SECTION.FIELD=VALUE", dest="overrides",
                       help="override one config value (repeatable)")
    out = parser.add_argument_group("output")
    out.add_argument("--out", metavar="PATH",
                     help="write the result table here instead of stdout")
    out.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")


def _given(args, *names) -> dict:
    """The named ``default=argparse.SUPPRESS`` options that were given."""
    return {name: getattr(args, name) for name in names
            if hasattr(args, name)}


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _emit(table: OutputTable, args) -> None:
    text = table.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _provenance(args, config) -> dict[str, str]:
    if args.preset:
        return provenance(config, preset=args.preset)
    return provenance(config)


def _cmd_steady_state(args, config) -> OutputTable:
    if args.b_field is not None:
        config = set_param(config, "b_field", args.b_field)
    elif args.delta is not None:
        config = set_param(config, "drive.delta", args.delta)
    ss = solve_steady_state(config)
    cols = [Column("delta", "rad/s"), Column("b_field", "T"),
            Column("n", "1"), Column("P_out", "W"), Column("branch", ""),
            Column("net_gain", "rad/s"), Column("residual", "1")]
    cols += [Column(name, "1") for name in POPULATION_NAMES]
    row = (config.drive.delta, get_param(config, "b_field"),
           ss.n, output_power(ss.n, config), ss.branch, ss.net_gain,
           ss.residual, *ss.aligned.as_array().tolist())
    return OutputTable(columns=tuple(cols), rows=[row],
                       provenance=_provenance(args, config))


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise InvalidConfigError(
            f"axis {text!r} must be path:start:stop:points[:log]")
    try:
        return SweepAxis(parts[0], float(parts[1]), float(parts[2]),
                         int(parts[3]), *parts[4:])
    except ValueError as exc:
        raise InvalidConfigError(f"bad axis {text!r}: {exc}") from exc


def _cmd_sweep(args, config) -> OutputTable:
    spec = SweepSpec(axis1=_parse_axis(args.axis1),
                     axis2=_parse_axis(args.axis2) if args.axis2 else None,
                     **_given(args, "outputs"))
    return run_sweep(config, spec, provenance=_provenance(args, config))


def _cmd_response(args, config) -> OutputTable:
    res = step_response(config, args.delta_before, args.delta_after,
                        **_given(args, "seed_n"))
    if args.timeseries:
        with open(args.timeseries, "w", encoding="utf-8") as fp:
            fp.write(res.series.to_csv(config))
    return OutputTable(
        columns=(Column("delta_before", "rad/s"),
                 Column("delta_after", "rad/s"), Column("seed_n", "1"),
                 Column("n_initial", "1"), Column("n_final", "1"),
                 Column("t_63", "s"), Column("t_90", "s"),
                 Column("settled", "")),
        # the run starts from the seed, so seed_n and n_initial agree
        rows=[(args.delta_before, args.delta_after, res.n_initial,
               res.n_initial, res.n_final, res.t_63, res.t_90,
               res.settled)],
        provenance=_provenance(args, config))


def _cmd_ac(args, config) -> OutputTable:
    hr = ac_response(config, args.bias, args.amplitude, args.omega)
    return OutputTable(
        columns=(Column("omega", "rad/s"), Column("bias_field", "T"),
                 Column("amplitude_field", "T"), Column("n_mean", "1"),
                 Column("n_signal", "1"), Column("phase", "rad"),
                 Column("distortion", "1"),
                 Column("transient_time", "s")),
        rows=[(hr.omega_signal, hr.bias_field, hr.amplitude_field,
               hr.n_mean, hr.n_signal, hr.phase, hr.distortion,
               hr.transient_time)],
        provenance=_provenance(args, config))


_SENS_COLUMNS = (Column("b_field", "T"), Column("n", "1"),
                 Column("dn_dB", "1/T"), Column("eta", "T/sqrt(Hz)"),
                 Column("diverged", ""), Column("method", ""))


def _sens_row(res) -> tuple:
    return (res.b_field, res.n, res.slope_dn_db, res.eta,
            res.diverged, res.method)


def _cmd_sensitivity_dc(args, config) -> OutputTable:
    return OutputTable(columns=_SENS_COLUMNS,
                       rows=[_sens_row(dc_sensitivity(config, args.b_field))],
                       provenance=_provenance(args, config))


def _cmd_sensitivity_ac(args, config) -> OutputTable:
    signal = AcSignalModel(bias_field=args.bias,
                           amplitude_field=args.amplitude,
                           omega_signal=args.omega,
                           **_given(args, "excess_noise"))
    res = ac_sensitivity(config, signal, **_given(args, "method"))
    return OutputTable(
        columns=_SENS_COLUMNS + (Column("omega", "rad/s"),
                                 Column("n_signal", "1")),
        rows=[_sens_row(res) + (signal.omega_signal, res.n_signal)],
        provenance=_provenance(args, config))


def _cmd_operating_point(args, config) -> OutputTable:
    pump = find_operating_point(config, omega=args.omega)
    omega = args.omega if args.omega is not None else config.drive.omega
    return OutputTable(
        columns=(Column("omega", "rad/s"), Column("pump", "rad/s")),
        rows=[(omega, pump)], provenance=_provenance(args, config))


def _cmd_optimize(args, config) -> OutputTable:
    if args.save_config:
        _format_for(args.save_config)  # fail on the extension before searching
    outcome = optimize_sensitivity(
        config, b_window=(args.b_min, args.b_max),
        **_given(args, "vary", "bounds_decades", "max_evaluations"))
    if args.save_config:
        save_config(outcome.config, args.save_config)
    cols = [Column("start_eta", "T/sqrt(Hz)"),
            Column("best_eta", "T/sqrt(Hz)"), Column("best_b_field", "T"),
            Column("evaluations", "1"), Column("converged", "")]
    row = [outcome.start_eta, outcome.eta, outcome.b_field,
           outcome.evaluations, outcome.converged]
    for path in outcome.varied:
        cols.append(Column(f"best_{path}", param_unit(path) or "1"))
        row.append(get_param(outcome.config, path))
    return OutputTable(columns=tuple(cols), rows=[tuple(row)],
                       provenance=_provenance(args, config))


def _cmd_experiment(args, config) -> None:
    _emit_experiment(experiment(args.name, config), args)


def _emit_experiment(tables, args) -> None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for key, table in tables.items():
            path = os.path.join(args.out,
                                f"{args.name}_{key}.{args.format}")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(table.render(args.format))
            print(path)
    else:
        for key, table in tables.items():
            sys.stdout.write(f"## {key}\n")
            sys.stdout.write(table.render(args.format))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ltmag",
                     description="laser threshold magnetometer simulator")
    parser.add_argument("--version", action="version",
                        version=f"ltmag {__about__.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady-state",
                       help="self-consistent photon number and populations")
    _add_common(p)
    bias = p.add_mutually_exclusive_group()
    bias.add_argument("--delta", type=float, help="detuning override (rad/s)")
    bias.add_argument("--b-field", type=float,
                      help="bias field override (T)")
    p.set_defaults(func=_cmd_steady_state)

    p = sub.add_parser("sweep", help="grid over one or two config paths")
    _add_common(p)
    p.add_argument("--axis1", required=True,
                   metavar="PATH:START:STOP:POINTS[:log]")
    p.add_argument("--axis2", metavar="PATH:START:STOP:POINTS[:log]")
    p.add_argument("--outputs", type=_comma_list, default=argparse.SUPPRESS,
                   help=f"comma list of {','.join(OUTPUTS)}")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("response", help="photon response to a detuning step")
    _add_common(p)
    p.add_argument("--delta-before", type=float, required=True)
    p.add_argument("--delta-after", type=float, required=True)
    p.add_argument("--seed-n", type=float, default=argparse.SUPPRESS,
                   help="photon seed for dark starts")
    p.add_argument("--timeseries", metavar="PATH",
                   help="also write the sampled trajectory as CSV")
    p.set_defaults(func=_cmd_response)

    p = sub.add_parser("ac", help="demodulated response to a test field")
    _add_common(p)
    p.add_argument("--bias", type=float, required=True, help="T")
    p.add_argument("--amplitude", type=float, required=True, help="T")
    p.add_argument("--omega", type=float, required=True, help="rad/s")
    p.set_defaults(func=_cmd_ac)

    p = sub.add_parser("sensitivity-dc",
                       help="shot-noise d.c. field sensitivity")
    _add_common(p)
    p.add_argument("--b-field", type=float, required=True, help="T")
    p.set_defaults(func=_cmd_sensitivity_dc)

    p = sub.add_parser("sensitivity-ac",
                       help="sensitivity to a sinusoidal test field")
    _add_common(p)
    p.add_argument("--bias", type=float, required=True, help="T")
    p.add_argument("--amplitude", type=float, required=True, help="T")
    p.add_argument("--omega", type=float, required=True, help="rad/s")
    p.add_argument("--method", default=argparse.SUPPRESS,
                   choices=(METHOD_AC_TIME, METHOD_AC_QUASISTATIC))
    p.add_argument("--excess-noise", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_sensitivity_ac)

    p = sub.add_parser("operating-point",
                       help="pump that parks the resonant system at "
                            "threshold")
    _add_common(p)
    p.add_argument("--omega", type=float, default=None,
                   help="Rabi rate override (rad/s)")
    p.set_defaults(func=_cmd_operating_point)

    p = sub.add_parser("optimize",
                       help="minimize sensitivity over device knobs")
    _add_common(p)
    p.add_argument("--vary", type=_comma_list, default=argparse.SUPPRESS,
                   metavar="PATH,...",
                   help="comma list of parameter registry paths, "
                        "e.g. pump,drive.omega")
    p.add_argument("--bounds-decades", type=float,
                   default=argparse.SUPPRESS)
    p.add_argument("--b-min", type=float, default=DEFAULT_B_WINDOW[0],
                   help="T")
    p.add_argument("--b-max", type=float, default=DEFAULT_B_WINDOW[1],
                   help="T")
    p.add_argument("--max-evaluations", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--save-config", metavar="PATH",
                   help="write the optimized config to a file")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("experiment", help="run a pre-registered study")
    studies = {}  # preset -> the studies that run on it by default
    for name, (_, preset_name) in sorted(_EXPERIMENTS.items()):
        studies.setdefault(preset_name, []).append(name)
    _add_common(p, "; ".join(f"{preset_name} for {', '.join(names)}"
                             for preset_name, names in studies.items()))
    p.add_argument("--name", required=True, choices=EXPERIMENT_NAMES)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        preset_name = args.preset
        if args.command == "experiment" and not args.config:
            preset_name = preset_name or _EXPERIMENTS[args.name][1]
        table = args.func(args, resolve_config(preset_name, args.config,
                                               args.overrides))
        if table is not None:  # experiment writes its own tables
            _emit(table, args)
        return 0
    except LtmagError as exc:
        prefix = ("did not converge: "
                  if isinstance(exc, ConvergenceError) else "")
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
