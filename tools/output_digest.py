"""SHA-256 of each ltmag output that a refactor must leave unchanged.

Run from a checkout as

    PYTHONPATH=src python3 tools/output_digest.py

It prints one ``label sha256`` line per item, then a ``total`` line
hashing every item in order.  The items are every table of the
pre-registered experiments as CSV and as JSON, a fixed set of
command-line runs, at least one of each subcommand (exit code and
stdout, and the text of a file the run writes), the reprs of the library's
steady-state, threshold, sensitivity and field-search results (and of the
grid evaluator's on one fixed grid, and of one overflowed rate matrix), both
presets' config files as JSON and INI with their ``config_digest``, and
a fixed set of invalid command-line runs (``error.*``: exit code and
stderr), so that a changed error message shows too.
Running it with ``PYTHONPATH`` set to another tree's ``src`` and
comparing the lines shows which outputs a change moved.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile

from ltmag import cli, configio, experiments, model, steady
from ltmag import sensitivity as s

total = hashlib.sha256()


def put(label, text):
    data = text.encode()
    total.update(label.encode() + b"\0" + data + b"\0")
    print(label, hashlib.sha256(data).hexdigest())


def run(label, *argv, stream="stdout", written=None):
    """Hash the exit code and ``stream`` of one command-line run, then
    the text of ``written``, a file that the run writes, when given."""
    out = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    with contextlib.redirect_stdout(out["stdout"]), \
            contextlib.redirect_stderr(out["stderr"]):
        code = cli.main(list(argv))
    text = f"{code}\n{out[stream].getvalue()}"
    if written is not None:
        with open(written, encoding="utf-8") as fp:
            text += fp.read()
    put(label, text)


for name in experiments.EXPERIMENT_NAMES:
    for key, table in experiments.experiment(name).items():
        put(f"{name}.{key}.csv", table.to_csv())
        put(f"{name}.{key}.json", table.to_json())

run("cli.sweep.omega_pump", "sweep", "--axis1", "drive.omega:1e6:6e6:7",
    "--axis2", "pump:0:4e6:9", "--outputs", "n,branch,populations,net_gain")
run("cli.sweep.b_field", "sweep", "--preset", "high_sensitivity",
    "--axis1", "b_field:-3e-4:3e-4:41", "--outputs", "n,dn_dB,eta_dc,P_out")
run("cli.sweep.one_point_log", "sweep", "--axis1", "pump:2e6:2e6:1:log")
# a non-drive axis: one config per kappa, over more than one chunk
run("cli.sweep.kappa_pump", "sweep", "--set", "drive.delta=3e7",
    "--axis1", "cavity.kappa:1e6:1e8:31:log", "--axis2", "pump:0:4e6:9",
    "--outputs", "n,P_out,branch,net_gain,populations,dn_dB,eta_dc")
for fmt in ("csv", "json"):
    run(f"cli.steady-state.{fmt}", "steady-state", "--delta", "3e7",
        "--format", fmt)
    run(f"cli.sensitivity-dc.{fmt}", "sensitivity-dc", "--preset",
        "high_sensitivity", "--b-field", "1.64e-4", "--format", fmt)
    run(f"cli.response.{fmt}", "response", "--delta-before", "1e8",
        "--delta-after", "0", "--format", fmt)
    run(f"cli.operating-point.{fmt}", "operating-point", "--format", fmt)
hs_args = ("--preset", "high_sensitivity", "--bias", "1.64e-4",
           "--amplitude", "1e-9", "--omega", "2e5")
run("cli.ac", "ac", *hs_args)
run("cli.sensitivity-ac.quasistatic", "sensitivity-ac", *hs_args,
    "--method", "ac_quasistatic")
run("cli.operating-point.omega", "operating-point", "--omega", "5e6",
    "--set", "cavity.kappa=4e6")
run("cli.optimize", "optimize", "--preset", "high_sensitivity", "--vary",
    "pump", "--max-evaluations", "4", "--bounds-decades", "0.1")
run("cli.experiment.fig2b.set", "experiment", "--name", "fig2b", "--set",
    "drive.omega=4e6")

base, hs = model.preset("baseline"), model.preset("high_sensitivity")
four = dataclasses.replace(
    base, orientation=model.OrientationModel(mode="four_orientation"))
put("repr.solve_steady_state.single",
    repr(steady.solve_steady_state(model.with_drive(base, delta=3e7))))
put("repr.solve_steady_state.four", repr(steady.solve_steady_state(four)))
put("repr.dc_sensitivity", repr(s.dc_sensitivity(hs, 164e-6)))
put("repr.find_operating_point", repr(steady.find_operating_point(base)))
put("repr.find_operating_point.four",
    repr(steady.find_operating_point(four)))
put("repr.threshold_pump.0", repr(steady.threshold_pump(base)))
put("repr.threshold_pump.5e7", repr(steady.threshold_pump(base, 5e7)))
put("repr.find_bias_point.100_300",
    repr(s.find_bias_point(hs, 100e-6, 300e-6)))
put("repr.find_bias_point.-300_300",
    repr(s.find_bias_point(hs, -300e-6, 300e-6)))
put("repr.best_eta_over_field",
    repr(s.best_eta_over_field(hs, 100e-6, 300e-6)))
put("repr.dc_sensitivity_curve",
    repr(s.dc_sensitivity_curve(hs, [100e-6, 164e-6, 220e-6])))
put("repr.populations_at_fixed_n",
    repr(steady.populations_at_fixed_n(base, 1e-3)))
put("repr.net_gain.single", repr(steady.net_gain(base, 1e-3)))
put("repr.net_gain.four", repr(steady.net_gain(four, 1e-4)))
# G n overflows: +-inf at the exchange entries, not nan
put("repr.rate_matrix.overflow",
    repr(steady.rate_matrix(base, 1e300, 0.0).tolist()))

# The grid of the fixed example of test_steady.py's
# test_grid_evaluator_equals_the_single_solve: five (mode, detuning, pump)
# cases, dark, lasing, at threshold and four_orientation, cycled over
# CHUNK_POINTS + 3 points, the k-th taking (k + 1) / size of its detuning
modes = {"single_orientation": base, "four_orientation": four}
pumps = {"dark": 0.0, "threshold": steady.find_operating_point(base),
         "nominal": base.drive.pump12}
cases = [("single_orientation", 1e8, "nominal"),
         ("single_orientation", -3e7, "dark"),
         ("single_orientation", 0.0, "threshold"),
         ("four_orientation", 5e7, "nominal"),
         ("single_orientation", -1.2e8, 2e6)]
size = steady.CHUNK_POINTS + 3
grid = []
for k in range(size):
    mode, delta, pump = cases[k % len(cases)]
    pump = pumps.get(pump, pump)
    grid.append((modes[mode], dataclasses.replace(
        modes[mode].drive, pump12=pump, pump45=pump,
        delta=delta * (k + 1) / size)))
put("repr.solve_steady_states", repr(list(steady.solve_steady_states(grid))))

with tempfile.TemporaryDirectory() as tmp:
    for name in model.PRESET_NAMES:
        cfg = model.preset(name)
        for ext in ("json", "ini"):
            path = os.path.join(tmp, f"{name}.{ext}")
            configio.save_config(cfg, path)
            with open(path, encoding="utf-8") as fp:
                put(f"config.{name}.{ext}", fp.read())
        put(f"config.{name}.digest", configio.config_digest(cfg))

    lit = os.path.join(tmp, "lit.ini")
    configio.save_config(
        configio.set_param(model.preset("baseline"), "gain.coupling_override",
                           3.08e8), lit)
    run("cli.experiment.fig1b.config", "experiment", "--name", "fig1b",
        "--config", lit)
    series = os.path.join(tmp, "series.csv")
    run("cli.response.timeseries", "response", "--delta-before", "1e8",
        "--delta-after", "0", "--timeseries", series, written=series)

    mode5 = os.path.join(tmp, "mode5.json")
    doc = configio.config_to_dict(base)
    doc["orientation"]["mode"] = 5
    with open(mode5, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    for label, *argv in (
            ("kappa", "steady-state", "--set", "cavity.kappa=-1"),
            ("mode", "steady-state", "--set", "orientation.mode=x"),
            ("mode_json", "steady-state", "--config", mode5),
            ("sweep_points", "sweep", "--axis1", "pump:0:1e6:0"),
            ("sweep_scale", "sweep", "--axis1", "pump:0:1e6:3:cubic"),
            ("sweep_output", "sweep", "--axis1", "pump:0:1e6:3",
             "--outputs", "nope"),
            ("response", "response", "--delta-before", "0",
             "--delta-after", "0"),
            ("ac_amplitude", "ac", "--preset", "high_sensitivity",
             "--bias", "1.64e-4", "--amplitude", "0", "--omega", "2e5"),
            ("ac_omega", "ac", "--preset", "high_sensitivity",
             "--bias", "1.64e-4", "--amplitude", "1e-9", "--omega", "0"),
            ("sweep_output_twice", "sweep", "--axis1", "pump:1e6:2e6:2",
             "--outputs", "n,n")):
        run(f"error.{label}", *argv, stream="stderr")

print("total", total.hexdigest())
