"""SHA-256 of each ltmag output that a refactor must leave unchanged.

Run from a checkout as

    PYTHONPATH=src python3 tools/output_digest.py

It prints one ``label sha256`` line per item, then a ``total`` line
hashing every item in order.  The items are every table of the
pre-registered experiments as CSV and as JSON, a fixed set of
command-line runs (exit code and stdout), the reprs of the library's
steady-state, threshold, sensitivity and field-search results, and both
presets' config files as JSON and INI with their ``config_digest``.
Running it with ``PYTHONPATH`` set to another tree's ``src`` and
comparing the lines shows which outputs a change moved.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import tempfile

from ltmag import cli, configio, experiments, model, steady
from ltmag import sensitivity as s

total = hashlib.sha256()


def put(label, text):
    data = text.encode()
    total.update(label.encode() + b"\0" + data + b"\0")
    print(label, hashlib.sha256(data).hexdigest())


def run(label, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    put(label, f"{code}\n{out.getvalue()}")


for name in experiments.EXPERIMENT_NAMES:
    for key, table in experiments.experiment(name).items():
        put(f"{name}.{key}.csv", table.to_csv())
        put(f"{name}.{key}.json", table.to_json())

run("cli.sweep.omega_pump", "sweep", "--axis1", "drive.omega:1e6:6e6:7",
    "--axis2", "pump:0:4e6:9", "--outputs", "n,branch,populations,net_gain")
run("cli.sweep.b_field", "sweep", "--preset", "high_sensitivity",
    "--axis1", "b_field:-3e-4:3e-4:41", "--outputs", "n,dn_dB,eta_dc,P_out")
run("cli.sweep.one_point_log", "sweep", "--axis1", "pump:2e6:2e6:1:log")
for fmt in ("csv", "json"):
    run(f"cli.steady-state.{fmt}", "steady-state", "--delta", "3e7",
        "--format", fmt)
    run(f"cli.sensitivity-dc.{fmt}", "sensitivity-dc", "--preset",
        "high_sensitivity", "--b-field", "1.64e-4", "--format", fmt)
    run(f"cli.response.{fmt}", "response", "--delta-before", "1e8",
        "--delta-after", "0", "--format", fmt)
    run(f"cli.operating-point.{fmt}", "operating-point", "--format", fmt)

base, hs = model.preset("baseline"), model.preset("high_sensitivity")
four = dataclasses.replace(
    base, orientation=model.OrientationModel(mode="four_orientation"))
put("repr.solve_steady_state.single",
    repr(steady.solve_steady_state(model.with_drive(base, delta=3e7))))
put("repr.solve_steady_state.four", repr(steady.solve_steady_state(four)))
put("repr.dc_sensitivity", repr(s.dc_sensitivity(hs, 164e-6)))
put("repr.find_operating_point", repr(steady.find_operating_point(base)))
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

with tempfile.TemporaryDirectory() as tmp:
    for name in model.PRESET_NAMES:
        cfg = model.preset(name)
        for ext in ("json", "ini"):
            path = os.path.join(tmp, f"{name}.{ext}")
            configio.save_config(cfg, path)
            with open(path, encoding="utf-8") as fp:
                put(f"config.{name}.{ext}", fp.read())
        put(f"config.{name}.digest", configio.config_digest(cfg))

print("total", total.hexdigest())
