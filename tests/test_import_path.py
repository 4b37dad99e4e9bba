"""Which calls load scipy.

The steady state, the threshold, the d.c. sensitivity and the d.c.
field scans need only numpy; each runs in a fresh interpreter here, so
that a module imported by an earlier test cannot hide an import.
"""

import os
import subprocess
import sys
import textwrap

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"]
                                if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_steady_threshold_dc_and_cli_load_no_scipy():
    out = _run("""
        import contextlib, dataclasses, io, sys
        import ltmag
        from ltmag import cli
        b = ltmag.preset("baseline")
        for mode in ("single_orientation", "four_orientation"):
            cfg = dataclasses.replace(
                ltmag.with_drive(b, delta=1e8),
                orientation=ltmag.OrientationModel(mode=mode))
            assert ltmag.solve_steady_state(cfg).branch == ltmag.LASING
        assert ltmag.threshold_pump(b) > 0.0
        hs = ltmag.preset("high_sensitivity")
        assert ltmag.dc_sensitivity(hs, 200e-6).eta > 0.0
        curve = ltmag.dc_sensitivity_curve(hs, [0.0, 164e-6, 200e-6])
        assert curve[0] is None and curve[2].eta > 0.0
        assert ltmag.find_bias_point(hs, 100e-6, 300e-6).eta > 0.0
        with contextlib.redirect_stdout(io.StringIO()) as table:
            code = cli.main(["steady-state", "--preset", "baseline",
                             "--delta", "1e8"])
        assert code == 0 and "lasing" in table.getvalue()
        print(sorted(k for k in sys.modules
                     if k == "scipy" or k.startswith("scipy.")))
    """)
    assert out.strip() == "[]"


def test_time_domain_loads_scipy_integrate_through_module_global():
    out = _run("""
        import sys
        import ltmag
        from ltmag import dynamics
        assert "scipy.integrate" not in sys.modules
        # a replacement of the module global must see every integration
        assert "solve_ivp" in vars(dynamics)
        calls = []
        lazy = dynamics.solve_ivp

        def counting(*args, **kwargs):
            calls.append(kwargs["method"])
            return lazy(*args, **kwargs)

        dynamics.solve_ivp = counting
        res = ltmag.step_response(ltmag.preset("baseline"), 1e8, 0.0)
        assert res.settled and calls and set(calls) == {"LSODA"}
        print("scipy.integrate" in sys.modules)
    """)
    assert out.strip() == "True"
