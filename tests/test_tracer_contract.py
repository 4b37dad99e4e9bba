"""The benchmark's tracer (perfbench/tracing.py) patches library
functions by module and name.  A library change that drops or renames a
traced name fails here, not when the benchmark runs."""

import os
import sys

import ltmag
from ltmag import cli  # noqa: F401  (the tracer patches cli.main)

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "perfbench")


def _bindings():
    return {key: dict(vars(module)) for key, module in sys.modules.items()
            if key == "ltmag" or key.startswith("ltmag.")}


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(_PERFBENCH)
    import tracing

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.names == [name for _, _, name, _ in tracing.TARGETS]
        spec = ltmag.SweepSpec(ltmag.SweepAxis("pump", 0.0, 4e6, 3))
        ltmag.run_sweep(ltmag.preset("baseline"), spec)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    assert "sweeps.run_sweep" in recorded
