"""Every script in demos/ runs to completion and prints something.

Each demo runs in a fresh interpreter with ``src`` on the import path,
as a reader would run it, so a change to a public signature that breaks
a demo fails here.
"""

import glob
import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEMOS = sorted(glob.glob(os.path.join(_ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert _DEMOS


@pytest.mark.parametrize("path", _DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    argv = [sys.executable, path]
    if os.path.basename(path) == "05_step_response.py":
        argv.append(str(tmp_path / "series.csv"))
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if len(argv) > 2:
        assert os.path.getsize(argv[2]) > 0
