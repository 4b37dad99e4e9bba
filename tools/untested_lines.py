"""Print the lines of the ltmag package that no test runs.

Runs the test suite in this process under ``sys.settrace`` (standard
library only; no coverage package is needed), recording each line run in
a frame of a module under src/ltmag.  Then prints ``path:line`` for every
executable line of those modules that never ran, and the total.  Code
run only in worker processes (the sweep pool) is not seen.  Arguments
go to pytest; its own report goes to stderr.

    PYTHONPATH=src python tools/untested_lines.py [pytest args]
"""

from __future__ import annotations

import contextlib
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ltmag"


def executable_lines(path: Path) -> set[int]:
    """Lines of a module that hold code: those of its code objects'
    instructions (line 0, the module's entry, aside)."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run, per file of the package."""
    package = os.path.realpath(PACKAGE) + os.sep
    ran: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = ran.get(filename, ...)
        if lines is ...:
            inside = os.path.realpath(filename).startswith(package)
            lines = ran[filename] = set() if inside else None
        if lines is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, {os.path.realpath(f): lines for f, lines in ran.items()
                  if lines is not None}


def main(argv: list[str]) -> int:
    code, ran = run_traced(argv or ["-q", "-p", "no:cacheprovider",
                                    str(ROOT / "tests")])
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(code)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = (executable_lines(path)
                  - ran.get(os.path.realpath(path), set()))
        total += len(missed)
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"total: {total} untested lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
