"""Correctness gate: reference comparison and physical invariants.

An op's record maps field names to scalars or to tables
(``{"columns": [...], "rows": [...]}``).  Fields and table columns named
in ``TOLERANCES`` are compared at that tolerance, the tolerances the test
suite already uses; every other field is compared exactly, so axis cells,
branches, flags and absent (``None``) cells must match exactly.
"""

from __future__ import annotations

import math

# name -> (kind, tolerance).  "rel": |a - b| <= tol * max(|a|, |b|).
# "abs": |a - b| <= tol.  "dev": a relative deviation between two d.c.
# curves, each known to rel 1e-3, so |a - b| <= tol * (1 + |b|).
TOLERANCES = {
    "n": ("rel", 1e-6),
    "n_initial": ("rel", 1e-6),
    "n_final": ("rel", 1e-6),
    "P_out": ("rel", 1e-6),
    "threshold": ("rel", 1e-6),
    "operating_point_pump": ("rel", 1e-6),
    "eta_dc": ("rel", 1e-3),
    "dn_dB": ("rel", 1e-3),
    "t_63": ("rel", 2e-2),
    "t_90": ("rel", 2e-2),
    "eta_ac": ("rel", 1e-2),
    "n_signal": ("rel", 1e-2),
    "n_mean": ("rel", 1e-2),
    "b_opt": ("abs", 0.5e-6),
    "max_rel_dev": ("dev", 2e-3),
    "median_rel_dev": ("dev", 2e-3),
}

# Fields checked by invariants only; the reference does not store them.
UNCOMPARED = {"pops", "fd_rel_error", "trace_drift", "occ_min", "occ_max",
              "n_min"}

OCC_SLACK = 1e-12
TRACE_TOL = 1e-8
FD_REL_MAX = 1e-3


def _close(name: str, actual, expected) -> bool:
    if isinstance(actual, bool) or isinstance(expected, bool) \
            or not isinstance(actual, (int, float)) \
            or not isinstance(expected, (int, float)):
        return actual == expected
    kind, tol = TOLERANCES.get(name, ("exact", 0.0))
    if kind == "exact" or not (math.isfinite(actual)
                               and math.isfinite(expected)):
        return actual == expected
    diff = abs(actual - expected)
    if kind == "rel":
        return diff <= tol * max(abs(actual), abs(expected))
    if kind == "abs":
        return diff <= tol
    return diff <= tol * (1.0 + abs(expected))


def compare(key: str, actual: dict, expected: dict) -> list[str]:
    """Misses of one op's record against its reference record."""
    misses = []
    fields = set(actual) - UNCOMPARED
    if fields != set(expected):
        return [f"{key}: fields {sorted(fields)} != {sorted(expected)}"]
    for field, exp in expected.items():
        act = actual[field]
        if isinstance(exp, dict):
            misses += _compare_table(f"{key}.{field}", act, exp)
        elif not _close(field, act, exp):
            misses.append(f"{key}.{field}: {act!r} != reference {exp!r}")
    return misses


def _compare_table(where: str, actual: dict, expected: dict) -> list[str]:
    if actual["columns"] != expected["columns"]:
        return [f"{where}: columns {actual['columns']} != "
                f"{expected['columns']}"]
    if len(actual["rows"]) != len(expected["rows"]):
        return [f"{where}: {len(actual['rows'])} rows != "
                f"{len(expected['rows'])}"]
    misses = []
    for r, (row, ref) in enumerate(zip(actual["rows"], expected["rows"])):
        for col, a, e in zip(expected["columns"], row, ref):
            if not _close(col, a, e):
                misses.append(f"{where} row {r} {col}: {a!r} != "
                              f"reference {e!r}")
    return misses


def check_populations(where: str, pops) -> list[str]:
    """Occupations (first seven entries) in [0, 1] and summing to one."""
    occ = pops[:7]
    misses = []
    if min(occ) < -OCC_SLACK or max(occ) > 1.0 + OCC_SLACK:
        misses.append(f"{where}: occupation outside [0, 1]: {occ}")
    if abs(sum(occ) - 1.0) > TRACE_TOL:
        misses.append(f"{where}: trace {sum(occ)!r} != 1")
    return misses


def check_branch(where: str, n, branch) -> list[str]:
    if n is None:
        return [] if branch is None else [f"{where}: branch without n"]
    misses = []
    if n < 0.0:
        misses.append(f"{where}: n = {n!r} < 0")
    if (branch == "lasing") != (n > 0.0):
        misses.append(f"{where}: branch {branch!r} with n = {n!r}")
    return misses


def check_nonnegative(where: str, table: dict, columns) -> list[str]:
    misses = []
    for col in columns:
        i = table["columns"].index(col)
        bad = [row[i] for row in table["rows"]
               if row[i] is not None and row[i] < 0.0]
        if bad:
            misses.append(f"{where}: {col} < 0 in {len(bad)} rows")
    return misses
