"""Self-test of the benchmark in short mode.

    python3 perfbench/selftest.py

Run from the root of an ltmag checkout.  It checks that

* every workload emits each of its end-to-end metrics with a unit, and
  the final line has the keys ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with the metrics and units ``BENCHMARK.json`` lists;
* a traced run emits every per-layer metric, its spans have parent links
  that enclose them, and its top-level spans cover the timed section;
* the per-layer counts repeat exactly between two traced runs;
* a reference value moved beyond its tolerance makes the gate fail, and
  one moved within it does not;
* the wall budget kills a run and fails its ops;
* without ``src/ltmag`` the benchmark exits nonzero and prints no result.

Short mode runs one reduced pass per workload, so the whole test takes a
few minutes.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import shutil
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(".perfbench", "selftest")
MANIFEST = run.load_manifest()

# The metrics each workload must report, end-to-end and per layer.
E2E = ("setup_s", "wall_s", "peak_rss_mb", "failed_frac")
LATENCY = {"grid_study": (),
           "field_queries": ("steady_p50_ms", "steady_p99_ms", "dc_p50_ms",
                             "dc_p95_ms"),
           "time_domain": ("ac_p50_ms",)}
LAYER = (
    "steady.solve_steady_state.calls", "steady.solve_steady_state.self_s",
    "steady.net_gain.calls", "steady.populations_at_fixed_n.calls",
    "steady.populations_at_fixed_n.self_s", "steady.threshold_pump.calls",
    "steady.threshold_pump.busy_s", "steady.solves_per_steady_state",
    "steady.lasing_frac", "model.derive_constants.calls",
    "sensitivity.dc_sensitivity.calls", "sensitivity.dc_sensitivity.busy_s",
    "sensitivity.dc_sensitivity.self_s", "sensitivity.steady_per_dc",
    "sensitivity.fd_halvings_mean", "sensitivity.diverged_frac",
    "sensitivity.below_threshold_frac", "sensitivity.find_bias_point.busy_s",
    "sensitivity.best_eta_over_field.busy_s",
    "dynamics.step_response.busy_s", "dynamics.ac_response.busy_s",
    "dynamics.integrations", "dynamics.integrations_per_step_response",
    "dynamics.integrated_span_s", "dynamics.bdf_steps",
    "dynamics.rhs.calls", "dynamics.rhs.self_s", "dynamics.jacobian.calls",
    "dynamics.lu_decomps", "sweeps.run_sweep.busy_s",
    "sweeps.run_sweep.points", "sweeps.points_per_s", "sweeps.pool_workers",
    "experiments.experiment.fig1b.busy_s",
    "experiments.experiment.fig2b.busy_s",
    "experiments.experiment.fig3a.busy_s",
    "experiments.experiment.fig4.busy_s", "cli.main.busy_s",
    "configio.resolve_config.busy_s", "configio.config_digest.calls",
    "tables.render.busy_s", "tables.render.bytes", "trace.overhead_frac",
)
REPEATING = ("steady.populations_at_fixed_n.calls", "steady.net_gain.calls",
             "dynamics.bdf_steps", "dynamics.lu_decomps")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, cwd: str = ".",
          trace: int = 0) -> tuple[int, dict | None, dict | None]:
    """Run run.py; return its exit code, final line and result file."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--short"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    path = os.path.join(cwd, ".perfbench",
                        f"result-{workload}-seed0-trace{trace}.json")
    result = None
    if last is not None and os.path.exists(path):
        with open(path, encoding="utf-8") as fp:
            result = json.load(fp)
    return proc.returncode, last, result


def check_final_line(workload: str, last: dict, listed: str) -> None:
    """The final line has the four keys and the metrics of
    ``BENCHMARK.json[listed]`` with their units; the end-to-end ones are
    never 0 (per-layer counts of a layer the workload leaves idle are)."""
    expect(set(last) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: final line has the four keys")
    wanted = {m["name"]: m["unit"] for m in MANIFEST[listed]}
    got = {k: m["unit"] for k, m in last["metrics"].items()}
    expect(got == wanted, f"{workload}: final line has every {listed} "
           f"metric with its unit")
    if listed == "end_to_end":
        expect(all(m["value"] > 0 for m in last["metrics"].values()),
               f"{workload}: end-to-end metrics are nonzero")


def check_report(workload: str, every: dict, names) -> None:
    missing = [k for k in names if k not in every
               or every[k]["value"] is None or not every[k]["unit"]]
    expect(not missing, f"{workload}: report has every metric with a unit"
           + (f" (missing {missing})" if missing else ""))


def check_untraced(workload: str) -> None:
    code, last, result = bench(workload)
    expect(code == 0 and last is not None and last["correct"],
           f"{workload}: short run passes the gate")
    if last is None or result is None:
        return
    check_final_line(workload, last, "end_to_end")
    check_report(workload, result["all_metrics"], E2E + LATENCY[workload])
    record = result["record"]
    expect(all(k in record for k in (
        "git_commit", "seed", "nproc", "cpu_count", "pool_workers",
        "python", "numpy", "scipy", "blas", "thread_env",
        "trace_overhead_frac")), f"{workload}: run record is complete")


def _spans(path: str) -> list[tuple[int, str, float, float]]:
    with open(path, encoding="utf-8") as fp:
        return [(int(r["parent"]), r["name"], float(r["start_s"]),
                 float(r["end_s"])) for r in csv.DictReader(fp)]


def check_traced(workload: str) -> None:
    counts = []
    for attempt in range(2):
        code, last, result = bench(workload, trace=1)
        expect(code == 0 and last is not None and last["correct"],
               f"{workload}: traced short run passes the gate")
        if result is None:
            return
        every = result["all_metrics"]
        counts.append([every[k]["value"] if k in every else None
                       for k in REPEATING])
        if attempt:
            continue
        check_final_line(workload, last, "per_layer")
        check_report(workload, every, LAYER)
        spans = _spans(result["spans_file"])
        linked = all(
            parent < i and spans[parent][2] <= start and end <= spans[parent][3]
            for i, (parent, _, start, end) in enumerate(spans) if parent >= 0)
        expect(bool(spans) and linked and any(s[0] >= 0 for s in spans),
               f"{workload}: spans have parent links inside their parents")
        coverage = every["trace.top_level_coverage"]["value"]
        expect(coverage > 0.95, f"{workload}: top-level spans cover the "
               f"timed section ({coverage:.4f})")
    expect(counts[0] == counts[1],
           f"{workload}: per-layer counts repeat exactly {counts[0]}")


def check_gate() -> None:
    """One short time_domain pass in this process, checked against the
    stored reference with one t_63 moved within and beyond its
    tolerance."""
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    wl = workloads.TimeDomain(0, True, os.path.abspath(SCRATCH))
    _, outputs, errors, _ = workloads.run_pass(wl)
    reference = workloads.load_reference(wl.name)
    for scale, should_pass in ((1.0, True), (1.0 + 1e-3, True),
                               (1.05, False)):
        moved = copy.deepcopy(reference)
        moved["step_1e8_0"]["t_63"] *= scale
        _, misses = workloads.check_pass(wl, outputs, errors, moved)
        expect((not misses) == should_pass and (
            should_pass or list(misses) == ["step_1e8_0"]),
            f"gate {'accepts' if should_pass else 'rejects'} t_63 scaled "
            f"by {scale}")


def check_budget() -> None:
    args = argparse.Namespace(workload="time_domain", seed=0, seconds=1.0,
                              trace=0, short=True)
    doc, timed_out = run.run_worker(
        ".", args, os.path.join(SCRATCH, "budget.json"), budget=2.0)
    attempted, failed = run.tally(doc)
    expect(timed_out and failed == attempted > 0,
           "a run past its wall budget is killed and its ops fail")


def check_bare() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, last, _ = bench("grid_study", cwd=bare)
    expect(code != 0 and last is None,
           "without src/ltmag: nonzero exit and no result")


def main() -> int:
    if not os.path.isfile(os.path.join("src", "ltmag", "__init__.py")):
        print("error: run from the root of an ltmag checkout",
              file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    check_bare()
    for workload in (w["name"] for w in MANIFEST["workloads"]):
        check_untraced(workload)
        check_traced(workload)
    check_gate()
    check_budget()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
