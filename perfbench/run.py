"""Benchmark of the ltmag simulator, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/ltmag``; nothing needs
to be installed or built.  The run measures set-up time in fresh
interpreters, then starts the workload in a child process
(``workloads.py``) that repeats the workload's timed section until
``--seconds`` have passed, checks every output against the stored
reference (seed 0) or against invariants (other seeds), and with
``--trace 1`` adds one traced pass for the per-layer metrics.  A child
that runs past its wall budget is killed and its unfinished ops count as
failed.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
with the run record is written to ``.perfbench/``.  The exit code is 0
only when every op passed the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# The whole run must end within 180 s; the child gets what is left of
# this after set-up.
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 5
SETUP_PROBE = ("import ltmag; b = ltmag.preset('baseline'); "
               "ltmag.preset('high_sensitivity'); "
               "ltmag.solve_steady_state(ltmag.with_drive(b, delta=1e8))")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def load_manifest() -> dict:
    """``BENCHMARK.json`` from the directory above this one: the
    workloads, and the metrics that go into the final line."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: str) -> list[float]:
    """Wall time of fresh interpreters that import ltmag, build both
    presets and solve one steady state; the first, which also compiles
    the byte code, is not counted."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=root,
                       env=_env(root), check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_worker(root: str, args, out: str, budget: float) -> tuple[dict, bool]:
    """Run the workload child; kill its process group past ``budget``."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    if args.short:
        cmd.append("--short")
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root),
                            stdout=sys.stderr.fileno(),
                            start_new_session=True)
    timed_out = False
    try:
        proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    doc = {}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fp:
            doc = json.load(fp)
    if not timed_out and proc.returncode != 0:
        doc["complete"] = False
        doc.setdefault("misses", []).append(
            f"workload process exited with code {proc.returncode}")
    return doc, timed_out


def _git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "ltmag")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def run_record(root: str, args, doc: dict) -> dict:
    per_layer = doc.get("per_layer") or {}

    def layer(name, default=None):
        return per_layer[name]["value"] if name in per_layer else default

    return {
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        # run_sweep leaves max_workers unset, so its pool has cpu_count()
        # workers; a traced run measures it.
        "pool_workers": layer("sweeps.pool_workers", os.cpu_count()),
        **doc.get("versions", {}),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "trace_overhead_frac": layer("trace.overhead_frac"),
    }


def tally(doc: dict) -> tuple[int, int]:
    """Attempted and failed ops of a worker result; the pass in flight
    when the child died or was killed fails whole."""
    attempted = doc.get("attempted", 0)
    failed = doc.get("failed", 0)
    if not doc.get("complete"):
        lost = max(doc.get("ops_per_pass", 0), 1)
        attempted += lost
        failed += lost
    return attempted, failed


def main(argv=None) -> int:
    started = time.monotonic()
    manifest = load_manifest()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in manifest["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="one reduced pass (used by selftest.py)")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ltmag", "__init__.py")):
        print("error: no src/ltmag here; run from the root of an ltmag "
              "checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup = [] if args.trace else measure_setup(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 1
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    doc, timed_out = run_worker(root, args, os.path.join(
        scratch, f"worker-{tag}.json"), budget)
    attempted, failed = tally(doc)

    everything = {}
    if args.trace:
        everything.update(doc.get("per_layer") or {})
    else:
        everything["setup_s"] = {"value": statistics.median(setup),
                                 "unit": "s"}
        everything.update(doc.get("metrics") or {})
    everything["failed_frac"] = {"value": failed / attempted, "unit": "1"}

    record = run_record(root, args, doc)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={doc.get('passes', 0)} ops={attempted} failed={failed}"
          + (" (killed at the wall budget)" if timed_out else ""))
    for name, m in everything.items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:45s} {shown:>14s} {m['unit']}")
    if args.workload == "grid_study" and args.trace:
        print("  note: fig2a runs in forked pool workers whose spans are "
              "lost; it shows as one sweeps.run_sweep span")
    for miss in doc.get("misses", [])[:20]:
        print(f"  miss: {miss}")
    print("  record: " + json.dumps(record, sort_keys=True))

    listed = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: everything[m["name"]] for m in listed
               if m["name"] in everything
               and everything[m["name"]]["value"] is not None}
    correct = bool(doc.get("complete")) and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(scratch, f"result-{tag}.json"), "w",
              encoding="utf-8") as fp:
        json.dump({**result, "all_metrics": everything, "record": record,
                   "passes": doc.get("passes", 0),
                   "pass_wall_s": doc.get("pass_wall_s"),
                   "latency_samples": doc.get("latency_samples"),
                   "misses": doc.get("misses", []),
                   "spans_file": doc.get("spans_file")}, fp, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
