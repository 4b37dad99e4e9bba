"""The three benchmark workloads, run in a child process by ``run.py``.

Each workload is a closed loop with one client: the next call into
``ltmag`` is issued when the previous one returns.  A pass is one run of
the workload's timed section; outputs are turned into records and checked
by the gate after the pass, outside the timed region.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json [--short]
    python3 perfbench/workloads.py --record-reference

``--record-reference`` runs one full pass of every workload at seed 0 and
stores the records under ``perfbench/reference``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

import ltmag
from ltmag import cli, dynamics, experiments, model, sensitivity, steady

import gate
from tracing import Tracer, layer_metrics, metric

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * _uniform(rng, lo, hi)


def _shuffle(rng: random.Random, items: list) -> None:
    # Fisher-Yates on random() alone, whose sequence Python keeps stable
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


def _table(table) -> dict:
    return {"columns": [c.name for c in table.columns],
            "rows": [list(row) for row in table.rows]}


def _read_csv(path: str) -> tuple[dict, dict]:
    """Provenance and table from a CSV the command line wrote, parsed
    without the package's own reader."""
    provenance = {}
    columns = None
    rows = []
    with open(path, encoding="utf-8") as fp:
        for line in fp.read().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                provenance[key.strip()] = value.strip()
            elif columns is None:
                columns = [h.split(" [")[0] for h in line.split(",")]
            elif line:
                rows.append([_cell(c) for c in line.split(",")])
    return provenance, {"columns": columns, "rows": rows}


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    """Inputs, calls, records and invariants of one workload.

    ``calls`` is a list of (key, latency population or None, function);
    ``seeded`` holds the keys whose inputs depend on the seed, which are
    checked by invariants only when the seed differs from the reference.
    """

    name = ""
    latency_metrics: tuple[tuple[str, str, float], ...] = ()

    def __init__(self, seed: int, short: bool, scratch: str):
        self.seed = seed
        self.calls: list = []
        self.seeded: set[str] = set()

    def before_pass(self) -> None:
        pass

    def record(self, key: str, output) -> dict:
        raise NotImplementedError

    def invariants(self, key: str, record: dict) -> list[str]:
        return []

    def in_population(self, population: str, record: dict) -> bool:
        return True


class GridStudy(Workload):
    """fig2a map, fig1b and fig2b through ``ltmag.cli.main``."""

    name = "grid_study"

    def __init__(self, seed, short, scratch):
        super().__init__(seed, short, scratch)
        rng = random.Random(seed)
        f1 = 0.0 if seed == 0 else rng.random()
        f2 = 0.0 if seed == 0 else rng.random()
        step1, step2 = 3e8 / 60, 4e6 / 40
        self.axis1 = (-1.5e8 + f1 * step1, 1.5e8 + f1 * step1, 61)
        self.axis2 = (0.0 + f2 * step2, 4e6 + f2 * step2, 41)
        self.out = os.path.join(scratch, "grid")
        axis = "{}:{!r}:{!r}:{}"
        sweep = ["sweep", "--preset", "baseline",
                 "--axis1", axis.format("drive.delta", *self.axis1),
                 "--axis2", axis.format("pump", *self.axis2),
                 "--outputs", "n,P_out,branch",
                 "--out", os.path.join(self.out, "fig2a_map.csv")]
        self.calls = [
            ("sweep", None, lambda: self._cli(sweep)),
            ("fig1b", None, lambda: self._cli(
                ["experiment", "--name", "fig1b", "--out", self.out])),
            ("fig2b", None, lambda: self._cli(
                ["experiment", "--name", "fig2b", "--out", self.out])),
        ]
        self.seeded = {"sweep"}

    @staticmethod
    def _cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def before_pass(self):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def record(self, key, rc):
        rec = {"rc": rc}
        if key == "sweep":
            _, rec["map"] = _read_csv(os.path.join(self.out, "fig2a_map.csv"))
        elif key == "fig1b":
            for part in ("on_resonance", "detuned_100MHz"):
                _, rec[part] = _read_csv(
                    os.path.join(self.out, f"fig1b_{part}.csv"))
        else:
            prov, rec["profile"] = _read_csv(
                os.path.join(self.out, "fig2b_profile.csv"))
            rec["operating_point_pump"] = float(prov["operating_point_pump"])
        return rec

    def invariants(self, key, rec):
        misses = [] if rec["rc"] == 0 else [f"{key}: exit code {rec['rc']}"]
        if key == "sweep":
            table = rec["map"]
            d1 = np.linspace(*self.axis1)
            d2 = np.linspace(*self.axis2)
            expected = [[float(a), float(b)] for a in d1 for b in d2]
            if [row[:2] for row in table["rows"]] != expected:
                misses.append("sweep: axis cells differ from the grid")
            for r, (_, _, n, p_out, branch) in enumerate(table["rows"]):
                misses += gate.check_branch(f"sweep row {r}", n, branch)
                if n is not None and (p_out > 0.0) != (n > 0.0):
                    misses.append(f"sweep row {r}: P_out {p_out!r} "
                                  f"with n = {n!r}")
        else:
            for part, table in rec.items():
                if isinstance(table, dict):
                    misses += gate.check_nonnegative(f"{key}.{part}", table,
                                                     ("n", "P_out"))
        return misses


class FieldQueries(Workload):
    """Seeded stream of single steady-state, d.c. and threshold calls,
    then the field-window searches and the fig3a and fig4 studies."""

    name = "field_queries"
    latency_metrics = (("steady_p50_ms", "steady", 0.50),
                       ("steady_p99_ms", "steady", 0.99),
                       ("dc_p50_ms", "dc", 0.50),
                       ("dc_p95_ms", "dc", 0.95))

    def __init__(self, seed, short, scratch):
        super().__init__(seed, short, scratch)
        rng = random.Random(seed)
        base = model.preset("baseline")
        hs = model.preset("high_sensitivity")
        four = dataclasses.replace(base, orientation=ltmag.OrientationModel(
            mode="four_orientation"))
        plan = []
        for _ in range(1000):
            cfg = model.with_drive(base, delta=_signed(rng, 5e7, 1.5e8))
            plan.append(("steady", lambda c=cfg: steady.solve_steady_state(c)))
        for _ in range(300):
            b = _signed(rng, 170e-6, 300e-6)
            plan.append(("dc", lambda b=b: sensitivity.dc_sensitivity(hs, b)))
        for _ in range(60):
            b = _signed(rng, 0.0, 100e-6)
            plan.append(("dark", lambda b=b: self._dark(hs, b)))
        for _ in range(100):
            cfg = model.with_drive(four, delta=_uniform(rng, -1.5e8, 1.5e8))
            plan.append(("four",
                         lambda c=cfg: steady.solve_steady_state(c)))
        for _ in range(10):
            om = _uniform(rng, 1e6, 1e7)
            plan.append(("four_op", lambda om=om:
                          steady.find_operating_point(four, omega=om)))
        for _ in range(50):
            om = _uniform(rng, 1e6, 1e7)
            plan.append(("op", lambda om=om:
                         steady.find_operating_point(base, omega=om)))
        _shuffle(rng, plan)
        self.kinds = {}
        for i, (kind, fn) in enumerate(plan):
            if short and i % 10:
                continue
            key = f"q{i:04d}"
            self.kinds[key] = kind
            population = kind if kind in ("steady", "dc") else None
            self.calls.append((key, population, fn))
        self.seeded = set(self.kinds)
        self.calls += [
            ("fig3a", None, lambda: experiments.experiment("fig3a")),
            ("fig4", None, lambda: experiments.experiment("fig4")),
            ("find_bias_point", None,
             lambda: sensitivity.find_bias_point(hs, 100e-6, 300e-6)),
            ("best_eta_over_field", None,
             lambda: sensitivity.best_eta_over_field(hs, 100e-6, 300e-6)),
        ]

    @staticmethod
    def _dark(config, b):
        try:
            sensitivity.dc_sensitivity(config, b)
        except ltmag.BelowThresholdError as exc:
            return type(exc).__name__
        return "returned"

    def record(self, key, out):
        kind = self.kinds.get(key, key)
        if kind in ("steady", "four"):
            return {"n": out.n, "branch": out.branch,
                    "pops": [p.as_array().tolist() for p in out.populations]}
        if kind == "dc":
            return {"n": out.n, "eta_dc": out.eta, "dn_dB": out.slope_dn_db,
                    "diverged": out.diverged,
                    "fd_rel_error": out.fd_rel_error}
        if kind == "dark":
            return {"raised": out}
        if kind in ("op", "four_op"):
            return {"threshold": out}
        if kind in ("fig3a", "fig4"):
            return {name: _table(t) for name, t in out.items()}
        if kind == "find_bias_point":
            return {"b_opt": out.b_field, "eta_dc": out.eta, "n": out.n,
                    "diverged": out.diverged,
                    "fd_rel_error": out.fd_rel_error}
        eta, b = out
        return {"eta_dc": eta, "b_opt": b}

    def invariants(self, key, rec):
        kind = self.kinds.get(key, key)
        misses = []
        if kind in ("steady", "four"):
            misses += gate.check_branch(key, rec["n"], rec["branch"])
            for pops in rec["pops"]:
                misses += gate.check_populations(key, pops)
            if kind == "steady" and rec["branch"] != "lasing":
                misses.append(f"{key}: expected a lasing steady state")
        elif kind == "dark":
            if rec["raised"] != "BelowThresholdError":
                misses.append(f"{key}: expected BelowThresholdError")
        elif kind in ("op", "four_op"):
            if not 0.0 < rec["threshold"] < math.inf:
                misses.append(f"{key}: threshold {rec['threshold']!r}")
        elif kind == "fig3a":
            misses += gate.check_nonnegative(key, rec["sensitivity"], ("n",))
        if "fd_rel_error" in rec:
            if not rec["n"] > 0.0:
                misses.append(f"{key}: d.c. point with n = {rec['n']!r}")
            if not rec["diverged"] and not rec["fd_rel_error"] < gate.FD_REL_MAX:
                misses.append(f"{key}: fd_rel_error {rec['fd_rel_error']!r}")
        return misses

    def in_population(self, population, rec):
        if population == "steady":
            return rec["branch"] == "lasing"
        return rec["n"] > 0.0


class TimeDomain(Workload):
    """Step responses and demodulated a.c. responses; fixed inputs."""

    name = "time_domain"
    latency_metrics = (("ac_p50_ms", "ac", 0.50),)

    def __init__(self, seed, short, scratch):
        super().__init__(seed, short, scratch)
        base = model.preset("baseline")
        hs = self.hs = model.preset("high_sensitivity")
        self.omegas = [float(w) for w in np.geomspace(2e4, 2e7, 10)]
        calls = [
            ("step_0_1e8", None,
             lambda: dynamics.step_response(base, 0.0, 1e8)),
            ("step_1e8_0", None,
             lambda: dynamics.step_response(base, 1e8, 0.0)),
        ]
        for i, w in enumerate(self.omegas):
            calls.append((f"ac_{i}", "ac", lambda w=w:
                          dynamics.ac_response(hs, 164e-6, 1e-9, w)))
        signal = sensitivity.AcSignalModel(bias_field=164e-6,
                                           amplitude_field=1e-9,
                                           omega_signal=2e4)
        calls.append(("ac_quasistatic", None,
                      lambda: sensitivity.ac_sensitivity(
                          hs, signal, method="ac_quasistatic")))
        keep = {"step_1e8_0", "ac_3", "ac_6", "ac_quasistatic"}
        self.calls = [c for c in calls if not short or c[0] in keep]

    def record(self, key, out):
        if key.startswith("step"):
            series = out.series
            return {"t_63": out.t_63, "t_90": out.t_90,
                    "n_initial": out.n_initial, "n_final": out.n_final,
                    "settled": out.settled,
                    "trace_drift": series.trace_drift(),
                    "occ_min": float(series.occupations.min()),
                    "occ_max": float(series.occupations.max()),
                    "n_min": float(series.n.min())}
        if key == "ac_quasistatic":
            return {"eta_ac": out.eta, "fd_rel_error": out.fd_rel_error}
        signal = sensitivity.AcSignalModel(
            bias_field=out.bias_field, amplitude_field=out.amplitude_field,
            omega_signal=out.omega_signal)
        eta = sensitivity.sensitivity_from_harmonic(self.hs, signal, out).eta
        return {"eta_ac": eta, "n_signal": out.n_signal,
                "n_mean": out.n_mean}

    def invariants(self, key, rec):
        misses = []
        if key.startswith("step"):
            if rec["trace_drift"] > gate.TRACE_TOL:
                misses.append(f"{key}: trace drift {rec['trace_drift']!r}")
            if rec["occ_min"] < -gate.OCC_SLACK \
                    or rec["occ_max"] > 1.0 + gate.OCC_SLACK:
                misses.append(f"{key}: occupation outside [0, 1]")
            if rec["n_min"] < 0.0:
                misses.append(f"{key}: n < 0")
            if not 0.0 <= rec["t_63"] <= rec["t_90"]:
                misses.append(f"{key}: t_63 {rec['t_63']!r} > t_90")
        elif key == "ac_quasistatic":
            if not rec["fd_rel_error"] < gate.FD_REL_MAX:
                misses.append(f"{key}: fd_rel_error {rec['fd_rel_error']!r}")
        elif not (rec["n_signal"] > 0.0 and rec["n_mean"] > 0.0):
            misses.append(f"{key}: no demodulated signal")
        return misses


WORKLOADS = {w.name: w for w in (GridStudy, FieldQueries, TimeDomain)}


def run_pass(wl: Workload) -> tuple[float, dict, dict, dict]:
    """One timed pass: wall time, outputs, errors and per-call latency."""
    wl.before_pass()
    outputs, errors, latency = {}, {}, {}
    clock = time.perf_counter
    start = clock()
    for key, _, fn in wl.calls:
        t0 = clock()
        try:
            out = fn()
        except Exception as exc:  # an unexpected error fails the op
            errors[key] = f"{key}: {type(exc).__name__}: {exc}"
            continue
        latency[key] = clock() - t0
        outputs[key] = out
    wall = clock() - start
    return wall, outputs, errors, latency


def check_pass(wl: Workload, outputs: dict, errors: dict,
               reference: dict | None) -> tuple[dict, dict[str, list[str]]]:
    """Records and misses per op; ops with an error count as missed."""
    records = {}
    misses = {key: [msg] for key, msg in errors.items()}
    for key, out in outputs.items():
        try:
            rec = wl.record(key, out)
        except Exception as exc:  # unreadable output fails the op
            misses[key] = [f"{key}: no record: {type(exc).__name__}: {exc}"]
            continue
        records[key] = rec
        found = wl.invariants(key, rec)
        if reference is not None and not (key in wl.seeded
                                          and wl.seed != REFERENCE_SEED):
            if key in reference:
                found += gate.compare(key, rec, reference[key])
            else:
                found.append(f"{key}: no reference record")
        if found:
            misses[key] = found
    return records, misses


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"),
              encoding="utf-8") as fp:
        doc = json.load(fp)
    if doc["seed"] != REFERENCE_SEED:
        raise ValueError(f"reference for {name} is not at seed 0")
    return doc["ops"]


def _peak_rss_mb(who) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s() -> float:
    """CPU time of this process and of its reaped children (the sweep's
    pool workers are reaped when the pool shuts down)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between releases
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _write_json(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    os.replace(tmp, path)


def _warm_up() -> None:
    base = model.preset("baseline")
    steady.solve_steady_state(model.with_drive(base, delta=1e8))
    sensitivity.dc_sensitivity(model.preset("high_sensitivity"), 200e-6)


def run(args) -> int:
    scratch = os.path.dirname(os.path.abspath(args.out))
    wl = WORKLOADS[args.workload](args.seed, args.short, scratch)
    reference = load_reference(wl.name)
    populations = {pop for _, pop, _ in wl.calls if pop}
    doc = {"workload": wl.name, "seed": args.seed, "short": args.short,
           "complete": False, "ops_per_pass": len(wl.calls), "passes": 0,
           "pass_wall_s": [], "pass_cpu_s": [], "attempted": 0,
           "failed": 0, "misses": [], "metrics": {},
           "versions": _versions()}
    latencies = {pop: [] for pop in populations}

    def account(outputs, errors):
        records, misses = check_pass(wl, outputs, errors, reference)
        doc["attempted"] += len(wl.calls)
        doc["failed"] += len(misses)
        for found in misses.values():
            if len(doc["misses"]) < 50:
                doc["misses"] += found[:3]
        return records, misses

    _write_json(args.out, doc)
    _warm_up()
    measure_start = time.perf_counter()
    while True:
        cpu = _cpu_s()
        wall, outputs, errors, latency = run_pass(wl)
        cpu = _cpu_s() - cpu
        records, misses = account(outputs, errors)
        for key, pop, _ in wl.calls:
            if pop and key in records and key not in misses \
                    and wl.in_population(pop, records[key]):
                latencies[pop].append(latency[key])
        doc["passes"] += 1
        doc["pass_wall_s"].append(wall)
        doc["pass_cpu_s"].append(cpu)
        doc["metrics"].update(
            wall_s=metric(statistics.median(doc["pass_wall_s"]), "s"),
            cpu_s=metric(statistics.median(doc["pass_cpu_s"]), "s"),
            peak_rss_mb=metric(_peak_rss_mb(resource.RUSAGE_SELF), "MiB"),
            peak_rss_children_mb=metric(
                _peak_rss_mb(resource.RUSAGE_CHILDREN), "MiB"))
        _write_json(args.out, doc)
        if args.short or time.perf_counter() - measure_start >= args.seconds:
            break
    for name, pop, q in wl.latency_metrics:
        doc["metrics"][name] = metric(
            1e3 * _percentile(latencies[pop], q) if latencies[pop] else None,
            "ms")
    doc["latency_samples"] = {pop: len(v) for pop, v in latencies.items()}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            wall, outputs, errors, latency = run_pass(wl)
        finally:
            tracer.uninstall()
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        account(outputs, errors)
        doc["traced_wall_s"] = wall
        per_layer = layer_metrics(tracer, wall)
        per_layer["trace.overhead_frac"] = metric(
            wall / doc["metrics"]["wall_s"]["value"] - 1.0, "1")
        doc["per_layer"] = per_layer
        spans_path = os.path.join(
            scratch, f"spans-{wl.name}-seed{args.seed}.csv")
        tracer.write(spans_path, origin)
        doc["spans_file"] = os.path.relpath(spans_path)
    doc["complete"] = True
    _write_json(args.out, doc)
    return 0


def record_reference() -> int:
    scratch = os.path.abspath(os.path.join(".perfbench", "reference-run"))
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for cls in WORKLOADS.values():
        wl = cls(REFERENCE_SEED, False, scratch)
        _, outputs, errors, _ = run_pass(wl)
        records, misses = check_pass(wl, outputs, errors, None)
        if misses:
            for found in misses.values():
                print("\n".join(found), file=sys.stderr)
            return 1
        _write_json(os.path.join(REFERENCE_DIR, f"{wl.name}.json"),
                    {"seed": REFERENCE_SEED,
                     "ops": {key: {f: v for f, v in rec.items()
                                   if f not in gate.UNCOMPARED}
                             for key, rec in records.items()}})
        print(f"recorded {len(records)} ops for {wl.name}", file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--short", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if not args.workload or not args.out:
        p.error("--workload and --out are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
