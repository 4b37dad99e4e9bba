"""Spans around ltmag's public functions, recorded from outside the package.

A ``Tracer`` replaces each traced function at every module-level binding
inside ``ltmag`` (``from .steady import solve_steady_state`` copies the
name into several modules, so patching the defining module alone would
miss most calls).  Calls that resolve a module global at call time, such
as ``rhs`` and ``solve_ivp`` inside ``dynamics``, are caught the same way.

Each span is ``(name_id, start, end, parent_index, info)``; spans stay in
memory and are written out once, at the end of the traced pass.  Spans of
forked pool workers die with the workers, so a parallel ``run_sweep``
shows as one span with no children.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

from ltmag.experiments import EXPERIMENT_NAMES


def _steady_info(args, kwargs, result):
    return result.branch


def _dc_info(args, kwargs, result):
    b_field = args[1] if len(args) > 1 else kwargs["b_field"]
    h0 = kwargs.get("h0") or max(1e-3 * abs(b_field), 1e-9)
    halvings = math.log2(h0 / result.fd_step) if result.fd_step else None
    return (result.diverged, halvings)


def _ivp_info(args, kwargs, result):
    t_span = args[1] if len(args) > 1 else kwargs["t_span"]
    steps = None if kwargs.get("t_eval") is not None else len(result.t) - 1
    return (float(t_span[1] - t_span[0]), steps, int(result.nfev),
            int(result.njev), int(result.nlu))


def _sweep_info(args, kwargs, result):
    return len(result.rows)


def _pool_info(args, kwargs, result):
    return result._max_workers


def _experiment_info(args, kwargs, result):
    return args[0] if args else kwargs["name"]


def _render_info(args, kwargs, result):
    return len(result.encode("utf-8"))


# (module, attribute, span name, result hook).  ``tables.OutputTable.render``
# is a method and is patched on the class.
TARGETS = (
    ("ltmag.model", "derive_constants", "model.derive_constants", None),
    ("ltmag.steady", "populations_at_fixed_n",
     "steady.populations_at_fixed_n", None),
    ("ltmag.steady", "net_gain", "steady.net_gain", None),
    ("ltmag.steady", "solve_steady_state", "steady.solve_steady_state",
     _steady_info),
    ("ltmag.steady", "threshold_pump", "steady.threshold_pump", None),
    ("ltmag.steady", "find_operating_point", "steady.find_operating_point",
     None),
    ("ltmag.sensitivity", "dc_sensitivity", "sensitivity.dc_sensitivity",
     _dc_info),
    ("ltmag.sensitivity", "dc_sensitivity_curve",
     "sensitivity.dc_sensitivity_curve", None),
    ("ltmag.sensitivity", "ac_sensitivity", "sensitivity.ac_sensitivity",
     None),
    ("ltmag.sensitivity", "find_bias_point", "sensitivity.find_bias_point",
     None),
    ("ltmag.sensitivity", "best_eta_over_field",
     "sensitivity.best_eta_over_field", None),
    ("ltmag.sensitivity", "l27_robustness", "sensitivity.l27_robustness",
     None),
    ("ltmag.dynamics", "rhs", "dynamics.rhs", None),
    ("ltmag.dynamics", "jacobian", "dynamics.jacobian", None),
    ("ltmag.dynamics", "solve_ivp", "dynamics.solve_ivp", _ivp_info),
    ("ltmag.dynamics", "integrate", "dynamics.integrate", None),
    ("ltmag.dynamics", "step_response", "dynamics.step_response", None),
    ("ltmag.dynamics", "ac_response", "dynamics.ac_response", None),
    ("ltmag.sweeps", "run_sweep", "sweeps.run_sweep", _sweep_info),
    ("ltmag.sweeps", "ProcessPoolExecutor", "sweeps.pool", _pool_info),
    ("ltmag.experiments", "experiment", "experiments.experiment",
     _experiment_info),
    ("ltmag.configio", "resolve_config", "configio.resolve_config", None),
    ("ltmag.configio", "config_digest", "configio.config_digest", None),
    ("ltmag.cli", "main", "cli.main", None),
    ("ltmag.tables", "OutputTable.render", "tables.render", _render_info),
)


class Tracer:
    """Records nested spans for the functions in ``TARGETS``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            info = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = ("raised", type(exc).__name__)
                raise
            else:
                if hook is not None:
                    info = hook(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, info)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "ltmag" or key.startswith("ltmag.")]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path: str, origin: float) -> None:
        """Write spans as CSV: index, parent, name, start and end in
        seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("index,parent,name,start_s,end_s\n")
            for i, (nid, start, end, parent, _) in enumerate(self.spans):
                fp.write(f"{i},{parent},{self.names[nid]},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, dict]:
    """Per-layer counts, busy and self times from one traced pass, each
    as ``{"value": ..., "unit": ...}``."""
    names = tracer.names
    spans = tracer.spans
    span_name = [names[s[0]] for s in spans]
    child_time = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if span_name[p] == name:
                return True
            p = spans[p][3]
        return False

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    top_level = 0.0
    for i, (nid, start, end, parent, info) in enumerate(spans):
        name = span_name[i]
        calls[name] += 1
        by_name[name].append(i)
        self_s[name] += (end - start) - child_time[i]
        if not has_ancestor(i, name):
            busy[name] += end - start
        if parent < 0:
            top_level += end - start

    def under(child, ancestor):
        return sum(1 for i in by_name[child] if has_ancestor(i, ancestor))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, dict] = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    steady_infos = [spans[i][4] for i in by_name["steady.solve_steady_state"]]
    put("steady.solve_steady_state.calls",
        calls["steady.solve_steady_state"], "count")
    put("steady.solve_steady_state.self_s",
        self_s["steady.solve_steady_state"], "s")
    put("steady.net_gain.calls", calls["steady.net_gain"], "count")
    put("steady.populations_at_fixed_n.calls",
        calls["steady.populations_at_fixed_n"], "count")
    put("steady.populations_at_fixed_n.self_s",
        self_s["steady.populations_at_fixed_n"], "s")
    put("steady.threshold_pump.calls", calls["steady.threshold_pump"],
        "count")
    put("steady.threshold_pump.busy_s", busy["steady.threshold_pump"], "s")
    put("steady.solves_per_steady_state", ratio(
        under("steady.populations_at_fixed_n", "steady.solve_steady_state"),
        calls["steady.solve_steady_state"]), "1")
    put("steady.lasing_frac", ratio(
        sum(1 for b in steady_infos if b == "lasing"), len(steady_infos)),
        "1")

    put("model.derive_constants.calls", calls["model.derive_constants"],
        "count")

    dc_infos = [spans[i][4] for i in by_name["sensitivity.dc_sensitivity"]]
    returned = [x for x in dc_infos if x and x[0] != "raised"]
    halvings = [x[1] for x in returned if x[1] is not None]
    put("sensitivity.dc_sensitivity.calls",
        calls["sensitivity.dc_sensitivity"], "count")
    put("sensitivity.dc_sensitivity.busy_s",
        busy["sensitivity.dc_sensitivity"], "s")
    put("sensitivity.dc_sensitivity.self_s",
        self_s["sensitivity.dc_sensitivity"], "s")
    put("sensitivity.steady_per_dc", ratio(
        under("steady.solve_steady_state", "sensitivity.dc_sensitivity"),
        calls["sensitivity.dc_sensitivity"]), "1")
    put("sensitivity.fd_halvings_mean",
        ratio(sum(halvings), len(halvings)), "1")
    put("sensitivity.diverged_frac", ratio(
        sum(1 for x in returned if x[0]), len(returned)), "1")
    put("sensitivity.below_threshold_frac", ratio(
        sum(1 for x in dc_infos
            if x == ("raised", "BelowThresholdError")), len(dc_infos)), "1")
    put("sensitivity.find_bias_point.busy_s",
        busy["sensitivity.find_bias_point"], "s")
    put("sensitivity.best_eta_over_field.busy_s",
        busy["sensitivity.best_eta_over_field"], "s")

    ivp = [spans[i][4] for i in by_name["dynamics.solve_ivp"]]
    ivp = [x for x in ivp if x and x[0] != "raised"]
    put("dynamics.step_response.busy_s", busy["dynamics.step_response"], "s")
    put("dynamics.ac_response.busy_s", busy["dynamics.ac_response"], "s")
    put("dynamics.integrations", calls["dynamics.solve_ivp"], "count")
    put("dynamics.integrations_per_step_response", ratio(
        under("dynamics.solve_ivp", "dynamics.step_response"),
        calls["dynamics.step_response"]), "1")
    put("dynamics.integrated_span_s", sum(x[0] for x in ivp), "s")
    put("dynamics.bdf_steps", sum(x[1] for x in ivp if x[1] is not None),
        "count")
    put("dynamics.rhs.calls", calls["dynamics.rhs"], "count")
    put("dynamics.rhs.self_s", self_s["dynamics.rhs"], "s")
    put("dynamics.jacobian.calls", calls["dynamics.jacobian"], "count")
    put("dynamics.lu_decomps", sum(x[4] for x in ivp), "count")

    points = sum(spans[i][4] or 0 for i in by_name["sweeps.run_sweep"])
    pools = [spans[i][4] for i in by_name["sweeps.pool"]]
    put("sweeps.run_sweep.busy_s", busy["sweeps.run_sweep"], "s")
    put("sweeps.run_sweep.points", points, "count")
    put("sweeps.points_per_s", ratio(points, busy["sweeps.run_sweep"]),
        "1/s")
    put("sweeps.pool_workers", max(pools) if pools else 0, "count")

    per_exp = defaultdict(float)
    for i in by_name["experiments.experiment"]:
        if not has_ancestor(i, "experiments.experiment"):
            nid, start, end, parent, info = spans[i]
            per_exp[info] += end - start
    for name in EXPERIMENT_NAMES:
        put(f"experiments.experiment.{name}.busy_s", per_exp[name], "s")

    put("cli.main.busy_s", busy["cli.main"], "s")
    put("configio.resolve_config.busy_s", busy["configio.resolve_config"],
        "s")
    put("configio.config_digest.calls", calls["configio.config_digest"],
        "count")
    put("tables.render.busy_s", busy["tables.render"], "s")
    put("tables.render.bytes", sum(
        spans[i][4] for i in by_name["tables.render"]
        if isinstance(spans[i][4], int)), "B")
    put("trace.spans", len(spans), "count")
    put("trace.top_level_coverage", ratio(top_level, wall_s), "1")
    return m
