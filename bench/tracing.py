"""Per-layer spans and counts, recorded from outside the package.

Each traced function is replaced, in every ``spreadpoly`` module namespace
that binds it (the package imports names with ``from .x import f``), by a
wrapper that records a span: layer name, start, end, parent span and cell.
Spans stay in memory and are written out when the run ends.  A layer's
self time is its span's duration minus the spans of traced callees.

Counts (calls, escalation computes, Lauricella terms, tanh-sinh points and
panels, recurrence steps) are exact: two traced runs of one seed give the
same numbers.  A traced name that no longer exists is reported absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: (module, function, extra counters) of every traced layer function.
LAYERS = (
    ("context", "with_escalation", ("computes",)),
    ("orthopoly", "orthonormal_coeffs", ()),
    ("orthopoly", "raw_recurrence", ()),
    ("orthopoly", "evaluate_recurrence", ()),
    ("orthopoly", "zeros_raw", ()),
    ("bell", "renyi_power_integral_bell", ()),
    ("bell", "polynomial_power_coeffs", ()),
    ("hypergeom", "hyp2f1_terminating", ()),
    ("lauricella", "laguerre_power_integral_lauricella", ()),
    ("lauricella", "lauricella_fa_terminating", ("terms",)),
    ("quadrature", "gauss_rule", ()),
    ("quadrature", "integrate_density_power", ()),
    ("quadrature", "tanh_sinh_panels", ("points", "panels")),
    ("quadrature", "integrate_log_singular", ()),
    ("_vec", "poly_scaled", ("recurrence_steps",)),
    ("shannon", "shannon_numeric", ()),
    ("closed_form", "stddev", ()),
    ("closed_form", "fisher_length", ()),
    ("cli", "main", ()),
)


def layer_name(module: str, function: str) -> str:
    # metric names may not start with "_"
    return f"{module.lstrip('_')}.{function}"


def metric_specs() -> list:
    """(name, unit, better, source layer) of every per-layer metric."""
    specs = []
    for module, function, extras in LAYERS:
        layer = layer_name(module, function)
        if layer != "cli.main":
            specs.append((f"{layer}.calls", "count", "lower", layer))
        if layer == "context.with_escalation":
            specs += [(f"{layer}.computes", "count", "lower", layer),
                      ("context.escalation.useful_ratio", "ratio", "higher", layer)]
            continue
        specs.append((f"{layer}.self_s", "s", "lower", layer))
        specs += [(f"{layer}.{extra}", "count", "lower", layer) for extra in extras]
        if layer == "quadrature.gauss_rule":
            specs += [("quadrature.rule_cache.hit_ratio", "ratio", "higher", "quadrature._standard_rule"),
                      ("quadrature.rule_cache.entries", "count", "lower", "quadrature._standard_rule")]
        if layer == "shannon.shannon_numeric":
            specs += [("shannon.fallback_ratio", "ratio", "lower", layer),
                      ("shannon.mpf_path_share", "ratio", "lower", layer)]
    specs.append(("trace.cells_per_s", "cells/s", "higher", None))
    return specs


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly across traced runs of one seed."""
    return not (name.endswith(".self_s") or name == "trace.cells_per_s")


# ---------------------------------------------------------------------------
# Argument hooks: counts computed from the arguments of a traced call
# ---------------------------------------------------------------------------


def _count_computes(tracer, bound):
    compute = bound.arguments["compute"]

    def counted(bits):
        tracer.counts["context.with_escalation.computes"] += 1
        return compute(bits)

    bound.arguments["compute"] = counted


def _count_terms(tracer, bound):
    terms = 1
    for u in bound.arguments["upper"]:
        terms *= -int(u) + 1
    tracer.counts["lauricella.lauricella_fa_terminating.terms"] += terms


def _count_points(tracer, bound):
    fpanel = bound.arguments["fpanel"]
    panels = set()

    def counted(i, a, b, x, dl, dr):
        tracer.counts["quadrature.tanh_sinh_panels.points"] += x.size
        panels.add(i)
        return fpanel(i, a, b, x, dl, dr)

    bound.arguments["fpanel"] = counted
    return lambda: tracer.counts.update({"quadrature.tanh_sinh_panels.panels": len(panels)})


def _count_steps(tracer, bound):
    size = int(getattr(bound.arguments["x"], "size", 1))
    tracer.counts["vec.poly_scaled.recurrence_steps"] += size * int(bound.arguments["n"])


#: layer -> (parameters the hook reads, hook)
_HOOKS = {
    "context.with_escalation": (("compute",), _count_computes),
    "lauricella.lauricella_fa_terminating": (("upper",), _count_terms),
    "quadrature.tanh_sinh_panels": (("fpanel",), _count_points),
    "vec.poly_scaled": (("x", "n"), _count_steps),
}


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.active = False
        self.cell = None
        self.spans = []  # (id, layer, start, end, parent id, cell)
        self._stack = []  # open frames: [id, layer, start, child time, layers below]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.shannon_runs = Counter()  # (ran tanh-sinh, ran mpf integrator) per call
        self.absent = set()

    def _enter(self, layer):
        self._stack.append([len(self.spans) + len(self._stack), layer, time.perf_counter(), 0.0, set()])

    def _exit(self):
        end = time.perf_counter()
        span_id, layer, start, child, below = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, layer, start, end, parent[0] if parent else None, self.cell))
        self.calls[layer] += 1
        self.self_s[layer] += (end - start) - child
        if layer == "shannon.shannon_numeric":
            self.shannon_runs[("quadrature.tanh_sinh_panels" in below,
                               "quadrature.integrate_log_singular" in below)] += 1
        if parent:
            parent[3] += end - start
            parent[4] |= below
            parent[4].add(layer)

    def wrap(self, layer, fn):
        params, hook = _HOOKS.get(layer, ((), None))
        signature = inspect.signature(fn)
        if not set(params) <= set(signature.parameters):
            # the counters read arguments that are gone: report them absent
            self.absent.add(f"{layer}.hook")
            hook = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            after = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                after = hook(self, bound)
                args, kwargs = bound.args, bound.kwargs
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
                if after is not None:
                    after()

        return traced

    def install(self, package: str = "spreadpoly") -> None:
        """Wrap every binding of every traced function in the package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for module, function, _ in LAYERS:
            layer = layer_name(module, function)
            owner = sys.modules.get(f"{package}.{module}")
            original = getattr(owner, function, None)
            if not callable(original):
                self.absent.add(layer)
                continue
            wrapper = self.wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def metrics(self, cells: int, busy_s: float, rule_cache) -> dict:
        """Every per-layer metric; absent ones carry ``"absent": true``."""

        def ratio(num, den):
            # a layer the workload never reached reports 0
            return num / den if den else 0.0

        values = {}
        for layer, n in self.calls.items():
            values[f"{layer}.calls"] = n
        for layer, s in self.self_s.items():
            values[f"{layer}.self_s"] = s
        values.update(self.counts)
        values["context.escalation.useful_ratio"] = ratio(
            self.calls["context.with_escalation"],
            self.counts["context.with_escalation.computes"])
        if rule_cache is not None:
            lookups = rule_cache.hits + rule_cache.misses
            values["quadrature.rule_cache.hit_ratio"] = ratio(rule_cache.hits, lookups)
            values["quadrature.rule_cache.entries"] = rule_cache.currsize
        ran_fast = sum(n for (fast, _), n in self.shannon_runs.items() if fast)
        values["shannon.fallback_ratio"] = ratio(self.shannon_runs[(True, True)], ran_fast)
        values["shannon.mpf_path_share"] = ratio(
            sum(n for (_, slow), n in self.shannon_runs.items() if slow),
            self.calls["shannon.shannon_numeric"])
        values["trace.cells_per_s"] = ratio(cells, busy_s)

        out = {}
        for name, unit, _, source in metric_specs():
            missing = source in self.absent or (
                source == "quadrature._standard_rule" and rule_cache is None) or (
                f"{source}.hook" in self.absent and not name.endswith((".calls", ".self_s")))
            if missing:
                out[name] = {"value": None, "unit": unit, "absent": True}
            else:
                value = values.get(name, 0)
                out[name] = {"value": value if isinstance(value, int) else float(value), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, layer, start, end, parent, cell in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "cell": cell}) + "\n")

