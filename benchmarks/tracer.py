"""Spans around the calls into each ``ltlplan`` layer, taken from outside.

:class:`Tracer` replaces each public layer function wherever an
``ltlplan`` module binds it (``cli`` imports ``parse_map`` by name, for
example), so the unchanged ``cli.main`` path records one span per call.
Spans and the objects the calls return stay in memory; per-layer self
times and counts are computed after each op, outside the timed span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

LAYERS = {
    "gridworld": ("parse_map", "extract_regions"),
    "tsys": ("build_initial_ts", "generate_ts_labels"),
    "pruner": ("prune",),
    "ltl": ("parse_ltl", "to_buchi"),
    "product": ("build_product", "find_plan"),
    "mvpolicy": ("execute_plan", "unsafe_report", "check_trace", "region_index", "trace_word"),
}

OP = "cli.main"

# Per-op counts, with their units, that :meth:`Tracer.op_metrics` reports.
COUNTS = {
    "gridworld.extract_regions.calls": "count",
    "gridworld.cells": "count",
    "gridworld.regions": "count",
    "gridworld.region_pairs": "count",
    "tsys.transitions": "count",
    "tsys.edge_symbols": "count",
    "pruner.states_out": "count",
    "pruner.transitions_out": "count",
    "pruner.kept_ratio": "ratio",
    "pruner.merged_states": "count",
    "pruner.case2_removed": "count",
    "pruner.case3_removed": "count",
    "pruner.empty_removed": "count",
    "pruner.unreachable": "count",
    "ltl.buchi_states": "count",
    "ltl.buchi_edges": "count",
    "product.states": "count",
    "product.edges": "count",
    "product.reach_ratio": "ratio",
    "product.plan_policies": "count",
    "product.infeasible": "count",
    "mvpolicy.trace_cells": "count",
    "mvpolicy.policies_executed": "count",
    "mvpolicy.violations": "count",
    "mvpolicy.unforced": "count",
}


def _sizes(name: str, args: tuple, result) -> dict[str, float]:
    """Counts read from one call's arguments and returned object."""
    if name == "gridworld.parse_map":
        return {"gridworld.cells": result.width * result.height - len(result.obstacles)}
    if name == "gridworld.extract_regions":
        regions, adjacency = result
        return {
            "gridworld.regions": len(regions),
            "gridworld.region_pairs": sum(len(a) for a in adjacency.values()) / 2,
        }
    if name == "tsys.generate_ts_labels":
        return {
            "tsys.transitions": len(result.transitions),
            "tsys.edge_symbols": sum(len(s) for s in result.transitions.values()),
        }
    if name == "pruner.prune":
        pruned, report = result
        removed_by = defaultdict(int)
        for *_, case in report.removed_symbols:
            removed_by[case] += 1
        return {
            "pruner.states_out": len(pruned.order),
            "pruner.transitions_out": len(pruned.transitions),
            "pruner.kept_ratio": len(pruned.transitions) / max(1, len(args[0].transitions)),
            "pruner.merged_states": sum(len(g) - 1 for g in report.merged_state_groups),
            "pruner.case2_removed": removed_by["case2"],
            "pruner.case3_removed": removed_by["case3"],
            "pruner.empty_removed": sum(
                1 for *_, case in report.removed_transitions if case == "emptyCleanup"
            ),
            "pruner.unreachable": len(report.unreachable_states),
        }
    if name == "ltl.to_buchi":
        return {"ltl.buchi_states": len(result.order), "ltl.buchi_edges": len(result.transitions)}
    if name == "product.build_product":
        ts, aut = args[0], args[1]
        return {
            "product.states": len(result.states),
            "product.edges": len(result.edges),
            "product.reach_ratio": len(result.states) / max(1, len(ts.order) * len(aut.order)),
        }
    if name == "product.find_plan":
        if result is None:
            return {"product.infeasible": 1}
        return {"product.plan_policies": result.length, "product.infeasible": 0}
    if name == "mvpolicy.execute_plan":
        return {"mvpolicy.trace_cells": len(result.cells),
                "mvpolicy.policies_executed": len(result.segments)}
    if name == "mvpolicy.unsafe_report":
        return {"mvpolicy.violations": result["count"], "mvpolicy.unforced": result["unforced"]}
    return {}


class Tracer:
    """Records ``[name, start, end, parent, op]`` spans while installed."""

    def __init__(self):
        self.targets: dict[object, str] = {}
        self.missing: list[str] = []
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"ltlplan.{layer}")
            except ImportError:
                module = None
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    self.targets[fn] = f"{layer}.{name}"
                else:
                    self.missing.append(f"{layer}.{name}")
        self.spans: list[list] = []
        self.calls: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op: int | None = None

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            calls.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ltlplan" or modname.startswith("ltlplan.")):
                continue
            for attr, value in list(vars(module).items()):
                name = self.targets.get(value) if callable(value) else None
                if name is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(name, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def run_op(self, op_id: int, call):
        """Run ``call()`` as one op: installed, under a root span."""
        self._op = op_id
        self.install()
        try:
            return self._wrap(OP, call)()
        finally:
            self.uninstall()
            self._op = None

    def op_metrics(self) -> dict[str, float]:
        """Self times (ms) and counts of the op just run; clears its calls."""
        out: dict[str, float] = defaultdict(float)
        regions_seen = False
        for name, args, result in self.calls:
            if name == "gridworld.extract_regions":
                out["gridworld.extract_regions.calls"] += 1
                if regions_seen:
                    continue  # sizes describe the map once, not per rebuild
                regions_seen = True
            try:
                sizes = _sizes(name, args, result)
            except (AttributeError, TypeError, KeyError, ValueError):
                # A refactor changed what the call returns: report, do not crash.
                if f"{name} counts" not in self.missing:
                    self.missing.append(f"{name} counts")
                continue
            for key, value in sizes.items():
                out[key] += value
        self.calls.clear()
        return dict(out)


def self_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per op: each span name's duration minus its direct children's, in ms."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, op) in enumerate(spans):
        key = "cli.self" if name == OP else name
        out[op][key] += (end - start - child_time[i]) * 1000.0
    return out
