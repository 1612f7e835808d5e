"""The benchmark tracer still finds every layer function it hooks.

``benchmarks/tracer.py`` records a missing or reshaped layer function as
zero instead of failing, so a refactor that renames or reshapes one would
silently blank the benchmark's per-layer metrics.  These tests load the
tracer read-only and run ``run``, ``plan`` and ``check`` ops through it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from collections import Counter
from pathlib import Path

from ltlplan.cli import main

REPO = Path(__file__).resolve().parent.parent
OPEN_ROOM = str(REPO / "maps" / "shapes_open_room.json")
OBSTACLE_COURSE = str(REPO / "maps" / "shapes_obstacle_course.json")
RING = str(REPO / "maps" / "nested_abc.txt")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", REPO / "benchmarks" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_op(tracer, op_id: int, argv: list[str]) -> tuple[int, str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tracer.run_op(op_id, lambda: main(argv))
    return code, out.getvalue(), tracer.op_metrics()


def test_tracer_hooks_every_layer_function():
    assert _load_tracer().Tracer().missing == []


def test_run_and_check_extract_regions_once(tmp_path):
    tracer = _load_tracer().Tracer()
    base = ["--map", OPEN_ROOM, "--mode", "composite", "--ltl", "F square"]

    code, stdout, metrics = _traced_op(tracer, 0, ["run", *base])
    assert code == 0
    assert tracer.missing == []
    assert metrics["gridworld.extract_regions.calls"] == 1
    assert metrics["gridworld.cells"] == _passable_cells(OPEN_ROOM)
    assert metrics["mvpolicy.trace_cells"] > 0

    trace = tmp_path / "run.json"
    trace.write_text(stdout)
    code, _, metrics = _traced_op(tracer, 1, ["check", *base, "--trace", str(trace)])
    assert code == 0
    assert tracer.missing == []
    assert metrics["gridworld.extract_regions.calls"] == 1


def _passable_cells(path: str) -> int:
    doc = json.loads(Path(path).read_text())
    return doc["width"] * doc["height"] - len(doc.get("obstacles", []))


def test_traced_cell_count_excludes_obstacles():
    # The tracer counts passable cells from the parsed map's obstacles.
    tracer = _load_tracer().Tracer()
    argv = ["run", "--map", OBSTACLE_COURSE, "--mode", "composite", "--ltl", "F square"]
    code, _, metrics = _traced_op(tracer, 0, argv)
    assert code == 0
    assert tracer.missing == []
    assert metrics["gridworld.cells"] == _passable_cells(OBSTACLE_COURSE)


def test_traced_pruner_counts_match_the_prune_documents(tmp_path):
    # The pruned system prunes a state when the product first reads it, and the
    # tracer reads the whole system and its report only after each op: the
    # counts must still be those of every state pruned.
    tracer = _load_tracer().Tracer()
    out, report = tmp_path / "pruned.json", tmp_path / "report.json"
    for path, mode, ltl in ((RING, "primitive", "G F c"), (OBSTACLE_COURSE, "composite", "F square")):
        base = ["--map", path, "--mode", mode]
        assert main(["prune", *base, "--out", str(out), "--report", str(report)]) == 0
        pruned, doc = json.loads(out.read_text()), json.loads(report.read_text())
        cases = Counter(r["case"] for r in doc["removed_symbols"])
        dropped = Counter(r["case"] for r in doc["removed_transitions"])
        expected = {
            "pruner.states_out": len(pruned["states"]),
            "pruner.transitions_out": len(pruned["transitions"]),
            "pruner.merged_states": sum(len(group) - 1 for group in doc["merged"]),
            "pruner.case2_removed": cases["case2"],
            "pruner.case3_removed": cases["case3"],
            "pruner.empty_removed": dropped["emptyCleanup"],
            "pruner.unreachable": len(doc["unreachable"]),
        }
        if path == RING:
            assert cases["case2"] and doc["unreachable"]
        for op_id, command in enumerate(("run", "plan")):
            code, _, metrics = _traced_op(tracer, op_id, [command, *base, "--ltl", ltl])
            assert code == 0
            assert tracer.missing == []
            assert {key: metrics[key] for key in expected} == expected, command
