"""The benchmark tracer still finds every layer function it hooks.

``benchmarks/tracer.py`` records a missing or reshaped layer function as
zero instead of failing, so a refactor that renames or reshapes one would
silently blank the benchmark's per-layer metrics.  These tests load the
tracer read-only and run ``run`` and ``check`` ops through it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from ltlplan.cli import main

REPO = Path(__file__).resolve().parent.parent
OPEN_ROOM = str(REPO / "maps" / "shapes_open_room.json")
OBSTACLE_COURSE = str(REPO / "maps" / "shapes_obstacle_course.json")


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
