"""The benchmark tracer still finds every layer function it hooks.

``benchmarks/tracer.py`` records a missing or reshaped layer function as
zero instead of failing, so a refactor that renames or reshapes one would
silently blank the benchmark's per-layer metrics.  This test loads the
tracer read-only and runs one ``run`` and one ``check`` op through it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

from ltlplan.cli import main

REPO = Path(__file__).resolve().parent.parent
OPEN_ROOM = str(REPO / "maps" / "shapes_open_room.json")


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
    assert metrics["mvpolicy.trace_cells"] > 0

    trace = tmp_path / "run.json"
    trace.write_text(stdout)
    code, _, metrics = _traced_op(tracer, 1, ["check", *base, "--trace", str(trace)])
    assert code == 0
    assert tracer.missing == []
    assert metrics["gridworld.extract_regions.calls"] == 1
