"""Known output defects, pinned as strict expected failures.

Each case is a benchmark op that ``run`` answers with exit 0 and
``"satisfied": false``: the trace it executes does not satisfy the formula
it planned for, although exit 0 promises one that does.  Each case asserts
that promise, so it fails today; a change that mends a defect turns its
cases into unexpected passes, which fail the suite (``strict``) until the
pin is removed.  The ops come from ``benchmarks/gen.py``, loaded by path.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from itertools import islice
from pathlib import Path

import pytest

from ltlplan.cli import main

REPO = Path(__file__).resolve().parent.parent

ITEM_6 = (
    "ROADMAP item 6: execute_plan runs each policy to completion, so the trace"
    " enters regions the product never read and !a U b chains break"
)
ITEM_7 = (
    "ROADMAP item 7: the pruned edge keeps a symbol whose minimum-violation"
    " path enters another region first"
)


def _load_gen():
    spec = importlib.util.spec_from_file_location("benchmark_gen", REPO / "benchmarks" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _pinned(workload: str, seed: int, op: int, reason: str):
    mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    return pytest.param(workload, seed, op, marks=mark, id=f"{workload}-{seed}-op{op}")


@pytest.mark.parametrize(
    "workload, seed, op_index",
    [
        _pinned("goals", 1, 3, ITEM_6),  # U^4
        _pinned("goals", 1, 8, ITEM_6),  # U^5
        _pinned("goals", 1, 12, ITEM_6),  # U^4
        _pinned("walled", 17, 64, ITEM_7),  # F z
    ],
)
def test_exit_0_means_satisfied(tmp_path, workload, seed, op_index):
    op = next(islice(_load_gen().WORKLOADS[workload](seed), op_index, None))
    map_path = tmp_path / op.map.name
    map_path.write_text(op.map.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", "--map", str(map_path), "--mode", op.mode, "--ltl", op.ltl])
    assert code != 0 or json.loads(out.getvalue())["satisfied"], op.ltl
