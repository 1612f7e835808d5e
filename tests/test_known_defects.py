"""Known output defects, pinned as strict expected failures.

Each pin asserts a documented promise that the code breaks today, so it
fails; a change that mends a defect turns its pins into unexpected passes,
which fail the suite (``strict``) until the pin is removed.

* ``test_exit_0_means_satisfied``: benchmark ops that ``run`` answers with
  exit 0 and ``"satisfied": false``.  The ops come from
  ``benchmarks/gen.py``, loaded by path.
* ``test_golden_runs_enter_the_planned_states``: one property over every
  golden ``run`` case (``test_golden``'s bundled and seeded maps).
* ``test_plans_follow_the_tie_rule``,
  ``test_plans_are_shortest_over_every_lasso`` and
  ``test_check_trace_judges_the_run_the_plan_defines`` are not benchmark
  ops: they call the library on seeded products and on one small map.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import random
import sys
from itertools import islice
from pathlib import Path

import pytest

from envgen import (
    brute_least_lasso,
    brute_min_any_lasso,
    map_document,
    random_product,
    reference_plan_lasso,
)
from ltlplan.cli import CliError, Pipeline, main
from ltlplan.gridworld import extract_regions, parse_map
from ltlplan.ltl import eval_ltl_on_lasso, parse_ltl, to_buchi
from ltlplan.mvpolicy import check_trace, execute_plan, region_index
from ltlplan.product import find_plan
from test_golden import BUNDLED, MAPS, MODES, SEEDED, _seeded_formulas

REPO = Path(__file__).resolve().parent.parent

ITEM_6 = (
    "ROADMAP item 6: execute_plan runs each policy to completion, so the trace"
    " enters regions the product never read and !a U b chains break"
)
ITEM_7 = (
    "ROADMAP item 7: the pruned edge keeps a symbol whose minimum-violation"
    " path enters another region first"
)

ITEM_5C = (
    "ROADMAP item 5(c): find_plan picks its target by BFS rank, not by the whole"
    " policy sequence, so a tie can resolve to a lexicographically larger plan"
)
ITEM_23 = (
    "ROADMAP item 23: find_plan closes each cycle on an accepting state, so a"
    " lasso whose cycle passes one inside can be shorter"
)
ITEM_12 = (
    "ROADMAP item 12: check_trace takes the last executed cycle repetition as"
    " the period, not the run the plan defines"
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


def _golden_runs(tmp_path):
    """(case name, map path, formula) for every golden ``run`` case's map and formula."""
    for key, (filename, texts) in BUNDLED.items():
        for i, text in enumerate(texts):
            yield f"{key}-f{i}", MAPS / filename, text
    for key, grid in SEEDED.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(map_document(grid)))
        for i, text in enumerate(_seeded_formulas(grid)):
            yield f"{key}-f{i}", path, text


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_6)
def test_golden_runs_enter_the_planned_states(tmp_path):
    # Segment k enters exactly one region, the TS state of pa_path[k + 1],
    # after the start region maps to that of pa_path[0] (README step 4).
    broken = []
    for name, path, text in _golden_runs(tmp_path):
        for mode in MODES:
            args = argparse.Namespace(
                map=str(path), start=None, mode=mode, ltl=text, emit_stages=None, cycles=1
            )
            p = Pipeline(args=args)
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    trace = p["trace"]
                except CliError:  # no plan, or a target cut off
                    continue
            state_of = {m: g[0] for g in p["report"].merged_state_groups for m in g}
            planned = [state for state, _ in p["plan"].prefix_states + p["plan"].cycle_states]
            entered = [state_of.get(r, r) for r in p["index"].regions_along(trace.cells)]
            hops = [entered[0]] + [
                [entered[i] for i in trace.word_cells if seg.start < i <= seg.end]
                for seg in trace.segments
            ]
            if hops != [planned[0]] + [[state] for state in planned[1:]]:
                broken.append(f"{name}-{mode}")
    assert not broken, broken


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_5C)
def test_plans_follow_the_tie_rule():
    # Among minimum-length plans, the least policy sequence wins (README).
    rng = random.Random(7)
    mismatches = []
    for draw in range(400):
        pa = random_product(rng)
        plan = find_plan(pa)
        if plan is None or plan.length > 7:
            continue
        got = (plan.length, tuple(plan.prefix + plan.cycle))
        want = brute_least_lasso(pa, cap=7)
        if got != want:
            mismatches.append((draw, got, want))
    assert not mismatches, mismatches


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_23)
def test_plans_are_shortest_over_every_lasso():
    # A cycle may enter at any state and pass an accepting one inside (README).
    rng = random.Random(7)
    longer = []
    for draw in range(400):
        pa = random_product(rng)
        plan = find_plan(pa)
        if plan is None or plan.length > 7:
            continue
        shortest = brute_min_any_lasso(pa, cap=7)
        if plan.length != shortest:
            longer.append((draw, plan.length, shortest))
    assert not longer, longer


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_12)
def test_check_trace_judges_the_run_the_plan_defines():
    # Repetition 1 runs from (5, 0) and enters b c . a; every later one
    # starts at (1, 0) and enters b a.  The run . b c . a (b a)^w never
    # enters c again, but repetition 1 taken as the period does.
    grid = parse_map("ba.cb.\n")
    regions, _ = extract_regions(grid)
    index = region_index(regions, grid)
    formula = parse_ltl("F G !c")
    trace = execute_plan((5, 0), [], ["b", "a"], index, cycles=1)
    run = reference_plan_lasso((5, 0), [], ["b", "a"], index)
    assert check_trace(to_buchi(formula), trace) == eval_ltl_on_lasso(formula, *run)
