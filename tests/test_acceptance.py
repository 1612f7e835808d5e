"""End-to-end acceptance suite.

One test per acceptance criterion; run ``pytest -v`` to get a visible
pass/fail line for each.  Large property suites use fixed seeds so the
runs reproduce exactly.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import ltlplan.cli as cli
from envgen import (
    ATOMS,
    brute_min_lasso,
    first_region_change,
    random_formula,
    random_lasso,
    random_product,
    sea_with_islands,
)
from ltlplan.gridworld import extract_regions, parse_map
from ltlplan.ltl import accepts_lasso, eval_ltl_on_lasso, parse_ltl, to_buchi, to_text
from ltlplan.mvpolicy import (
    execute_plan,
    parse_policy,
    region_index,
    unsafe_report,
    check_trace,
)
from ltlplan.product import build_product, find_plan
from ltlplan.pruner import prune
from ltlplan.tsys import (
    COMPOSITE,
    EMPTY_LABEL,
    PRIMITIVE,
    build_initial_ts,
    generate_ts_labels,
    is_deterministic,
)
from conftest import labeled_ts_for


def pipeline(grid, mode):
    """labeled system, pruned system, and prune report for a map."""
    regions, adjacency = extract_regions(grid)
    initial = region_index(regions, grid)[grid.resolved_start()][0]
    labeled = generate_ts_labels(build_initial_ts(regions, adjacency, initial, mode))
    pruned, report = prune(labeled)
    return labeled, pruned, report


def test_criterion_1__abstraction_reproduces_all_fourteen_labels(ring_grid):
    begin = time.perf_counter()
    labeled, _, _ = pipeline(ring_grid, PRIMITIVE)
    e = EMPTY_LABEL
    expected = {
        (0, 1): {"a", "c", e},
        (1, 0): {"b"},
        (1, 2): {"a", "c", e},
        (2, 1): {"a", "b"},
        (2, 3): {"a", "c"},
        (3, 2): {"a", "b", "c", e},
        (3, 4): {"c"},
        (4, 3): {"a", "b", "c", e},
        (2, 5): {"a"},
        (5, 2): {"a", "b", "c", e},
        (2, 6): {"a", "c"},
        (6, 2): {"a", "b", "c", e},
        (6, 7): {"c"},
        (7, 6): {"a", "b", "c", e},
    }
    assert {
        edge: frozenset(syms) for edge, syms in labeled.transitions.items()
    } == {edge: frozenset(syms) for edge, syms in expected.items()}
    assert time.perf_counter() - begin < 1.0


def test_criterion_2__four_pruning_stages_match_reference(ring_grid):
    begin = time.perf_counter()
    labeled, pruned, report = pipeline(ring_grid, PRIMITIVE)

    # Stage 1: the outer-ring/core pair duplicated across the map merges.
    assert report.merged_state_groups == [(3, 6), (4, 7)]

    # Stage 2: 'a' leaves all three ambiguous hub edges, 'c' leaves q3->q2.
    assert [r for r in report.removed_symbols if r[3] == "case2"] == [
        (2, 1, "a", "case2"),
        (2, 3, "a", "case2"),
        (2, 5, "a", "case2"),
        (3, 2, "c", "case2"),
    ]

    # Stage 3: four already-complete symbols drop.
    assert [r for r in report.removed_symbols if r[3] == "case3"] == [
        (1, 2, "a", "case3"),
        (3, 2, "a", "case3"),
        (4, 3, "c", "case3"),
        (5, 2, "a", "case3"),
    ]

    # Stage 4: sentinel cleanup deletes the emptied hub edge q2->q5.
    assert report.removed_transitions == [(2, 5, "emptyCleanup")]
    assert {edge: frozenset(s) for edge, s in pruned.transitions.items()} == {
        (0, 1): frozenset({"a", "c"}),
        (1, 0): frozenset({"b"}),
        (1, 2): frozenset({"c"}),
        (2, 1): frozenset({"b"}),
        (2, 3): frozenset({"c"}),
        (3, 2): frozenset({"b"}),
        (3, 4): frozenset({"c"}),
        (4, 3): frozenset({"a", "b"}),
        (5, 2): frozenset({"b", "c"}),
    }
    assert report.unreachable_states == [5]
    assert time.perf_counter() - begin < 1.0


def _random_environments(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield sea_with_islands(rng, max_side=12, max_symbols=4)


def test_criterion_3__pruned_systems_are_deterministic():
    checked = 0
    for grid in _random_environments(101, 200):
        for mode in (PRIMITIVE, COMPOSITE):
            _, pruned, _ = pipeline(grid, mode)
            ok, violations = is_deterministic(pruned)
            assert ok, violations
        checked += 1
    assert checked == 200


def test_criterion_4__pruned_transitions_are_realizable():
    environments = 0
    transitions_checked = 0
    for grid in _random_environments(102, 200):
        _, pruned, report = pipeline(grid, PRIMITIVE)
        rep_of = {s: s for s in pruned.order}
        for group in report.merged_state_groups:
            for other in group[1:]:
                rep_of[other] = group[0]
        index = region_index(extract_regions(grid)[0], grid)
        cells_of: dict[int, list] = {}
        for cell, (region, _) in index.items():
            cells_of.setdefault(region, []).append(cell)
        rng = random.Random(103_000 + environments)
        for (src, dst), symbols in pruned.transitions.items():
            source_cells = sorted(
                cell
                for region, cells in cells_of.items()
                if rep_of[region] == src
                for cell in cells
            )
            samples = (
                source_cells
                if len(source_cells) <= 3
                else rng.sample(source_cells, 3)
            )
            assert len(samples) >= 1
            for symbol in symbols:
                policy = parse_policy(symbol)
                for cell in samples:
                    landed = first_region_change(cell, policy, index)
                    assert landed is not None
                    assert rep_of[landed] == dst, (src, dst, symbol, cell)
                    transitions_checked += 1
        environments += 1
    assert environments == 200
    assert transitions_checked > 0


def test_criterion_5__automata_match_semantic_evaluator_on_2000_words():
    begin = time.perf_counter()
    rng = random.Random(105)
    pairs = 0
    while pairs < 2000:
        formula = random_formula(rng, rng.randint(1, 8), ATOMS)
        aut = to_buchi(formula)
        for _ in range(6):
            prefix, cycle = random_lasso(rng, ATOMS)
            want = eval_ltl_on_lasso(formula, prefix, cycle)
            got = accepts_lasso(aut, prefix, cycle)
            assert got is want, (to_text(formula), prefix, cycle)
            pairs += 1
    assert pairs >= 2000
    assert time.perf_counter() - begin < 60.0


def test_criterion_6__open_room_single_goal_case_study(open_room_grid):
    _, pruned, _ = pipeline(open_room_grid, COMPOSITE)
    aut = to_buchi(parse_ltl("F square"))
    plan = find_plan(build_product(pruned, aut))
    assert plan is not None
    assert plan.prefix == ["b&square"]
    assert plan.cycle == []
    index = region_index(extract_regions(open_room_grid)[0], open_room_grid)
    trace = execute_plan(open_room_grid.resolved_start(), plan.prefix, plan.cycle, index)
    assert check_trace(aut, trace)
    assert unsafe_report(trace)["count"] == 0


def test_criterion_7__obstacle_course_two_goal_case_study(obstacle_course_grid):
    grid = obstacle_course_grid
    _, pruned, _ = pipeline(grid, COMPOSITE)
    aut = to_buchi(parse_ltl("F (b & !square) & F p"))
    plan = find_plan(build_product(pruned, aut))
    assert plan is not None
    assert plan.cycle == []
    assert plan.prefix in (
        ["b&circle", "b&square", "p&square"],
        ["circle&p", "b&square", "b&circle"],
    )
    index = region_index(extract_regions(grid)[0], grid)
    trace = execute_plan(grid.resolved_start(), plan.prefix, plan.cycle, index)
    assert check_trace(aut, trace)
    assert unsafe_report(trace)["count"] == 0

    # The first policy must go around the center block without clipping
    # any labeled region other than its own target.
    first = trace.segments[0]
    policy = parse_policy(first.symbol)
    for cell in trace.cells[first.start : first.end + 1]:
        labels = index[cell][1]
        assert not labels or policy.satisfied_by(labels), cell
    assert first.forced_violations == 0


def test_criterion_8__planner_matches_brute_force_minimum():
    rng = random.Random(108)
    solved = 0
    attempts = 0
    while solved < 100 and attempts < 600:
        attempts += 1
        pa = random_product(rng)
        plan = find_plan(pa)
        if plan is None:
            assert brute_min_lasso(pa, cap=6) is None
            continue
        if plan.length > 9:
            continue
        assert brute_min_lasso(pa, cap=9) == plan.length
        solved += 1
    assert solved >= 100


def test_criterion_9__formula_reprocessing_is_subsecond(capsys, tmp_path):
    # Re-planning new formulas on a fixed map must stay interactive: every
    # pipeline stage reports well under a second of wall-clock time.
    out = tmp_path / "run.json"
    maps = Path(__file__).resolve().parent.parent / "maps"
    timings: dict[str, float] = {}
    capsys.readouterr()
    for formula in ("F square", "F (b & !square)", "F circle & F square", "G F circle"):
        code = cli.main(
            [
                "run", "--map", str(maps / "shapes_open_room.json"),
                "--mode", "composite", "--ltl", formula, "--out", str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        for label, ms in re.findall(r"\[time\] ([a-z-]+): ([0-9.]+) ms", err):
            timings[label] = max(timings.get(label, 0.0), float(ms))
    expected_stages = {
        "parse-map", "abstract", "prune", "compile", "product", "plan", "execute", "check",
    }
    assert set(timings) == expected_stages
    assert all(ms < 1000.0 for ms in timings.values()), timings
