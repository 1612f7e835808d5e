"""Product construction and shortest-policy-sequence planning."""

from __future__ import annotations

import functools
import json
import random

import pytest

from envgen import (
    ATOMS,
    brute_min_lasso,
    harsh_map,
    map_symbols,
    random_formula,
    random_product,
    reference_buchi,
    reference_product,
    sea_with_islands,
    ts_alphabet,
)
from ltlplan import product
from ltlplan.gridworld import bfs_tree, extract_regions, parse_map, tree_depths
from ltlplan.ltl import parse_ltl, to_buchi, to_text
from ltlplan.mvpolicy import region_index
from ltlplan.product import build_product, find_plan
from ltlplan.pruner import prune
from ltlplan.tsys import COMPOSITE, PRIMITIVE, build_initial_ts, generate_ts_labels
from conftest import labeled_ts_for
from test_golden import BUNDLED, MAPS


def pruned_system(grid, mode):
    regions, adjacency = extract_regions(grid)
    initial = region_index(regions, grid)[grid.resolved_start()][0]
    labeled = generate_ts_labels(build_initial_ts(regions, adjacency, initial, mode))
    return prune(labeled)[0]


# ---------------------------------------------------------------------------
# Construction goldens


def test_open_room_product_layout(open_room_grid):
    pruned = pruned_system(open_room_grid, COMPOSITE)
    pa = build_product(pruned, to_buchi(parse_ltl("F square")))
    # b0 still owes the square, b1 has seen it (accepting).
    names = [pa.state_name(s) for s in pa.states]
    assert names == [
        "q0|b0", "q1|b0", "q2|b0", "q3|b0", "q4|b0", "q4|b1",
        "q0|b1", "q1|b1", "q2|b1", "q3|b1",
    ]
    assert [pa.state_name(s) for s in pa.initial] == ["q0|b0"]
    assert pa.accepting == pa.stoppable
    assert sorted(pa.state_name(s) for s in pa.accepting) == [
        "q0|b1", "q1|b1", "q2|b1", "q3|b1", "q4|b1",
    ]
    assert pa.edges[((0, "b0"), (4, "b1"))] == ["b&square"]
    assert pa.edges[((4, "b1"), (0, "b1"))] == ["b&circle", "circle&p", "circle&w"]
    assert ((4, "b0"), (0, "b1")) not in pa.edges


def test_open_room_shortest_plan_is_single_policy(open_room_grid):
    pruned = pruned_system(open_room_grid, COMPOSITE)
    pa = build_product(pruned, to_buchi(parse_ltl("F square")))
    plan = find_plan(pa)
    assert plan is not None
    assert plan.to_document(pa) == {
        "prefix": ["b&square"],
        "cycle": [],
        "length": 1,
        "pa_path": ["q0|b0", "q4|b1"],
    }


def test_obstacle_course_three_policy_plan(obstacle_course_grid):
    pruned = pruned_system(obstacle_course_grid, COMPOSITE)
    pa = build_product(pruned, to_buchi(parse_ltl("F (b & !square) & F p")))
    plan = find_plan(pa)
    assert plan is not None
    assert plan.cycle == []
    assert plan.prefix == ["b&circle", "b&square", "p&square"]
    assert plan.length == 3


def test_ring_liveness_needs_a_cycle(ring_grid):
    pruned = pruned_system(ring_grid, PRIMITIVE)
    pa = build_product(pruned, to_buchi(parse_ltl("G F b & G F c")))
    plan = find_plan(pa)
    assert plan is not None
    assert plan.prefix == ["b", "b"]
    assert plan.cycle == ["a", "c", "c", "c", "a", "b", "b", "b"]
    assert plan.length == 10
    assert plan.cycle_states[-1] == plan.prefix_states[-1]


def test_ring_sequential_goals(ring_grid):
    pruned = pruned_system(ring_grid, PRIMITIVE)
    pa = build_product(pruned, to_buchi(parse_ltl("F b & F c")))
    plan = find_plan(pa)
    assert plan is not None
    assert plan.prefix == ["b", "b", "a", "c", "c", "c"]
    assert plan.cycle == []


def test_unknown_guard_symbol_rejected(ring_grid):
    pruned = pruned_system(ring_grid, PRIMITIVE)
    with pytest.raises(ValueError, match="ghost"):
        build_product(pruned, to_buchi(parse_ltl("F ghost")))


def test_contradictory_goal_has_no_plan(ring_grid):
    pruned = pruned_system(ring_grid, PRIMITIVE)
    pa = build_product(pruned, to_buchi(parse_ltl("F b & G !b")))
    assert find_plan(pa) is None


def test_product_document_shape_and_reproducibility(open_room_grid):
    pruned = pruned_system(open_room_grid, COMPOSITE)
    aut = to_buchi(parse_ltl("F square"))
    first = build_product(pruned, aut).to_document()
    second = build_product(pruned, aut).to_document()
    assert json.dumps(first) == json.dumps(second)
    assert sorted(first.keys()) == [
        "accepting", "initial", "states", "stoppable", "transitions",
    ]
    assert first["initial"] == ["q0|b0"]
    assert {"from": "q0|b0", "to": "q4|b1", "symbols": ["b&square"]} in first[
        "transitions"
    ]


def test_product_dot_output(open_room_grid):
    pruned = pruned_system(open_room_grid, COMPOSITE)
    pa = build_product(pruned, to_buchi(parse_ltl("F square")))
    dot = pa.to_dot()
    assert dot.startswith("digraph")
    assert '"q0|b0"' in dot


def test_product_matches_reference():
    rng = random.Random(53)
    systems = 0
    while systems < 30:
        grid = harsh_map(rng, max_side=8) if systems % 2 else sea_with_islands(rng, max_side=10)
        if grid is None:
            continue
        pruned = pruned_system(grid, PRIMITIVE)
        symbols = sorted(ts_alphabet(pruned))
        if not symbols:
            continue
        systems += 1
        goals = [symbols[i % len(symbols)] for i in range(5)]
        texts = [
            to_text(random_formula(rng, rng.randint(1, 6), symbols)),
            " & ".join(f"F {x}" for x in goals[:4]),
            " & ".join(f"G F {x}" for x in goals[:4]),
            " & ".join(f"(!{x} U {y})" for x, y in zip(goals[:4], goals[1:])),
        ]
        for text in texts:
            aut = to_buchi(parse_ltl(text))
            assert build_product(pruned, aut).to_document() == reference_product(pruned, aut), text


# ---------------------------------------------------------------------------
# Plan validity properties


def walk_is_consistent(pa, plan) -> bool:
    path = plan.prefix_states + plan.cycle_states
    symbols = plan.prefix + plan.cycle
    if plan.prefix_states[0] not in pa.initial:
        return False
    for (src, dst), symbol in zip(zip(path, path[1:]), symbols):
        if (src, dst) not in pa.edges or symbol not in pa.edges[(src, dst)]:
            return False
    if plan.cycle:
        return plan.cycle_states[-1] == plan.prefix_states[-1] and (
            plan.prefix_states[-1] in pa.accepting
        )
    return plan.prefix_states[-1] in pa.stoppable


def test_plans_on_random_environments_are_valid_walks():
    rng = random.Random(51)
    produced = 0
    for _ in range(40):
        grid = sea_with_islands(rng, max_side=10)
        pruned = pruned_system(grid, PRIMITIVE)
        alphabet = ts_alphabet(pruned)
        if not alphabet:
            continue
        formula = random_formula(rng, rng.randint(1, 6), sorted(alphabet))
        try:
            pa = build_product(pruned, to_buchi(formula))
        except ValueError:
            continue
        plan = find_plan(pa)
        if plan is None:
            continue
        assert walk_is_consistent(pa, plan)
        produced += 1
    assert produced >= 10


def test_planner_matches_brute_force_minimum_small():
    rng = random.Random(52)
    agreements = 0
    for _ in range(30):
        pa = random_product(rng, max_states=12)
        plan = find_plan(pa)
        reference = brute_min_lasso(pa, cap=8)
        if plan is None:
            assert reference is None
        elif plan.length <= 8:
            assert reference == plan.length
            agreements += 1
    assert agreements >= 5


def test_plan_prefers_stopping_over_cycling(open_room_grid):
    # Where parking satisfies the goal outright, no cycle should be emitted.
    pruned = pruned_system(open_room_grid, COMPOSITE)
    for text in ("F square", "F circle", "F (b | p)"):
        pa = build_product(pruned, to_buchi(parse_ltl(text)))
        plan = find_plan(pa)
        assert plan is not None
        assert plan.cycle == []
        assert plan.prefix_states[-1] in pa.stoppable


# ---------------------------------------------------------------------------
# Work on a board where every cell is its own region


def six_symbol_board(side: int):
    """Cell (x, y) holds ``"abcdef"[(x + 2y) % 6]``; the start cell (0, 0) is free."""
    return parse_map("\n".join(
        "".join("." if x == y == 0 else "abcdef"[(x + 2 * y) % 6] for x in range(side))
        for y in range(side)
    ))


def test_plan_search_stops_at_the_best_length(monkeypatch):
    pruned = pruned_system(six_symbol_board(8), PRIMITIVE)
    pa = build_product(pruned, to_buchi(parse_ltl("F a & F b & F c & F d & F e & F f")))
    cycle_searches = []
    search = product.cycle_path

    def counted(state, successors):
        cycle_searches.append(state)
        return search(state, successors)

    monkeypatch.setattr(product, "cycle_path", counted)
    plan = find_plan(pa)
    assert plan is not None and plan.length == 6
    # Only an accepting state that lies closer than the plan's length can
    # start a shorter plan; the board has 310 accepting states, 84 of them
    # closer than 6 policies.
    depth = tree_depths(bfs_tree(pa.initial, pa.successors.__getitem__))
    closer = [s for s in pa.accepting if depth[s] < plan.length and s not in pa.stoppable]
    assert len(cycle_searches) <= len(closer) < 100


def test_product_edges_share_one_symbol_list_per_system_edge():
    pruned = pruned_system(six_symbol_board(8), PRIMITIVE)
    pa = build_product(pruned, to_buchi(parse_ltl("F a & F b & F c & F d & F e & F f")))
    by_system_edge: dict[tuple[int, int], set[int]] = {}
    for ((s, _), (t, _)), symbols in pa.edges.items():
        assert symbols == sorted(pruned.transitions[(s, t)])
        by_system_edge.setdefault((s, t), set()).add(id(symbols))
    assert len(pa.edges) > len(by_system_edge)
    assert all(len(ids) == 1 for ids in by_system_edge.values())


# ---------------------------------------------------------------------------
# Plans on the automaton against plans on the reference tableau


def _plan_length(pruned, aut) -> int | None:
    plan = find_plan(build_product(pruned, aut))
    return None if plan is None else plan.length


@functools.cache
def _plan_sweep() -> list[tuple[str, int | None, int | None]]:
    """(formula, plan length, reference plan length) over seeded maps and formulas."""
    rng = random.Random(54)
    draws = []
    maps = 0
    while maps < 200:
        grid = harsh_map(rng, max_side=8) if maps % 2 else sea_with_islands(rng, max_side=10)
        if grid is None:
            continue
        pruned = pruned_system(grid, (PRIMITIVE, COMPOSITE)[maps // 2 % 2])
        atoms = sorted(frozenset().union(*pruned.labels.values()))
        if not atoms:
            continue
        maps += 1
        for _ in range(4):
            formula = random_formula(rng, rng.randint(1, 7), atoms)
            draws.append((to_text(formula), _plan_length(pruned, to_buchi(formula)),
                          _plan_length(pruned, reference_buchi(formula))))
    return draws


def test_plan_exists_exactly_when_a_reference_plan_exists():
    draws = _plan_sweep()
    assert [d for d in draws if (d[1] is None) != (d[2] is None)] == []
    assert sum(d[1] is not None for d in draws) > len(draws) // 2


def test_plans_are_no_longer_than_reference_plans_on_the_whole():
    draws = [d for d in _plan_sweep() if d[1] is not None and d[2] is not None]
    longer = [d for d in draws if d[1] > d[2]]
    shorter = [d for d in draws if d[1] < d[2]]
    assert len(longer) <= len(shorter), longer


@pytest.mark.parametrize("key", sorted(BUNDLED))
def test_bundled_plans_are_no_longer_than_reference_plans(key):
    # The golden formulas, then F^k and G F^k over the map's first symbols.
    filename, texts = BUNDLED[key]
    grid = parse_map((MAPS / filename).read_text())
    symbols = sorted(map_symbols(grid))
    wide = [" & ".join(t.format(x) for x in symbols[:k]) for k in (3, 4) for t in ("F {}", "G F {}")]
    for mode in (PRIMITIVE, COMPOSITE):
        pruned = pruned_system(grid, mode)
        for text in texts + wide:
            formula = parse_ltl(text)
            got = _plan_length(pruned, to_buchi(formula))
            want = _plan_length(pruned, reference_buchi(formula))
            assert (got is None) == (want is None), (mode, text)
            assert want is None or got <= want, (mode, text, got, want)


def test_recurring_goals_keep_the_reference_visiting_order(ring_grid):
    # The first eventuality's mark is checked last, as the reference's
    # counter does, so this equal-length tie keeps its plan; checking the
    # marks in reverse closure order starts the cycle at c instead.
    pruned = pruned_system(ring_grid, PRIMITIVE)
    formula = parse_ltl("G F a & G F b & G F c")
    plan = find_plan(build_product(pruned, to_buchi(formula)))
    reference = find_plan(build_product(pruned, reference_buchi(formula)))
    assert (plan.prefix, plan.cycle) == (reference.prefix, reference.cycle)
    assert plan.cycle == ["b", "a", "c", "c", "c", "a", "b", "b"]
