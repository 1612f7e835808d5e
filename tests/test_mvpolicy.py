"""Minimum-violation execution: paths, traces, violation accounting."""

from __future__ import annotations

import random

import pytest

from envgen import harsh_map, oracle_mv_cost
from ltlplan.gridworld import extract_regions, parse_map
from ltlplan.ltl import parse_ltl, to_buchi
from ltlplan.mvpolicy import (
    PolicySpec,
    Trace,
    TraceSegment,
    UnreachableTargetError,
    check_trace,
    execute_plan,
    first_region_change,
    mv_path,
    region_index,
    trace_word,
    unsafe_report,
)

STRIP = ".a.b."  # one row: free, a, free, b, free
BYPASS = ".ab\n...\n"  # direct route crosses a; the detour row is violation-free


def index_of(grid):
    return region_index(extract_regions(grid)[0])


# ---------------------------------------------------------------------------
# Policy specs


def test_policy_from_symbol_literals():
    policy = PolicySpec.from_symbol("b&!square")
    assert policy.positives == frozenset({"b"})
    assert policy.negatives == frozenset({"square"})
    assert policy.symbol == "b&!square"
    assert policy.satisfied_by(frozenset({"b", "circle"}))
    assert not policy.satisfied_by(frozenset({"b", "square"}))
    assert not policy.satisfied_by(frozenset({"circle"}))


def test_policy_symbol_is_sorted_and_stable():
    assert PolicySpec.from_symbol("square&b").symbol == "b&square"
    assert PolicySpec.from_symbol("c&!b&a").symbol == "a&c&!b"


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicySpec.from_symbol("!a")
    with pytest.raises(ValueError):
        PolicySpec.from_symbol("a&!a")
    with pytest.raises(ValueError):
        PolicySpec.from_symbol("a&&b")


# ---------------------------------------------------------------------------
# Paths


def test_path_through_unavoidable_label_counts_one_violation():
    grid = parse_map(STRIP)
    path = mv_path(grid, (0, 0), PolicySpec.from_symbol("b"), index_of(grid))
    assert path == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_start_region_satisfying_policy_is_a_fixpoint():
    grid = parse_map(STRIP)
    index = index_of(grid)
    assert mv_path(grid, (1, 0), PolicySpec.from_symbol("a"), index) == [(1, 0)]
    assert first_region_change(grid, (1, 0), PolicySpec.from_symbol("a"), index) is None


def test_longer_clean_detour_beats_short_violating_route():
    grid = parse_map(BYPASS)
    path = mv_path(grid, (0, 0), PolicySpec.from_symbol("b"), index_of(grid))
    assert (1, 0) not in path
    assert path == [(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)]


def test_unreachable_policy_raises():
    grid = parse_map(".#b")
    with pytest.raises(UnreachableTargetError):
        mv_path(grid, (0, 0), PolicySpec.from_symbol("b"), index_of(grid))
    grid2 = parse_map("..a")
    with pytest.raises(UnreachableTargetError):
        mv_path(grid2, (0, 0), PolicySpec.from_symbol("b"), index_of(grid2))


def test_path_rejects_impassable_start():
    grid = parse_map(".#b")
    with pytest.raises(ValueError):
        mv_path(grid, (1, 0), PolicySpec.from_symbol("b"), index_of(grid))


def test_first_region_change_reports_first_boundary():
    grid = parse_map(STRIP)
    index = index_of(grid)
    a_region = index[(1, 0)][0]
    assert first_region_change(grid, (0, 0), PolicySpec.from_symbol("b"), index) == a_region


def test_path_cost_matches_exhaustive_search():
    rng = random.Random(61)
    compared = 0
    while compared < 60:
        grid = harsh_map(rng, max_side=8)
        if grid is None:
            continue
        index = index_of(grid)
        symbols = sorted({s for (_, labels) in index.values() for s in labels})
        if not symbols:
            continue
        cells = sorted(index)
        for _ in range(3):
            start = rng.choice(cells)
            policy = PolicySpec.from_symbol(rng.choice(symbols))
            want = oracle_mv_cost(grid, start, policy, index)
            try:
                path = mv_path(grid, start, policy, index)
            except UnreachableTargetError:
                assert want is None
                continue
            from ltlplan.mvpolicy import _count_violations

            got = (_count_violations(index, path, policy), len(path) - 1)
            assert got == want, (start, policy.symbol)
            compared += 1
    assert compared >= 60


# ---------------------------------------------------------------------------
# Traces


def test_trace_word_keeps_empty_letters():
    grid = parse_map(STRIP)
    word, word_cells = trace_word([(0, 0), (1, 0), (2, 0), (3, 0)], index_of(grid))
    assert word == [
        frozenset(),
        frozenset({"a"}),
        frozenset(),
        frozenset({"b"}),
    ]
    assert word_cells == [0, 1, 2, 3]


def test_execute_plan_chains_segments():
    grid = parse_map(STRIP)
    trace = execute_plan(grid, (0, 0), ["a", "b", "a"], [], index_of(grid))
    assert [seg.symbol for seg in trace.segments] == ["a", "b", "a"]
    assert trace.segments[0].start == 0
    for left, right in zip(trace.segments, trace.segments[1:]):
        assert left.end == right.start
    assert trace.segments[-1].end == len(trace.cells) - 1
    index = index_of(grid)
    for seg in trace.segments:
        policy = PolicySpec.from_symbol(seg.symbol)
        assert policy.satisfied_by(index[trace.cells[seg.end]][1])
    assert (trace.word, trace.word_cells) == trace_word(trace.cells, index)


def test_execute_plan_unrolls_cycles():
    grid = parse_map(STRIP)
    once = execute_plan(grid, (2, 0), ["a"], ["b", "a"], index_of(grid), cycles=1)
    twice = execute_plan(grid, (2, 0), ["a"], ["b", "a"], index_of(grid), cycles=2)
    assert once.prefix_segments == 1
    assert once.cycle_length == 2
    assert (once.cycles, twice.cycles) == (1, 2)
    assert len(twice.segments) == 5
    assert twice.cells[: len(once.cells)] == once.cells


def test_execute_plan_validates_inputs():
    grid = parse_map(STRIP)
    with pytest.raises(ValueError):
        execute_plan(grid, (0, 0), ["a"], ["b"], index_of(grid), cycles=0)
    with pytest.raises(UnreachableTargetError):
        execute_plan(grid, (0, 0), ["ghost"], [], index_of(grid))


def test_trace_document_roundtrip():
    grid = parse_map(STRIP)
    trace = execute_plan(grid, (0, 0), ["a"], ["b", "a"], index_of(grid), cycles=2)
    doc = trace.to_document()
    again = Trace.from_document(doc)
    assert again == trace
    assert doc["cells"][0] == {"x": 0, "y": 0}


# ---------------------------------------------------------------------------
# Violation accounting


def test_forced_violation_reported_but_not_unforced():
    grid = parse_map(STRIP)
    trace = execute_plan(grid, (0, 0), ["b"], [], index_of(grid))
    report = unsafe_report(grid, trace, index_of(grid))
    assert report["count"] == 1
    assert report["forced"] == 1
    assert report["unforced"] == 0
    assert report["entries"] == [
        {"segment": 0, "policy": "b", "cell": {"x": 1, "y": 0}, "labels": ["a"]}
    ]


def test_terminal_region_entry_is_exempt():
    grid = parse_map(".b")
    trace = execute_plan(grid, (0, 0), ["b"], [], index_of(grid))
    report = unsafe_report(grid, trace, index_of(grid))
    assert report == {"count": 0, "forced": 0, "unforced": 0, "entries": []}


def test_needless_detour_counts_as_unforced():
    grid = parse_map(BYPASS)
    sloppy = Trace(
        cells=[(0, 0), (1, 0), (2, 0)],
        word=[frozenset(), frozenset({"a"}), frozenset({"b"})],
        word_cells=[0, 1, 2],
        segments=[TraceSegment(symbol="b", start=0, end=2, forced_violations=0)],
    )
    report = unsafe_report(grid, sloppy, index_of(grid))
    assert report["count"] == 1
    assert report["forced"] == 0
    assert report["unforced"] == 1
    assert report["entries"][0]["cell"] == {"x": 1, "y": 0}


def test_executed_traces_never_have_unforced_violations():
    rng = random.Random(62)
    checked = 0
    while checked < 25:
        grid = harsh_map(rng, max_side=8)
        if grid is None:
            continue
        index = index_of(grid)
        symbols = sorted({s for (_, labels) in index.values() for s in labels})
        if not symbols:
            continue
        plan = [rng.choice(symbols) for _ in range(rng.randint(1, 3))]
        try:
            trace = execute_plan(grid, grid.resolved_start(), plan, [], index)
        except UnreachableTargetError:
            continue
        report = unsafe_report(grid, trace, index)
        assert report["unforced"] == 0
        assert report["count"] == report["forced"]
        checked += 1


# ---------------------------------------------------------------------------
# Trace checking


def test_finite_trace_checked_as_park_forever():
    grid = parse_map(STRIP)
    trace = execute_plan(grid, (0, 0), ["b"], [], index_of(grid))
    assert check_trace(to_buchi(parse_ltl("F b")), trace)
    assert check_trace(to_buchi(parse_ltl("F a")), trace)  # crossed a on the way
    assert not check_trace(to_buchi(parse_ltl("G F b & G F a")), trace)


def test_cyclic_trace_checked_as_lasso():
    grid = parse_map(STRIP)
    trace = execute_plan(grid, (2, 0), [], ["b", "a"], index_of(grid), cycles=2)
    assert check_trace(to_buchi(parse_ltl("G F b & G F a")), trace)
    assert not check_trace(to_buchi(parse_ltl("G !a")), trace)


def test_failed_goal_detected():
    grid = parse_map(STRIP)
    trace = execute_plan(grid, (0, 0), ["a"], [], index_of(grid))
    assert not check_trace(to_buchi(parse_ltl("F b")), trace)
