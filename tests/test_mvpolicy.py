"""Minimum-violation execution: paths, traces, violation accounting."""

from __future__ import annotations

import random
import re
import time

import pytest

import ltlplan.mvpolicy as mvpolicy
from envgen import (
    cell_labels,
    count_violations,
    first_region_change,
    grid_from_cells,
    grid_map,
    harsh_map,
    map_symbols,
    neighbors4,
    oracle_mv_cost,
    random_formula,
    random_grid,
    reference_mv_path,
    reference_region_index,
    reference_unsafe_report,
    walled_hub_map,
)
from ltlplan.gridworld import GridMap, extract_regions, parse_map
from ltlplan.ltl import Guard, eval_ltl_on_lasso, parse_ltl, to_buchi, to_text
from ltlplan.mvpolicy import (
    Trace,
    TraceSegment,
    TraceTooLongError,
    UnreachableTargetError,
    check_trace,
    execute_plan,
    mv_path,
    parse_policy,
    region_index,
    trace_word,
    unsafe_report,
)

STRIP = ".a.b."  # one row: free, a, free, b, free
BYPASS = ".ab\n...\n"  # direct route crosses a; the detour row is violation-free


def index_of(grid):
    return region_index(extract_regions(grid)[0], grid)


# ---------------------------------------------------------------------------
# Policies


def test_policy_from_symbol_literals():
    policy = parse_policy("b&!square")
    assert policy.positives == frozenset({"b"})
    assert policy.negatives == frozenset({"square"})
    assert policy.format() == "b&!square"
    assert policy.satisfied_by(frozenset({"b", "circle"}))
    assert not policy.satisfied_by(frozenset({"b", "square"}))
    assert not policy.satisfied_by(frozenset({"circle"}))


def test_policy_symbol_is_sorted_and_stable():
    assert parse_policy("square&b").format() == "b&square"
    assert parse_policy("c&!b&a").format() == "a&!b&c"


def test_policy_validation():
    with pytest.raises(ValueError):
        parse_policy("!a")
    with pytest.raises(ValueError):
        parse_policy("a&!a")
    with pytest.raises(ValueError):
        parse_policy("a&&b")


def test_policy_errors_name_the_fault():
    with pytest.raises(ValueError, match="empty literal in policy symbol 'a&&b'"):
        parse_policy("a&&b")
    with pytest.raises(ValueError, match="policy needs at least one positive label"):
        parse_policy("!a")
    with pytest.raises(ValueError, match=re.escape("contradictory policy literals: ['a']")):
        parse_policy("a&!a&b")


def test_mv_path_takes_any_guard():
    # Validation is parse_policy's: an empty guard holds at the start, and a
    # contradictory one holds nowhere.
    index = index_of(parse_map(STRIP))
    assert mv_path((0, 0), Guard(), index) == (0, [(0, 0)])
    with pytest.raises(UnreachableTargetError, match="'a&!a'"):
        mv_path((0, 0), Guard(frozenset({"a"}), frozenset({"a"})), index)


# ---------------------------------------------------------------------------
# Paths


def test_path_through_unavoidable_label_counts_one_violation():
    grid = parse_map(STRIP)
    violations, path = mv_path((0, 0), parse_policy("b"), index_of(grid))
    assert path == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert violations == 1


def test_start_region_satisfying_policy_is_a_fixpoint():
    grid = parse_map(STRIP)
    index = index_of(grid)
    assert mv_path((1, 0), parse_policy("a"), index) == (0, [(1, 0)])
    assert first_region_change((1, 0), parse_policy("a"), index) is None


def test_longer_clean_detour_beats_short_violating_route():
    grid = parse_map(BYPASS)
    violations, path = mv_path((0, 0), parse_policy("b"), index_of(grid))
    assert (1, 0) not in path
    assert path == [(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)]
    assert violations == 0


def test_unreachable_policy_raises():
    grid = parse_map(".#b")
    with pytest.raises(UnreachableTargetError):
        mv_path((0, 0), parse_policy("b"), index_of(grid))
    grid2 = parse_map("..a")
    with pytest.raises(UnreachableTargetError):
        mv_path((0, 0), parse_policy("b"), index_of(grid2))


def test_path_rejects_impassable_start():
    grid = parse_map(".#b")
    with pytest.raises(ValueError):
        mv_path((1, 0), parse_policy("b"), index_of(grid))


def test_first_region_change_reports_first_boundary():
    grid = parse_map(STRIP)
    index = index_of(grid)
    a_region = index[(1, 0)][0]
    assert first_region_change((0, 0), parse_policy("b"), index) == a_region


def _count_queue(monkeypatch) -> list:
    """Record each call of the queue search, leaving the word budget as it is."""
    queued = []
    queue = mvpolicy._queue_path

    def counted(*args):
        queued.append(args)
        return queue(*args)

    monkeypatch.setattr(mvpolicy, "_queue_path", counted)
    return queued


def _pin_search(monkeypatch, search: str) -> list:
    """Send every ``mv_path`` search to one search: ``"bitset"`` or ``"queue"``.

    ``"bitset"`` lifts the word budget, ``"queue"`` spends it before the
    first layer.  Returns the list of the queue's calls.
    """
    queued = _count_queue(monkeypatch)
    if search == "queue":
        monkeypatch.setattr(mvpolicy, "_WORDS_PER_CELL", 0)
        monkeypatch.setattr(mvpolicy, "_WORD_SLACK", -1)
    else:
        monkeypatch.setattr(mvpolicy, "_WORD_SLACK", 1 << 62)
    return queued


def _costs_match_exhaustive_search() -> None:
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
            policy = parse_policy(rng.choice(symbols))
            want = oracle_mv_cost(grid, start, policy, index)
            try:
                violations, path = mv_path(start, policy, index)
            except UnreachableTargetError:
                assert want is None
                continue
            assert path[0] == start
            for cell, step in zip(path, path[1:]):
                assert step in neighbors4(grid, cell) and step in index, (cell, step)
            got = (violations, len(path) - 1)
            assert got == want, (start, policy.format())
            assert count_violations(index, path, policy) == violations, (start, policy.format())
            compared += 1
    assert compared >= 60


def test_path_cost_matches_exhaustive_search(monkeypatch):
    queued = _pin_search(monkeypatch, "bitset")
    _costs_match_exhaustive_search()
    assert not queued


def test_path_cost_matches_exhaustive_search_on_the_queue(monkeypatch):
    queued = _pin_search(monkeypatch, "queue")
    _costs_match_exhaustive_search()
    assert queued


def _outcome(search, start, policy, index):
    try:
        return search(start, policy, index)
    except UnreachableTargetError:
        return "unreachable"


def _compare_with_reference(grid, starts=None) -> list:
    """Every start (default: every passable cell) x every policy on the map."""
    regions = extract_regions(grid)[0]
    flat = region_index(regions, grid)
    ref = reference_region_index(regions)
    symbols = sorted(map_symbols(grid))
    # A negated literal and a symbol no region carries exercise the other outcomes.
    policies = symbols + [f"{s}&!{t}" for s, t in zip(symbols, symbols[1:])] + ["ghost"]
    outcomes = []
    for start in sorted(ref) if starts is None else starts:
        for symbol in policies:
            policy = parse_policy(symbol)
            want = _outcome(reference_mv_path, start, policy, ref)
            assert _outcome(mv_path, start, policy, flat) == want, (grid, start, symbol)
            outcomes.append(want)
    return outcomes


def _tie_room(rng: random.Random) -> GridMap:
    """An obstacle-free room with a few labeled cells: many equal-cost paths."""
    w, h = rng.randint(4, 12), rng.randint(4, 12)
    labels = {
        (rng.randrange(w), rng.randrange(h)): frozenset(rng.sample("abc", rng.randint(1, 2)))
        for _ in range(rng.randint(1, 5))
    }
    return grid_map(w, h, labels)


def _strip(rng: random.Random, vertical: bool) -> GridMap:
    n = rng.randint(1, 12)
    labels, obstacles = {}, set()
    for i in range(n):
        cell = (0, i) if vertical else (i, 0)
        roll = rng.random()
        if roll < 0.1:
            obstacles.add(cell)
        elif roll < 0.5:
            labels[cell] = frozenset(rng.sample("abc", rng.randint(1, 2)))
    width, height = (1, n) if vertical else (n, 1)
    return grid_map(width, height, labels, obstacles)


def _paths_match_reference() -> None:
    rng = random.Random(64)
    outcomes = []
    for _ in range(40):  # seeded harsh maps, sampled starts
        grid = harsh_map(rng)
        if grid is not None:
            cells = sorted(reference_region_index(extract_regions(grid)[0]))
            outcomes += _compare_with_reference(grid, rng.sample(cells, min(6, len(cells))))
    for _ in range(15):
        outcomes += _compare_with_reference(_tie_room(rng))
    for _ in range(20):
        outcomes += _compare_with_reference(_strip(rng, vertical=False))
        outcomes += _compare_with_reference(_strip(rng, vertical=True))
    for _ in range(40):  # side <= 6: every start cell x every symbol
        grid = harsh_map(rng, max_side=6)
        if grid is not None:
            outcomes += _compare_with_reference(grid)
    found = [o for o in outcomes if o != "unreachable"]
    assert len(found) > 2000 and len(outcomes) > len(found)
    assert any(violations > 0 for violations, _ in found)
    assert any(len(path) > 10 for _, path in found)

    large = []  # sides of 20 to 48, and a path across each map
    grids = [walled_hub_map(rng, side) for side in (32, 40, 48)]
    grids += [random_grid(rng, rng.randint(20, 40), rng.randint(20, 40)) for _ in range(3)]
    for grid in grids:
        grid, corner = _with_beacon(grid)
        large += _compare_with_reference(grid, [corner, *rng.sample(sorted(index_of(grid)), 3)])
    found = [o for o in large if o != "unreachable"]
    assert any(len(path) > 41 for _, path in found)
    assert any(violations >= 2 for violations, _ in found)


def _with_beacon(grid: GridMap) -> tuple[GridMap, tuple[int, int]]:
    """The map with its last passable cell relabeled ``z``, and its first passable cell."""
    cells = cell_labels(grid)
    free = [i for i, labels in enumerate(cells) if labels is not None]
    cells[free[-1]] = frozenset({"z"})
    beacon = grid_from_cells(grid.width, grid.height, cells, grid.start)
    return beacon, (free[0] % grid.width, free[0] // grid.width)


def test_mv_path_matches_reference(monkeypatch):
    queued = _pin_search(monkeypatch, "bitset")
    _paths_match_reference()
    assert not queued


def test_mv_path_matches_reference_on_the_queue(monkeypatch):
    queued = _pin_search(monkeypatch, "queue")
    _paths_match_reference()
    assert queued


@pytest.mark.parametrize("search", ["bitset", "queue"])
def test_mv_path_never_wraps_across_rows(monkeypatch, search):
    # Without a pad cell at each row's end, (width - 1, y) + 1 is (0, y + 1).
    queued = _pin_search(monkeypatch, search)
    for text, start in ((".....\nb....", (4, 0)), ("....b\n.....", (0, 1))):
        grid = parse_map(text)
        index = index_of(grid)
        policy = parse_policy("b")
        violations, path = mv_path(start, policy, index)
        assert (violations, len(path) - 1) == oracle_mv_cost(grid, start, policy, index) == (0, 5)
        for cell, step in zip(path, path[1:]):
            assert step in neighbors4(grid, cell), (cell, step)
    assert len(queued) == (2 if search == "queue" else 0)


def _serpentine(side: int) -> GridMap:
    """A one-cell corridor winding down a side x side grid (side odd) to a cell ``g``."""
    obstacles = set()
    for y in range(1, side, 2):
        gap = side - 1 if y % 4 == 1 else 0
        obstacles |= {(x, y) for x in range(side) if x != gap}
    end = (side - 1 if side % 4 == 1 else 0, side - 1)
    return grid_map(side, side, {end: frozenset({"g"})}, obstacles)


def _open_room(side: int) -> GridMap:
    return grid_map(side, side, {(side - 1, side - 1): frozenset({"g"})})


@pytest.mark.parametrize(
    "room, queued_searches", [(_serpentine, 1), (_open_room, 0)], ids=["serpentine", "open"]
)
def test_only_the_winding_corridor_restarts_on_the_queue(monkeypatch, room, queued_searches):
    # A corridor layer is one cell but a whole grid of words, so the bitset
    # pass spends its word budget there; an open room's layers pay their way.
    queued = _count_queue(monkeypatch)
    grid = room(129)
    index, ref = index_of(grid), reference_region_index(extract_regions(grid)[0])
    policy = parse_policy("g")
    assert mv_path((0, 0), policy, index) == reference_mv_path((0, 0), policy, ref)
    assert len(queued) == queued_searches
    with pytest.raises(UnreachableTargetError, match="'ghost'"):
        mv_path((0, 0), parse_policy("ghost"), index)
    assert len(queued) == 2 * queued_searches


def test_winding_corridor_search_is_quick():
    # Without the queue, the bitset pass stores 33k layers of 264 x 257 bits
    # each here and takes over a second.
    index = index_of(_serpentine(257))
    begin = time.perf_counter()
    violations, path = mv_path((0, 0), parse_policy("g"), index)
    assert time.perf_counter() - begin < 0.75
    assert (violations, len(path), path[-1]) == (0, 33281, (256, 256))


def test_over_255_label_sets_search_on_the_queue(monkeypatch):
    # The bitsets code each label set in one byte; the unlabeled set is one.
    # Past 255 label sets the map's codes take more than one byte too.
    def row(symbols: int) -> GridMap:
        labels = {(2 * i + 1, 0): frozenset({f"s{i}"}) for i in range(symbols)}
        return grid_map(2 * symbols, 1, labels)

    assert index_of(row(254)).masks is not None
    queued = _count_queue(monkeypatch)
    for searches, symbols in enumerate((255, 300), 1):
        grid = row(symbols)
        index = index_of(grid)
        assert index.masks is None
        policy = parse_policy(f"s{symbols - 1}")
        want = reference_mv_path((0, 0), policy, reference_region_index(extract_regions(grid)[0]))
        path = [(x, 0) for x in range(2 * symbols)]
        assert mv_path((0, 0), policy, index) == want == (symbols - 1, path)
        assert len(queued) == searches


def test_cell_index_rejects_cells_off_the_map():
    grid = parse_map("a.\n.#")
    index = index_of(grid)
    assert sorted(index) == [(0, 0), (0, 1), (1, 0)]
    assert len(index) == 3
    for cell in ((2, 0), (-1, 1), (0, 2), (1, -1), (1, 1)):
        assert cell not in index
        assert index.get(cell) is None
        with pytest.raises(KeyError):
            index[cell]
    assert index[(0, 0)] == (0, frozenset({"a"}))
    assert dict(index) == reference_region_index(extract_regions(grid)[0])


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
    trace = execute_plan((0, 0), ["a", "b", "a"], [], index_of(grid))
    assert [seg.symbol for seg in trace.segments] == ["a", "b", "a"]
    assert trace.segments[0].start == 0
    for left, right in zip(trace.segments, trace.segments[1:]):
        assert left.end == right.start
    assert trace.segments[-1].end == len(trace.cells) - 1
    index = index_of(grid)
    for seg in trace.segments:
        policy = parse_policy(seg.symbol)
        assert policy.satisfied_by(index[trace.cells[seg.end]][1])
    assert (trace.word, trace.word_cells) == trace_word(trace.cells, index)


def test_execute_plan_unrolls_cycles():
    grid = parse_map(STRIP)
    once = execute_plan((2, 0), ["a"], ["b", "a"], index_of(grid), cycles=1)
    twice = execute_plan((2, 0), ["a"], ["b", "a"], index_of(grid), cycles=2)
    assert once.prefix_segments == 1
    assert once.cycle_length == 2
    assert (once.cycles, twice.cycles) == (1, 2)
    assert len(twice.segments) == 5
    assert twice.cells[: len(once.cells)] == once.cells


def test_execute_plan_validates_inputs():
    grid = parse_map(STRIP)
    with pytest.raises(ValueError):
        execute_plan((0, 0), ["a"], ["b"], index_of(grid), cycles=0)
    with pytest.raises(UnreachableTargetError):
        execute_plan((0, 0), ["ghost"], [], index_of(grid))
    # With no policy to run, no search meets the start cell.
    with pytest.raises(ValueError, match=re.escape("start cell (1, 0) is not passable")):
        execute_plan((1, 0), [], [], index_of(parse_map(".#b")))


def test_execute_plan_stops_at_the_trace_bound(monkeypatch):
    searched = []
    search = mvpolicy.mv_path

    def counted(*args):
        searched.append(args)
        return search(*args)

    monkeypatch.setattr(mvpolicy, "mv_path", counted)
    monkeypatch.setattr(mvpolicy, "MAX_TRACE_CELLS", 10)
    index = index_of(parse_map(STRIP))
    # 1 + 2 * 5 policies do not fit: no search runs.
    with pytest.raises(TraceTooLongError, match="unrolls to 11 policy segments"):
        execute_plan((0, 0), ["b"], ["a", "b"], index, cycles=5)
    assert not searched
    # 7 policies fit, but the 4, 6, 8, 10, 12, ... cells after each do not.
    with pytest.raises(TraceTooLongError, match="bound of 10 cells in policy segment 5 of 7"):
        execute_plan((0, 0), ["b"], ["a", "b"], index, cycles=3)
    assert len(execute_plan((0, 0), ["b", "a", "b", "a"], [], index).cells) == 10


def test_trace_document_roundtrip():
    grid = parse_map(STRIP)
    trace = execute_plan((0, 0), ["a"], ["b", "a"], index_of(grid), cycles=2)
    doc = trace.to_document()
    again = Trace.from_document(doc)
    assert again == trace
    assert doc["cells"][0] == {"x": 0, "y": 0}


# ---------------------------------------------------------------------------
# Violation accounting


def test_forced_violation_reported_but_not_unforced():
    grid = parse_map(STRIP)
    trace = execute_plan((0, 0), ["b"], [], index_of(grid))
    report = unsafe_report(trace)
    assert report["count"] == 1
    assert report["forced"] == 1
    assert report["unforced"] == 0
    assert report["entries"] == [
        {"segment": 0, "policy": "b", "cell": {"x": 1, "y": 0}, "labels": ["a"]}
    ]


def test_terminal_region_entry_is_exempt():
    grid = parse_map(".b")
    trace = execute_plan((0, 0), ["b"], [], index_of(grid))
    report = unsafe_report(trace)
    assert report == {"count": 0, "forced": 0, "unforced": 0, "entries": []}


def test_needless_detour_counts_as_unforced():
    grid = parse_map(BYPASS)
    sloppy = Trace(
        cells=[(0, 0), (1, 0), (2, 0)],
        word=[frozenset(), frozenset({"a"}), frozenset({"b"})],
        word_cells=[0, 1, 2],
        segments=[TraceSegment(symbol="b", start=0, end=2, forced_violations=0)],
    )
    report = unsafe_report(sloppy)
    assert report["count"] == 1
    assert report["forced"] == 0
    assert report["unforced"] == 1
    assert report["entries"][0]["cell"] == {"x": 1, "y": 0}


def test_unsafe_report_matches_reference():
    rng = random.Random(65)
    entries = 0
    for cycles in range(1, 31):
        while True:
            grid = harsh_map(rng, max_side=8)
            if grid is None or not map_symbols(grid):
                continue
            symbols = sorted(map_symbols(grid))
            prefix = [rng.choice(symbols) for _ in range(rng.randint(0, 3))]
            cycle = [rng.choice(symbols) for _ in range(rng.randint(1, 3))]
            try:
                trace = execute_plan(grid.resolved_start(), prefix, cycle, index_of(grid), cycles)
            except UnreachableTargetError:
                continue
            break
        report = unsafe_report(trace)
        assert report == reference_unsafe_report(trace), cycles
        entries += report["count"]
    assert entries > 0


def test_executed_traces_never_have_unforced_violations():
    rng = random.Random(62)
    checked = cyclic = 0
    while checked < 40:
        grid = harsh_map(rng, max_side=8)
        if grid is None:
            continue
        index = index_of(grid)
        symbols = sorted({s for (_, labels) in index.values() for s in labels})
        if not symbols:
            continue
        prefix = [rng.choice(symbols) for _ in range(rng.randint(1, 3))]
        cycle = [rng.choice(symbols) for _ in range(rng.randint(1, 2))] if checked % 2 else []
        try:
            trace = execute_plan(grid.resolved_start(), prefix, cycle, index, cycles=2)
        except UnreachableTargetError:
            continue
        for seg in trace.segments:
            policy = parse_policy(seg.symbol)
            want = oracle_mv_cost(grid, trace.cells[seg.start], policy, index)
            assert seg.forced_violations == want[0], (seg, want)
        report = unsafe_report(trace)
        assert report["unforced"] == 0
        assert report["count"] == report["forced"]
        checked += 1
        cyclic += bool(cycle)
    assert cyclic >= 15


# ---------------------------------------------------------------------------
# Trace checking


def test_finite_trace_checked_as_park_forever():
    grid = parse_map(STRIP)
    trace = execute_plan((0, 0), ["b"], [], index_of(grid))
    assert check_trace(to_buchi(parse_ltl("F b")), trace)
    assert check_trace(to_buchi(parse_ltl("F a")), trace)  # crossed a on the way
    assert not check_trace(to_buchi(parse_ltl("G F b & G F a")), trace)


def test_cyclic_trace_checked_as_lasso():
    grid = parse_map(STRIP)
    trace = execute_plan((2, 0), [], ["b", "a"], index_of(grid), cycles=2)
    assert check_trace(to_buchi(parse_ltl("G F b & G F a")), trace)
    assert not check_trace(to_buchi(parse_ltl("G !a")), trace)


def test_failed_goal_detected():
    grid = parse_map(STRIP)
    trace = execute_plan((0, 0), ["a"], [], index_of(grid))
    assert not check_trace(to_buchi(parse_ltl("F b")), trace)


def test_finite_trace_check_matches_semantic_evaluator():
    # A parked trace means the lasso word . {}^ω.
    rng = random.Random(63)
    verdicts = []
    while len(verdicts) < 150:
        grid = harsh_map(rng, max_side=8)
        if grid is None:
            continue
        index = index_of(grid)
        symbols = sorted({s for (_, labels) in index.values() for s in labels})
        if not symbols:
            continue
        plan = [rng.choice(symbols) for _ in range(rng.randint(1, 3))]
        try:
            trace = execute_plan(grid.resolved_start(), plan, [], index)
        except UnreachableTargetError:
            continue
        for _ in range(5):
            formula = random_formula(rng, rng.randint(1, 6), symbols)
            want = eval_ltl_on_lasso(formula, trace.word, [frozenset()])
            assert check_trace(to_buchi(formula), trace) is want, (to_text(formula), trace.word)
            verdicts.append(want)
    assert True in verdicts and False in verdicts
