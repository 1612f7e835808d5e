"""Reduction passes: duplicate merging, disambiguation, cleanup, replay."""

from __future__ import annotations

import random
from collections import Counter

import pytest

import ltlplan.pruner

from envgen import harsh_map, sea_with_islands, ts_alphabet
from ltlplan.gridworld import bfs_tree, extract_regions, tree_depths
from ltlplan.mvpolicy import region_index
from ltlplan.pruner import (
    ALL_CASES,
    PruneReport,
    case1_merge_equivalent,
    case2_disambiguate,
    case3_remove_ineffectual,
    drop_unreachable,
    empty_cleanup,
    prune,
)
from ltlplan.tsys import (
    COMPOSITE,
    EMPTY_LABEL,
    PRIMITIVE,
    TransitionSystem,
    build_initial_ts,
    generate_ts_labels,
)
from conftest import labeled_ts_for


def edge_labels(ts: TransitionSystem) -> dict[tuple[int, int], frozenset[str]]:
    return {edge: frozenset(syms) for edge, syms in ts.transitions.items()}


def distances_to_symbols(ts: TransitionSystem) -> dict[str, dict[int, int]]:
    """Hops from every state to the nearest completer of each symbol."""
    return {
        symbol: tree_depths(bfs_tree(
            [s for s in ts.order if symbol in ts.task_symbols_of_state(s)], ts.graph().__getitem__
        ))
        for symbol in ts_alphabet(ts)
    }


# ---------------------------------------------------------------------------
# Golden staged reduction on the ring map


def test_ring_map_stage1_merges_duplicate_ring_pairs(ring_ts):
    _, report = prune(ring_ts)
    assert report.merged_state_groups == [(3, 6), (4, 7)]
    stage1 = report.replay(ring_ts, ALL_CASES[:1])
    e = EMPTY_LABEL
    assert edge_labels(stage1) == {
        (0, 1): frozenset({"a", "c", e}),
        (1, 0): frozenset({"b"}),
        (1, 2): frozenset({"a", "c", e}),
        (2, 1): frozenset({"a", "b"}),
        (2, 3): frozenset({"a", "c"}),
        (2, 5): frozenset({"a"}),
        (3, 2): frozenset({"a", "b", "c", e}),
        (3, 4): frozenset({"c"}),
        (4, 3): frozenset({"a", "b", "c", e}),
        (5, 2): frozenset({"a", "b", "c", e}),
    }


def test_ring_map_stage2_resolves_shared_symbols(ring_ts):
    _, report = prune(ring_ts)
    case2 = [r for r in report.removed_symbols if r[3] == "case2"]
    assert case2 == [
        (2, 1, "a", "case2"),
        (2, 3, "a", "case2"),
        (2, 5, "a", "case2"),
        (3, 2, "c", "case2"),
    ]
    stage2 = report.replay(ring_ts, ALL_CASES[:2])
    assert stage2.transitions[(2, 1)] == {"b"}
    assert stage2.transitions[(2, 3)] == {"c"}
    assert stage2.transitions[(2, 5)] == set()
    assert stage2.transitions[(3, 2)] == {"a", "b", EMPTY_LABEL}


def test_ring_map_stage3_removes_already_complete_symbols(ring_ts):
    _, report = prune(ring_ts)
    case3 = [r for r in report.removed_symbols if r[3] == "case3"]
    assert case3 == [
        (1, 2, "a", "case3"),
        (3, 2, "a", "case3"),
        (4, 3, "c", "case3"),
        (5, 2, "a", "case3"),
    ]


def test_ring_map_stage4_cleanup_and_final_system(ring_ts):
    pruned, report = prune(ring_ts)
    deletions = [r for r in report.removed_transitions if r[2] == "emptyCleanup"]
    assert deletions == [(2, 5, "emptyCleanup")]
    assert edge_labels(pruned) == {
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
    assert pruned.order == [0, 1, 2, 3, 4, 5]


def test_report_document_shape(ring_ts):
    _, report = prune(ring_ts)
    doc = report.to_document()
    assert doc["merged"] == [["q3", "q6"], ["q4", "q7"]]
    assert {"from": "q2", "to": "q5", "symbol": "a", "case": "case2"} in doc["removed_symbols"]
    assert doc["removed_transitions"] == [{"from": "q2", "to": "q5", "case": "emptyCleanup"}]
    assert doc["unreachable"] == ["q5"]


def test_replay_reproduces_full_reduction(ring_ts, open_room_ts, obstacle_course_ts):
    for ts in (ring_ts, open_room_ts, obstacle_course_ts):
        pruned, report = prune(ts)
        replayed = report.replay(ts, ALL_CASES)
        assert edge_labels(replayed) == edge_labels(pruned)
        assert replayed.labels == pruned.labels
        assert replayed.order == pruned.order


def _assert_apart(source: TransitionSystem, derived: list[TransitionSystem]) -> None:
    """No derived system holds one of ``source``'s symbol sets."""
    own = {id(syms) for syms in source.transitions.values()}
    for ts in derived:
        assert not any(id(syms) in own for syms in ts.transitions.values())


@pytest.mark.parametrize("mode", [PRIMITIVE, COMPOSITE])
@pytest.mark.parametrize("grid", ["ring_grid", "open_room_grid", "obstacle_course_grid"])
def test_derived_systems_never_share_or_change_input_symbol_sets(request, grid, mode):
    grid = request.getfixturevalue(grid)
    regions, adjacency = extract_regions(grid)
    initial = region_index(regions, grid)[grid.resolved_start()][0]
    unlabeled = build_initial_ts(regions, adjacency, initial, mode)
    before = edge_labels(unlabeled)
    labeled = generate_ts_labels(unlabeled)
    assert edge_labels(unlabeled) == before
    _assert_apart(unlabeled, [labeled])

    before = edge_labels(labeled)
    pruned, report = prune(labeled)
    stages = [ALL_CASES[:i] for i in range(len(ALL_CASES) + 1)] + [ALL_CASES[1:]]
    derived = [pruned, drop_unreachable(labeled)]
    derived += [report.replay(labeled, cases) for cases in stages]
    assert edge_labels(labeled) == before
    _assert_apart(labeled, derived)

    before = edge_labels(pruned)
    trimmed = drop_unreachable(pruned)
    assert edge_labels(pruned) == before
    _assert_apart(pruned, [trimmed])


# ---------------------------------------------------------------------------
# Properties on random environments


def test_prune_only_removes_never_adds():
    rng = random.Random(31)
    for _ in range(25):
        grid = harsh_map(rng)
        if grid is None:
            continue
        for mode in (PRIMITIVE, COMPOSITE):
            labeled = labeled_ts_for(grid, mode)
            pruned, report = prune(labeled)
            rep_of = {s: s for s in labeled.order}
            for group in report.merged_state_groups:
                for other in group[1:]:
                    rep_of[other] = group[0]
            assert set(pruned.order) <= set(labeled.order)
            for (src, dst), syms in pruned.transitions.items():
                sources = {
                    (a, b)
                    for (a, b) in labeled.transitions
                    if rep_of[a] == src and rep_of[b] == dst
                }
                assert sources, (src, dst)
                merged_syms = set().union(*(labeled.transitions[e] for e in sources))
                assert syms <= merged_syms


def test_prune_idempotent_on_island_maps():
    rng = random.Random(32)
    for _ in range(40):
        grid = sea_with_islands(rng)
        for mode in (PRIMITIVE, COMPOSITE):
            once, _ = prune(labeled_ts_for(grid, mode))
            twice, report = prune(once)
            assert edge_labels(twice) == edge_labels(once)
            assert twice.order == once.order
            assert not report.merged_state_groups
            assert not report.removed_symbols
            assert not report.removed_transitions


def test_prune_transitions_stable_on_harsh_maps():
    rng = random.Random(33)
    for _ in range(25):
        grid = harsh_map(rng)
        if grid is None:
            continue
        once, _ = prune(labeled_ts_for(grid))
        twice, _ = prune(once)
        relabel = {s: s for s in once.order}
        for group in prune(once)[1].merged_state_groups:
            for other in group[1:]:
                relabel[other] = group[0]
        renamed = {
            (relabel[a], relabel[b]): frozenset(syms)
            for (a, b), syms in twice.transitions.items()
        }
        original = {
            (relabel[a], relabel[b]): frozenset(syms)
            for (a, b), syms in once.transitions.items()
            if relabel[a] != relabel[b]
        }
        assert renamed == original


def test_prune_runs_one_search_per_tied_symbol(monkeypatch):
    # A symbol's distances are found on its first read, and case2 reads only
    # the symbols that two out-edges of one state share; one more search finds
    # the unreachable states.
    searches = []

    def counting_bfs_tree(*args, **kwargs):
        searches.append(args[0])
        return bfs_tree(*args, **kwargs)

    monkeypatch.setattr(ltlplan.pruner, "bfs_tree", counting_bfs_tree)
    rng = random.Random(35)
    spared = tied_somewhere = 0
    grids = [sea_with_islands(rng) for _ in range(10)] + [harsh_map(rng) for _ in range(20)]
    for grid in filter(None, grids):
        for mode in (PRIMITIVE, COMPOSITE):
            labeled = labeled_ts_for(grid, mode)
            merged = case1_merge_equivalent(labeled, PruneReport())
            tied = set()
            for state in merged.order:
                carried = Counter(symbol for edge in merged.out_edges(state)
                                  for symbol in merged.transitions[edge] if symbol != EMPTY_LABEL)
                tied |= {symbol for symbol, edges in carried.items() if edges > 1}
            searches.clear()
            prune(labeled)
            assert len(searches) == len(tied) + 1
            spared += len(tied) < len(ts_alphabet(merged))
            tied_somewhere += bool(tied)
    assert spared and tied_somewhere


def test_disambiguation_result_independent_of_state_order(ring_ts):
    _, report = prune(ring_ts)
    reference = report.replay(ring_ts, ALL_CASES[:3])
    rng = random.Random(34)
    for _ in range(10):
        scratch = case1_merge_equivalent(ring_ts, PruneReport())
        distance_to = distances_to_symbols(scratch)
        order2 = list(scratch.order)
        order3 = list(scratch.order)
        rng.shuffle(order2)
        rng.shuffle(order3)
        spare = PruneReport()
        for state in order2:
            case2_disambiguate(scratch, state, distance_to, spare)
        for state in order3:
            case3_remove_ineffectual(scratch, state, spare)
        assert edge_labels(scratch) == edge_labels(reference)


# ---------------------------------------------------------------------------
# Focused units


def test_clean_deterministic_system_passes_through():
    ts = TransitionSystem(
        order=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset({"b"})},
        transitions={(0, 1): {"a"}, (1, 2): {"b"}, (2, 0): {"a"}},
        initial=0,
    )
    pruned, report = prune(ts)
    assert edge_labels(pruned) == edge_labels(ts)
    assert not report.merged_state_groups
    assert not report.removed_symbols
    assert not report.removed_transitions
    assert not report.unreachable_states


def test_empty_cleanup_strips_sentinel_then_deletes_bare_edges():
    ts = TransitionSystem(
        order=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset()},
        transitions={(0, 1): {"a", EMPTY_LABEL}, (1, 2): {EMPTY_LABEL}, (2, 0): {"a"}},
        initial=0,
    )
    report = PruneReport()
    cleaned = empty_cleanup(ts, report)
    assert edge_labels(cleaned) == {(0, 1): frozenset({"a"}), (2, 0): frozenset({"a"})}
    assert cleaned.out_edges(1) == []
    assert (1, 2, "emptyCleanup") in report.removed_transitions


def test_case2_tie_deletes_symbol_from_all_carriers():
    # Two equally close completions for "a": neither edge may keep it.
    ts = TransitionSystem(
        order=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset({"a"})},
        transitions={(0, 1): {"a"}, (0, 2): {"a"}, (1, 0): set(), (2, 0): set()},
        initial=0,
    )
    report = PruneReport()
    case2_disambiguate(ts, 0, distances_to_symbols(ts), report)
    assert ts.transitions[(0, 1)] == set()
    assert ts.transitions[(0, 2)] == set()
    assert len(report.removed_symbols) == 2


def test_drop_unreachable_removes_orphan_states(ring_ts):
    pruned, _ = prune(ring_ts)
    trimmed = drop_unreachable(pruned)
    assert trimmed.order == [0, 1, 2, 3, 4]
    assert 5 not in trimmed.labels
    assert all(5 not in edge for edge in trimmed.transitions)
    assert edge_labels(trimmed) == {
        edge: syms for edge, syms in edge_labels(pruned).items() if 5 not in edge
    }
