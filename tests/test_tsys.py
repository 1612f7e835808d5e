"""Transition-system abstraction: progress labeling, determinism, serialization."""

from __future__ import annotations

import random

import pytest

from envgen import (
    floyd_warshall_hops,
    harsh_map,
    reference_ts_labels,
    sea_with_islands,
    ts_alphabet,
    ts_from_document,
    walled_hub_map,
)
from ltlplan import tsys
from ltlplan.gridworld import extract_regions, parse_map
from ltlplan.ltl import Guard
from ltlplan.mvpolicy import region_index
from ltlplan.tsys import (
    COMPOSITE,
    EMPTY_LABEL,
    PRIMITIVE,
    TransitionSystem,
    build_initial_ts,
    generate_ts_labels,
    is_deterministic,
)
from conftest import labeled_ts_for


def edge_labels(ts: TransitionSystem) -> dict[tuple[int, int], frozenset[str]]:
    return {edge: frozenset(syms) for edge, syms in ts.transitions.items()}


# ---------------------------------------------------------------------------
# Golden labelings


def test_ring_map_labeled_transitions(ring_ts):
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
    assert edge_labels(ring_ts) == {k: frozenset(v) for k, v in expected.items()}
    assert ring_ts.initial == 2
    assert ts_alphabet(ring_ts) == frozenset({"a", "b", "c"})


def test_open_room_composite_labels(open_room_ts):
    e = EMPTY_LABEL
    circle_items = {"circle&p", "b&circle", "b&square"}
    expected = {
        (0, 1): {"circle&w"},
        (0, 2): {"circle&p"},
        (0, 3): {"b&circle"},
        (0, 4): {"b&square"},
        (1, 0): {e} | circle_items,
        (2, 0): {e, "circle&w", "b&circle", "b&square"},
        (3, 0): {e, "circle&w", "circle&p", "b&square"},
        (4, 0): {e, "circle&w", "circle&p", "b&circle"},
    }
    assert edge_labels(open_room_ts) == {k: frozenset(v) for k, v in expected.items()}


def test_primitive_vs_composite_alphabet(open_room_grid):
    primitive = labeled_ts_for(open_room_grid, PRIMITIVE)
    composite = labeled_ts_for(open_room_grid, COMPOSITE)
    assert ts_alphabet(primitive) == frozenset({"b", "p", "w", "circle", "square"})
    assert ts_alphabet(composite) == frozenset(
        {"circle&w", "circle&p", "b&circle", "b&square"}
    )


def test_composite_symbol_sorts_parts():
    # A composite symbol is the label set read as a guard.
    assert Guard(frozenset({"w", "circle"})).format() == "circle&w"
    assert Guard(frozenset({"square", "b"})).format() == "b&square"
    assert Guard(frozenset({"a"})).format() == "a"


def test_sorted_puts_empty_sentinel_last():
    symbols = {EMPTY_LABEL, "b", "a", "b&square", "z", "Z", "_x", "a1", "z9"}
    assert sorted(symbols)[-1] == EMPTY_LABEL


# ---------------------------------------------------------------------------
# Labeling semantics


def test_labeling_is_idempotent(ring_ts):
    again = generate_ts_labels(ring_ts)
    assert edge_labels(again) == edge_labels(ring_ts)


def test_labels_match_independent_hop_derivation():
    rng = random.Random(21)
    for _ in range(30):
        grid = sea_with_islands(rng, max_side=10)
        regions, adjacency = extract_regions(grid)
        initial = region_index(regions, grid)[grid.resolved_start()][0]
        bare = build_initial_ts(regions, adjacency, initial, PRIMITIVE)
        labeled = generate_ts_labels(bare)
        order = [r.id for r in regions]
        dist = floyd_warshall_hops(order, adjacency)
        for (src, dst), symbols in labeled.transitions.items():
            expected: set[str] = set()
            for x in order:
                if dist[(src, x)] > dist[(dst, x)]:
                    tasks = bare.task_symbols_of_state(x)
                    expected |= tasks if tasks else {EMPTY_LABEL}
            assert symbols == expected, (src, dst)


def _bare_systems(grid):
    regions, adjacency = extract_regions(grid)
    initial = region_index(regions, grid)[grid.resolved_start()][0]
    return [build_initial_ts(regions, adjacency, initial, mode) for mode in (PRIMITIVE, COMPOSITE)]


def test_labels_match_reference_on_harsh_maps():
    # Obstacles split harsh maps into components, so some pairs are unreachable.
    rng = random.Random(24)
    for _ in range(30):
        grid = harsh_map(rng)
        if grid is None:
            continue
        for bare in _bare_systems(grid):
            assert generate_ts_labels(bare).transitions == reference_ts_labels(bare)


def test_labels_match_reference_on_walled_hub_map():
    grid = walled_hub_map(random.Random(25))
    for bare in _bare_systems(grid):
        assert len(bare.order) > 50
        assert generate_ts_labels(bare).transitions == reference_ts_labels(bare)


def test_labels_match_reference_across_batches(monkeypatch):
    # A 1x41 corridor a.a.…a has diameter 40; batches of 8 sources split it
    # into six passes, the last one partial.
    monkeypatch.setattr(tsys, "_BATCH", 8)
    grid = parse_map("".join("a." [i % 2] for i in range(41)))
    for bare in _bare_systems(grid):
        assert len(bare.order) == 41
        assert generate_ts_labels(bare).transitions == reference_ts_labels(bare)


def test_labels_match_reference_on_one_way_transitions(monkeypatch):
    # Transitions need not come in pairs; hops still follow both directions.
    monkeypatch.setattr(tsys, "_BATCH", 4)
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(1, 12)
        edges = {(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.2}
        ts = TransitionSystem(
            order=list(range(n)),
            labels={s: frozenset(rng.sample("abc", rng.randint(0, 2))) for s in range(n)},
            transitions={edge: set(rng.sample("ab", rng.randint(0, 1))) for edge in edges},
            initial=0,
            mode=rng.choice((PRIMITIVE, COMPOSITE)),
        )
        assert generate_ts_labels(ts).transitions == reference_ts_labels(ts)


def test_labeling_preserves_structure(ring_grid):
    regions, adjacency = extract_regions(ring_grid)
    index = region_index(regions, ring_grid)
    initial = index[ring_grid.resolved_start()][0]
    bare = build_initial_ts(regions, adjacency, initial)
    labeled = generate_ts_labels(bare)
    assert labeled.order == bare.order
    assert labeled.labels == bare.labels
    assert set(labeled.transitions) == set(bare.transitions)
    assert all(not syms for syms in bare.transitions.values())


def test_empty_sentinel_marks_progress_toward_unlabeled_regions(ring_ts):
    # Moving outward from a core passes back toward the unlabeled hub, so
    # those edges carry the sentinel; edges pointed at a core never do.
    assert EMPTY_LABEL in ring_ts.transitions[(4, 3)]
    assert EMPTY_LABEL not in ring_ts.transitions[(3, 4)]
    assert EMPTY_LABEL not in ring_ts.transitions[(2, 3)]


# ---------------------------------------------------------------------------
# Determinism checking


def test_ring_ts_is_not_deterministic(ring_ts):
    ok, violations = is_deterministic(ring_ts)
    assert not ok
    assert (2, "a", frozenset({1, 3, 5, 6})) in violations


def test_deterministic_after_manual_disambiguation():
    ts = TransitionSystem(
        order=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset({"b"})},
        transitions={(0, 1): {"a"}, (0, 2): {"b"}, (1, 0): {"b", EMPTY_LABEL}},
        initial=0,
    )
    ok, violations = is_deterministic(ts)
    assert ok and violations == []


def test_violations_reported_per_symbol():
    ts = TransitionSystem(
        order=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset({"a"})},
        transitions={(0, 1): {"a", "b"}, (0, 2): {"a", "b"}},
        initial=0,
    )
    ok, violations = is_deterministic(ts)
    assert not ok
    assert violations == [
        (0, "a", frozenset({1, 2})),
        (0, "b", frozenset({1, 2})),
    ]


# ---------------------------------------------------------------------------
# Structure and serialization


def test_self_loops_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        TransitionSystem(
            order=[0],
            labels={0: frozenset()},
            transitions={(0, 0): set()},
            initial=0,
        )


def test_build_initial_ts_validates_inputs(ring_grid):
    regions, adjacency = extract_regions(ring_grid)
    with pytest.raises(ValueError, match="unknown labeling mode 'bogus'"):
        build_initial_ts(regions, adjacency, 0, "bogus")
    with pytest.raises(ValueError, match=f"initial region {len(regions)} not among regions"):
        build_initial_ts(regions, adjacency, len(regions))


def test_out_edges_sorted_by_state_order(ring_ts):
    assert ring_ts.out_edges(2) == [(2, 1), (2, 3), (2, 5), (2, 6)]


def test_document_roundtrip(ring_ts, open_room_ts):
    for ts in (ring_ts, open_room_ts):
        doc = ts.to_document()
        again = ts_from_document(doc)
        assert again.order == ts.order
        assert again.labels == ts.labels
        assert edge_labels(again) == edge_labels(ts)
        assert again.initial == ts.initial
        assert again.mode == ts.mode
        assert again.to_document() == doc


def test_dot_output_shape(ring_ts):
    dot = ring_ts.to_dot()
    assert dot.startswith("digraph")
    assert 'q2 -> q3 [label="a,c"];' in dot


def test_harsh_maps_label_deterministically():
    rng = random.Random(22)
    for _ in range(20):
        grid = harsh_map(rng)
        if grid is None:
            continue
        regions, adjacency = extract_regions(grid)
        initial = region_index(regions, grid)[grid.resolved_start()][0]
        for mode in (PRIMITIVE, COMPOSITE):
            once = generate_ts_labels(build_initial_ts(regions, adjacency, initial, mode))
            twice = generate_ts_labels(build_initial_ts(regions, adjacency, initial, mode))
            assert edge_labels(once) == edge_labels(twice)
            assert once.to_document() == twice.to_document()
