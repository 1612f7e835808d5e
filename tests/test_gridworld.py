"""Map parsing, region extraction, and hop-distance behavior."""

from __future__ import annotations

import json
import random

import pytest

from envgen import floyd_warshall_hops, harsh_map, sea_with_islands
from ltlplan.gridworld import (
    GridMap,
    MapParseError,
    bfs_hops,
    cell_regions,
    extract_regions,
    map_from_document,
    parse_map,
)


def hop_distance(adjacency: dict[int, tuple[int, ...]], s1: int, s2: int) -> int | None:
    """Fewest hops between two nodes, or None when unreachable."""
    if s1 == s2:
        return 0
    return bfs_hops(adjacency, s1).get(s2)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_ascii_basic():
    grid = parse_map("a.#\n..b\n")
    assert (grid.width, grid.height) == (3, 2)
    assert grid.label_at((0, 0)) == frozenset({"a"})
    assert grid.label_at((2, 1)) == frozenset({"b"})
    assert grid.is_obstacle((2, 0))
    assert grid.is_free((1, 0))
    assert grid.symbols() == frozenset({"a", "b"})


def test_parse_ascii_rejects_ragged_rows():
    with pytest.raises(MapParseError, match="row 2"):
        parse_map("ab\nabc\n")


def test_parse_ascii_rejects_bad_character():
    with pytest.raises(MapParseError, match="col 2"):
        parse_map("a$\n..\n")


def test_parse_ascii_rejects_empty():
    with pytest.raises(MapParseError):
        parse_map("   \n  \n")


def test_parse_json_roundtrip(open_room_grid):
    doc = open_room_grid.to_document()
    again = map_from_document(json.loads(json.dumps(doc)))
    assert again == open_room_grid


def test_parse_json_validates_cells():
    base = {"width": 3, "height": 3, "cells": [], "obstacles": []}
    with pytest.raises(MapParseError):
        map_from_document({**base, "cells": [{"x": 9, "y": 0, "labels": ["a"]}]})
    with pytest.raises(MapParseError):
        map_from_document({**base, "cells": [{"x": 0, "y": 0, "labels": []}]})
    with pytest.raises(MapParseError):
        map_from_document({**base, "width": 0})
    with pytest.raises(MapParseError):
        map_from_document(
            {
                **base,
                "cells": [{"x": 0, "y": 0, "labels": ["a"]}],
                "obstacles": [{"x": 0, "y": 0}],
            }
        )


def test_parse_json_duplicate_cell_rejected():
    with pytest.raises(MapParseError, match="duplicate"):
        map_from_document(
            {
                "width": 2,
                "height": 1,
                "cells": [
                    {"x": 0, "y": 0, "labels": ["a"]},
                    {"x": 0, "y": 0, "labels": ["b"]},
                ],
            }
        )


def test_start_cell_is_honored_and_validated():
    grid = parse_map(json.dumps({"width": 2, "height": 1, "cells": [], "start": {"x": 1, "y": 0}}))
    assert grid.resolved_start() == (1, 0)
    with pytest.raises(MapParseError):
        parse_map(
            json.dumps(
                {
                    "width": 2,
                    "height": 1,
                    "cells": [],
                    "obstacles": [{"x": 1, "y": 0}],
                    "start": {"x": 1, "y": 0},
                }
            )
        )


def test_default_start_is_first_free_unlabeled_cell():
    grid = parse_map("ab\n..\n")
    assert grid.default_start() == (0, 1)


def test_ascii_rendering_roundtrips():
    text = "a.#\n.b.\n"
    assert parse_map(text).to_ascii() == text.strip("\n")


# ---------------------------------------------------------------------------
# Regions


def test_ring_map_region_decomposition(ring_grid):
    regions, adjacency = extract_regions(ring_grid)
    labels = ["".join(sorted(r.label)) for r in regions]
    assert labels == ["b", "a", "", "a", "c", "a", "a", "c"]
    undirected = {
        (min(a, b), max(a, b)) for a in adjacency for b in adjacency[a]
    }
    assert undirected == {(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (2, 6), (6, 7)}


def test_region_ids_are_row_major_by_anchor(ring_grid):
    regions, _ = extract_regions(ring_grid)
    anchors = [r.anchor() for r in regions]
    assert anchors == sorted(anchors, key=lambda c: (c[1], c[0]))
    assert [r.id for r in regions] == list(range(len(regions)))


def test_regions_partition_passable_cells():
    rng = random.Random(11)
    for _ in range(25):
        grid = harsh_map(rng)
        if grid is None:
            continue
        regions, adjacency = extract_regions(grid)
        seen: set[tuple[int, int]] = set()
        for region in regions:
            assert not (region.cells & seen)
            seen |= region.cells
            for cell in region.cells:
                assert grid.is_free(cell)
                assert grid.label_at(cell) == region.label
        passable = {
            (x, y)
            for x in range(grid.width)
            for y in range(grid.height)
            if grid.is_free((x, y))
        }
        assert seen == passable
        for a, neighbors in adjacency.items():
            for b in neighbors:
                assert a != b
                assert a in adjacency[b]


def test_regions_are_connected_and_maximal():
    rng = random.Random(12)
    for _ in range(25):
        grid = harsh_map(rng)
        if grid is None:
            continue
        regions, _ = extract_regions(grid)
        of_cell = cell_regions(regions)
        for region in regions:
            frontier = [next(iter(region.cells))]
            seen = {frontier[0]}
            while frontier:
                cell = frontier.pop()
                for nb in grid.neighbors4(cell):
                    if nb in region.cells and nb not in seen:
                        seen.add(nb)
                        frontier.append(nb)
            assert seen == region.cells
            for cell in region.cells:
                for nb in grid.neighbors4(cell):
                    if of_cell[nb] != region.id:
                        assert grid.label_at(nb) != region.label


# ---------------------------------------------------------------------------
# Hop distances


def test_ring_map_hop_distances(ring_grid):
    _, adjacency = extract_regions(ring_grid)
    assert hop_distance(adjacency, 0, 4) == 4
    assert hop_distance(adjacency, 0, 2) == 2
    assert hop_distance(adjacency, 5, 5) == 0
    assert hop_distance(adjacency, 4, 7) == 4


def test_hop_distance_matches_reference_all_pairs():
    rng = random.Random(13)
    for _ in range(20):
        grid = sea_with_islands(rng, max_side=9)
        regions, adjacency = extract_regions(grid)
        order = [r.id for r in regions]
        reference = floyd_warshall_hops(order, adjacency)
        for a in order:
            hops = bfs_hops(adjacency, a)
            for b in order:
                want = reference[(a, b)]
                got = hops.get(b)
                assert (got if got is not None else float("inf")) == want


def test_hop_distance_symmetry_and_triangle():
    rng = random.Random(14)
    for _ in range(20):
        grid = harsh_map(rng, max_side=9)
        if grid is None:
            continue
        regions, adjacency = extract_regions(grid)
        order = [r.id for r in regions]
        dist = floyd_warshall_hops(order, adjacency)
        for a in order:
            for b in order:
                assert dist[(a, b)] == dist[(b, a)]
                assert hop_distance(adjacency, a, b) == (
                    None if dist[(a, b)] == float("inf") else dist[(a, b)]
                )
                for c in order:
                    assert dist[(a, b)] <= dist[(a, c)] + dist[(c, b)]


def test_unreachable_regions_have_no_hop_distance():
    grid = parse_map("a#b\n###\n..#\n")
    _, adjacency = extract_regions(grid)
    assert hop_distance(adjacency, 0, 1) is None
