"""Map parsing, region extraction, and hop-distance behavior."""

from __future__ import annotations

import json
import random
import re

import pytest

from envgen import (
    floyd_warshall_hops,
    harsh_map,
    map_document,
    neighbors4,
    random_grid,
    region_cells,
    reference_region_index,
    reference_regions,
    sea_with_islands,
    to_ascii,
    walled_hub_map,
)
from ltlplan.gridworld import (
    MAX_CELLS,
    GridMap,
    MapParseError,
    bfs_tree,
    extract_regions,
    map_from_document,
    parse_map,
    tree_depths,
    tree_path,
)
from ltlplan.mvpolicy import region_index


def hop_distance(adjacency: dict[int, tuple[int, ...]], s1: int, s2: int) -> int | None:
    """Fewest hops between two nodes, or None when unreachable."""
    if s1 == s2:
        return 0
    return tree_depths(bfs_tree([s1], adjacency.__getitem__)).get(s2)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_ascii_basic():
    grid = parse_map("a.#\n..b\n")
    assert (grid.width, grid.height) == (3, 2)
    assert grid.label_at((0, 0)) == frozenset({"a"})
    assert grid.label_at((2, 1)) == frozenset({"b"})
    assert (2, 0) in grid.obstacles
    assert grid.obstacles == frozenset({(2, 0)})
    assert not grid.is_free((2, 0))
    assert grid.label_at((2, 0)) == frozenset()
    assert grid.is_free((1, 0))
    assert grid.symbols() == frozenset({"a", "b"})


def test_parse_ascii_rejects_ragged_rows():
    with pytest.raises(MapParseError, match="row 2"):
        parse_map("ab\nabc\n")


def test_parse_ascii_rejects_bad_character():
    with pytest.raises(MapParseError, match="col 2"):
        parse_map("a$\n..\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("a$%\n..\n", "row 1, col 2: invalid cell character '$'"),
        ("a.$\n%..\n", "row 1, col 3: invalid cell character '$'"),
        ("ab.\n.%$\n", "row 2, col 2: invalid cell character '%'"),
        ("...\n...\n..?\n?!.\n", "row 3, col 3: invalid cell character '?'"),
    ],
)
def test_parse_ascii_names_first_bad_character(text, message):
    with pytest.raises(MapParseError, match=re.escape(message) + r"\Z"):
        parse_map(text)


def test_parse_ascii_rejects_empty():
    with pytest.raises(MapParseError):
        parse_map("   \n  \n")


def test_parse_json_roundtrip(open_room_grid):
    doc = map_document(open_room_grid)
    again = map_from_document(json.loads(json.dumps(doc)))
    assert again == open_room_grid


def test_equal_label_sets_in_any_order_form_one_region():
    grid = map_from_document(
        {
            "width": 3,
            "height": 1,
            "cells": [
                {"x": 0, "y": 0, "labels": ["b", "square"]},
                {"x": 1, "y": 0, "labels": ["square", "b"]},
            ],
        }
    )
    assert grid.symbols() == frozenset({"b", "square"})
    regions, adjacency = extract_regions(grid)
    assert [(region_cells(r), r.label) for r in regions] == [
        ({(0, 0), (1, 0)}, frozenset({"b", "square"})),
        ({(2, 0)}, frozenset()),
    ]
    assert adjacency == {0: (1,), 1: (0,)}


def test_ascii_and_document_parse_to_the_same_map():
    rng = random.Random(31)
    grids = [sea_with_islands(rng) for _ in range(10)]
    grids += [walled_hub_map(rng, side=rng.choice((6, 11, 16))) for _ in range(10)]
    for grid in grids:
        from_ascii = parse_map(to_ascii(grid))
        from_doc = map_from_document(json.loads(json.dumps(map_document(grid))))
        assert from_ascii == from_doc, to_ascii(grid)
        assert extract_regions(from_ascii) == extract_regions(from_doc), to_ascii(grid)


def test_off_map_cells_are_blocked_and_unlabeled():
    # On a flat y * width + x index, (3, 0) and (-1, 1) would read "b" and
    # "a" from a neighbouring row, and (2, -1) would wrap to the last row's "b".
    grid = parse_map("..a\nb..\n.ab\n")
    w, h = grid.width, grid.height
    off_map = [(-1, 0), (-1, 1), (-1, 2), (w, 0), (w, 1), (w, 2), (0, -1), (2, -1), (0, h), (2, h)]
    for cell in off_map:
        assert grid.label_at(cell) == frozenset(), cell
        assert not grid.is_free(cell), cell
    assert grid.label_at((0, 1)) == frozenset({"b"})
    assert grid.label_at((2, 0)) == frozenset({"a"})
    assert grid.is_free((2, 2)) and grid.is_free((0, 0))


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


def test_declared_map_size_is_capped():
    # The cap is checked before any cell is visited or stored.
    assert map_from_document({"width": MAX_CELLS, "height": 1}).width == MAX_CELLS
    with pytest.raises(MapParseError, match="cells"):
        map_from_document({"width": MAX_CELLS + 1, "height": 1})
    with pytest.raises(MapParseError, match="cells"):
        parse_map("." * (MAX_CELLS + 1))


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
    assert to_ascii(parse_map(text)) == text.strip("\n")


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
    anchors = [min(region_cells(r), key=lambda c: (c[1], c[0])) for r in regions]
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
            cells = region_cells(region)
            assert not (cells & seen)
            seen |= cells
            for cell in cells:
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
        index = region_index(regions, grid.width, grid.height)
        for region in regions:
            cells = region_cells(region)
            frontier = [next(iter(cells))]
            seen = {frontier[0]}
            while frontier:
                cell = frontier.pop()
                for nb in neighbors4(grid, cell):
                    if nb in cells and nb not in seen:
                        seen.add(nb)
                        frontier.append(nb)
            assert seen == cells
            for cell in cells:
                for nb in neighbors4(grid, cell):
                    if index[nb][0] != region.id:
                        assert grid.label_at(nb) != region.label


def _region_triples(grid):
    regions, adjacency = extract_regions(grid)
    return [(r.id, region_cells(r), r.label) for r in regions], adjacency


def test_regions_match_union_find_reference():
    rng = random.Random(15)
    shapes = [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1)]
    shapes += [(rng.randint(1, 11), rng.randint(1, 11)) for _ in range(60)]
    for width, height in shapes:
        grid = random_grid(rng, width, height)
        assert _region_triples(grid) == reference_regions(grid), to_ascii(grid)


def test_regions_do_not_wrap_across_rows():
    # On a flat y * width + x index, (3, 0) and (0, 1) are neighbours; on the
    # grid they are not, so each "a" stays its own region.
    for text in ("..aa\na...\n", "..aa\na#..\n", "a\na\n", "aa\naa\n"):
        grid = parse_map(text)
        assert _region_triples(grid) == reference_regions(grid), text
    regions, adjacency = extract_regions(parse_map("..aa\na...\n"))
    assert [sorted(region_cells(r)) for r in regions if r.label] == [[(2, 0), (3, 0)], [(0, 1)]]
    assert adjacency == {0: (1, 2), 1: (0,), 2: (0,)}


# Shapes that stress labeling on row runs: runs of one row are joined to
# the overlapping, equally-labeled runs of the row above.
RUN_SHAPES = {
    # The arms of one region meet only in a later row, so its id must come
    # from its first run, whatever run ends up as the union-find root.
    "u-joins-late": "a.a\na.a\naaa\n",
    "comb": "a.a.a\na.a.a\na.a.a\naaaaa\n",
    "comb-hanging": "aaaaa\na.a.a\na.a.a\n",
    "comb-of-blanks": ".a.a.\n.a.a.\n.....\n",
    "nested-u": "a.b.a\na.b.a\na.bba\na...a\naaaaa\n",
    # Runs that touch only at a corner neither merge nor border each other.
    "diagonal-cells": "ab\nba\n",
    "diagonal-runs": "aa..\n..aa\n",
    "diagonal-obstacles": "a#\n#a\n",
    "diagonal-staircase": "a...\n.a..\n..a.\n...a\n",
    # One union per row along a corridor that turns at every row.
    "serpentine": "aaaaa\n####a\naaaaa\na####\naaaaa\n",
    "serpentine-labeled": "aaaa\nbbba\naaaa\nabbb\naaaa\n",
    "obstacle-row": "ab\n##\nba\n",
    "obstacle-rows-only": "###\n###\n",
    "obstacle-first-last": "##\na.\n##\n",
    "one-cell-free": ".\n",
    "one-cell-labeled": "a\n",
    "one-cell-obstacle": "#\n",
    "one-row": "a.ab#ba\n",
    "one-column": "a\n.\na\nb\n#\nb\n",
    # A run ending at x = width - 1 sits next to x = 0 of the next row only
    # on the flat index.
    "no-row-wrap": "..a\na..\n",
    "no-row-wrap-wide": "b..aa\naa..b\n",
}


def _index_matches_reference(grid) -> bool:
    regions, _ = extract_regions(grid)
    index = region_index(regions, grid.width, grid.height)
    return dict(index) == reference_region_index(regions)


@pytest.mark.parametrize("text", RUN_SHAPES.values(), ids=RUN_SHAPES.keys())
def test_run_labeling_matches_reference(text):
    grid = parse_map(text)
    assert _region_triples(grid) == reference_regions(grid), text
    assert _index_matches_reference(grid), text


def test_run_labeling_ids_follow_first_run():
    regions, adjacency = extract_regions(parse_map(RUN_SHAPES["u-joins-late"]))
    assert [(r.id, r.label) for r in regions] == [(0, frozenset("a")), (1, frozenset())]
    assert adjacency == {0: (1,), 1: (0,)}


def test_diagonal_regions_neither_merge_nor_touch():
    regions, adjacency = extract_regions(parse_map(RUN_SHAPES["diagonal-cells"]))
    assert len(regions) == 4
    assert adjacency == {0: (1, 2), 1: (0, 3), 2: (0, 3), 3: (1, 2)}


def test_run_labeling_matches_reference_on_seeded_maps():
    rng = random.Random(21)
    grids = [walled_hub_map(rng, side=rng.choice((8, 17, 32))) for _ in range(8)]
    grids += [sea_with_islands(rng) for _ in range(8)]
    grids += [g for g in (harsh_map(rng) for _ in range(16)) if g is not None]
    grids += [random_grid(rng, rng.randint(1, 24), rng.randint(1, 24)) for _ in range(24)]
    for grid in grids:
        assert _region_triples(grid) == reference_regions(grid), to_ascii(grid)
        assert _index_matches_reference(grid), to_ascii(grid)


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
    graphs = []
    for _ in range(20):
        graphs.append(extract_regions(sea_with_islands(rng, max_side=9)))
        grid = harsh_map(rng, max_side=9)
        if grid is not None:
            graphs.append(extract_regions(grid))
    for regions, adjacency in graphs:
        order = [r.id for r in regions]
        reference = floyd_warshall_hops(order, adjacency)
        source_sets = [[a] for a in order]
        source_sets += [rng.sample(order, rng.randint(1, len(order))) for _ in range(5)]
        source_sets.append([])
        for sources in source_sets:
            hops = tree_depths(bfs_tree(sources, adjacency.__getitem__))
            for b in order:
                want = min((reference[(a, b)] for a in sources), default=float("inf"))
                assert hops.get(b, float("inf")) == want, (sources, b)


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


# ---------------------------------------------------------------------------
# Search trees


def test_bfs_tree_matches_reference_reachability_and_paths():
    rng = random.Random(23)
    graphs = []
    for _ in range(15):
        grid = harsh_map(rng, max_side=8)
        if grid is not None:
            regions, adjacency = extract_regions(grid)
            graphs.append(([r.id for r in regions], adjacency))
        n = rng.randint(1, 12)
        directed = {a: tuple(rng.sample(range(n), rng.randint(0, min(3, n)))) for a in range(n)}
        graphs.append((list(range(n)), directed))
    inf = float("inf")
    for order, graph in graphs:
        reference = floyd_warshall_hops(order, graph)
        for sources in ([rng.choice(order)], rng.sample(order, rng.randint(1, len(order))), []):
            dist = {b: min((reference[(a, b)] for a in sources), default=inf) for b in order}
            parent = bfs_tree(sources, graph.__getitem__)
            assert set(parent) == {b for b in order if dist[b] < inf}
            # Discovery order is breadth-first: distances never decrease.
            ranks = [dist[node] for node in parent]
            assert ranks == sorted(ranks)
            for node in parent:
                path = tree_path(parent, node)
                assert path[0] in sources and path[-1] == node
                assert all(b in graph[a] for a, b in zip(path, path[1:]))
                assert len(path) - 1 == dist[node]
                assert tree_path(bfs_tree(sources, graph.__getitem__, node), node) == path
