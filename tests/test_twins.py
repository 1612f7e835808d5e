"""Labeling and pruning one state per twin class, against the full system.

Twins are regions with the same label and the same neighbour regions.
The command-line pipeline labels and prunes their quotient, and unfolds
it to every region only for output; these tests run its stages on maps
with and without twins and compare every document with labeling and
pruning the system of all regions.
"""

from __future__ import annotations

import argparse
import random

import pytest

from envgen import (
    grid_map,
    harsh_map,
    random_grid,
    reference_ts_labels,
    sea_with_islands,
    walled_hub_map,
)
from ltlplan.cli import Pipeline
from ltlplan.gridworld import extract_regions, parse_map
from ltlplan.mvpolicy import region_index
from ltlplan.pruner import ALL_CASES, prune
from ltlplan.tsys import COMPOSITE, PRIMITIVE, build_initial_ts, generate_ts_labels, twin_classes

MODES = (PRIMITIVE, COMPOSITE)


def assert_matches_full_system(grid, start, mode) -> Pipeline:
    """Every labeled, pruned and replayed document equals the all-region path's."""
    regions, adjacency = extract_regions(grid)
    initial = region_index(regions, grid)[start][0]
    bare = build_initial_ts(regions, adjacency, initial, mode)
    full = generate_ts_labels(bare)
    pruned, report = prune(full)

    p = Pipeline(args=argparse.Namespace(mode=mode))  # the command-line stages
    p["grid"], p["start"] = grid, start
    assert p["unfolded"].to_document() == full.to_document()
    assert p["unfolded"].transitions == reference_ts_labels(bare)
    assert p["pruned"].to_document() == pruned.to_document()
    assert p["report"].to_document() == report.to_document()
    for i in range(1, len(ALL_CASES) + 1):
        replayed = p["report"].replay(p["unfolded"], ALL_CASES[:i])
        assert replayed.to_document() == report.replay(full, ALL_CASES[:i]).to_document()
    return p


def seeded_maps(seed: int):
    rng = random.Random(seed)
    yield walled_hub_map(rng, side=rng.randint(16, 32))
    yield sea_with_islands(rng)
    grid = harsh_map(rng)
    if grid is not None:
        yield grid
    yield random_grid(rng, rng.randint(2, 10), rng.randint(2, 10))


def passable_cells(grid) -> list[tuple[int, int]]:
    return [(i % grid.width, i // grid.width) for i, code in enumerate(grid.codes) if code != "\0"]


@pytest.mark.parametrize("seed", range(30))
def test_twin_quotient_matches_the_full_system(seed):
    rng = random.Random(1000 + seed)
    twinned = 0
    for grid in seeded_maps(seed):
        cells = passable_cells(grid)
        if not cells:
            continue
        start = rng.choice(cells)
        for mode in MODES:
            p = assert_matches_full_system(grid, start, mode)
            twinned += len(p["labeled"].order) < len(p["unfolded"].order)
    assert twinned  # every seed's walled map has twins


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "text, start, twins, merged",
    [
        (".#a#a\n", (0, 0), [0, 1, 1], [["q1", "q2"]]),
        (".a.\n", (2, 0), [0, 1, 0], [["q0", "q2"]]),
        ("ab\nba\n", (0, 0), [0, 1, 1, 0], [["q0", "q3"], ["q1", "q2"]]),
        ("a.b\n", (1, 0), [0, 1, 2], []),
    ],
    ids=["isolated-twins", "start-in-unlabeled-class", "adjacent-classes", "labels-differ"],
)
def test_twin_cases(text, start, twins, merged, mode):
    p = assert_matches_full_system(parse_map(text), start, mode)
    assert p["twins"] == twins
    assert p["report"].to_document()["merged"] == merged


def test_twin_classes_key_on_label_values():
    # Equal label sets that are distinct objects, as a JSON map parses them.
    grid = grid_map(3, 1, {(0, 0): frozenset("a"), (2, 0): frozenset("a")})
    assert twin_classes(*extract_regions(grid)) == [0, 1, 0]
