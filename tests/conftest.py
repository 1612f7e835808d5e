"""Shared fixtures: bundled maps and the reference systems built from them."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ltlplan.gridworld import extract_regions, parse_map
from ltlplan.mvpolicy import region_index
from ltlplan.tsys import COMPOSITE, PRIMITIVE, build_initial_ts, generate_ts_labels

REPO = Path(__file__).resolve().parent.parent
MAPS = REPO / "maps"


@pytest.fixture(scope="session")
def ring_map_text() -> str:
    return (MAPS / "nested_abc.txt").read_text()


@pytest.fixture(scope="session")
def ring_grid(ring_map_text):
    """Map with two c-cores nested in a-rings hanging off one free area."""
    return parse_map(ring_map_text)


@pytest.fixture(scope="session")
def open_room_grid():
    """Open room with four one-cell shape items and a fixed start."""
    return parse_map((MAPS / "shapes_open_room.json").read_text())


@pytest.fixture(scope="session")
def obstacle_course_grid():
    """Room split by a center obstacle block, a labeled wall, and a shape blob."""
    return parse_map((MAPS / "shapes_obstacle_course.json").read_text())


def labeled_ts_for(grid, mode=PRIMITIVE):
    regions, adjacency = extract_regions(grid)
    initial = region_index(regions, grid)[grid.resolved_start()][0]
    return generate_ts_labels(build_initial_ts(regions, adjacency, initial, mode))


@pytest.fixture(scope="session")
def ring_ts(ring_grid):
    return labeled_ts_for(ring_grid, PRIMITIVE)


@pytest.fixture(scope="session")
def open_room_ts(open_room_grid):
    return labeled_ts_for(open_room_grid, COMPOSITE)


@pytest.fixture(scope="session")
def obstacle_course_ts(obstacle_course_grid):
    return labeled_ts_for(obstacle_course_grid, COMPOSITE)
