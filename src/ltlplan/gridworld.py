"""Labeled grid environments and their decomposition into regions.

A grid map assigns each cell a (possibly empty) set of symbols; obstacle
cells are impassable.  Maximal 4-connected groups of cells that share the
exact same label set form *regions*; the region adjacency graph is the
abstraction every later stage works on.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field

Cell = tuple[int, int]

SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

ASCII_FREE = "."
ASCII_OBSTACLE = "#"


class MapParseError(ValueError):
    """Raised when a map document is malformed; carries row/col context."""


@dataclass(frozen=True)
class GridMap:
    """A rectangular grid of labeled cells.

    ``labels`` holds entries only for cells with a non-empty label set.
    ``start`` is an optional designated start cell for plan execution.
    """

    width: int
    height: int
    labels: dict[Cell, frozenset[str]] = field(default_factory=dict)
    obstacles: frozenset[Cell] = frozenset()
    start: Cell | None = None

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_obstacle(self, cell: Cell) -> bool:
        return cell in self.obstacles

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.obstacles

    def label_at(self, cell: Cell) -> frozenset[str]:
        return self.labels.get(cell, frozenset())

    def symbols(self) -> frozenset[str]:
        """All symbols appearing anywhere on the map."""
        out: set[str] = set()
        for labelset in self.labels.values():
            out |= labelset
        return frozenset(out)

    def neighbors4(self, cell: Cell) -> list[Cell]:
        """Passable cardinal neighbors in up, down, left, right order."""
        x, y = cell
        candidates = ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y))
        return [c for c in candidates if self.is_free(c)]

    def default_start(self) -> Cell:
        """First unlabeled passable cell in row-major order."""
        for y in range(self.height):
            for x in range(self.width):
                cell = (x, y)
                if self.is_free(cell) and not self.label_at(cell):
                    return cell
        raise MapParseError("map has no unlabeled passable cell to start from")

    def resolved_start(self) -> Cell:
        return self.start if self.start is not None else self.default_start()

    def to_document(self) -> dict:
        doc = {
            "width": self.width,
            "height": self.height,
            "cells": [
                {"x": x, "y": y, "labels": sorted(self.labels[(x, y)])}
                for (x, y) in sorted(self.labels, key=lambda c: (c[1], c[0]))
            ],
            "obstacles": [
                {"x": x, "y": y}
                for (x, y) in sorted(self.obstacles, key=lambda c: (c[1], c[0]))
            ],
        }
        if self.start is not None:
            doc["start"] = {"x": self.start[0], "y": self.start[1]}
        return doc

    def to_ascii(self) -> str:
        """Render for debugging; multi-symbol cells show as '?'."""
        rows = []
        for y in range(self.height):
            row = []
            for x in range(self.width):
                if (x, y) in self.obstacles:
                    row.append(ASCII_OBSTACLE)
                    continue
                labelset = self.label_at((x, y))
                if not labelset:
                    row.append(ASCII_FREE)
                elif len(labelset) == 1 and len(next(iter(labelset))) == 1:
                    row.append(next(iter(labelset)))
                else:
                    row.append("?")
            rows.append("".join(row))
        return "\n".join(rows)


def parse_map(text: str) -> GridMap:
    """Parse a map from ASCII art or from a structured JSON document."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_structured(text)
    return _parse_ascii(text)


def _parse_ascii(text: str) -> GridMap:
    lines = [line for line in text.splitlines()]
    while lines and not lines[0].strip():
        lines.pop(0)
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MapParseError("empty map")
    width = len(lines[0])
    labels: dict[Cell, frozenset[str]] = {}
    obstacles: set[Cell] = set()
    for y, line in enumerate(lines):
        if len(line) != width:
            raise MapParseError(
                f"row {y + 1} has {len(line)} cells, expected {width} (map must be rectangular)"
            )
        for x, ch in enumerate(line):
            if ch == ASCII_FREE:
                continue
            if ch == ASCII_OBSTACLE:
                obstacles.add((x, y))
            elif SYMBOL_RE.match(ch):
                labels[(x, y)] = frozenset({ch})
            else:
                raise MapParseError(
                    f"row {y + 1}, col {x + 1}: invalid cell character {ch!r}"
                )
    return GridMap(width, len(lines), labels, frozenset(obstacles))


def _parse_structured(text: str) -> GridMap:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapParseError(f"invalid JSON map document: {exc}") from exc
    if not isinstance(doc, dict):
        raise MapParseError("map document must be a JSON object")
    return map_from_document(doc)


def map_from_document(doc: dict) -> GridMap:
    width = _require_dim(doc, "width")
    height = _require_dim(doc, "height")

    obstacles: set[Cell] = set()
    for i, entry in enumerate(doc.get("obstacles", [])):
        cell = _require_cell(entry, width, height, f"obstacles[{i}]")
        obstacles.add(cell)

    labels: dict[Cell, frozenset[str]] = {}
    for i, entry in enumerate(doc.get("cells", [])):
        where = f"cells[{i}]"
        cell = _require_cell(entry, width, height, where)
        if cell in obstacles:
            raise MapParseError(f"{where}: cell {cell} is also an obstacle")
        if cell in labels:
            raise MapParseError(f"{where}: duplicate entry for cell {cell}")
        raw = entry.get("labels")
        if not isinstance(raw, list) or not raw:
            raise MapParseError(f"{where}: 'labels' must be a non-empty list")
        for sym in raw:
            if not isinstance(sym, str) or not SYMBOL_RE.match(sym):
                raise MapParseError(f"{where}: invalid symbol {sym!r}")
        labels[cell] = frozenset(raw)

    start: Cell | None = None
    if "start" in doc:
        start = _require_cell(doc["start"], width, height, "start")
        if start in obstacles:
            raise MapParseError("start cell is an obstacle")

    return GridMap(width, height, labels, frozenset(obstacles), start)


def _require_dim(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise MapParseError(f"'{key}' must be a positive integer")
    return value


def _require_cell(entry, width: int, height: int, where: str) -> Cell:
    if not isinstance(entry, dict):
        raise MapParseError(f"{where}: expected an object with 'x' and 'y'")
    x, y = entry.get("x"), entry.get("y")
    if not isinstance(x, int) or not isinstance(y, int) or isinstance(x, bool) or isinstance(y, bool):
        raise MapParseError(f"{where}: 'x' and 'y' must be integers")
    if not (0 <= x < width and 0 <= y < height):
        raise MapParseError(f"{where}: cell ({x}, {y}) out of bounds")
    return (x, y)


@dataclass(frozen=True)
class Region:
    """A maximal 4-connected component of equally-labeled cells."""

    id: int
    cells: frozenset[Cell]
    label: frozenset[str]

    @property
    def name(self) -> str:
        return f"q{self.id}"

    def anchor(self) -> Cell:
        """Topmost-leftmost cell; determines the region's id order."""
        return min(self.cells, key=lambda c: (c[1], c[0]))


def extract_regions(grid: GridMap) -> tuple[list[Region], dict[int, tuple[int, ...]]]:
    """Decompose a map into regions and their adjacency graph.

    Region ids are assigned in row-major order of each region's
    topmost-leftmost cell, which makes the decomposition deterministic.
    """
    region_of: dict[Cell, int] = {}
    regions: list[Region] = []
    for y in range(grid.height):
        for x in range(grid.width):
            seed = (x, y)
            if not grid.is_free(seed) or seed in region_of:
                continue
            label = grid.label_at(seed)
            rid = len(regions)
            component = _flood_fill(grid, seed, label, region_of, rid)
            regions.append(Region(rid, frozenset(component), label))

    neighbors: dict[int, set[int]] = {r.id: set() for r in regions}
    for (x, y), rid in region_of.items():
        for other in ((x + 1, y), (x, y + 1)):
            other_rid = region_of.get(other)
            if other_rid is not None and other_rid != rid:
                neighbors[rid].add(other_rid)
                neighbors[other_rid].add(rid)
    adjacency = {rid: tuple(sorted(adj)) for rid, adj in neighbors.items()}
    return regions, adjacency


def _flood_fill(
    grid: GridMap,
    seed: Cell,
    label: frozenset[str],
    region_of: dict[Cell, int],
    rid: int,
) -> list[Cell]:
    component = [seed]
    region_of[seed] = rid
    queue = deque([seed])
    while queue:
        cell = queue.popleft()
        for nxt in grid.neighbors4(cell):
            if nxt not in region_of and grid.label_at(nxt) == label:
                region_of[nxt] = rid
                component.append(nxt)
                queue.append(nxt)
    return component


def cell_regions(regions: list[Region]) -> dict[Cell, int]:
    """Map each cell to the id of the region containing it."""
    out: dict[Cell, int] = {}
    for region in regions:
        for cell in region.cells:
            out[cell] = region.id
    return out


def bfs_hops(adjacency: dict[int, tuple[int, ...]], source: int) -> dict[int, int]:
    """Hop count from ``source`` to every reachable node."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist
