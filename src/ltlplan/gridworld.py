"""Labeled grid environments and their decomposition into regions.

A grid map assigns each cell a (possibly empty) set of symbols; obstacle
cells are impassable.  The map is one flat row-major tuple of label sets,
``None`` marking an obstacle, from parsing through region labeling.
Maximal 4-connected groups of cells that share the exact same label set
form *regions*; the region adjacency graph is the abstraction every later
stage works on.  A region is stored as its row runs, not as a set of cells.
"""

from __future__ import annotations

import json
import re
from collections import deque, namedtuple
from itertools import groupby

Cell = tuple[int, int]

# A label symbol; formula atoms use the same syntax, so the keywords are not labels.
SYMBOL = r"[A-Za-z_][A-Za-z0-9_]*"
KEYWORDS = ("F", "G", "U", "true")
SYMBOL_RE = re.compile(rf"(?!(?:{'|'.join(KEYWORDS)})\Z){SYMBOL}\Z")

ASCII_FREE = "."
ASCII_OBSTACLE = "#"

# Largest accepted width * height; every region pass walks all cells.
MAX_CELLS = 1 << 20


class MapParseError(ValueError):
    """Raised when a map document is malformed; carries row/col context."""


class GridMap(namedtuple("GridMap", "width height cells start", defaults=(None,))):
    """A rectangular grid of labeled cells, stored flat in row-major order.

    ``cells[y * width + x]`` is the label set of cell ``(x, y)``: empty when
    the cell is unlabeled, ``None`` when it is an obstacle.  ``start`` is an
    optional designated start cell for plan execution.
    """

    __slots__ = ()

    @property
    def obstacles(self) -> frozenset[Cell]:
        """The obstacle cells; a view built anew on every access."""
        w = self.width
        return frozenset(
            (i % w, i // w) for i, labelset in enumerate(self.cells) if labelset is None
        )

    def is_free(self, cell: Cell) -> bool:
        """Whether the cell is on the map and not an obstacle."""
        x, y = cell
        on_map = 0 <= x < self.width and 0 <= y < self.height
        return on_map and self.cells[y * self.width + x] is not None

    def default_start(self) -> Cell:
        """First unlabeled passable cell in row-major order."""
        if frozenset() not in self.cells:
            raise MapParseError("map has no unlabeled passable cell to start from")
        i = self.cells.index(frozenset())
        return (i % self.width, i // self.width)

    def resolved_start(self) -> Cell:
        return self.start if self.start is not None else self.default_start()


def parse_map(text: str) -> GridMap:
    """Parse a map from ASCII art or from a structured JSON document."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_structured(text)
    return _parse_ascii(text)


def _parse_ascii(text: str) -> GridMap:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and not lines[0].strip():
        lines.pop(0)
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MapParseError("empty map")
    width = len(lines[0])
    _check_size(width, len(lines))
    # Cell character -> label set; each new symbol character is checked once.
    table: dict[str, frozenset[str] | None] = {ASCII_FREE: frozenset(), ASCII_OBSTACLE: None}
    cells: list[frozenset[str] | None] = []
    for y, line in enumerate(lines):
        if len(line) != width:
            raise MapParseError(
                f"row {y + 1} has {len(line)} cells, expected {width} (map must be rectangular)"
            )
        for ch in sorted(set(line).difference(table), key=line.index):
            if not SYMBOL_RE.match(ch):
                raise MapParseError(
                    f"row {y + 1}, col {line.index(ch) + 1}: invalid cell character {ch!r}"
                )
            table[ch] = frozenset(ch)
        cells.extend(map(table.__getitem__, line))
    return GridMap(width, len(lines), tuple(cells))


def _parse_structured(text: str) -> GridMap:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep for the decoder
        raise MapParseError(f"invalid JSON map document: {exc}") from exc
    return map_from_document(doc)  # text that starts with "{" decodes to an object


def map_from_document(doc: dict) -> GridMap:
    width = _require_dim(doc, "width")
    height = _require_dim(doc, "height")
    _check_size(width, height)

    cells: list[frozenset[str] | None] = [frozenset()] * (width * height)
    for at in _obstacle_cells(_require_list(doc, "obstacles"), width, height):
        cells[at] = None

    for i, entry in enumerate(_require_list(doc, "cells")):
        where = f"cells[{i}]"
        x, y = cell = _require_cell(entry, width, height, where)
        at = y * width + x
        if cells[at] is None:
            raise MapParseError(f"{where}: cell {cell} is also an obstacle")
        if cells[at]:
            raise MapParseError(f"{where}: duplicate entry for cell {cell}")
        raw = entry.get("labels")
        if not isinstance(raw, list) or not raw:
            raise MapParseError(f"{where}: 'labels' must be a non-empty list")
        for sym in raw:
            if not isinstance(sym, str) or not SYMBOL_RE.match(sym):
                raise MapParseError(f"{where}: invalid symbol {sym!r}")
        cells[at] = frozenset(raw)

    start: Cell | None = None
    if "start" in doc:
        start = _require_cell(doc["start"], width, height, "start")
        if cells[start[1] * width + start[0]] is None:
            raise MapParseError("start cell is an obstacle")

    return GridMap(width, height, tuple(cells), start)


def _require_dim(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise MapParseError(f"'{key}' must be a positive integer")
    return value


def _require_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise MapParseError(f"'{key}' must be a list")
    return value


def _check_size(width: int, height: int) -> None:
    if width * height > MAX_CELLS:
        raise MapParseError(f"map has {width * height} cells, more than the {MAX_CELLS} allowed")


def _obstacle_cells(entries: list, width: int, height: int) -> list[int]:
    """Cell numbers ``y * width + x`` of the obstacle entries, checked in one pass; on a
    fault, ``_require_cell`` checks them one by one and so names the first bad entry."""
    if set(map(type, entries)) <= {dict}:
        xs, ys = [entry.get("x") for entry in entries], [entry.get("y") for entry in entries]
        if set(map(type, xs + ys)) <= {int} and (not xs or 0 <= min(xs) and max(xs) < width
                                                  and 0 <= min(ys) and max(ys) < height):
            return [y * width + x for x, y in zip(xs, ys)]
    cells = [_require_cell(e, width, height, f"obstacles[{i}]") for i, e in enumerate(entries)]
    return [y * width + x for x, y in cells]


def _require_cell(entry, width: int, height: int, where: str) -> Cell:
    if not isinstance(entry, dict):
        raise MapParseError(f"{where}: expected an object with 'x' and 'y'")
    x, y = entry.get("x"), entry.get("y")
    if not isinstance(x, int) or not isinstance(y, int) or isinstance(x, bool) or isinstance(y, bool):
        raise MapParseError(f"{where}: 'x' and 'y' must be integers")
    if not (0 <= x < width and 0 <= y < height):
        raise MapParseError(f"{where}: cell ({x}, {y}) out of bounds")
    return (x, y)


class Region(namedtuple("Region", "id runs label")):
    """A maximal 4-connected component of equally-labeled cells.

    ``runs`` holds the region's row runs ``(y, x_start, x_stop)``, stop
    exclusive, in row-major order.
    """

    __slots__ = ()


def extract_regions(grid: GridMap) -> tuple[list[Region], dict[int, tuple[int, ...]]]:
    """Decompose a map into regions and their adjacency graph.

    Region ids are assigned in row-major order of each region's
    topmost-leftmost cell, which makes the decomposition deterministic.
    Components are labeled on row runs, not cells (two-pass run labeling:
    Rosenfeld & Pfaltz, JACM 1966): each row splits into maximal runs of
    one label set, and a union-find joins the runs that overlap an
    equally-labeled run of the row above.  Runs that abut in a row, or
    overlap across rows with different labels, make the adjacency.  Label
    sets are compared by value, never by identity.
    """
    width, cells = grid.width, grid.cells
    runs: list[tuple[int, int, int]] = []  # passable runs in row-major order
    parent: list[int] = []  # union-find forest over run indices
    touching: set[tuple[int, int]] = set()  # differently-labeled run pairs

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    above: list[tuple[int, int, frozenset[str], int]] = []  # (start, stop, label, run) per row
    for y in range(grid.height):
        row: list[tuple[int, int, frozenset[str], int]] = []
        start = 0
        for label, group in groupby(cells[y * width : (y + 1) * width]):
            stop = start + len(list(group))
            if label is not None:
                run = len(runs)
                runs.append((y, start, stop))
                parent.append(run)
                if row and row[-1][1] == start:
                    touching.add((row[-1][3], run))
                row.append((start, stop, label, run))
            start = stop
        i = j = 0
        n_above, n_row = len(above), len(row)
        while i < n_above and j < n_row:
            a_start, a_stop, a_label, a_run = above[i]
            b_start, b_stop, b_label, b_run = row[j]
            if a_start < b_stop and b_start < a_stop:
                if a_label != b_label:
                    touching.add((a_run, b_run))
                else:
                    a_root, b_root = find(a_run), find(b_run)
                    if a_root != b_root:
                        parent[b_root] = a_root
            if a_stop <= b_stop:
                i += 1
            if b_stop <= a_stop:
                j += 1
        above = row

    # Each region takes its id from its first run, not from its root.
    rid_of_root: dict[int, int] = {}
    run_rid = [rid_of_root.setdefault(find(run), len(rid_of_root)) for run in range(len(runs))]
    members: list[list[tuple[int, int, int]]] = [[] for _ in rid_of_root]
    for rid, run in zip(run_rid, runs):
        members[rid].append(run)
    regions = [  # labeled by the cell that starts each region's first run
        Region(rid, tuple(rows), cells[rows[0][0] * width + rows[0][1]])
        for rid, rows in enumerate(members)
    ]

    neighbors: list[set[int]] = [set() for _ in regions]
    for a_run, b_run in touching:
        a, b = run_rid[a_run], run_rid[b_run]
        neighbors[a].add(b)
        neighbors[b].add(a)
    adjacency = {rid: tuple(sorted(adj)) for rid, adj in enumerate(neighbors)}
    return regions, adjacency


def dot_text(kind: str, nodes, edges) -> str:
    """Graphviz text: ``nodes`` holds (id, attributes) pairs, ``edges`` (source, target, label)."""
    lines = [f"digraph {kind} {{", "  rankdir=LR;", "  node [shape=circle];"]
    lines += [f"  {node} [{attributes}];" for node, attributes in nodes]
    lines += [f'  {src} -> {dst} [label="{label}"];' for src, dst, label in edges]
    return "\n".join(lines) + "\n}\n"


def bfs_tree(sources, successors, target=None) -> dict:
    """Breadth-first search tree: every reached node mapped to its parent.

    ``successors(node)`` lists a node's successors; sources map to
    ``None``.  Dict order is discovery order, which is also queue order,
    and callers rely on it: ``find_plan`` ranks ties by it,
    ``build_product`` orders states by it, ``to_buchi`` numbers states by
    it and ``tree_depths`` needs each parent before its children.  With
    ``target`` given, no node is expanded once ``target`` is discovered.
    """
    parent = dict.fromkeys(sources)
    queue = deque(parent)
    while queue and target not in parent:
        node = queue.popleft()
        for nxt in successors(node):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return parent


def tree_depths(parent: dict) -> dict:
    """Hop count along a ``bfs_tree`` parent map from a source to every node."""
    depth = {}
    for node, prev in parent.items():
        depth[node] = 0 if prev is None else depth[prev] + 1
    return depth


def tree_path(parent: dict, node) -> list:
    """Path along a parent map from a source to ``node``, both included."""
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def cycle_path(node, successors) -> list | None:
    """Shortest non-empty path from ``node`` back to it, or ``None``.

    The path lists the nodes after ``node``, ending with ``node`` itself;
    ties follow ``successors`` order, as in ``bfs_tree``.
    """
    parent = bfs_tree(successors(node), successors, node)
    return tree_path(parent, node) if node in parent else None
