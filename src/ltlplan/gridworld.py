"""Labeled grid environments and their decomposition into regions.

A grid map assigns each cell a (possibly empty) set of symbols; obstacle
cells are impassable.  The map is one row-major string with one code
character per cell, ``"\x00"`` marking an obstacle and every other code
standing for one label set; parsing writes it, and region labeling and the
execution bitsets read it.  Maximal 4-connected groups of cells that share
the exact same label set form *regions*; the region adjacency graph is the
abstraction every later stage works on.  A region is stored as its row
runs, not as a set of cells.
"""

from __future__ import annotations

import json
import re
import sys
from collections import deque, namedtuple
from itertools import chain

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


class GridMap(namedtuple("GridMap", "width height codes labelsets start", defaults=(None,))):
    """A rectangular grid of labeled cells, one code character per cell.

    ``codes[y * width + x]`` is the code of cell ``(x, y)``: ``"\\x00"`` for
    an obstacle, else ``chr(i)`` for the label set ``labelsets[i]`` (empty
    when the cell is unlabeled).  Codes number distinct label sets from 1 in
    row-major order of each set's first cell, so equal maps have equal codes
    whatever format they were read from.  ``start`` is an optional
    designated start cell for plan execution.
    """

    __slots__ = ()

    @property
    def obstacles(self) -> frozenset[Cell]:
        """The obstacle cells; a view built anew on every access."""
        w = self.width
        return frozenset((i % w, i // w) for i, code in enumerate(self.codes) if code == "\0")

    def is_free(self, cell: Cell) -> bool:
        """Whether the cell is on the map and not an obstacle."""
        x, y = cell
        on_map = 0 <= x < self.width and 0 <= y < self.height
        return on_map and self.codes[y * self.width + x] != "\0"

    def default_start(self) -> Cell:
        """First unlabeled passable cell in row-major order."""
        if frozenset() not in self.labelsets:
            raise MapParseError("map has no unlabeled passable cell to start from")
        i = self.codes.index(chr(self.labelsets.index(frozenset())))
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
    text, valid = "".join(lines), (ASCII_FREE, ASCII_OBSTACLE)
    chars = set(text)
    if set(map(len, lines)) != {width} or not all(c in valid or SYMBOL_RE.match(c) for c in chars):
        for y, line in enumerate(lines):  # name the first fault, row by row
            if len(line) != width:
                raise MapParseError(
                    f"row {y + 1} has {len(line)} cells, expected {width} (map must be rectangular)"
                )
            for x, ch in enumerate(line):
                if ch not in valid and not SYMBOL_RE.match(ch):
                    raise MapParseError(f"row {y + 1}, col {x + 1}: invalid cell character {ch!r}")
    order = sorted(chars - {ASCII_OBSTACLE}, key=text.find)  # each character by its first cell
    table = {ord(ASCII_OBSTACLE): 0} | {ord(ch): code for code, ch in enumerate(order, 1)}
    labelsets = [frozenset() if ch == ASCII_FREE else frozenset(ch) for ch in order]
    return GridMap(width, len(lines), text.translate(table), (None, *labelsets))


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

    entries = _require_list(doc, "obstacles")
    obstacles = _cell_numbers(entries, width, height)
    if obstacles is None:  # check entry by entry, so that the message names the first bad one
        found = [_require_cell(e, width, height, f"obstacles[{i}]") for i, e in enumerate(entries)]
        obstacles = [y * width + x for x, y in found]
    blocked = set(obstacles)
    labeled = _labeled_cells(_require_list(doc, "cells"), blocked, width, height)

    start: Cell | None = None
    if "start" in doc:
        start = _require_cell(doc["start"], width, height, "start")
        if start[1] * width + start[0] in blocked:
            raise MapParseError("start cell is an obstacle")

    # Number the label sets in row-major order of their first cells, as ``_parse_ascii`` does.
    cells = width * height
    free = next((at for at in range(cells) if at not in blocked and at not in labeled), None)
    if free is not None:
        labeled[free] = frozenset()
    labelsets = (None, *dict.fromkeys(map(labeled.get, sorted(labeled))))
    number = {labelset: code for code, labelset in enumerate(labelsets)}
    buf = bytearray(number.get(frozenset(), 0).to_bytes(4, sys.byteorder)) * cells
    codes = memoryview(buf).cast("I")  # one four-byte code per cell, in native byte order
    for at in obstacles:
        codes[at] = 0
    for at, labelset in labeled.items():
        codes[at] = number[labelset]
    # Read in native order: cell 0's code, 0 or 1, is never taken for a byte-order mark.
    return GridMap(width, height, buf.decode("utf-32", "surrogatepass"), labelsets, start)


def _labeled_cells(entries: list, blocked: set[int], width: int, height: int) -> dict:
    """Label sets by cell number ``y * width + x``, checked in one pass; on a fault,
    entry by entry, so that the message names the first bad entry."""
    ats = _cell_numbers(entries, width, height)
    raws = [entry.get("labels") for entry in entries] if ats is not None else [None]
    if (set(map(type, raws)) <= {list} and all(raws) and set(map(type, chain(*raws))) <= {str}
            and all(map(SYMBOL_RE.match, set(chain(*raws)))) and blocked.isdisjoint(ats)
            and len(set(ats)) == len(ats)):
        return dict(zip(ats, map(frozenset, raws)))
    labeled: dict[int, frozenset[str]] = {}
    for i, entry in enumerate(entries):
        where = f"cells[{i}]"
        x, y = cell = _require_cell(entry, width, height, where)
        at = y * width + x
        if at in blocked:
            raise MapParseError(f"{where}: cell {cell} is also an obstacle")
        if at in labeled:
            raise MapParseError(f"{where}: duplicate entry for cell {cell}")
        raw = entry.get("labels")
        if not isinstance(raw, list) or not raw:
            raise MapParseError(f"{where}: 'labels' must be a non-empty list")
        for sym in raw:
            if not isinstance(sym, str) or not SYMBOL_RE.match(sym):
                raise MapParseError(f"{where}: invalid symbol {sym!r}")
        labeled[at] = frozenset(raw)
    return labeled


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


def _cell_numbers(entries: list, width: int, height: int) -> list[int] | None:
    """Cell numbers ``y * width + x`` of ``{"x": x, "y": y}`` entries, checked in one
    pass; ``None`` on any fault, for the caller to check them entry by entry."""
    if set(map(type, entries)) <= {dict}:
        xs, ys = [entry.get("x") for entry in entries], [entry.get("y") for entry in entries]
        if set(map(type, xs + ys)) <= {int} and (not xs or 0 <= min(xs) and max(xs) < width
                                                  and 0 <= min(ys) and max(ys) < height):
            return [y * width + x for x, y in zip(xs, ys)]
    return None


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
    overlap across rows with different labels, make the adjacency.  Runs
    are found and compared by their cells' codes, which stand for label sets
    by value; each row's runs are the stretches between code changes.
    """
    width, codes = grid.width, grid.codes
    changes = cell_changes(codes, 1 if len(grid.labelsets) <= 256 else 4, 1)  # 0x80: a new code
    runs: list[tuple[int, int, int]] = []  # passable runs in row-major order
    parent: list[int] = []  # union-find forest over run indices
    touching: set[tuple[int, int]] = set()  # differently-labeled run pairs

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    above: list[tuple[int, int, str, int]] = []  # (start, stop, code, run) per row
    for y in range(grid.height):
        row: list[tuple[int, int, str, int]] = []
        base, start = y * width, 0
        # A row starts a run; each change after its first cell starts the next.
        for gap in changes[base + 1 : base + width].split(b"\x80"):
            stop = start + len(gap) + 1
            code = codes[base + start]
            if code != "\0":
                run = len(runs)
                runs.append((y, start, stop))
                parent.append(run)
                if row and row[-1][1] == start:
                    touching.add((row[-1][3], run))
                row.append((start, stop, code, run))
            start = stop
        i = j = 0
        n_above, n_row = len(above), len(row)
        while i < n_above and j < n_row:
            a_start, a_stop, a_code, a_run = above[i]
            b_start, b_stop, b_code, b_run = row[j]
            if a_start < b_stop and b_start < a_stop:
                if a_code != b_code:
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
        Region(rid, tuple(rows), grid.labelsets[ord(codes[rows[0][0] * width + rows[0][1]])])
        for rid, rows in enumerate(members)
    ]

    neighbors: list[set[int]] = [set() for _ in regions]
    for a_run, b_run in touching:
        a, b = run_rid[a_run], run_rid[b_run]
        neighbors[a].add(b)
        neighbors[b].add(a)
    adjacency = {rid: tuple(sorted(adj)) for rid, adj in enumerate(neighbors)}
    return regions, adjacency


def cell_changes(codes: str, size: int, shift: int) -> bytes:
    """One byte per cell of ``codes``: 0x80 where its code differs from the code ``shift``
    cells before (zero before the first), else 0.  Each code is encoded in ``size`` bytes,
    one lane of one integer; adding a lane's low bits carries into its top bit, never past."""
    data = codes.encode("latin-1" if size == 1 else "utf-32-le", "surrogatepass")
    low = int.from_bytes((b"\xff" * (size - 1) + b"\x7f") * len(codes), "little")
    high = int.from_bytes((bytes(size - 1) + b"\x80") * len(codes), "little")
    number = int.from_bytes(data, "little")
    diff = number ^ number << 8 * size * shift
    return (((diff & low) + low | diff) & high).to_bytes(len(data), "little")[size - 1 :: size]


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
