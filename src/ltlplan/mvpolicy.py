"""Minimum-violation execution of policy sequences on labeled grids.

A policy names a task by the labels its goal region must carry (and must
not carry): the same literal conjunction as an automaton guard, so it is
an ``ltl.Guard``, read from its symbol text by ``parse_policy``.
``mv_path`` finds a path that reaches some satisfying region with
lexicographically minimal cost ``(violations, steps)``, where one
violation is charged per entry into a labeled region that does not
satisfy the policy, and returns that violation count with the path.
``execute_plan`` chains such paths for a whole plan, records each count
as the segment's forced minimum, and records the induced label word,
which ``check_trace`` replays on a Büchi automaton.  Every search reads
only the cell index that ``region_index`` builds from the run's regions:
its keys are the passable cells, and every move goes to one of them.
The search is a bucket queue over (violations, steps) with one tie rule:
at equal (violations, steps), the cell pushed first wins; pushes follow
up, down, left, right order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field

from .gridworld import Cell, Region, tree_path
from .ltl import BuchiAutomaton, Guard, LabelSet, accepts_lasso


class UnreachableTargetError(ValueError):
    """No reachable region satisfies the requested policy."""


def parse_policy(symbol: str) -> Guard:
    """Read a policy symbol such as ``b&!square`` as the guard it names.

    Raises ``ValueError`` on an empty literal, on no positive literal, and
    on a symbol both required and excluded.
    """
    positives, negatives = set(), set()
    for part in symbol.split("&"):
        part = part.strip()
        if part.startswith("!"):
            negatives.add(part[1:].strip())
        elif part:
            positives.add(part)
        else:
            raise ValueError(f"empty literal in policy symbol {symbol!r}")
    if not positives:
        raise ValueError("policy needs at least one positive label")
    overlap = positives & negatives
    if overlap:
        raise ValueError(f"contradictory policy literals: {sorted(overlap)}")
    return Guard(frozenset(positives), frozenset(negatives))


@dataclass(frozen=True, eq=False)
class CellIndex(Mapping):
    """The run's passable cells, each mapped to ``(region id, label set)``.

    Stored flat: ``region_of[y * width + x]`` is the cell's region id, or
    -1 for an impassable cell, and ``labels_of[rid]`` is region ``rid``'s
    label set.  The searches read these lists directly; the mapping view
    serves every other reader.
    """

    width: int
    height: int
    region_of: list[int]
    labels_of: list[LabelSet]

    def __getitem__(self, cell: Cell) -> tuple[int, LabelSet]:
        x, y = cell
        if 0 <= x < self.width and 0 <= y < self.height:
            rid = self.region_of[y * self.width + x]
            if rid >= 0:
                return rid, self.labels_of[rid]
        raise KeyError(cell)

    def __iter__(self):
        width = self.width
        return ((i % width, i // width) for i, rid in enumerate(self.region_of) if rid >= 0)

    def __len__(self) -> int:
        return len(self.region_of) - self.region_of.count(-1)


def region_index(regions: list[Region], width: int, height: int) -> CellIndex:
    """Index every passable cell of a ``width`` x ``height`` map by region."""
    region_of = [-1] * (width * height)
    for region in regions:
        rid = region.id
        for y, start, stop in region.runs:
            row = y * width
            region_of[row + start : row + stop] = [rid] * (stop - start)
    return CellIndex(width, height, region_of, [region.label for region in regions])


def mv_path(start: Cell, policy: Guard, index: CellIndex) -> tuple[int, list[Cell]]:
    """Cheapest path from ``start`` into a region satisfying ``policy``.

    Moves go to the up, down, left and right neighbours that are keys of
    ``index``.  Cost is compared lexicographically as (violations, steps)
    by a bucket queue (Dial, CACM 1969): one dict of FIFO step buckets
    per violation count.  Every push from a cell popped at (v, s) lands at
    (v, s + 1) or (v + 1, s + 1), strictly after it, so pops run in cost
    order.  Tie rule: at equal (violations, steps), the cell pushed first
    wins; pushes follow up, down, left, right order.  Returns the path's
    violation count, the minimum over all paths, with the path.
    """
    if start not in index:
        raise ValueError(f"start cell {start} is not passable")
    region_of, labels_of, width = index.region_of, index.labels_of, index.width
    size = len(region_of)
    source = start[1] * width + start[0]
    if policy.satisfied_by(labels_of[region_of[source]]):
        return 0, [start]
    # Per region: -1 for a goal; else 1 when entering it is a violation
    # (it is labeled), 0 when it is free.
    cost = [-1 if policy.satisfied_by(labels) else int(bool(labels)) for labels in labels_of]

    parent: dict[int, int | None] = {}  # keys are the settled cells
    # levels[v][s] holds the (cell, came_from) pairs pushed at cost (v, s), flattened.
    levels: list[dict[int, list]] = [{0: [source, None]}]
    for violations, level in enumerate(levels):  # grows while iterated
        steps = min(level)
        while level:
            bucket = level.pop(steps, ())
            steps += 1
            same = worse = None
            pairs = iter(bucket)
            for cell, came_from in zip(pairs, pairs):
                if cell in parent:
                    continue
                parent[cell] = came_from
                region = region_of[cell]
                if cost[region] < 0:
                    path = tree_path(parent, cell)
                    return violations, [(i % width, i // width) for i in path]
                x = cell % width
                left = cell - 1 if x else -1
                right = cell + 1 if x + 1 < width else -1
                for n in (cell - width, cell + width, left, right):  # up, down, left, right
                    if n < 0 or n >= size:
                        continue
                    nregion = region_of[n]
                    if nregion < 0 or n in parent:
                        continue
                    if nregion != region and cost[nregion] > 0:
                        if worse is None:
                            if violations + 1 == len(levels):
                                levels.append({})
                            worse = levels[violations + 1].setdefault(steps, [])
                        worse += (n, cell)
                    else:
                        if same is None:
                            same = level.setdefault(steps, [])
                        same += (n, cell)

    raise UnreachableTargetError(f"no reachable region satisfies policy {policy.format()!r}")


@dataclass
class TraceSegment:
    """One executed policy: the slice of the trace it produced."""

    symbol: str
    start: int
    end: int
    forced_violations: int

    def to_document(self) -> dict:
        return {
            "policy": self.symbol,
            "start_index": self.start,
            "end_index": self.end,
            "forced_violations": self.forced_violations,
        }


@dataclass
class Trace:
    """A concrete run: cells visited, induced label word, segment map."""

    cells: list[Cell]
    word: list[LabelSet]
    word_cells: list[int] = field(default_factory=list)
    segments: list[TraceSegment] = field(default_factory=list)
    prefix_segments: int = 0
    cycle_length: int = 0
    cycles: int = 0

    def to_document(self) -> dict:
        return {
            "cells": [{"x": x, "y": y} for (x, y) in self.cells],
            "word": [sorted(letter) for letter in self.word],
            "word_cells": list(self.word_cells),
            "segments": [seg.to_document() for seg in self.segments],
            "prefix_segments": self.prefix_segments,
            "cycle_length": self.cycle_length,
            "cycles": self.cycles,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "Trace":
        """Rebuild a trace; raises ``ValueError`` on malformed counts, bounds or moves."""
        cells = [(_require_count(cell, "x"), _require_count(cell, "y")) for cell in doc["cells"]]
        segments = [
            TraceSegment(
                symbol=seg["policy"],
                start=_require_count(seg, "start_index"),
                end=_require_count(seg, "end_index"),
                forced_violations=_require_count(seg, "forced_violations"),
            )
            for seg in doc["segments"]
        ]
        for (x0, y0), (x1, y1) in zip(cells, cells[1:]):
            if abs(x1 - x0) + abs(y1 - y0) != 1:
                raise ValueError(
                    f"consecutive cells ({x0}, {y0}) and ({x1}, {y1}) are not 4-neighbours"
                )
        for seg in segments:
            if not seg.start <= seg.end < len(cells):
                raise ValueError(
                    f"segment [{seg.start}, {seg.end}] lies outside the {len(cells)} cells"
                )
        cycle_length = _require_count(doc, "cycle_length")
        if cycle_length > len(segments):
            raise ValueError(
                f"'cycle_length' {cycle_length} exceeds the {len(segments)} segments"
            )
        return cls(
            cells=cells,
            word=[frozenset(letter) for letter in doc["word"]],
            word_cells=list(doc["word_cells"]),
            segments=segments,
            prefix_segments=_require_count(doc, "prefix_segments"),
            cycle_length=cycle_length,
            cycles=_require_count(doc, "cycles"),
        )


def _require_count(doc: dict, key: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{key!r} must be a non-negative integer, got {value!r}")
    return value


def trace_word(cells: list[Cell], index: CellIndex) -> tuple[list[LabelSet], list[int]]:
    """Label word induced by a cell path: one letter per region entered.

    The first letter is the start region's label; empty label sets are
    kept so the word mirrors every region boundary the path crosses.
    Raises ``KeyError`` on a cell that is not a key of ``index``.
    """
    region_of, labels_of = index.region_of, index.labels_of
    width, height = index.width, index.height
    word: list[LabelSet] = []
    word_cells: list[int] = []
    previous = -1
    for i, (x, y) in enumerate(cells):
        region = region_of[y * width + x] if 0 <= x < width and 0 <= y < height else -1
        if region < 0:
            raise KeyError((x, y))
        if region != previous:
            word.append(labels_of[region])
            word_cells.append(i)
            previous = region
    return word, word_cells


def execute_plan(
    start: Cell,
    prefix: list[str],
    cycle: list[str],
    index: CellIndex,
    cycles: int = 1,
) -> Trace:
    """Run a plan's policies in order with minimum-violation paths.

    The cycle part is unrolled ``cycles`` times (ignored when empty).
    Each policy contributes the cheapest path from wherever the previous
    one ended; each segment records ``mv_path``'s violation count, the
    proven minimum, as its forced violations.  A search depends only on
    its start cell and symbol, so repeated cycles reuse earlier results.
    """
    if cycle and cycles < 1:
        raise ValueError("cyclic plans need at least one cycle repetition")
    if start not in index:
        raise ValueError(f"start cell {start} is not passable")

    symbols = list(prefix) + list(cycle) * (cycles if cycle else 0)
    cells: list[Cell] = [start]
    segments: list[TraceSegment] = []
    searched: dict[tuple[Cell, str], tuple[int, list[Cell]]] = {}
    for symbol in symbols:
        here = cells[-1]
        seg_start = len(cells) - 1
        if (here, symbol) not in searched:
            searched[here, symbol] = mv_path(here, parse_policy(symbol), index)
        forced, path = searched[here, symbol]
        cells.extend(path[1:])
        segments.append(
            TraceSegment(
                symbol=symbol,
                start=seg_start,
                end=len(cells) - 1,
                forced_violations=forced,
            )
        )

    word, word_cells = trace_word(cells, index)
    return Trace(
        cells=cells,
        word=word,
        word_cells=word_cells,
        segments=segments,
        prefix_segments=len(prefix),
        cycle_length=len(cycle),
        cycles=cycles if cycle else 0,
    )


def unsafe_report(trace: Trace) -> dict:
    """Count label entries that violate their segment's policy.

    Each segment's terminal region entry (the task being completed) is
    exempt.  ``forced`` sums the per-segment minimum over all paths that
    ``execute_plan`` records as each segment's ``forced_violations``;
    ``unforced`` is whatever the trace incurred beyond that (zero for
    traces produced by ``execute_plan``).
    """
    entries: list[dict] = []
    for seg_idx, seg in enumerate(trace.segments):
        policy = parse_policy(seg.symbol)
        # word_cells increases, so the segment's entries are one slice of it.
        first = bisect_right(trace.word_cells, seg.start)
        last = bisect_right(trace.word_cells, seg.end) - 1  # the exempt terminal entry
        for letter, cell_idx in zip(trace.word[first:last], trace.word_cells[first:last]):
            if letter and not policy.satisfied_by(letter):
                entries.append(
                    {
                        "segment": seg_idx,
                        "policy": seg.symbol,
                        "cell": {"x": trace.cells[cell_idx][0], "y": trace.cells[cell_idx][1]},
                        "labels": sorted(letter),
                    }
                )
    forced = sum(seg.forced_violations for seg in trace.segments)
    return {
        "count": len(entries),
        "forced": forced,
        "unforced": max(0, len(entries) - forced),
        "entries": entries,
    }


def check_trace(aut: BuchiAutomaton, trace: Trace) -> bool:
    """Whether the trace's label word satisfies the automaton's language.

    Cyclic traces are checked as lassos whose period is the word emitted
    by the last executed cycle repetition.  Finite traces (empty plan
    cycle) model the robot parking forever: the word is checked as the
    lasso ``word . {}^ω``, with no further task completions.
    """
    if trace.cycle_length and trace.cycles:
        rep_segments = trace.segments[-trace.cycle_length:]
        boundary = rep_segments[0].start
        cycle_letters = [
            letter
            for letter, cell_idx in zip(trace.word, trace.word_cells)
            if cell_idx > boundary
        ]
        if cycle_letters:
            split = len(trace.word) - len(cycle_letters)
            return accepts_lasso(aut, trace.word[:split], cycle_letters)
    return accepts_lasso(aut, trace.word, [frozenset()])
