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
only the cell index that ``region_index`` builds from the run's regions
and map: its keys are the passable cells, and every move goes to one of
them.  The index, its bitsets and the queue share its padded cell
numbering, and the bitsets take each cell's label set from the map's own
one-code-per-cell string.

The search runs breadth-first on whole-grid bitsets, one cost layer at a
time, and falls back to a bucket queue where those layers are too sparse
to pay; both return the same path.  Tie rule: among all cheapest paths,
the one whose per-step violation flags, read from the last step
backwards, are greatest; among those, the one whose directions (up,
down, left, right), read from the first step, are least.  That is the
queue's rule, read on whole paths: at equal (violations, steps), the
cell pushed first wins, and pushes follow up, down, left, right order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from itertools import chain, repeat

from .gridworld import Cell, GridMap, Region, cell_changes, tree_path
from .ltl import BuchiAutomaton, Guard, LabelSet, accepts_lasso

# Most cells, and most policy segments, one executed trace may hold.  A
# run's output takes a few kB per trace cell, so this bounds a run's memory
# as ``gridworld.MAX_CELLS`` bounds a map's and ``ltl.MAX_TABLEAU_EDGES`` a
# formula's.
MAX_TRACE_CELLS = 1 << 16

# The bitset search restarts on the bucket queue once its layers have cost
# more than _WORDS_PER_CELL 64-bit words per cell settled, plus _WORD_SLACK.
# A layer costs the words of its bitset, which spans the grid from its first
# row to its last cell, plus _LAYER_WORDS for its fixed interpreter work.
# Within that budget the bitset search costs at most about two thirds of
# what the queue spends per cell (CPython 3.11, x86-64); a winding corridor,
# one cell per layer, spends the slack within 72 layers.
_WORDS_PER_CELL = 14
_LAYER_WORDS = 128
_WORD_SLACK = 1 << 13


class UnreachableTargetError(ValueError):
    """No reachable region satisfies the requested policy."""


class TraceTooLongError(ValueError):
    """An executed trace would exceed ``MAX_TRACE_CELLS``."""


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


class CellIndex(Mapping):
    """The run's passable cells, each mapped to ``(region id, label set)``.

    Stored flat on padded rows: ``region_of[y * stride + x]`` is the cell's
    region id, or -1 for an impassable or pad cell, and ``labels_of[rid]``
    is region ``rid``'s label set.  ``stride`` is a multiple of 8 above
    ``width``, so a step off a row's end lands on a pad cell.  The searches
    read these lists, and the bitsets the ``grid``'s codes, directly; the
    mapping view serves every other reader.
    """

    def __init__(self, grid: GridMap, stride: int, region_of: list[int], labels_of: list[LabelSet]):
        self.grid, self.width, self.height, self.stride = grid, grid.width, grid.height, stride
        self.region_of, self.labels_of = region_of, labels_of

    def __getitem__(self, cell: Cell) -> tuple[int, LabelSet]:
        rid = self.regions_along((cell,))[0]
        return rid, self.labels_of[rid]

    def regions_along(self, cells) -> list[int]:
        """Each cell's region id; raises ``KeyError`` on a cell that is not a key."""
        w, h, stride, region_of = self.width, self.height, self.stride, self.region_of
        rids = [region_of[y * stride + x] if 0 <= x < w and 0 <= y < h else -1 for x, y in cells]
        if -1 in rids:
            raise KeyError(cells[rids.index(-1)])
        return rids

    def __iter__(self):
        stride = self.stride
        return ((i % stride, i // stride) for i, rid in enumerate(self.region_of) if rid >= 0)

    def __len__(self) -> int:
        return len(self.region_of) - self.region_of.count(-1)

    @cached_property
    def masks(self) -> GridMasks | None:
        """The bitsets ``mv_path`` searches on, built on first use."""
        return GridMasks.build(self)


class GridMasks(namedtuple("GridMasks", "passable unlabeled same_up same_left codes labels goals")):
    """A cell index as whole-grid bitsets, one bit per cell.

    Bit ``i`` stands for the index's cell number ``i``, so pad cells are
    zero bits and a shift by one never moves a cell into the next row.
    ``same_up`` and ``same_left`` hold the passable cells in the same region
    as their neighbour above or to the left, which adjacent cells share
    exactly when they share a label set; shifted back, they give the cells
    in the same region as their neighbour below or to the right.  ``codes``
    holds one byte per cell, highest bit first: the map's code for its
    label set, 0 if not passable; code ``c`` stands for ``labels[c - 1]``.
    """

    __slots__ = ()

    @classmethod
    def build(cls, index: CellIndex) -> GridMasks | None:
        """``None`` when the map has more than 255 label sets."""
        grid, width, pad = index.grid, index.width, "\0" * (index.stride - index.width)
        if len(grid.labelsets) > 256:
            return None
        cells = pad.join(grid.codes[i : i + width] for i in range(0, len(grid.codes), width)) + pad
        labels = list(grid.labelsets[1:])
        highest_first = cells.encode("latin-1")[::-1]
        passable = _cells_where(highest_first, labels, lambda _: True)
        equal = bytearray(b"0" * 256)
        equal[0] = ord("1")

        def same(shift: int) -> int:
            """Passable cells with the same code as the cell ``shift`` cells before them."""
            return int(cell_changes(cells, 1, shift)[::-1].translate(equal), 2) & passable

        return cls(
            passable,
            _cells_where(highest_first, labels, lambda labelset: not labelset),
            same(index.stride),
            same(1),
            highest_first,
            labels,
            {},
        )

    def goal(self, policy: Guard) -> int:
        """The cells of the regions that satisfy ``policy``, cached per policy."""
        if policy not in self.goals:
            self.goals[policy] = _cells_where(self.codes, self.labels, policy.satisfied_by)
        return self.goals[policy]


def _cells_where(codes: bytes, labels: list[LabelSet], holds) -> int:
    """The bitset of the cells whose label set ``holds``, from their codes."""
    table = bytearray(b"0" * 256)
    for code, labelset in enumerate(labels, 1):
        if holds(labelset):
            table[code] = ord("1")
    return int(codes.translate(table), 2)


def region_index(regions: list[Region], grid: GridMap) -> CellIndex:
    """Index every passable cell of ``grid``, which ``regions`` decompose, by region."""
    stride = (grid.width + 8) & -8
    region_of = [-1] * (grid.height * stride)
    for region in regions:
        rid = region.id
        for y, start, stop in region.runs:
            row = y * stride
            region_of[row + start : row + stop] = [rid] * (stop - start)
    return CellIndex(grid, stride, region_of, [region.label for region in regions])


def mv_path(start: Cell, policy: Guard, index: CellIndex) -> tuple[int, list[Cell]]:
    """Cheapest path from ``start`` into a region satisfying ``policy``.

    Moves go to the up, down, left and right neighbours that are keys of
    ``index``.  Cost is compared lexicographically as (violations, steps).
    The search runs on the index's bitsets (``_bitset_path``) and restarts
    on a bucket queue (``_queue_path``) when those are unavailable or over
    their word budget; both follow the module's tie rule, so the path does
    not depend on which one ran.  Returns the path's violation count, the
    minimum over all paths, with the path.
    """
    if start not in index:
        raise ValueError(f"start cell {start} is not passable")
    if policy.satisfied_by(index[start][1]):
        return 0, [start]
    return _bitset_path(start, policy, index) or _queue_path(start, policy, index)


def _bitset_path(start: Cell, policy: Guard, index: CellIndex) -> tuple[int, list[Cell]] | None:
    """``mv_path`` by breadth-first layers on whole-grid bitsets.

    Pass 1 settles the cells of each cost layer (v, s) in lexicographic
    order, as one bitset per layer (cf. Beamer, Asanovic & Patterson, SC
    2012): a move stays on level v when it stays in its region or enters
    an unlabeled or goal cell, and goes to level v + 1 when it enters
    another labeled non-goal region.  It stops at the first layer that
    holds a goal cell.  Pass 2 walks back from there: each step keeps the
    predecessors reached by a violating step if there are any, else those
    reached by a free step, so the violation flags read backwards are the
    greatest.  A walk forward from ``start`` then takes, at each step, the
    first of up, down, left, right that stays in the kept sets.

    Returns ``None`` without a result once the layers have cost more
    words than ``_WORDS_PER_CELL`` per settled cell plus ``_WORD_SLACK``.
    """
    masks = index.masks
    if masks is None:
        return None
    stride = index.stride
    goal = masks.goal(policy)
    free = masks.unlabeled | goal  # entering these is never a violation
    bad = masks.passable ^ free  # entering these from another region is one
    # The cells a move up, down, left or right enters without a violation.
    enter_up, enter_down = free | masks.same_up >> stride, free | masks.same_up
    enter_left, enter_right = free | masks.same_left >> 1, free | masks.same_left
    enters = (enter_up, enter_down, enter_left, enter_right)

    # levels[v][s]: the cells whose cheapest cost is (v, s).
    levels: list[dict[int, int]] = []
    seeds = {0: 1 << start[1] * stride + start[0]}  # a level's cells entered by violations
    settled = words = cells = 0
    while seeds:
        layers: dict[int, int] = {}
        levels.append(layers)
        layer = 0
        while layer or seeds:
            if not layer:
                steps = min(seeds)
            reached = seeds.pop(steps, 0) | (
                layer >> stride & enter_up | layer << stride & enter_down
                | layer >> 1 & enter_left | layer << 1 & enter_right
            )
            layer = reached ^ (reached & settled)
            if layer:
                layers[steps] = layer
                settled |= layer
                words += (layer.bit_length() >> 6) + _LAYER_WORDS
                cells += layer.bit_count()
                if words > _WORDS_PER_CELL * cells + _WORD_SLACK:
                    return None
                if layer & goal:
                    return len(levels) - 1, _walk(start, layer & goal, levels, stride, enters)
            steps += 1
        # The next level's cells are entered by a violation from this one's;
        # those also reached on this level were settled here first.
        for s, layer in layers.items():
            entered = (layer >> stride | layer << stride | layer >> 1 | layer << 1) & bad
            if entered:
                seeds[s + 1] = entered
    raise UnreachableTargetError(f"no reachable region satisfies policy {policy.format()!r}")


def _walk(
    start: Cell, goals: int, levels: list[dict[int, int]], stride: int, enters: tuple[int, ...]
) -> list[Cell]:
    """Pass 2 of ``_bitset_path``: the tie rule's path to ``goals``, the goal cells it reached."""
    enter_up, enter_down, enter_left, enter_right = enters
    v = len(levels) - 1
    here = goals
    back = []  # (kept cells, whether the step into them is a violation), last step first
    for s in range(max(levels[v]) - 1, -1, -1):
        # No later step reads a layer at step s, so each is dropped here.
        before = levels[v - 1].pop(s, 0) if v else 0
        if before:
            # Every move from level v - 1 into level v is a violation.
            before &= here >> stride | here << stride | here >> 1 | here << 1
        back.append((here, bool(before)))
        if before:
            v -= 1
        else:
            before = levels[v].pop(s) & (
                (here & enter_up) << stride | (here & enter_down) >> stride
                | (here & enter_left) << 1 | (here & enter_right) >> 1
            )
        here = before

    x, y = start
    path = [start]
    for kept, violating in reversed(back):
        for nx, ny, enter in ((x, y - 1, enter_up), (x, y + 1, enter_down),
                              (x - 1, y, enter_left), (x + 1, y, enter_right)):
            bit = ny * stride + nx
            if bit >= 0 and kept >> bit & 1 and (violating or enter >> bit & 1):
                break
        path.append((nx, ny))
        x, y = nx, ny
    return path


def _queue_path(start: Cell, policy: Guard, index: CellIndex) -> tuple[int, list[Cell]]:
    """``mv_path`` on a bucket queue (Dial, CACM 1969) from a non-goal start.

    One dict of FIFO step buckets per violation count.  Every push from a
    cell popped at (v, s) lands at (v, s + 1) or (v + 1, s + 1), strictly
    after it, so pops run in cost order.  At equal (violations, steps),
    the cell pushed first wins; pushes follow up, down, left, right order.
    """
    region_of, labels_of, stride = index.region_of, index.labels_of, index.stride
    size = len(region_of)
    source = start[1] * stride + start[0]
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
                    return violations, [(i % stride, i // stride) for i in path]
                for n in (cell - stride, cell + stride, cell - 1, cell + 1):  # up, down, left, right
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


class TraceSegment(namedtuple("TraceSegment", "symbol start end forced_violations")):
    """One executed policy: the slice of the trace it produced."""

    __slots__ = ()

    def to_document(self) -> dict:
        return {
            "policy": self.symbol,
            "start_index": self.start,
            "end_index": self.end,
            "forced_violations": self.forced_violations,
        }


class Trace(namedtuple("Trace", ("cells", "word", "word_cells", "segments", "prefix_segments",
                                 "cycle_length", "cycles"), defaults=((), (), 0, 0, 0))):
    """A concrete run: cells visited, induced label word, segment map."""

    __slots__ = ()

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
        """Rebuild a trace; raises ``ValueError`` on no cells or bad counts, bounds or moves.

        More than ``MAX_TRACE_CELLS`` cells or policy segments are rejected too.
        That bounds a stored trace's size and the memory it takes, but not the
        time to check it: ``accepts_lasso`` is quadratic in the cycle's length.
        """
        for key in ("cells", "segments"):
            if len(doc[key]) > MAX_TRACE_CELLS:
                raise ValueError(f"the trace holds {len(doc[key])} {key}, more than the"
                                 f" MAX_TRACE_CELLS bound of {MAX_TRACE_CELLS}")
        cells = [(_require_count(cell, "x"), _require_count(cell, "y")) for cell in doc["cells"]]
        if not cells:
            raise ValueError("trace has no cells")
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
    word: list[LabelSet] = []
    word_cells: list[int] = []
    previous = -1
    for i, region in enumerate(index.regions_along(cells)):
        if region != previous:
            word.append(index.labels_of[region])
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
    Raises ``TraceTooLongError`` when the plan unrolls to more than
    ``MAX_TRACE_CELLS`` segments or the trace grows past that many cells.
    """
    if cycle and cycles < 1:
        raise ValueError("cyclic plans need at least one cycle repetition")
    if start not in index:
        raise ValueError(f"start cell {start} is not passable")
    repetitions = cycles if cycle else 0
    policies = len(prefix) + len(cycle) * repetitions
    if policies > MAX_TRACE_CELLS:
        raise TraceTooLongError(
            f"the plan unrolls to {policies} policy segments, more than the"
            f" MAX_TRACE_CELLS bound of {MAX_TRACE_CELLS}"
        )

    cells: list[Cell] = [start]
    segments: list[TraceSegment] = []
    searched: dict[tuple[Cell, str], tuple[int, list[Cell]]] = {}
    for symbol in chain(prefix, chain.from_iterable(repeat(cycle, repetitions))):
        here = cells[-1]
        seg_start = len(cells) - 1
        if (here, symbol) not in searched:
            searched[here, symbol] = mv_path(here, parse_policy(symbol), index)
        forced, path = searched[here, symbol]
        cells.extend(path[1:])
        if len(cells) > MAX_TRACE_CELLS:
            raise TraceTooLongError(
                f"the trace passes the MAX_TRACE_CELLS bound of {MAX_TRACE_CELLS} cells"
                f" in policy segment {len(segments) + 1} of {policies}"
            )
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
        cycles=repetitions,
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
    split = len(trace.word)
    if trace.cycle_length and trace.cycles:
        # The period: the regions entered after the last repetition's first cell.
        split = bisect_right(trace.word_cells, trace.segments[-trace.cycle_length].start)
    return accepts_lasso(aut, trace.word[:split], trace.word[split:] or [frozenset()])
