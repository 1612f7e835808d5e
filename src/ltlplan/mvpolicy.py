"""Minimum-violation execution of policy sequences on labeled grids.

A policy names a task by the labels its goal region must carry (and must
not carry).  ``mv_path`` finds a path that reaches some satisfying region
with lexicographically minimal cost ``(violations, steps)``, where one
violation is charged per entry into a labeled region that does not
satisfy the policy.  ``execute_plan`` chains such paths for a whole plan
and records the induced label word, which ``check_trace`` replays on a
Büchi automaton.  Every search reads one cell index built by
``region_index`` from the run's regions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .gridworld import Cell, GridMap, Region
from .ltl import BuchiAutomaton, LabelSet, accepts_lasso, empty_word_accepting_states


class UnreachableTargetError(ValueError):
    """No reachable region satisfies the requested policy."""


@dataclass(frozen=True)
class PolicySpec:
    """A task given as label constraints on the goal region.

    ``positives`` must all be present in the goal region's label set and
    ``negatives`` must all be absent; at least one positive is required.
    """

    positives: frozenset[str]
    negatives: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.positives:
            raise ValueError("policy needs at least one positive label")
        overlap = self.positives & self.negatives
        if overlap:
            raise ValueError(f"contradictory policy literals: {sorted(overlap)}")

    @classmethod
    def from_symbol(cls, symbol: str) -> "PolicySpec":
        positives, negatives = set(), set()
        for part in symbol.split("&"):
            part = part.strip()
            if part.startswith("!"):
                negatives.add(part[1:].strip())
            elif part:
                positives.add(part)
            else:
                raise ValueError(f"empty literal in policy symbol {symbol!r}")
        return cls(frozenset(positives), frozenset(negatives))

    @property
    def symbol(self) -> str:
        parts = sorted(self.positives) + [f"!{n}" for n in sorted(self.negatives)]
        return "&".join(parts)

    def satisfied_by(self, labels: LabelSet) -> bool:
        return self.positives <= labels and not (self.negatives & labels)


CellIndex = dict[Cell, tuple[int, LabelSet]]


def region_index(regions: list[Region]) -> CellIndex:
    """Map every passable cell to its region id and region label set."""
    return {cell: (region.id, region.label) for region in regions for cell in region.cells}


def mv_path(grid: GridMap, start: Cell, policy: PolicySpec, index: CellIndex) -> list[Cell]:
    """Cheapest path from ``start`` into a region satisfying ``policy``.

    Cost is compared lexicographically as (violations, steps); among
    equal-cost paths the earliest-queued one wins, so neighbor order
    (up, down, left, right) breaks the remaining ties deterministically.
    """
    if start not in index:
        raise ValueError(f"start cell {start} is not passable")
    if policy.satisfied_by(index[start][1]):
        return [start]

    tick = 0
    heap: list[tuple[int, int, int, Cell, Cell | None]] = [(0, 0, tick, start, None)]
    parent: dict[Cell, Cell | None] = {}
    settled: set[Cell] = set()

    while heap:
        violations, steps, _, cell, came_from = heapq.heappop(heap)
        if cell in settled:
            continue
        settled.add(cell)
        parent[cell] = came_from
        region, labels = index[cell]
        if policy.satisfied_by(labels):
            path = [cell]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for neighbor in grid.neighbors4(cell):
            if neighbor in settled:
                continue
            nregion, nlabels = index[neighbor]
            bump = int(nregion != region and bool(nlabels) and not policy.satisfied_by(nlabels))
            tick += 1
            heapq.heappush(heap, (violations + bump, steps + 1, tick, neighbor, cell))

    raise UnreachableTargetError(f"no reachable region satisfies policy {policy.symbol!r}")


def first_region_change(
    grid: GridMap, start: Cell, policy: PolicySpec, index: CellIndex
) -> int | None:
    """Region id of the first boundary crossed by the policy's path.

    Returns ``None`` when the start region already satisfies the policy
    (the path never leaves it).
    """
    path = mv_path(grid, start, policy, index)
    start_region = index[start][0]
    for cell in path[1:]:
        region = index[cell][0]
        if region != start_region:
            return region
    return None


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
        return cls(
            cells=[(cell["x"], cell["y"]) for cell in doc["cells"]],
            word=[frozenset(letter) for letter in doc["word"]],
            word_cells=list(doc["word_cells"]),
            segments=[
                TraceSegment(
                    symbol=seg["policy"],
                    start=seg["start_index"],
                    end=seg["end_index"],
                    forced_violations=seg["forced_violations"],
                )
                for seg in doc["segments"]
            ],
            prefix_segments=doc["prefix_segments"],
            cycle_length=doc["cycle_length"],
            cycles=doc["cycles"],
        )


def trace_word(cells: list[Cell], index: CellIndex) -> tuple[list[LabelSet], list[int]]:
    """Label word induced by a cell path: one letter per region entered.

    The first letter is the start region's label; empty label sets are
    kept so the word mirrors every region boundary the path crosses.
    """
    word: list[LabelSet] = []
    word_cells: list[int] = []
    previous = None
    for i, cell in enumerate(cells):
        region, labels = index[cell]
        if previous is None or region != previous:
            word.append(labels)
            word_cells.append(i)
        previous = region
    return word, word_cells


def execute_plan(
    grid: GridMap,
    start: Cell,
    prefix: list[str],
    cycle: list[str],
    index: CellIndex,
    cycles: int = 1,
) -> Trace:
    """Run a plan's policies in order with minimum-violation paths.

    The cycle part is unrolled ``cycles`` times (ignored when empty).
    Each policy contributes the cheapest path from wherever the previous
    one ended; violation counts per segment are the proven minima.
    """
    if cycle and cycles < 1:
        raise ValueError("cyclic plans need at least one cycle repetition")
    if start not in index:
        raise ValueError(f"start cell {start} is not passable")

    symbols = list(prefix) + list(cycle) * (cycles if cycle else 0)
    cells: list[Cell] = [start]
    segments: list[TraceSegment] = []
    for symbol in symbols:
        policy = PolicySpec.from_symbol(symbol)
        here = cells[-1]
        seg_start = len(cells) - 1
        path = mv_path(grid, here, policy, index)
        cells.extend(path[1:])
        segments.append(
            TraceSegment(
                symbol=symbol,
                start=seg_start,
                end=len(cells) - 1,
                forced_violations=_count_violations(index, path, policy),
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


def _count_violations(index: CellIndex, path: list[Cell], policy: PolicySpec) -> int:
    count = 0
    for prev, cell in zip(path, path[1:]):
        pregion = index[prev][0]
        region, labels = index[cell]
        if region != pregion and labels and not policy.satisfied_by(labels):
            count += 1
    return count


def unsafe_report(grid: GridMap, trace: Trace, index: CellIndex) -> dict:
    """Count label entries that violate their segment's policy.

    Each segment's terminal region entry (the task being completed) is
    exempt.  ``forced`` sums the minimum violations any path could have
    achieved per segment, recomputed from the segment's start cell;
    ``unforced`` is whatever the trace incurred beyond that (zero for
    traces produced by ``execute_plan``).
    """
    entries: list[dict] = []
    count = 0
    forced_total = 0
    for seg_idx, seg in enumerate(trace.segments):
        policy = PolicySpec.from_symbol(seg.symbol)
        forced_total += _forced_violations(grid, trace, seg, policy, index)
        in_segment = [
            (letter, cell_idx)
            for letter, cell_idx in zip(trace.word, trace.word_cells)
            if seg.start < cell_idx <= seg.end
        ]
        for letter, cell_idx in in_segment[:-1]:
            if letter and not policy.satisfied_by(letter):
                count += 1
                entries.append(
                    {
                        "segment": seg_idx,
                        "policy": seg.symbol,
                        "cell": {"x": trace.cells[cell_idx][0], "y": trace.cells[cell_idx][1]},
                        "labels": sorted(letter),
                    }
                )
    return {
        "count": count,
        "forced": forced_total,
        "unforced": max(0, count - forced_total),
        "entries": entries,
    }


def _forced_violations(
    grid: GridMap,
    trace: Trace,
    seg: TraceSegment,
    policy: PolicySpec,
    index: CellIndex,
) -> int:
    try:
        optimal = mv_path(grid, trace.cells[seg.start], policy, index)
    except UnreachableTargetError:
        return seg.forced_violations
    return _count_violations(index, optimal, policy)


def check_trace(aut: BuchiAutomaton, trace: Trace) -> bool:
    """Whether the trace's label word satisfies the automaton's language.

    Cyclic traces are checked as lassos whose period is the word emitted
    by the last executed cycle repetition.  Finite traces (empty plan
    cycle) model the robot parking forever: the word is extended with
    empty label sets, so acceptance asks whether some run over the word
    can continue to acceptance while no further task completions occur.
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
    return _accepts_then_idles(aut, trace.word)


def _accepts_then_idles(aut: BuchiAutomaton, word: list[LabelSet]) -> bool:
    current = {aut.initial}
    for letter in word:
        current = {
            dst
            for state in current
            for (dst, guard) in aut.successors(state)
            if guard.satisfied_by(letter)
        }
        if not current:
            return False
    return bool(current & empty_word_accepting_states(aut))
