"""Seeded input generators for the three benchmark workloads.

Every workload is an endless, deterministic stream of :class:`Op` values:
the same ``(workload, seed)`` always yields byte-identical map texts and
formulas, op for op.  The seed picks map layouts and goal symbols; the
mix of goal families is a fixed round-robin, so seeds vary the content of
a run but not its proportions.

Formulas are built as small syntax trees (tuples, see :func:`render`) so
the oracles can evaluate them without parsing text with the code under
test.  Maps are kept as :class:`Grid` values for the same reason; the
program under test only ever sees the rendered text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import count, islice

Cell = tuple[int, int]

# Formula syntax trees:
#   ("ap", name) | ("not", name) | ("and", f, g) | ("or", f, g)
#   ("F", f) | ("G", f) | ("U", f, g)
Formula = tuple


def ap(name: str) -> Formula:
    return ("ap", name)


def conj(*parts: Formula) -> Formula:
    out = parts[0]
    for part in parts[1:]:
        out = ("and", out, part)
    return out


def render(f: Formula) -> str:
    """Formula text in the CLI's grammar, fully parenthesized."""
    kind = f[0]
    if kind == "ap":
        return f[1]
    if kind == "not":
        return "!" + f[1]
    if kind in ("F", "G"):
        return f"{kind} ({render(f[1])})"
    op = {"and": "&", "or": "|", "U": "U"}[kind]
    return f"({render(f[1])}) {op} ({render(f[2])})"


@dataclass
class Grid:
    """The generator's own map model; the oracles read this, not the program."""

    width: int
    height: int
    labels: dict[Cell, frozenset[str]] = field(default_factory=dict)
    obstacles: set[Cell] = field(default_factory=set)
    start: Cell | None = None

    def free(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height and cell not in self.obstacles

    def label(self, cell: Cell) -> frozenset[str]:
        return self.labels.get(cell, frozenset())

    def resolved_start(self) -> Cell:
        if self.start is not None:
            return self.start
        for y in range(self.height):
            for x in range(self.width):
                if self.free((x, y)) and not self.label((x, y)):
                    return (x, y)
        raise ValueError("map has no unlabeled free cell")

    def to_ascii(self) -> str:
        rows = []
        for y in range(self.height):
            row = []
            for x in range(self.width):
                if (x, y) in self.obstacles:
                    row.append("#")
                else:
                    labels = self.label((x, y))
                    row.append(next(iter(labels)) if labels else ".")
            rows.append("".join(row))
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        row_major = lambda c: (c[1], c[0])
        doc = {
            "width": self.width,
            "height": self.height,
            "cells": [
                {"x": x, "y": y, "labels": sorted(self.labels[(x, y)])}
                for (x, y) in sorted(self.labels, key=row_major)
            ],
            "obstacles": [{"x": x, "y": y} for (x, y) in sorted(self.obstacles, key=row_major)],
        }
        if self.start is not None:
            doc["start"] = {"x": self.start[0], "y": self.start[1]}
        return json.dumps(doc, separators=(",", ":")) + "\n"


@dataclass
class MapFile:
    name: str
    grid: Grid
    text: str


@dataclass
class Op:
    """One CLI call: ``run`` a goal, or ``check`` the trace of an earlier run."""

    index: int
    command: str
    map: MapFile
    mode: str
    family: str
    formula: Formula
    run_index: int | None = None  # for ``check``: the op whose trace is checked

    @property
    def ltl(self) -> str:
        return render(self.formula)


def _block_fits(grid: Grid, x0: int, y0: int, w: int, h: int, margin: int) -> bool:
    """Whether an in-bounds w×h block at (x0, y0) keeps ``margin`` cells from obstacles and labels."""
    for y in range(y0 - margin, y0 + h + margin):
        for x in range(x0 - margin, x0 + w + margin):
            if (x, y) in grid.obstacles or (x, y) in grid.labels:
                return False
    return True


def _place(rng: random.Random, grid: Grid, w: int, h: int, margin: int, avoid=()) -> Cell | None:
    for _ in range(200):
        x0 = rng.randrange(0, grid.width - w + 1)
        y0 = rng.randrange(0, grid.height - h + 1)
        if any(x0 <= ax < x0 + w and y0 <= ay < y0 + h for (ax, ay) in avoid):
            continue
        if _block_fits(grid, x0, y0, w, h, margin):
            return (x0, y0)
    return None


def _fill(grid: Grid, corner: Cell, w: int, h: int, labels: frozenset[str] | None) -> None:
    x0, y0 = corner
    for y in range(y0, y0 + h):
        for x in range(x0, x0 + w):
            if labels is None:
                grid.obstacles.add((x, y))
            else:
                grid.labels[(x, y)] = labels


# ---------------------------------------------------------------------------
# walled: fresh 128x128 walled-island maps, one per op.
#
# Why: most of the op time is extract_regions + generate_ts_labels + prune;
# the automaton is tiny and no map is ever reused, so this is the workload
# for the grid abstraction layers (gridworld, tsys, pruner).  It also shows
# the completeness gap: islands touch each other, so islands of one symbol
# stop being equivalent, their symbol ties in case2 and is deleted, and goals
# on the eight island symbols mostly get no plan although the grid reaches them.
# Each map also holds one unique beacon island ``z`` two cells from the start;
# goals on it are the ones the pruned system can plan today, which keeps
# planned_ratio above 0.  Next to the start, a beacon run executes only a few
# cells; its extra cost is the two more extract_regions calls that
# execute_plan and unsafe_report make, and those runs set op_tail_ms.  Beacon
# runs are a third of the base of planned_ratio, so on this workload it does
# not show island plans disappearing (they are ~15% of it).

WALLED_SIDE = 128
WALLED_SYMBOLS = "abcdefgh"
WALLED_BEACON = "z"
WALLED_WALL_EVERY = 6
WALLED_GAP = 0.08
WALLED_ISLANDS = 300
WALLED_SPARSE = 150
WALLED_FAMILIES = ("F s", "F s & F t", "F (s & F t)", "G F s", "F z", "F z")  # two beacon runs


def walled_map(rng: random.Random, side: int = WALLED_SIDE) -> Grid:
    """Obstacle rows with ~8% gaps, 2x2 single-symbol islands, sparse labeled cells."""
    grid = Grid(side, side)
    for y in range(WALLED_WALL_EVERY - 1, side - 1, WALLED_WALL_EVERY):
        for x in range(side):
            if rng.random() >= WALLED_GAP:
                grid.obstacles.add((x, y))
    _fill(grid, (2, 0), 2, 2, frozenset(WALLED_BEACON))
    # Keep the default start cell (0, 0) and the way from it to the beacon free.
    keep_free = [(0, 0), (1, 0), (1, 1)]
    for _ in range(WALLED_ISLANDS):
        corner = _place(rng, grid, 2, 2, 0, avoid=keep_free)
        if corner is not None:
            _fill(grid, corner, 2, 2, frozenset(rng.choice(WALLED_SYMBOLS)))
    for _ in range(WALLED_SPARSE):
        corner = _place(rng, grid, 1, 1, 0, avoid=keep_free)
        if corner is not None:
            _fill(grid, corner, 1, 1, frozenset(rng.choice(WALLED_SYMBOLS)))
    return grid


def walled(seed: int):
    for i in count():
        rng = random.Random(f"walled:{seed}:{i}")
        grid = walled_map(rng)
        family = WALLED_FAMILIES[i % len(WALLED_FAMILIES)]
        s, t = rng.sample(WALLED_SYMBOLS, 2)
        formula = {
            "F s": ("F", ap(s)),
            "F s & F t": conj(("F", ap(s)), ("F", ap(t))),
            "F (s & F t)": _sequence([frozenset(s), frozenset(t)]),
            "G F s": ("G", ("F", ap(s))),
            "F z": ("F", ap(WALLED_BEACON)),
        }[family]
        mapfile = MapFile(f"walled-{i}.txt", grid, grid.to_ascii())
        yield Op(i, "run", mapfile, "primitive", family, formula)


# ---------------------------------------------------------------------------
# rooms: a few 64x64 open rooms, each serving many ops.
#
# Why: cell-level minimum-violation search (execute_plan and unsafe_report)
# dominates, with the map reused across ops.  Runs of F^2-F^3 object
# sequences and G F^2 patrols are followed by a check of a stored trace
# against a different formula, so the ltl layer also accepts traces, not
# only compiles goals.  A round is four runs and one check: five ops, so the
# median op falls inside the runs' cost range rather than on its edge.

ROOMS_SIDE = 64
ROOMS_COUNT = 9  # coprime with the 4 runs per round, so every room meets every family
ROOMS_COLORS = ("red", "blue", "green", "yellow", "white")
ROOMS_SHAPES = ("square", "circle", "triangle", "star")
ROOMS_BLOCKS = 14
ROOMS_FAMILIES = ("F^2", "F^3", "G F^2", "F^3")
ROOMS_CHECKED = ("F^2",)  # runs whose trace is then checked


def rooms_map(rng: random.Random, side: int = ROOMS_SIDE) -> Grid:
    grid = Grid(side, side)
    for _ in range(ROOMS_BLOCKS):
        w, h = rng.randint(2, 8), rng.randint(2, 8)
        corner = _place(rng, grid, w, h, 2)
        if corner is not None:
            _fill(grid, corner, w, h, None)
    for color in ROOMS_COLORS:
        for shape in ROOMS_SHAPES:
            corner = _place(rng, grid, 2, 2, 2)
            if corner is not None:
                _fill(grid, corner, 2, 2, frozenset({color, shape}))
    # Runs start from the free cell nearest the center, so a room's cost varies
    # with where its objects are, not with a random start in a corner.
    free = [(x, y) for y in range(side) for x in range(side)
            if grid.free((x, y)) and not grid.label((x, y))]
    mid = side // 2
    grid.start = min(free, key=lambda c: abs(c[0] - mid) + abs(c[1] - mid))
    return grid


def _object(labels: frozenset[str]) -> Formula:
    return conj(*(ap(name) for name in sorted(labels)))


def _sequence(objects: list[frozenset[str]]) -> Formula:
    """F (o1 & F (o2 & F o3)): visit the objects in this order."""
    f = ("F", _object(objects[-1]))
    for obj in reversed(objects[:-1]):
        f = ("F", ("and", _object(obj), f))
    return f


def _patrol(objects: list[frozenset[str]]) -> Formula:
    return conj(*(("G", ("F", _object(obj))) for obj in objects))


def rooms(seed: int):
    """Rounds of four runs (F^2, F^3, G F^2, F^3); the F^2 run is followed by a check."""
    maps = []
    for r in range(ROOMS_COUNT):
        grid = rooms_map(random.Random(f"rooms:{seed}:room{r}"))
        maps.append(MapFile(f"room-{r}.json", grid, grid.to_json()))
    index = count()
    for r in count():
        rng = random.Random(f"rooms:{seed}:{r}")
        for j, family in enumerate(ROOMS_FAMILIES):
            mapfile = maps[(r * len(ROOMS_FAMILIES) + j) % ROOMS_COUNT]
            objects = sorted(set(mapfile.grid.labels.values()), key=sorted)
            if family == "G F^2":
                formula = _patrol(rng.sample(objects, 2))
            else:
                formula = _sequence(rng.sample(objects, int(family[-1])))
            run = Op(next(index), "run", mapfile, "composite", family, formula)
            yield run
            if family in ROOMS_CHECKED:
                formula = _sequence(rng.sample(objects, rng.randint(1, 2)))
                yield Op(next(index), "check", mapfile, "composite", "check", formula, run.index)


# ---------------------------------------------------------------------------
# goals: small rooms, large formulas.
#
# Why: to_buchi (55-75% of the op) and build_product dominate; the grid
# layers take under 5%.  This is the workload for the ltl and product
# layers: F^k, G F^k and !a U b chains at k = 4-5 over unique objects.

GOALS_SIDE = 24
GOALS_COUNT = 5  # coprime with the 9 ops per round, so every map meets every family
GOALS_SYMBOLS = "abcdefghij"
# Nine ops per round, G F^4 three times and F^5 twice, so the median op falls
# in the middle of the G F^4 cost cluster rather than on the edge of one.
GOALS_FAMILIES = ("F^4", "F^5", "G F^4", "U^4", "G F^4", "F^5", "G F^5", "G F^4", "U^5")


def goals_map(rng: random.Random, side: int = GOALS_SIDE) -> Grid:
    grid = Grid(side, side)
    for _ in range(4):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        corner = _place(rng, grid, w, h, 2)
        if corner is not None:
            _fill(grid, corner, w, h, None)
    for symbol in GOALS_SYMBOLS:
        corner = _place(rng, grid, 2, 2, 1)
        if corner is not None:
            _fill(grid, corner, 2, 2, frozenset(symbol))
    while True:
        cell = (rng.randrange(side), rng.randrange(side))
        if grid.free(cell) and not grid.label(cell):
            grid.start = cell
            return grid


def goals(seed: int):
    maps = []
    for r in range(GOALS_COUNT):
        grid = goals_map(random.Random(f"goals:{seed}:room{r}"))
        maps.append(MapFile(f"goals-{r}.json", grid, grid.to_json()))
    for i in count():
        rng = random.Random(f"goals:{seed}:{i}")
        mapfile = maps[i % GOALS_COUNT]
        family = GOALS_FAMILIES[i % len(GOALS_FAMILIES)]
        k = int(family[-1])
        symbols = sorted({next(iter(l)) for l in mapfile.grid.labels.values()})
        if family.startswith("U"):
            chain = rng.sample(symbols, k + 1)
            formula = conj(*(("U", ("not", a), ap(b)) for a, b in zip(chain, chain[1:])))
        else:
            picked = rng.sample(symbols, k)
            eventually = [("F", ap(s)) for s in picked]
            formula = conj(*(("G", f) for f in eventually)) if family.startswith("G") else conj(*eventually)
        yield Op(i, "run", mapfile, "primitive", family, formula)


WORKLOADS = {"walled": walled, "rooms": rooms, "goals": goals}

# Ops per round of each workload's fixed family mix.  Runs stop on a round
# boundary, so every run holds the families in the same proportions.
ROUND = {"walled": len(WALLED_FAMILIES), "rooms": len(ROOMS_FAMILIES) + len(ROOMS_CHECKED),
         "goals": len(GOALS_FAMILIES)}


# Nominal op time of one round, in seconds, on the 2-core x86-64 machine the
# benchmark was tuned on (CPython 3.11).  A run's size is round(seconds /
# ROUND_S) rounds: it depends on --seconds and nothing else, so every run with
# the same seed attempts the same ops and fails the same ones, however fast
# the machine happens to be.
ROUND_S = {"walled": 2.6, "rooms": 0.8, "goals": 1.25}
MIN_ROUNDS = 3  # a traced run needs a warm-up, a traced and an untraced round


def rounds(workload: str, seconds: float) -> int:
    """Rounds in a run of ``seconds`` nominal seconds."""
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def take(workload: str, seed: int, n: int) -> list[Op]:
    return list(islice(WORKLOADS[workload](seed), n))
