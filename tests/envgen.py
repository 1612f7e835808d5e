"""Random generators and independent oracles shared by the test suite.

Everything here is deliberately written from first principles rather than
by calling the code under test: brute-force breadth-first searches,
exhaustive walk enumeration, and budget-bounded path search act as
reference answers for the fast implementations in the package.  The
set-based tableau that the bitset Büchi construction replaced stays as its
byte-for-byte reference, and the heap Dijkstra that the minimum-violation
search (``mvpolicy.mv_path``, bitsets with a bucket-queue fallback)
replaced stays as its tie-order reference.  The document readers
and the ASCII renderer serve round-trip tests only, so they live here
rather than in the package.  The opcode counter at the end measures work
for the growth contracts without a clock.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from collections import deque

from ltlplan.gridworld import (
    ASCII_FREE,
    ASCII_OBSTACLE,
    GridMap,
    bfs_tree,
    extract_regions,
    tree_path,
)
from ltlplan.ltl import (
    And,
    Atom,
    BuchiAutomaton,
    Eventually,
    Always,
    Guard,
    LtlFormula,
    LtlParseError,
    NotAtom,
    Or,
    Top,
    Until,
    to_text,
)
from ltlplan.mvpolicy import GridMasks, UnreachableTargetError, mv_path, parse_policy
from ltlplan.product import PAState, ProductAutomaton
from ltlplan.tsys import COMPOSITE, EMPTY_LABEL, PRIMITIVE, TransitionSystem

ATOMS = ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Grid environments


def grid_map(width: int, height: int, labels: dict, obstacles=frozenset()) -> GridMap:
    """A map from a ``(x, y) -> label set`` dict and a set of obstacle cells."""
    return grid_from_cells(
        width,
        height,
        [
            None if (x, y) in obstacles else labels.get((x, y), frozenset())
            for y in range(height)
            for x in range(width)
        ],
    )


def grid_from_cells(width: int, height: int, cells, start=None) -> GridMap:
    """A map from its row-major per-cell label sets, ``None`` marking an obstacle.

    Label sets are numbered by value in row-major order of each set's first
    cell, as the parsers number them, so equal sets share one code however
    many distinct objects hold them.
    """
    labelsets = (None, *dict.fromkeys(ls for ls in cells if ls is not None))
    code = {labelset: chr(i) for i, labelset in enumerate(labelsets)}
    return GridMap(width, height, "".join(code[ls] for ls in cells), labelsets, start)


def cell_labels(grid: GridMap) -> list:
    """The map's row-major per-cell label sets, ``None`` marking an obstacle."""
    return [grid.labelsets[ord(code)] for code in grid.codes]


# Draws a retrying generator may make before it raises: a wrong
# ``extract_regions`` then fails a test instead of hanging the suite.
MAX_ATTEMPTS = 100


def sea_with_islands(rng: random.Random, max_side: int = 12, max_symbols: int = 4) -> GridMap:
    """A connected unlabeled "sea" with pairwise non-adjacent labeled islands.

    Each island is a single-symbol rectangle separated from every other
    island by at least one sea cell; obstacles may pepper the sea as long
    as it stays one connected region.  Raises ``RuntimeError`` after
    ``MAX_ATTEMPTS`` rejected draws.
    """
    for _ in range(MAX_ATTEMPTS):
        w, h = rng.randint(5, max_side), rng.randint(5, max_side)
        symbols = "abcd"[: rng.randint(1, max_symbols)]
        labels: dict[tuple[int, int], frozenset[str]] = {}
        reserved: set[tuple[int, int]] = set()
        islands = 0
        for _ in range(rng.randint(1, 6)):
            sym = rng.choice(symbols)
            iw, ih = rng.randint(1, 3), rng.randint(1, 3)
            if iw > w - 2 or ih > h - 2:
                continue
            x0, y0 = rng.randint(0, w - iw), rng.randint(0, h - ih)
            cells = {(x, y) for x in range(x0, x0 + iw) for y in range(y0, y0 + ih)}
            halo = {
                (x + dx, y + dy)
                for (x, y) in cells
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
            }
            if halo & reserved:
                continue
            reserved |= halo
            islands += 1
            for cell in cells:
                labels[cell] = frozenset({sym})
        if not islands:
            continue
        obstacles = set()
        for _ in range(rng.randint(0, (w * h) // 12)):
            cell = (rng.randint(0, w - 1), rng.randint(0, h - 1))
            if cell not in labels:
                obstacles.add(cell)
        grid = grid_map(w, h, labels, obstacles)
        regions, adjacency = extract_regions(grid)
        seas = [r for r in regions if not r.label]
        if len(seas) != 1:
            continue
        if any(
            regions[n].label for r in regions if r.label for n in adjacency[r.id]
        ):
            continue
        try:
            grid.resolved_start()
        except Exception:
            continue
        return grid
    raise RuntimeError(f"no sea-with-islands map in {MAX_ATTEMPTS} attempts")


def harsh_map(rng: random.Random, max_side: int = 12) -> GridMap | None:
    """Arbitrary labeled map: multi-symbol cells, touching regions, obstacles."""
    w, h = rng.randint(3, max_side), rng.randint(3, max_side)
    labels: dict[tuple[int, int], frozenset[str]] = {}
    obstacles: set[tuple[int, int]] = set()
    for x in range(w):
        for y in range(h):
            roll = rng.random()
            if roll < 0.15:
                obstacles.add((x, y))
            elif roll < 0.55:
                labels[(x, y)] = frozenset(rng.sample("abcd", rng.randint(1, 2)))
    grid = grid_map(w, h, labels, obstacles)
    if not extract_regions(grid)[0]:
        return None
    return grid


def walled_hub_map(rng: random.Random, side: int = 32) -> GridMap:
    """One large unlabeled hub cut by gapped walls, dotted with labeled islands.

    Every sixth row is an obstacle wall with ~10% gaps; 2x2 and single-cell
    islands of one symbol each may touch one another and the walls.
    """
    obstacles = {
        (x, y) for y in range(5, side - 1, 6) for x in range(side) if rng.random() >= 0.1
    }
    labels: dict[tuple[int, int], frozenset[str]] = {}
    for _ in range(side * side // 8):
        size = rng.choice((1, 2))
        x0, y0 = rng.randrange(side - size + 1), rng.randrange(side - size + 1)
        block = {(x, y) for x in range(x0, x0 + size) for y in range(y0, y0 + size)}
        if block & obstacles or (0, 0) in block:
            continue
        symbol = frozenset(rng.choice("abcdefgh"))
        for cell in block:
            labels[cell] = symbol
    return grid_map(side, side, labels, obstacles)


def random_grid(rng: random.Random, width: int, height: int) -> GridMap:
    """Any-shape map over two symbols, dense enough that equal labels touch often."""
    labels: dict[tuple[int, int], frozenset[str]] = {}
    obstacles: set[tuple[int, int]] = set()
    for y in range(height):
        for x in range(width):
            roll = rng.random()
            if roll < 0.1:
                obstacles.add((x, y))
            elif roll < 0.7:
                labels[(x, y)] = frozenset(rng.choice(("a", "b", "ab")))
    return grid_map(width, height, labels, obstacles)


# ---------------------------------------------------------------------------
# Formulas and lasso words


def random_formula(rng: random.Random, size: int, atoms: list[str] = ATOMS):
    if size <= 1:
        if rng.random() < 0.1:
            return Top()
        name = rng.choice(atoms)
        return NotAtom(name) if rng.random() < 0.4 else Atom(name)
    op = rng.choice(["and", "or", "until", "ev", "alw", "ev", "alw", "until"])
    if op == "ev":
        return Eventually(random_formula(rng, size - 1, atoms))
    if op == "alw":
        return Always(random_formula(rng, size - 1, atoms))
    left_size = rng.randint(1, size - 1)
    left = random_formula(rng, left_size, atoms)
    right = random_formula(rng, max(size - 1 - left_size, 1), atoms)
    return {"and": And, "or": Or, "until": Until}[op](left, right)


def random_letter(rng: random.Random, atoms: list[str] = ATOMS) -> frozenset[str]:
    return frozenset(a for a in atoms if rng.random() < 0.35)


def random_lasso(
    rng: random.Random, atoms: list[str] = ATOMS, max_prefix: int = 4, max_cycle: int = 4
) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
    prefix = [random_letter(rng, atoms) for _ in range(rng.randint(0, max_prefix))]
    cycle = [random_letter(rng, atoms) for _ in range(rng.randint(1, max_cycle))]
    return prefix, cycle


# ---------------------------------------------------------------------------
# Independent oracles


def floyd_warshall_hops(order, graph) -> dict[tuple[int, int], float]:
    """All-pairs hop distances by dynamic programming (reference answer)."""
    inf = float("inf")
    dist = {(a, b): (0 if a == b else inf) for a in order for b in order}
    for a in order:
        for b in graph.get(a, ()):
            dist[(a, b)] = min(dist[(a, b)], 1)  # a self-loop keeps (a, a) at 0
    for k in order:
        for a in order:
            for b in order:
                via = dist[(a, k)] + dist[(k, b)]
                if via < dist[(a, b)]:
                    dist[(a, b)] = via
    return dist


def neighbors4(grid: GridMap, cell) -> list[tuple[int, int]]:
    """On-map, non-obstacle cardinal neighbours in up, down, left, right order."""
    x, y = cell
    return [
        (nx, ny)
        for (nx, ny) in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y))
        if grid.is_free((nx, ny))
    ]


def count_violations(index, path, policy) -> int:
    """Entries along ``path`` into a labeled region that ``policy`` does not accept.

    An entry is a step whose region id differs from the previous cell's.
    """
    count = 0
    for before, after in zip(path, path[1:]):
        region, labels = index[after]
        accepted = policy.positives <= labels and not (policy.negatives & labels)
        if region != index[before][0] and labels and not accepted:
            count += 1
    return count


def oracle_mv_cost(grid: GridMap, start, policy, index, max_violations: int = 60):
    """Best (violations, steps) over all paths, by budgeted breadth-first search.

    Iterates violation budgets from zero upward; within one budget a BFS over
    (cell, violations-used) states minimizes steps, so the first hit is the
    lexicographic minimum of (violations, steps).  Returns None when no
    satisfying region is reachable.
    """
    if policy.satisfied_by(index[start][1]):
        return (0, 0)
    for budget in range(max_violations + 1):
        first = (start, 0)
        depth = {first: 0}
        queue = deque([first])
        while queue:
            state = queue.popleft()
            cell, used = state
            for neighbor in neighbors4(grid, cell):
                nregion, nlabels = index[neighbor]
                bump = int(
                    nregion != index[cell][0]
                    and bool(nlabels)
                    and not policy.satisfied_by(nlabels)
                )
                nused = used + bump
                if nused > budget:
                    continue
                nstate = (neighbor, nused)
                if nstate in depth:
                    continue
                depth[nstate] = depth[state] + 1
                if policy.satisfied_by(nlabels):
                    return (nused, depth[nstate])
                queue.append(nstate)
    return None


def map_symbols(grid: GridMap) -> frozenset[str]:
    """Every symbol on the map: the union of its regions' labels."""
    return frozenset().union(*(region.label for region in extract_regions(grid)[0]))


def cell_label(grid: GridMap, cell: tuple[int, int]) -> frozenset[str]:
    """The cell's label set; empty for an obstacle or a cell off the map."""
    x, y = cell
    if not grid.is_free(cell):
        return frozenset()
    return grid.labelsets[ord(grid.codes[y * grid.width + x])]


def region_cells(region) -> frozenset[tuple[int, int]]:
    """A region's cells, expanded from its row runs."""
    return frozenset((x, y) for y, start, stop in region.runs for x in range(start, stop))


def reference_region_index(regions) -> dict:
    """The cell index as a plain dict: cell -> (region id, region label set)."""
    return {
        cell: (region.id, region.label) for region in regions for cell in region_cells(region)
    }


def reference_masks(index) -> GridMasks | None:
    """``GridMasks.build`` cell by cell, from the index's regions rather than the map's codes.

    Each cell takes the code of its region's label set, numbered from 1 in
    order of first appearance; ``None`` past 255 label sets.
    """
    label_code: dict[frozenset[str], int] = {}
    code_of = [label_code.setdefault(ls, len(label_code) + 1) for ls in index.labels_of]
    if len(label_code) > 255:
        return None
    cells = bytes(0 if rid < 0 else code_of[rid] for rid in index.region_of)
    labels, stride = list(label_code), index.stride

    def bitset(holds) -> int:  # bit i is cell i
        bits = ["1" if code and holds(i, code) else "0" for i, code in enumerate(cells)]
        return int("".join(reversed(bits)), 2)

    return GridMasks(
        bitset(lambda i, code: True),
        bitset(lambda i, code: not labels[code - 1]),
        bitset(lambda i, code: i >= stride and cells[i - stride] == code),
        bitset(lambda i, code: i >= 1 and cells[i - 1] == code),
        cells[::-1],
        labels,
        {},
    )


def reference_mv_path(start, policy, index) -> tuple[int, list]:
    """Heap-ordered lexicographic Dijkstra, ``mv_path``'s tie-order reference.

    ``index`` is a ``reference_region_index`` dict.  Pops run in
    (violations, steps, push order) order, neighbours are pushed up, down,
    left, right, and a cell settles when first popped, so equal-cost ties
    go to the cell pushed first.  Returns ``(violations, path)``.
    """
    if start not in index:
        raise ValueError(f"start cell {start} is not passable")
    if policy.satisfied_by(index[start][1]):
        return 0, [start]

    tick = 0
    heap = [(0, 0, tick, start, None)]
    parent = {}  # keys are the settled cells

    while heap:
        violations, steps, _, cell, came_from = heapq.heappop(heap)
        if cell in parent:
            continue
        parent[cell] = came_from
        region, labels = index[cell]
        if policy.satisfied_by(labels):
            return violations, tree_path(parent, cell)
        x, y = cell
        for neighbor in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y)):
            entry = index.get(neighbor)
            if entry is None or neighbor in parent:
                continue
            nregion, nlabels = entry
            bump = int(nregion != region and bool(nlabels) and not policy.satisfied_by(nlabels))
            tick += 1
            heapq.heappush(heap, (violations + bump, steps + 1, tick, neighbor, cell))

    raise UnreachableTargetError(f"no reachable region satisfies policy {policy.format()!r}")


def reference_unsafe_report(trace) -> dict:
    """``unsafe_report`` by one filter over the whole word per segment."""
    entries = []
    for seg_idx, seg in enumerate(trace.segments):
        policy = parse_policy(seg.symbol)
        in_segment = [
            (letter, cell_idx)
            for letter, cell_idx in zip(trace.word, trace.word_cells)
            if seg.start < cell_idx <= seg.end
        ]
        for letter, cell_idx in in_segment[:-1]:
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


def first_region_change(start, policy, index) -> int | None:
    """Region id of the first boundary the executor's ``mv_path`` crosses.

    Unlike the oracles above this reads the executor itself: it answers
    which region a policy really enters first, for checking the abstract
    transitions against.  ``None`` when the start region already satisfies
    the policy (the path never leaves it).
    """
    _, path = mv_path(start, policy, index)
    start_region = index[start][0]
    for cell in path[1:]:
        region = index[cell][0]
        if region != start_region:
            return region
    return None


def random_product(rng: random.Random, max_states: int = 40) -> ProductAutomaton:
    """A synthetic product automaton with random edges and marker sets."""
    n = rng.randint(2, max_states)
    states: list[PAState] = [(i, f"b{i}") for i in range(n)]
    pool = ["a", "b", "c", "d"]
    edges: dict[tuple[PAState, PAState], list[str]] = {}
    successors: dict[PAState, list[PAState]] = {}
    for src in states:
        row = []
        for dst in rng.sample(states, k=min(n, rng.randint(0, 3))):
            if dst == src and rng.random() < 0.5:
                continue
            edges[(src, dst)] = sorted(rng.sample(pool, rng.randint(1, 2)))
            row.append(dst)
        successors[src] = row
    return ProductAutomaton(
        states=states,
        initial=states[: rng.randint(1, 2)],
        accepting=frozenset(s for s in states if rng.random() < 0.15),
        stoppable=frozenset(s for s in states if rng.random() < 0.08),
        edges=edges,
        successors=successors,
    )


def brute_min_lasso(pa: ProductAutomaton, cap: int) -> int | None:
    """Shortest plan length by exhaustive walk enumeration up to ``cap`` edges.

    A walk w0..wl counts when wl is stoppable, or wl revisits an earlier
    accepting position (prefix to it plus the cycle back).  Walks may revisit
    states, so this is a genuinely exhaustive reference, not a graph search.
    """
    level = [(s, (s,)) for s in pa.initial]
    for length in range(cap + 1):
        for last, walk in level:
            if last in pa.stoppable:
                return length
            if last in pa.accepting and walk.count(last) > 1:
                return length
        bigger = []
        for last, walk in level:
            for nxt in pa.successors[last]:
                bigger.append((nxt, walk + (nxt,)))
        if not bigger:
            return None
        level = bigger
    return None


def brute_min_any_lasso(pa: ProductAutomaton, cap: int) -> int | None:
    """``brute_min_lasso`` over every lasso, not only those closing on an accepting state.

    A walk w0..wl counts when wl is stoppable, or when wl == wi for some
    i < l and some state of wi..wl is accepting.
    """
    level = [(s,) for s in pa.initial]
    for length in range(cap + 1):
        for walk in level:
            last = walk[-1]
            if last in pa.stoppable or any(
                walk[i] == last and not pa.accepting.isdisjoint(walk[i:]) for i in range(length)
            ):
                return length
        level = [walk + (nxt,) for walk in level for nxt in pa.successors[walk[-1]]]
        if not level:
            return None
    return None


def brute_least_lasso(pa: ProductAutomaton, cap: int) -> tuple[int, tuple[str, ...]] | None:
    """``brute_min_lasso``'s length with the least symbol tuple among its walks.

    A walk reads each edge's first symbol, as ``find_plan`` does, and a
    lasso's tuple is its prefix followed by its cycle.
    """
    level = [(s, (s,), ()) for s in pa.initial]
    for length in range(cap + 1):
        done = [
            word for last, walk, word in level
            if last in pa.stoppable or (last in pa.accepting and walk.count(last) > 1)
        ]
        if done:
            return length, min(done)
        level = [
            (nxt, walk + (nxt,), word + (pa.edges[(last, nxt)][0],))
            for last, walk, word in level
            for nxt in pa.successors[last]
        ]
        if not level:
            return None
    return None


def reference_plan_lasso(start, prefix, cycle, index) -> tuple[list, list]:
    """The label lasso of the whole run a cyclic plan defines.

    Runs ``prefix`` from ``start``, then repeats ``cycle`` until a
    repetition starts on a cell where an earlier one started: each
    ``mv_path`` search depends only on its start cell and symbol, so the
    run repeats from that earlier start forever.  Returns the letters of
    the regions entered up to it and those entered in one period (the
    empty letter when the period enters none, as the robot then parks).
    """
    cells = [start]

    def execute(symbols) -> None:
        for symbol in symbols:
            cells.extend(mv_path(cells[-1], parse_policy(symbol), index)[1][1:])

    def letters(path, previous) -> list:
        word = []
        for cell in path:
            region, labels = index[cell]
            if region != previous:
                word.append(labels)
                previous = region
        return word

    execute(prefix)
    started: dict = {}
    while cells[-1] not in started:
        started[cells[-1]] = len(cells) - 1
        execute(cycle)
    loop = started[cells[-1]]
    period = letters(cells[loop + 1 :], index[cells[loop]][0])
    return letters(cells[: loop + 1], None), period or [frozenset()]


def reference_regions(grid: GridMap):
    """Regions and adjacency by union-find over equally-labeled 4-neighbours.

    Returns ``(id, cells, label)`` per region, ids in row-major order of each
    region's topmost-leftmost cell, and the sorted neighbour ids per region.
    """
    label = {
        (x, y): cell_label(grid, (x, y))
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.is_free((x, y))
    }
    root = {cell: cell for cell in label}

    def find(cell):
        while root[cell] != cell:
            root[cell] = root[root[cell]]
            cell = root[cell]
        return cell

    for (x, y) in label:
        for other in ((x + 1, y), (x, y + 1)):
            if other in label and label[other] == label[(x, y)]:
                root[find(other)] = find((x, y))
    members: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for cell in label:  # row-major, so each list starts with its anchor
        members.setdefault(find(cell), []).append(cell)
    regions = [
        (rid, frozenset(cells), label[cells[0]]) for rid, cells in enumerate(members.values())
    ]
    region_of = {cell: rid for rid, cells, _ in regions for cell in cells}
    adjacency: dict[int, set[int]] = {rid: set() for rid, _, _ in regions}
    for (x, y), rid in region_of.items():
        for other in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if other in region_of and region_of[other] != rid:
                adjacency[rid].add(region_of[other])
    return regions, {rid: tuple(sorted(adj)) for rid, adj in adjacency.items()}


def reference_ts_labels(ts: TransitionSystem) -> dict[tuple[int, int], set[str]]:
    """Progress labels by one breadth-first search per state (reference answer).

    State ``x`` adds its task symbols, or the empty-label sentinel when
    unlabeled, to every transition ``(start, end)`` whose ``start`` is
    strictly more undirected hops from ``x`` than ``end`` is.  Symbols the
    transitions already carry are kept.
    """
    undirected: dict[int, set[int]] = {s: set() for s in ts.order}
    for (a, b) in ts.transitions:
        undirected[a].add(b)
        undirected[b].add(a)
    labels = {edge: set(symbols) for edge, symbols in ts.transitions.items()}
    for x in ts.order:
        hops = {x: 0}
        queue = deque([x])
        while queue:
            node = queue.popleft()
            for nxt in undirected[node]:
                if nxt not in hops:
                    hops[nxt] = hops[node] + 1
                    queue.append(nxt)
        own = ts.labels[x]
        if not own:
            contributed = {EMPTY_LABEL}
        elif ts.mode == COMPOSITE:
            contributed = {"&".join(sorted(own))}
        else:
            contributed = set(own)
        for (start, end), symbols in labels.items():
            if start in hops and hops[start] > hops[end]:
                symbols |= contributed
    return labels


def ts_alphabet(ts: TransitionSystem) -> frozenset[str]:
    """All task symbols any state of ``ts`` can complete."""
    return frozenset().union(*(ts.task_symbols_of_state(s) for s in ts.order))


def reference_product(ts: TransitionSystem, aut: BuchiAutomaton) -> dict:
    """``build_product(ts, aut).to_document()`` by a plain breadth-first search.

    Guards are read off ``aut.transitions`` with a literal check of their
    own, and stoppable states come from a naive reachability fixpoint over
    the automaton edges that admit the empty letter.
    """

    def admits(guard: Guard, letter: frozenset[str]) -> bool:
        return all(name in letter for name in guard.positives) and not any(
            name in letter for name in guard.negatives
        )

    ts_rank = {s: i for i, s in enumerate(ts.order)}
    aut_rank = {q: i for i, q in enumerate(aut.order)}
    ts_out: dict[int, list[int]] = {s: [] for s in ts.order}
    for src, dst in ts.transitions:
        ts_out[src].append(dst)
    aut_out: dict[str, list[tuple[str, Guard]]] = {q: [] for q in aut.order}
    for (src, dst), guard in aut.transitions.items():
        aut_out[src].append((dst, guard))
    for targets in ts_out.values():
        targets.sort(key=ts_rank.__getitem__)
    for pairs in aut_out.values():
        pairs.sort(key=lambda pair: aut_rank[pair[0]])

    def aut_next(q: str, letter: frozenset[str]) -> list[str]:
        return [dst for dst, guard in aut_out[q] if admits(guard, letter)]

    initial = [(ts.initial, q) for q in aut_next(aut.initial, ts.labels[ts.initial])]
    states = list(initial)
    seen = set(initial)
    queue = deque(initial)
    rows = []
    while queue:
        src = queue.popleft()
        s, q = src
        for t in ts_out[s]:
            for q2 in aut_next(q, ts.labels[t]):
                dst = (t, q2)
                rows.append((src, dst, sorted(ts.transitions[(s, t)])))
                if dst not in seen:
                    seen.add(dst)
                    states.append(dst)
                    queue.append(dst)

    # States reachable in one or more empty-letter steps, grown to a fixpoint.
    reach = {q: set(aut_next(q, frozenset())) for q in aut.order}
    changed = True
    while changed:
        changed = False
        for q in aut.order:
            more = set().union(*(reach[r] for r in reach[q])) - reach[q]
            if more:
                reach[q] |= more
                changed = True
    live = {a for a in aut.accepting if a in reach[a]}
    parking = {q for q in aut.order if q in live or reach[q] & live}

    def name(state: PAState) -> str:
        return f"{ts.state_name(state[0])}|{state[1]}"

    return {
        "states": [name(x) for x in states],
        "initial": [name(x) for x in initial],
        "accepting": [name(x) for x in states if x[1] in aut.accepting],
        "stoppable": [name(x) for x in states if x[1] in parking],
        "transitions": [
            {"from": name(src), "to": name(dst), "symbols": symbols}
            for src, dst, symbols in rows
        ],
    }


# ---------------------------------------------------------------------------
# Reference Büchi construction


def reference_buchi(formula: LtlFormula) -> BuchiAutomaton:
    """The set-based tableau ``ltl.to_buchi`` replaced, kept as its oracle.

    Each pop picks ``min(new, key=to_text)``, so where two distinct
    subformulas render alike the result depends on set iteration order.
    """
    nodes, incoming = _reference_tableau(formula)
    eventualities = _reference_eventualities(formula)

    # Fairness sets: per eventuality, the nodes that either discharged its
    # goal now or never promised it in the first place.
    fairness: list[frozenset[str]] = []
    for ev in eventualities:
        goal = ev.right if isinstance(ev, Until) else ev.sub
        fairness.append(
            frozenset(
                nid for nid, (old, _) in nodes.items() if ev not in old or goal in old
            )
        )

    k = max(1, len(fairness))
    if not fairness:
        fairness = [frozenset(nodes)]

    guards = {
        nid: Guard(
            frozenset(f.name for f in old if isinstance(f, Atom)),
            frozenset(f.name for f in old if isinstance(f, NotAtom)),
        )
        for nid, (old, _) in nodes.items()
    }

    # Node ids are numbered in creation order, so each list is id-sorted.
    init = "init"
    targets: dict[str, list[str]] = {}
    for nid in nodes:
        for src in incoming[nid]:
            targets.setdefault(src, []).append(nid)

    def advance(src: str, counter: int) -> int:
        if src != init and src in fairness[counter - 1]:
            return counter % k + 1
        return counter

    product_edges: list[tuple[tuple[str, int], tuple[str, int], Guard]] = []

    def expand(src_state: tuple[str, int]) -> list[tuple[str, int]]:
        src, counter = src_state
        nxt = advance(src, counter)
        out = [(nid, nxt) for nid in targets.get(src, ())]
        product_edges.extend((src_state, dst, guards[dst[0]]) for dst in out)
        return out

    start = (init, 1)
    reachable = list(bfs_tree([start], expand))
    names = {state: f"b{i}" for i, state in enumerate(reachable)}
    accepting = frozenset(
        names[(nid, counter)]
        for (nid, counter) in reachable
        if counter == 1 and nid != init and nid in fairness[0]
    )
    transitions: dict[tuple[str, str], Guard] = {}
    for src_state, dst_state, guard in product_edges:
        edge = (names[src_state], names[dst_state])
        assert edge not in transitions, f"edge {edge} repeats"
        transitions[edge] = guard
    return BuchiAutomaton(
        order=[names[s] for s in reachable],
        initial=names[start],
        accepting=accepting,
        transitions=transitions,
    )


def _reference_eventualities(formula: LtlFormula) -> list[LtlFormula]:
    found: dict[LtlFormula, None] = {}

    def walk(f: LtlFormula) -> None:
        match f:
            case Until(left, right):
                found.setdefault(f)
                walk(left)
                walk(right)
            case Eventually(sub):
                found.setdefault(f)
                walk(sub)
            case And(left, right) | Or(left, right):
                walk(left)
                walk(right)
            case Always(sub):
                walk(sub)

    walk(formula)
    return sorted(found, key=to_text)


def _reference_tableau(
    formula: LtlFormula,
) -> tuple[dict[str, tuple[frozenset, frozenset]], dict[str, set[str]]]:
    """Split formulas into tableau nodes keyed by their (now, next) obligations."""
    by_key: dict[tuple[frozenset, frozenset], str] = {}
    nodes: dict[str, tuple[frozenset, frozenset]] = {}
    incoming: dict[str, set[str]] = {}
    pending = [({"init"}, {formula}, set(), set())]

    while pending:
        inc, new, old, nxt = pending.pop()
        if not new:
            key = (frozenset(old), frozenset(nxt))
            nid = by_key.get(key)
            if nid is not None:
                incoming[nid] |= inc
                continue
            nid = f"n{len(by_key)}"
            by_key[key] = nid
            nodes[nid] = key
            incoming[nid] = set(inc)
            pending.append(({nid}, set(key[1]), set(), set()))
            continue

        eta = min(new, key=to_text)
        new = new - {eta}
        match eta:
            case Top():
                pending.append((inc, new, old | {eta}, nxt))
            case Atom(name):
                if NotAtom(name) not in old:
                    pending.append((inc, new, old | {eta}, nxt))
            case NotAtom(name):
                if Atom(name) not in old:
                    pending.append((inc, new, old | {eta}, nxt))
            case And(left, right):
                pending.append((inc, new | ({left, right} - old), old | {eta}, nxt))
            case Or(left, right):
                pending.append((inc, new | ({left} - old), old | {eta}, nxt))
                pending.append((inc, new | ({right} - old), old | {eta}, nxt))
            case Until(left, right):
                pending.append((inc, new | ({left} - old), old | {eta}, nxt | {eta}))
                pending.append((inc, new | ({right} - old), old | {eta}, nxt))
            case Eventually(sub):
                pending.append((inc, set(new), old | {eta}, nxt | {eta}))
                pending.append((inc, new | ({sub} - old), old | {eta}, nxt))
            case Always(sub):
                pending.append((inc, new | ({sub} - old), old | {eta}, nxt | {eta}))
    return nodes, incoming


# ---------------------------------------------------------------------------
# Document readers and rendering, for round-trip tests


def to_ascii(grid: GridMap) -> str:
    """Render a map as ASCII art; multi-symbol cells show as '?'."""
    rows = []
    for y in range(grid.height):
        row = []
        for x in range(grid.width):
            if not grid.is_free((x, y)):
                row.append(ASCII_OBSTACLE)
                continue
            labelset = cell_label(grid, (x, y))
            if not labelset:
                row.append(ASCII_FREE)
            elif len(labelset) == 1 and len(next(iter(labelset))) == 1:
                row.append(next(iter(labelset)))
            else:
                row.append("?")
        rows.append("".join(row))
    return "\n".join(rows)


def map_document(grid: GridMap) -> dict:
    """The structured JSON document that ``parse_map`` reads back as ``grid``."""
    w, cells = grid.width, cell_labels(grid)
    doc = {
        "width": w,
        "height": grid.height,
        "cells": [
            {"x": i % w, "y": i // w, "labels": sorted(labelset)}
            for i, labelset in enumerate(cells)
            if labelset
        ],
        "obstacles": [
            {"x": i % w, "y": i // w} for i, labelset in enumerate(cells) if labelset is None
        ],
    }
    if grid.start is not None:
        doc["start"] = {"x": grid.start[0], "y": grid.start[1]}
    return doc


def _parse_state_name(name: str) -> int:
    if not name.startswith("q") or not name[1:].isdigit():
        raise ValueError(f"state id must look like 'q3', got {name!r}")
    return int(name[1:])


def ts_from_document(doc: dict) -> TransitionSystem:
    """Rebuild a transition system from ``TransitionSystem.to_document`` output."""
    order: list[int] = []
    labels: dict[int, frozenset[str]] = {}
    for entry in doc["states"]:
        state = _parse_state_name(entry["id"])
        order.append(state)
        labels[state] = frozenset(entry["label"])
    transitions: dict[tuple[int, int], set[str]] = {}
    for entry in doc["transitions"]:
        edge = (_parse_state_name(entry["from"]), _parse_state_name(entry["to"]))
        transitions[edge] = set(entry["label"])
    return TransitionSystem(
        order=order,
        labels=labels,
        transitions=transitions,
        initial=_parse_state_name(doc["initial"]),
        mode=doc.get("mode", PRIMITIVE),
    )


def parse_guard(text: str) -> Guard:
    """Read a guard back from ``Guard.format`` text: one literal conjunction."""
    if "|" in text:
        raise LtlParseError(f"a guard is one conjunction, got {text!r}")
    if text.strip() == "true":
        return Guard()
    positives, negatives = set(), set()
    for raw in text.split("&"):
        raw = raw.strip()
        if not raw:
            raise LtlParseError(f"empty literal in guard {text!r}")
        if raw.startswith("!"):
            negatives.add(raw[1:].strip())
        else:
            positives.add(raw)
    return Guard(frozenset(positives), frozenset(negatives))


def buchi_from_document(doc: dict) -> BuchiAutomaton:
    """Rebuild an automaton from ``BuchiAutomaton.to_document`` output."""
    transitions = {
        (entry["from"], entry["to"]): parse_guard(entry["guard"])
        for entry in doc["transitions"]
    }
    return BuchiAutomaton(
        order=list(doc["states"]),
        initial=doc["initial"],
        accepting=frozenset(doc["accepting"]),
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# Counted work


def count_opcodes(fn, *args) -> int:
    """Bytecodes that ``fn(*args)`` executes in Python frames of this process.

    Every frame the call opens is traced opcode by opcode; work done inside
    C functions counts as the one opcode that calls them.
    """
    count = 0

    def per_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return per_opcode

    def per_call(frame, event, arg):
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return per_opcode

    previous = sys.gettrace()
    sys.settrace(per_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def growth_exponent(sizes, counts) -> float:
    """Least-squares slope of log(count) on log(size): ``k`` when work grows as size^k."""
    xs, ys = [math.log(n) for n in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
