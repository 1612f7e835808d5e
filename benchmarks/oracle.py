"""Independent oracles for the benchmark's ops.

Nothing here imports ``ltlplan``.  The oracles work on the generator's own
map model (:class:`gen.Grid`) and formula syntax trees:

* :func:`feasible` decides with a grid search whether any walk from the
  start cell can satisfy a ``run`` goal;
* :func:`judge` classifies the CLI's exit code and output for one op,
  re-deriving the trace word from the trace cells and evaluating the goal
  on the resulting lasso with :func:`eval_lasso`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from gen import Cell, Formula, Grid, Op

EMPTY: frozenset[str] = frozenset()

# Outcomes of one op.
PLANNED = "planned"  # run: exit 0, trace verified, goal satisfied
NO_PLAN = "no-plan"  # run: exit 3 on a goal the grid oracle calls feasible
INFEASIBLE = "infeasible"  # run: exit 3 on a goal the grid oracle calls infeasible
CHECKED = "checked"  # check: verdict matches the oracle
# Failed ops.  UNSATISFIED is a run that exits 0 ("success") on a feasible goal
# with a verified trace that misses the goal, and says so: a wrong outcome,
# reported truthfully.  WRONG is an output the oracles contradict, a crash or
# an exit code outside the contract; the run's figures are then not trusted.
UNSATISFIED = "unsatisfied"
WRONG = "wrong"
FAILURES = (UNSATISFIED, WRONG)


@dataclass
class Regions:
    """Maximal 4-connected equally-labeled cell groups of one map."""

    of_cell: dict[Cell, int]
    label: list[frozenset[str]]
    adjacent: list[set[int]]


def regions(grid: Grid) -> Regions:
    of_cell: dict[Cell, int] = {}
    label: list[frozenset[str]] = []
    for y in range(grid.height):
        for x in range(grid.width):
            seed = (x, y)
            if seed in of_cell or not grid.free(seed):
                continue
            rid, here = len(label), grid.label(seed)
            label.append(here)
            of_cell[seed] = rid
            queue = deque([seed])
            while queue:
                cx, cy = queue.popleft()
                for nxt in ((cx, cy - 1), (cx, cy + 1), (cx - 1, cy), (cx + 1, cy)):
                    if nxt not in of_cell and grid.free(nxt) and grid.label(nxt) == here:
                        of_cell[nxt] = rid
                        queue.append(nxt)
    adjacent: list[set[int]] = [set() for _ in label]
    for (x, y), rid in of_cell.items():
        for other in ((x + 1, y), (x, y + 1)):
            orid = of_cell.get(other)
            if orid is not None and orid != rid:
                adjacent[rid].add(orid)
                adjacent[orid].add(rid)
    return Regions(of_cell, label, adjacent)


# ---------------------------------------------------------------------------
# LTL on lassos


def holds(f: Formula, letter: frozenset[str]) -> bool:
    """Propositional formula on one letter."""
    kind = f[0]
    if kind == "ap":
        return f[1] in letter
    if kind == "not":
        return f[1] not in letter
    if kind == "and":
        return holds(f[1], letter) and holds(f[2], letter)
    if kind == "or":
        return holds(f[1], letter) or holds(f[2], letter)
    raise ValueError(f"not propositional: {f!r}")


def eval_lasso(f: Formula, prefix: list[frozenset[str]], cycle: list[frozenset[str]]) -> bool:
    """Whether ``prefix . cycle^omega`` satisfies ``f`` at position 0."""
    if not cycle:
        raise ValueError("lasso cycle must be non-empty")
    word = list(prefix) + list(cycle)
    plen, total = len(prefix), len(prefix) + len(cycle)

    def after(i: int) -> int:
        return i + 1 if i + 1 < total else plen

    def ev(g: Formula) -> list[bool]:
        kind = g[0]
        if kind in ("ap", "not"):
            return [holds(g, letter) for letter in word]
        if kind in ("and", "or"):
            left, right = ev(g[1]), ev(g[2])
            pick = all if kind == "and" else any
            return [pick((left[i], right[i])) for i in range(total)]
        if kind == "U":
            left, right = ev(g[1]), ev(g[2])
        elif kind == "F":
            left, right = [True] * total, ev(g[1])
        elif kind == "G":
            # G g == !(true U !g)
            inner = ev(g[1])
            eventually_not = until([True] * total, [not v for v in inner])
            return [not v for v in eventually_not]
        else:
            raise ValueError(f"unknown operator {kind!r}")
        return until(left, right)

    def until(left: list[bool], right: list[bool]) -> list[bool]:
        res = [False] * total
        # Cycle positions: walk forward at most one period.
        for i in range(plen, total):
            j = i
            for _ in range(total - plen):
                if right[j]:
                    res[i] = True
                    break
                if not left[j]:
                    break
                j = after(j)
        for i in range(plen - 1, -1, -1):
            res[i] = right[i] or (left[i] and res[i + 1])
        return res

    return ev(f)[0]


# ---------------------------------------------------------------------------
# Grid feasibility


def _conjuncts(f: Formula) -> list[Formula]:
    return _conjuncts(f[1]) + _conjuncts(f[2]) if f[0] == "and" else [f]


def _sequence_targets(f: Formula) -> list[Formula]:
    """F (p & F (q & ...)) -> [p, q, ...]."""
    body = f[1]
    if body[0] == "and" and body[2][0] == "F":
        return [body[1]] + _sequence_targets(body[2])
    return [body]


def feasible(grid: Grid, f: Formula, regs: Regions | None = None) -> bool:
    """Whether some walk from the start cell yields a word satisfying ``f``.

    Covers the generated goal shapes: conjunctions of F-sequences,
    ``G F p`` patrols and ``!a U b`` links.  The walk is over regions, so
    the word has one letter per region entered, as in a trace word.
    """
    regs = regs or regions(grid)
    start = regs.of_cell[grid.resolved_start()]
    targets: list[Formula] = []
    links: list[tuple[str, Formula]] = []
    recurrent = False
    for part in _conjuncts(f):
        if part[0] == "F":
            targets.extend(_sequence_targets(part))
        elif part[0] == "G" and part[1][0] == "F":
            targets.append(part[1][1])
            recurrent = True
        elif part[0] == "U" and part[1][0] == "not":
            links.append((part[1][1], part[2]))
        else:
            raise ValueError(f"unsupported goal shape: {part!r}")

    component = {start}
    queue = deque([start])
    while queue:
        rid = queue.popleft()
        for nxt in regs.adjacent[rid]:
            if nxt not in component:
                component.add(nxt)
                queue.append(nxt)
    # In an undirected graph any reachable targets can be visited in any
    # order, and a patrol needs a second region to leave and re-enter by.
    for target in targets:
        if not any(holds(target, regs.label[rid]) for rid in component):
            return False
    if recurrent and len(component) < 2:
        return False
    return not links or _links_feasible(regs, start, links)


def _links_feasible(regs: Regions, start: int, links: list[tuple[str, Formula]]) -> bool:
    """Search (region, links done) for a walk meeting every ``!a U b`` link."""

    def enter(done: frozenset[int], letter: frozenset[str]) -> frozenset[int] | None:
        out = set(done)
        for i, (avoid, goal) in enumerate(links):
            if i in out:
                continue
            if holds(goal, letter):
                out.add(i)
            elif avoid in letter:
                return None
        return frozenset(out)

    first = enter(frozenset(), regs.label[start])
    if first is None:
        return False
    seen = {(start, first)}
    queue = deque(seen)
    while queue:
        rid, done = queue.popleft()
        if len(done) == len(links):
            return True
        for nxt in regs.adjacent[rid]:
            after = enter(done, regs.label[nxt])
            if after is not None and (nxt, after) not in seen:
                seen.add((nxt, after))
                queue.append((nxt, after))
    return False


# ---------------------------------------------------------------------------
# Output checks


class Wrong(Exception):
    """The op's output is wrong; the message says how."""


def trace_lasso(trace: dict, regs: Regions) -> tuple[list, list]:
    """Re-derive the trace word from its cells and cut it into a lasso.

    Cyclic traces use the letters of the last cycle repetition as the
    period; parking traces (no cycle) idle on the empty letter forever.
    """
    cells = [(c["x"], c["y"]) for c in trace["cells"]]
    for cell in cells:
        if cell not in regs.of_cell:
            raise Wrong(f"trace cell {cell} is not passable")
    for a, b in zip(cells, cells[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise Wrong(f"trace step {a} -> {b} is not a 4-neighbor move")
    word, word_cells, previous = [], [], None
    for i, cell in enumerate(cells):
        rid = regs.of_cell[cell]
        if rid != previous:
            word.append(regs.label[rid])
            word_cells.append(i)
        previous = rid
    if [sorted(letter) for letter in word] != trace["word"] or word_cells != trace["word_cells"]:
        raise Wrong("trace word does not match the regions its cells enter")
    if trace["cycle_length"] and trace["cycles"]:
        boundary = trace["segments"][-trace["cycle_length"]]["start_index"]
        cycle = [letter for letter, i in zip(word, word_cells) if i > boundary]
        if cycle:
            return word[: len(word) - len(cycle)], cycle
    return word, [EMPTY]


def judge(op: Op, code: int | None, stdout: str, trace_doc: dict | None, regs: Regions,
          is_feasible: bool | None) -> str:
    """Outcome of one op; raises :class:`Wrong` for a WRONG output.

    ``trace_doc`` is the trace a ``check`` op validated; ``is_feasible`` is
    the grid oracle's verdict for a ``run`` op.
    """
    if op.command == "check":
        expected = eval_lasso(op.formula, *trace_lasso(trace_doc, regs))
        if code not in (0, 1):
            raise Wrong(f"check exited {code}")
        if json.loads(stdout) != {"satisfied": expected} or code != (0 if expected else 1):
            raise Wrong(f"check said {stdout.strip()} (exit {code}), oracle says {expected}")
        return CHECKED
    if code == 3:
        return NO_PLAN if is_feasible else INFEASIBLE
    if code != 0:
        raise Wrong(f"run exited {code}")
    if not is_feasible:
        raise Wrong("run found a plan for a goal no walk can satisfy")
    doc = json.loads(stdout)
    trace = doc["trace"]
    if (trace["cells"][0]["x"], trace["cells"][0]["y"]) != op.map.grid.resolved_start():
        raise Wrong("trace does not begin at the start cell")
    satisfied = eval_lasso(op.formula, *trace_lasso(trace, regs))
    if doc["satisfied"] is not satisfied:
        raise Wrong(f"run reports satisfied={doc['satisfied']}, oracle says {satisfied}")
    if doc["unsafe"]["unforced"] != 0:
        raise Wrong(f"run has {doc['unsafe']['unforced']} unforced violations")
    return PLANNED if satisfied else UNSATISFIED
