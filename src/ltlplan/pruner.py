"""Reduction of labeled transition systems to deterministic, executable form.

Four passes run in a fixed order:

* ``case1`` merges duplicate states — same state label, same incoming and
  same outgoing transition labels up to the merge — via partition
  refinement, keeping the smallest state id of each class.
* ``case2`` resolves symbols shared by several outgoing transitions of a
  state: only the transition whose end state is hop-closest to a state
  completing that symbol keeps it; ties delete the symbol everywhere
  because greedy low-violation execution cannot be trusted to pick a
  specific tied target.
* ``case3`` deletes symbols from a state's outgoing transitions when the
  state itself completes them (the task would already be done).
* ``emptyCleanup`` strips the empty-label sentinel and drops transitions
  whose label set became empty.

Case1 partitions the whole system, while the other three passes each read
and change one state's out-edges.  So :func:`prune` runs case1 and returns
a system that prunes a state by case2, case3 and emptyCleanup the first
time its out-edges are read: a product that reaches few states prunes few.
Reading the whole system (``transitions``, ``edges()``, ``graph()``, its
documents) or any field of its report first prunes every state left, in
``order``.  Either way the system and the report are those of running each
pass over every state in turn.

Every change is recorded in a :class:`PruneReport` that can deterministically
replay the reduction on the original system.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .gridworld import bfs_tree, tree_depths
from .tsys import EMPTY_LABEL, TransitionSystem

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"
EMPTY_CLEANUP = "emptyCleanup"

ALL_CASES = (CASE1, CASE2, CASE3, EMPTY_CLEANUP)


class PruneReport:
    """Everything the pruner changed, in execution order."""

    def __init__(self):
        self.merged_state_groups: list[tuple[int, ...]] = []
        self.removed_symbols: list[tuple[int, int, str, str]] = []
        self.removed_transitions: list[tuple[int, int, str]] = []
        self.unreachable_states: list[int] = []

    def to_document(self) -> dict:
        name = TransitionSystem.state_name
        return {
            "merged": [[name(s) for s in group] for group in self.merged_state_groups],
            "removed_symbols": [
                {"from": name(src), "to": name(dst), "symbol": sym, "case": case}
                for (src, dst, sym, case) in self.removed_symbols
            ],
            "removed_transitions": [
                {"from": name(src), "to": name(dst), "case": case}
                for (src, dst, case) in self.removed_transitions
            ],
            "unreachable": [name(s) for s in self.unreachable_states],
        }

    def replay(self, ts: TransitionSystem, cases: tuple[str, ...] = ALL_CASES) -> TransitionSystem:
        """Re-apply the recorded changes (optionally only a case prefix)."""
        out = _merge(ts, self.merged_state_groups if CASE1 in cases else [])
        for (src, dst, sym, case) in self.removed_symbols:
            if case in cases and (src, dst) in out.transitions:
                out.transitions[(src, dst)].discard(sym)
        dropped = {(src, dst) for (src, dst, case) in self.removed_transitions if case in cases}
        return out.with_transitions({
            edge: syms for edge, syms in out.transitions.items() if edge not in dropped
        })


def prune(ts: TransitionSystem, classes=None) -> tuple[TransitionSystem, PruneReport]:
    """Case1 now, every other pass per state on first read; ``classes`` as for
    ``case1_merge_equivalent``."""
    blocks, merged, outgoing, incoming = _partition(ts, classes)
    pruned = _Pruned(ts, blocks, outgoing, incoming)
    return pruned, _Report(pruned, merged)


class _OnRead(dict):
    """``key -> find(key)``, each found on first read.  Given the number of keys,
    ``size``, it lets ``find`` and all that it holds go once the last is found."""

    def __init__(self, find, size: int = -1):
        self.find, self.size = find, size

    def __missing__(self, key):
        self[key] = value = self.find(key)
        if len(self) == self.size:
            self.find = None
        return value


class _Pruned(TransitionSystem):
    """Case1's quotient of a system, each state pruned when its out-edges are first read.

    A state's changes wait in ``changes`` for the report: its case2 and case3
    removals, its sentinel removals and its dropped edges.  A state's merged
    out-edges pool the input's symbol sets when it is pruned, so the input must
    not change while states are left; once none is left, the system lets go of
    the input and of case1's partition.  The functions that find things on read
    hold no reference to the system, so it is freed without the cycle collector.
    """

    def __init__(self, ts: TransitionSystem, blocks: list[list[int]],
                 outgoing: dict[int, list], incoming: dict[int, list]):
        members = {block[0]: block for block in blocks}
        rep = {s: block[0] for block in blocks for s in block}
        position = {s: i for i, s in enumerate(ts.order)}
        self.order = list(members)
        self.labels = {s: ts.labels[s] for s in self.order}
        self.initial, self.mode = rep[ts.initial], ts.mode
        own = {s: self.task_symbols_of_state(s) for s in self.order}
        completers: dict[str, list[int]] = {}
        for state in self.order:
            for symbol in own[state]:
                completers.setdefault(symbol, []).append(state)
        # Undirected neighbours in the quotient, each state's found on first read.
        graph = _OnRead(lambda v: {rep[u] for m in members[v]
                                   for _, u in chain(outgoing[m], incoming[m])} - {v})
        # symbol -> {state: hops to its nearest completer}: case2 reads only symbols
        # that two out-edges of one state share.  No completer: unreachable.
        distance_to = _OnRead(lambda symbol: tree_depths(
            bfs_tree(completers.get(symbol, ()), graph.__getitem__)))
        changes = self.changes = {}

        def prune_state(state: int) -> dict[int, set[str]]:
            """``state``'s merged out-edges after case2, case3 and emptyCleanup, by target."""
            merged_out: dict[int, set[str]] = {}
            for member in members[state]:
                for edge in ts.out_edges(member):
                    if rep[edge[1]] != state:
                        merged_out.setdefault(rep[edge[1]], set()).update(ts.symbols(edge))
            out = {dst: merged_out[dst] for dst in sorted(merged_out, key=position.__getitem__)}
            removed = _disambiguate(state, out, distance_to) + _drop_completed(state, own[state], out)
            kept, swept, dropped = _clean(state, out)
            changes[state] = (removed, swept, dropped)
            return kept

        self._successors = _OnRead(prune_state, len(self.order))

    @cached_property
    def transitions(self) -> dict[tuple[int, int], set[str]]:
        """Every edge in ``edges()`` order, once each state left is pruned in ``order``."""
        return {(src, dst): symbols
                for src in self.order for dst, symbols in self._successors[src].items()}

    def symbols(self, edge: tuple[int, int]) -> set[str]:
        return self._successors[edge[0]][edge[1]]


class _Report(PruneReport):
    """The report of a :class:`_Pruned` system and case1's ``merged`` region groups,
    assembled when a field is first read."""

    def __init__(self, pruned: _Pruned, merged: list[tuple[int, ...]]):
        self.pruned, self.merged = pruned, merged

    def __getattr__(self, name: str):
        if name not in ("merged_state_groups", "removed_symbols", "removed_transitions",
                        "unreachable_states"):
            raise AttributeError(name)
        pruned = self.pruned
        pruned.transitions  # prunes every state left
        removed, swept, dropped = zip(*map(pruned.changes.__getitem__, pruned.order))
        self.merged_state_groups = self.merged
        self.removed_symbols = [*chain(*removed), *chain(*swept)]
        self.removed_transitions = list(chain(*dropped))
        self.unreachable_states = _unreachable_states(pruned)
        return getattr(self, name)


def _partition(ts: TransitionSystem, classes: list[int] | None):
    """Case1's blocks, by first state in ``order``; the merged region groups it
    reports; and each state's out- and in-edges as ``(label number, other end)``
    pairs, equal symbol sets having equal numbers."""
    outgoing: dict[int, list[tuple[int, int]]] = {s: [] for s in ts.order}
    incoming: dict[int, list[tuple[int, int]]] = {s: [] for s in ts.order}
    number: dict[frozenset[str], int] = {}
    for (src, dst), syms in ts.transitions.items():
        label = number.setdefault(frozenset(syms), len(number))
        outgoing[src].append((label, dst))
        incoming[dst].append((label, src))
    block_of = dict(ts.labels)  # label sets are the initial blocks
    while True:
        groups: dict[tuple, list[int]] = {}
        for state in ts.order:
            signature = (
                block_of[state],
                frozenset((syms, block_of[dst]) for syms, dst in outgoing[state]),
                frozenset((syms, block_of[src]) for syms, src in incoming[state]),
            )
            groups.setdefault(signature, []).append(state)
        if len(groups) == len(set(block_of.values())):
            break
        for block_id, members in enumerate(groups.values()):
            for state in members:
                block_of[state] = block_id

    # A stable round leaves one group per block, members in ``order`` order.
    regions: dict[object, list[int]] = {}
    for region, state in enumerate(classes) if classes else zip(ts.order, ts.order):
        regions.setdefault(block_of[state], []).append(region)
    merged = [tuple(g) for g in regions.values() if len(g) > 1]
    return list(groups.values()), merged, outgoing, incoming


def case1_merge_equivalent(
    ts: TransitionSystem, report: PruneReport, classes: list[int] | None = None
) -> TransitionSystem:
    """Collapse equivalence classes of duplicate states.

    ``classes[r]`` is the state that stands for region ``r`` and its twins
    (``tsys.twin_classes``); without it each state stands for itself.  The
    report lists every region of each merged block.
    """
    blocks, merged, _, _ = _partition(ts, classes)
    report.merged_state_groups.extend(merged)
    return _merge(ts, [tuple(block) for block in blocks if len(block) > 1])


def _merge(ts: TransitionSystem, groups: list[tuple[int, ...]]) -> TransitionSystem:
    """A new system with each group's states merged into its first."""
    mapping = {s: s for s in ts.order}
    for group in groups:
        mapping.update(dict.fromkeys(group[1:], group[0]))
    return ts.quotient(mapping)


def _out(ts: TransitionSystem, state: int) -> dict[int, set[str]]:
    """``state``'s out-edges by target, holding ``ts``'s own symbol sets."""
    return {edge[1]: ts.symbols(edge) for edge in ts.out_edges(state)}


def case2_disambiguate(
    ts: TransitionSystem,
    state: int,
    distance_to: dict[str, dict[int, int]],
    report: PruneReport,
) -> None:
    """Keep each shared symbol only on the transition nearest to completing it.

    ``distance_to[symbol]`` maps each state to its hop count to the
    nearest state completing ``symbol``; missing entries are unreachable.
    """
    report.removed_symbols += _disambiguate(state, _out(ts, state), distance_to)


def _disambiguate(state: int, out: dict[int, set[str]], distance_to) -> list:
    """Case2 on ``state``'s out-edges ``out``, in place; returns its removals."""
    carriers: dict[str, list[int]] = {}
    for dst, symbols in out.items():
        for symbol in symbols:
            if symbol != EMPTY_LABEL:
                carriers.setdefault(symbol, []).append(dst)
    removals = []
    for symbol in sorted(carriers):
        ends = carriers[symbol]
        if len(ends) < 2:
            continue
        try:
            dist = distance_to[symbol]
        except KeyError:  # a plain dict may leave out a symbol no state completes
            dist = {}
        scores = [dist.get(end, float("inf")) for end in ends]
        best = min(scores)
        keeper = ends[scores.index(best)] if scores.count(best) == 1 else None
        for dst in ends:
            if dst != keeper:
                out[dst].discard(symbol)
                removals.append((state, dst, symbol, CASE2))
    return removals


def case3_remove_ineffectual(
    ts: TransitionSystem, state: int, report: PruneReport
) -> None:
    """Remove symbols the state itself completes from its outgoing labels."""
    report.removed_symbols += _drop_completed(state, ts.task_symbols_of_state(state), _out(ts, state))


def _drop_completed(state: int, own: frozenset[str], out: dict[int, set[str]]) -> list:
    """Case3 on ``state``, which completes ``own``, in place; returns its removals."""
    removals = []
    for dst, symbols in out.items() if own else ():
        for symbol in sorted(own & symbols):
            symbols.discard(symbol)
            removals.append((state, dst, symbol, CASE3))
    return removals


def empty_cleanup(ts: TransitionSystem, report: PruneReport) -> TransitionSystem:
    """Strip the empty-label sentinel, then drop transitions left unlabeled.

    Returns a new system; ``ts`` is left as it was.
    """
    kept: dict[tuple[int, int], set[str]] = {}
    for state in ts.order:
        out, swept, dropped = _clean(state, _out(ts, state))
        kept.update(((state, dst), symbols) for dst, symbols in out.items())
        report.removed_symbols += swept
        report.removed_transitions += dropped
    return ts.with_transitions(kept)


def _clean(state: int, out: dict[int, set[str]]) -> tuple[dict[int, set[str]], list, list]:
    """EmptyCleanup on ``state``: its kept out-edges in new sets, its sentinel
    removals and its dropped edges."""
    kept, swept, dropped = {}, [], []
    for dst, symbols in out.items():
        if EMPTY_LABEL in symbols:
            swept.append((state, dst, EMPTY_LABEL, EMPTY_CLEANUP))
        symbols = symbols - {EMPTY_LABEL}
        if symbols:
            kept[dst] = symbols
        else:
            dropped.append((state, dst, EMPTY_CLEANUP))
    return kept, swept, dropped


def _unreachable_states(ts: TransitionSystem) -> list[int]:
    reached = bfs_tree([ts.initial], lambda s: [dst for (_, dst) in ts.out_edges(s)])
    return [s for s in ts.order if s not in reached]


def drop_unreachable(ts: TransitionSystem) -> TransitionSystem:
    """Optionally remove states unreachable from the initial state."""
    return ts.quotient({s: s for s in ts.order} | dict.fromkeys(_unreachable_states(ts)))
