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

Every change is recorded in a :class:`PruneReport` that can deterministically
replay the reduction on the original system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .gridworld import bfs_tree, tree_depths
from .tsys import EMPTY_LABEL, TransitionSystem

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"
EMPTY_CLEANUP = "emptyCleanup"

ALL_CASES = (CASE1, CASE2, CASE3, EMPTY_CLEANUP)


@dataclass
class PruneReport:
    """Everything the pruner changed, in execution order."""

    merged_state_groups: list[tuple[int, ...]] = field(default_factory=list)
    removed_symbols: list[tuple[int, int, str, str]] = field(default_factory=list)
    removed_transitions: list[tuple[int, int, str]] = field(default_factory=list)
    unreachable_states: list[int] = field(default_factory=list)

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
        return replace(out, transitions={
            edge: syms for edge, syms in out.transitions.items() if edge not in dropped
        })


def prune(ts: TransitionSystem) -> tuple[TransitionSystem, PruneReport]:
    """Run all reduction passes; returns the reduced system and its report."""
    report = PruneReport()
    out = case1_merge_equivalent(ts, report)
    completers: dict[str, list[int]] = {}
    for state in out.order:
        for symbol in out.task_symbols_of_state(state):
            completers.setdefault(symbol, []).append(state)
    graph = out.graph()
    distance_to = {
        symbol: tree_depths(bfs_tree(sources, graph.__getitem__))
        for symbol, sources in completers.items()
    }
    for state in out.order:
        case2_disambiguate(out, state, distance_to, report)
        case3_remove_ineffectual(out, state, report)
    out = empty_cleanup(out, report)
    report.unreachable_states = _unreachable_states(out)
    return out, report


def case1_merge_equivalent(ts: TransitionSystem, report: PruneReport) -> TransitionSystem:
    """Collapse equivalence classes of duplicate states."""
    outgoing: dict[int, list[tuple[frozenset[str], int]]] = {s: [] for s in ts.order}
    incoming: dict[int, list[tuple[frozenset[str], int]]] = {s: [] for s in ts.order}
    for (src, dst), syms in ts.transitions.items():
        label = frozenset(syms)
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
    merged = [tuple(members) for members in groups.values() if len(members) > 1]
    report.merged_state_groups.extend(merged)
    return _merge(ts, merged)


def _merge(ts: TransitionSystem, groups: list[tuple[int, ...]]) -> TransitionSystem:
    """A new system with each group's states merged into its first."""
    mapping = {s: s for s in ts.order}
    for group in groups:
        mapping.update(dict.fromkeys(group[1:], group[0]))
    return ts.quotient(mapping)


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
    carriers: dict[str, list[tuple[int, int]]] = {}
    for edge in ts.out_edges(state):
        for symbol in ts.transitions[edge]:
            if symbol != EMPTY_LABEL:
                carriers.setdefault(symbol, []).append(edge)
    for symbol in sorted(carriers):
        edges = carriers[symbol]
        if len(edges) < 2:
            continue
        dist = distance_to.get(symbol, {})
        scores = [dist.get(end, float("inf")) for (_, end) in edges]
        best = min(scores)
        if scores.count(best) == 1:
            keeper = edges[scores.index(best)]
            removals = [e for e in edges if e != keeper]
        else:
            removals = edges
        for (src, dst) in removals:
            ts.transitions[(src, dst)].discard(symbol)
            report.removed_symbols.append((src, dst, symbol, CASE2))


def case3_remove_ineffectual(
    ts: TransitionSystem, state: int, report: PruneReport
) -> None:
    """Remove symbols the state itself completes from its outgoing labels."""
    own = ts.task_symbols_of_state(state)
    if not own:
        return
    for edge in ts.out_edges(state):
        for symbol in sorted(own & ts.transitions[edge]):
            ts.transitions[edge].discard(symbol)
            report.removed_symbols.append((edge[0], edge[1], symbol, CASE3))


def empty_cleanup(ts: TransitionSystem, report: PruneReport) -> TransitionSystem:
    """Strip the empty-label sentinel, then drop transitions left unlabeled.

    Returns a new system; ``ts`` is left as it was.
    """
    kept: dict[tuple[int, int], set[str]] = {}
    for (src, dst) in ts.edges():
        if EMPTY_LABEL in ts.transitions[(src, dst)]:
            report.removed_symbols.append((src, dst, EMPTY_LABEL, EMPTY_CLEANUP))
        symbols = ts.transitions[(src, dst)] - {EMPTY_LABEL}
        if symbols:
            kept[(src, dst)] = symbols
        else:
            report.removed_transitions.append((src, dst, EMPTY_CLEANUP))
    return replace(ts, transitions=kept)


def _unreachable_states(ts: TransitionSystem) -> list[int]:
    reached = bfs_tree([ts.initial], lambda s: [dst for (_, dst) in ts.out_edges(s)])
    return [s for s in ts.order if s not in reached]


def drop_unreachable(ts: TransitionSystem) -> TransitionSystem:
    """Optionally remove states unreachable from the initial state."""
    return ts.quotient({s: s for s in ts.order} | dict.fromkeys(_unreachable_states(ts)))
