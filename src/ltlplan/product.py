"""Product of a transition system with a Büchi automaton, and planning.

Product states pair a system state with an automaton state; an edge
exists when the system can move and the automaton has a transition whose
guard is satisfied by the *target* system state's labels.  Plans are
lassos through the product: a prefix to an accepting state plus a cycle
back to it, or just a prefix ending in a "stoppable" state — one whose
automaton state can accept while only empty label sets are read from
then on, which models the agent parking after the last task.
``find_plan`` returns a plan with the minimum number of policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gridworld import bfs_tree, cycle_path, tree_depths, tree_path
from .ltl import BuchiAutomaton, empty_word_accepting_states
from .tsys import TransitionSystem

PAState = tuple[int, str]


@dataclass
class ProductAutomaton:
    """Reachable product with deterministic state and edge ordering."""

    states: list[PAState]
    initial: list[PAState]
    accepting: frozenset[PAState]
    stoppable: frozenset[PAState]
    edges: dict[tuple[PAState, PAState], list[str]]
    successors: dict[PAState, list[PAState]]

    def state_name(self, state: PAState) -> str:
        return f"{TransitionSystem.state_name(state[0])}|{state[1]}"

    def to_document(self) -> dict:
        return {
            "states": [self.state_name(s) for s in self.states],
            "initial": [self.state_name(s) for s in self.initial],
            "accepting": [
                self.state_name(s) for s in self.states if s in self.accepting
            ],
            "stoppable": [
                self.state_name(s) for s in self.states if s in self.stoppable
            ],
            "transitions": [
                {
                    "from": self.state_name(src),
                    "to": self.state_name(dst),
                    "symbols": list(self.edges[(src, dst)]),
                }
                for src in self.states
                for dst in self.successors[src]
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph product {", "  rankdir=LR;", "  node [shape=circle];"]
        ids = {state: f"s{i}" for i, state in enumerate(self.states)}
        for state in self.states:
            shape = " peripheries=2" if state in self.accepting else ""
            lines.append(f'  {ids[state]} [label="{self.state_name(state)}"{shape}];')
        for src in self.states:
            for dst in self.successors[src]:
                label = ",".join(self.edges[(src, dst)])
                lines.append(f'  {ids[src]} -> {ids[dst]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_product(ts: TransitionSystem, aut: BuchiAutomaton) -> ProductAutomaton:
    """Reachable synchronous product, explored in deterministic order."""
    known = frozenset().union(*ts.labels.values())
    for guard in aut.transitions.values():
        unknown = (guard.positives | guard.negatives) - known
        if unknown:
            raise ValueError(
                f"guard references symbol {min(unknown)!r} absent from the transition system"
            )

    initial = [(ts.initial, q) for q in aut.step(aut.initial, ts.labels[ts.initial])]
    edges: dict[tuple[PAState, PAState], list[str]] = {}
    successors: dict[PAState, list[PAState]] = {}

    def expand(src: PAState) -> list[PAState]:
        s, q = src
        out: list[PAState] = []
        for (_, t) in ts.out_edges(s):
            for q2 in aut.step(q, ts.labels[t]):
                dst = (t, q2)
                edges[(src, dst)] = sorted(ts.transitions[(s, t)])
                out.append(dst)
        successors[src] = out
        return out

    states = list(bfs_tree(initial, expand))
    parking_ok = empty_word_accepting_states(aut)
    accepting = frozenset(s for s in states if s[1] in aut.accepting)
    stoppable = frozenset(s for s in states if s[1] in parking_ok)
    return ProductAutomaton(
        states=states,
        initial=initial,
        accepting=accepting,
        stoppable=stoppable,
        edges=edges,
        successors=successors,
    )


@dataclass
class Plan:
    """A policy sequence: finite prefix plus an optionally empty cycle."""

    prefix: list[str]
    cycle: list[str]
    prefix_states: list[PAState]
    cycle_states: list[PAState]

    @property
    def length(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def to_document(self, pa: ProductAutomaton) -> dict:
        return {
            "prefix": list(self.prefix),
            "cycle": list(self.cycle),
            "length": self.length,
            "pa_path": [
                pa.state_name(s) for s in self.prefix_states + self.cycle_states
            ],
        }


def find_plan(pa: ProductAutomaton) -> Plan | None:
    """Shortest satisfying plan, or ``None`` when the product is empty.

    Minimizes prefix length plus cycle length.  Stoppable states need no
    cycle; other accepting states need the shortest cycle back to
    themselves.  The search expands cheaper policy symbols first and
    resolves remaining ties to the earliest candidate in exploration
    order, so among equal-length plans the one with the lexicographically
    smaller policy sequence wins and results are deterministic.
    """
    rank_of = {state: i for i, state in enumerate(pa.states)}
    expansion = {
        state: sorted(nexts, key=lambda nxt: (pa.edges[(state, nxt)][0], rank_of[nxt]))
        for state, nexts in pa.successors.items()
    }

    parent = bfs_tree(pa.initial, expansion.__getitem__)
    dist = tree_depths(parent)

    best: int | None = None
    best_target: PAState | None = None
    best_cycle: list[PAState] | None = None
    for state in parent:
        if state in pa.stoppable:
            if best is None or dist[state] < best:
                best, best_target, best_cycle = dist[state], state, []
            continue
        if state not in pa.accepting:
            continue
        cycle = cycle_path(state, expansion.__getitem__)
        if cycle is None:
            continue
        length = dist[state] + len(cycle)
        if best is None or length < best:
            best, best_target, best_cycle = length, state, cycle

    if best_target is None:
        return None

    prefix_states = tree_path(parent, best_target)
    prefix = _symbols_along(pa, prefix_states)
    cycle_states = best_cycle or []
    cycle = _symbols_along(pa, [best_target] + cycle_states)
    return Plan(
        prefix=prefix,
        cycle=cycle,
        prefix_states=prefix_states,
        cycle_states=cycle_states,
    )


def _symbols_along(pa: ProductAutomaton, states: list[PAState]) -> list[str]:
    return [
        pa.edges[(src, dst)][0] for src, dst in zip(states, states[1:])
    ]
