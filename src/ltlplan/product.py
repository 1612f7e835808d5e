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

from collections import namedtuple

from .gridworld import bfs_tree, cycle_path, dot_text, tree_depths, tree_path
from .ltl import BuchiAutomaton, empty_word_accepting_states
from .tsys import TransitionSystem

PAState = tuple[int, str]


class ProductAutomaton(namedtuple("ProductAutomaton",
                                  "states initial accepting stoppable edges successors")):
    """Reachable product with deterministic state and edge ordering.

    ``edges`` maps each product edge to its policy symbols, sorted; the
    edges over one system edge share one list, so nothing may mutate it.
    """

    __slots__ = ()

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
        ids = {state: f"s{i}" for i, state in enumerate(self.states)}
        nodes = [(ids[s], f'label="{self.state_name(s)}"'
                  + (" peripheries=2" if s in self.accepting else "")) for s in self.states]
        edges = [(ids[src], ids[dst], ",".join(self.edges[(src, dst)]))
                 for src in self.states for dst in self.successors[src]]
        return dot_text("product", nodes, edges)


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
    # One sorted symbol list per TS edge, shared by every product edge over it.
    symbols = {edge: sorted(policies) for edge, policies in ts.transitions.items()}

    def expand(src: PAState) -> list[PAState]:
        s, q = src
        out: list[PAState] = []
        for (_, t) in ts.out_edges(s):
            for q2 in aut.step(q, ts.labels[t]):
                dst = (t, q2)
                edges[(src, dst)] = symbols[(s, t)]
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


class Plan(namedtuple("Plan", "prefix cycle prefix_states cycle_states")):
    """A policy sequence: finite prefix plus an optionally empty cycle."""

    __slots__ = ()

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

    best = None  # (length, target, cycle states); a stoppable target's cycle is []
    for state in parent:
        # ``parent`` is in BFS order: no later state starts a shorter plan.
        if best is not None and dist[state] >= best[0]:
            break
        if state in pa.stoppable:
            cycle = []
        elif state in pa.accepting:
            cycle = cycle_path(state, expansion.__getitem__)
        else:
            continue
        if cycle is not None and (best is None or dist[state] + len(cycle) < best[0]):
            best = (dist[state] + len(cycle), state, cycle)

    if best is None:
        return None
    _, target, cycle_states = best
    prefix_states = tree_path(parent, target)
    return Plan(
        prefix=_symbols_along(pa, prefix_states),
        cycle=_symbols_along(pa, [target] + cycle_states),
        prefix_states=prefix_states,
        cycle_states=cycle_states,
    )


def _symbols_along(pa: ProductAutomaton, states: list[PAState]) -> list[str]:
    return [
        pa.edges[(src, dst)][0] for src, dst in zip(states, states[1:])
    ]
