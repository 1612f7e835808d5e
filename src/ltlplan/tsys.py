"""Transition systems abstracted from grid maps.

States are regions; a directed transition connects every ordered pair of
adjacent regions.  Transition labels name the tasks an agent could be
pursuing when it crosses between the two regions: crossing from ``start``
to ``end`` brings the agent closer (in region hops) to every state whose
task symbols end up on the label.  Unlabeled states contribute a
distinguished empty-label sentinel instead of a symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gridworld import Region, bfs_hops

# "{" sorts after every symbol character (letters, digits, "_", "&"), so
# plain ``sorted`` puts the empty-label sentinel last.
EMPTY_LABEL = "{}"

PRIMITIVE = "primitive"
COMPOSITE = "composite"


def composite_symbol(labelset: frozenset[str]) -> str:
    """Single task symbol for a multi-symbol region label, e.g. ``b&square``."""
    if not labelset:
        raise ValueError("composite symbol requires a non-empty label set")
    return "&".join(sorted(labelset))


def format_labelset(labelset: frozenset[str]) -> str:
    return "{" + ",".join(sorted(labelset)) + "}"


@dataclass
class TransitionSystem:
    """A finite transition system over region states.

    ``order`` fixes the canonical state iteration order (ascending region
    id for abstracted maps).  ``transitions`` maps ordered state pairs to
    the set of task symbols labeling that edge; the set may contain the
    empty-label sentinel before cleanup.  Self-loops are never stored.

    The edge set is fixed at construction: each state's successor list is
    built once, in ``order`` position, and passes that drop edges return
    a new system.  Label sets on existing edges may still shrink in place.
    """

    order: list[int]
    labels: dict[int, frozenset[str]]
    transitions: dict[tuple[int, int], set[str]]
    initial: int
    mode: str = PRIMITIVE

    def __post_init__(self) -> None:
        position = {s: i for i, s in enumerate(self.order)}
        self._successors: dict[int, list[int]] = {s: [] for s in self.order}
        for (src, dst) in self.transitions:
            if src == dst:
                raise ValueError(f"self-loop stored on state {src}")
            self._successors[src].append(dst)
        for targets in self._successors.values():
            targets.sort(key=position.__getitem__)

    def states(self) -> list[int]:
        return list(self.order)

    def state_name(self, state: int) -> str:
        return f"q{state}"

    def out_edges(self, state: int) -> list[tuple[int, int]]:
        return [(state, dst) for dst in self._successors[state]]

    def edges(self) -> list[tuple[int, int]]:
        """Every transition, by source then target ``order`` position."""
        return [(src, dst) for src in self.order for dst in self._successors[src]]

    def graph(self) -> dict[int, tuple[int, ...]]:
        """Undirected adjacency view used for hop distances."""
        neighbors: dict[int, set[int]] = {s: set() for s in self.order}
        for (src, dst) in self.transitions:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
        return {s: tuple(sorted(adj)) for s, adj in neighbors.items()}

    def task_symbols_of_state(self, state: int) -> frozenset[str]:
        """Task symbols an agent can complete inside ``state``."""
        labelset = self.labels[state]
        if not labelset:
            return frozenset()
        if self.mode == COMPOSITE:
            return frozenset({composite_symbol(labelset)})
        return labelset

    def alphabet(self) -> frozenset[str]:
        """All task symbols any state can complete."""
        out: set[str] = set()
        for state in self.order:
            out |= self.task_symbols_of_state(state)
        return frozenset(out)

    def copy(self) -> "TransitionSystem":
        return TransitionSystem(
            order=list(self.order),
            labels=dict(self.labels),
            transitions={edge: set(syms) for edge, syms in self.transitions.items()},
            initial=self.initial,
            mode=self.mode,
        )

    def to_document(self) -> dict:
        return {
            "states": [
                {"id": self.state_name(s), "label": sorted(self.labels[s])}
                for s in self.order
            ],
            "transitions": [
                {
                    "from": self.state_name(src),
                    "to": self.state_name(dst),
                    "label": sorted(self.transitions[(src, dst)]),
                }
                for (src, dst) in self.edges()
            ],
            "initial": self.state_name(self.initial),
            "mode": self.mode,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "TransitionSystem":
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
        return cls(
            order=order,
            labels=labels,
            transitions=transitions,
            initial=_parse_state_name(doc["initial"]),
            mode=doc.get("mode", PRIMITIVE),
        )

    def to_dot(self) -> str:
        lines = ["digraph ts {", "  rankdir=LR;", "  node [shape=circle];"]
        for state in self.order:
            name = self.state_name(state)
            lines.append(
                f'  {name} [label="{name}" xlabel="{format_labelset(self.labels[state])}"];'
            )
        for (src, dst) in self.edges():
            label = ",".join(sorted(self.transitions[(src, dst)]))
            lines.append(f'  {self.state_name(src)} -> {self.state_name(dst)} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _parse_state_name(name: str) -> int:
    if not name.startswith("q") or not name[1:].isdigit():
        raise ValueError(f"state id must look like 'q3', got {name!r}")
    return int(name[1:])


def build_initial_ts(
    regions: list[Region],
    adjacency: dict[int, tuple[int, ...]],
    initial_region: int,
    mode: str = PRIMITIVE,
) -> TransitionSystem:
    """One state per region, one unlabeled transition per ordered adjacent pair."""
    if mode not in (PRIMITIVE, COMPOSITE):
        raise ValueError(f"unknown labeling mode {mode!r}")
    order = [r.id for r in regions]
    labels = {r.id: r.label for r in regions}
    transitions: dict[tuple[int, int], set[str]] = {}
    for rid in order:
        for other in adjacency.get(rid, ()):
            transitions[(rid, other)] = set()
    if initial_region not in labels:
        raise ValueError(f"initial region {initial_region} not among regions")
    return TransitionSystem(order, labels, transitions, initial_region, mode)


def generate_ts_labels(
    ts: TransitionSystem,
    hop_distances: dict[int, dict[int, int]] | None = None,
) -> TransitionSystem:
    """Label every transition with the tasks it makes progress toward.

    A state ``x`` contributes its task symbols (or the empty-label
    sentinel when unlabeled) to transition ``(start, end)`` exactly when
    the crossing strictly reduces the hop distance to ``x``.
    """
    graph = ts.graph()
    if hop_distances is None:
        hop_distances = {state: bfs_hops(graph, state) for state in ts.order}
    labeled = ts.copy()
    inf = float("inf")
    for (start, end), symbols in labeled.transitions.items():
        d_start = hop_distances[start]
        d_end = hop_distances[end]
        for x in labeled.order:
            if d_start.get(x, inf) > d_end.get(x, inf):
                contributed = labeled.task_symbols_of_state(x)
                if contributed:
                    symbols |= contributed
                else:
                    symbols.add(EMPTY_LABEL)
    return labeled


def is_deterministic(
    ts: TransitionSystem,
) -> tuple[bool, list[tuple[int, str, frozenset[int]]]]:
    """Check that no two outgoing transitions of a state share a symbol.

    Returns the verdict plus one violation entry ``(state, symbol,
    targets)`` for every shared symbol.
    """
    violations: list[tuple[int, str, frozenset[int]]] = []
    for state in ts.order:
        targets_by_symbol: dict[str, set[int]] = {}
        for (_, dst) in ts.out_edges(state):
            for symbol in ts.transitions[(state, dst)]:
                targets_by_symbol.setdefault(symbol, set()).add(dst)
        for symbol in sorted(targets_by_symbol):
            targets = targets_by_symbol[symbol]
            if len(targets) > 1:
                violations.append((state, symbol, frozenset(targets)))
    return (not violations, violations)
