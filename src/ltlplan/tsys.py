"""Transition systems abstracted from grid maps.

States are regions; a directed transition connects every ordered pair of
adjacent regions.  Transition labels name the tasks an agent could be
pursuing when it crosses between the two regions: crossing from ``start``
to ``end`` brings the agent closer (in region hops) to every state whose
task symbols end up on the label.  Unlabeled states contribute a
distinguished empty-label sentinel instead of a symbol.

Two regions are *twins* when they share their label and their set of
neighbour regions.  Twins are never adjacent, and every other region is
equally many hops from each of them, so the pipeline labels and prunes
one state per twin class and unfolds the classes only for output.
"""

from __future__ import annotations

from .gridworld import Region, dot_text
from .ltl import Guard

# "{" sorts after every symbol character (letters, digits, "_", "&"), so
# plain ``sorted`` puts the empty-label sentinel last.
EMPTY_LABEL = "{}"

# Sources per multi-source breadth-first pass in ``generate_ts_labels``;
# bounds its bitsets to (|S| + |E|) * _BATCH bits.
_BATCH = 1024

PRIMITIVE = "primitive"
COMPOSITE = "composite"


def format_labelset(labelset: frozenset[str]) -> str:
    return "{" + ",".join(sorted(labelset)) + "}"


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

    def __init__(self, order: list[int], labels: dict[int, frozenset[str]],
                 transitions: dict[tuple[int, int], set[str]], initial: int,
                 mode: str = PRIMITIVE):
        self.order, self.labels, self.transitions, self.initial, self.mode = (
            order, labels, transitions, initial, mode)
        position = {s: i for i, s in enumerate(self.order)}
        self._successors: dict[int, list[int]] = {s: [] for s in self.order}
        for (src, dst) in self.transitions:
            if src == dst:
                raise ValueError(f"self-loop stored on state {src}")
            self._successors[src].append(dst)
        for targets in self._successors.values():
            targets.sort(key=position.__getitem__)

    @staticmethod
    def state_name(state: int) -> str:
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
            # One symbol for the whole label set, e.g. ``b&square``.
            return frozenset({Guard(labelset).format()})
        return labelset

    def with_transitions(self, transitions: dict[tuple[int, int], set[str]]) -> "TransitionSystem":
        """The same states, labels, initial state and mode over a new edge set."""
        return TransitionSystem(self.order, self.labels, transitions, self.initial, self.mode)

    def quotient(self, mapping: dict[int, int | None]) -> "TransitionSystem":
        """A new system over the states that ``mapping`` maps to themselves.

        A state merges into the state it maps to, or is dropped with its
        edges when it maps to ``None``.  Merged edges pool their symbols in
        fresh sets, and edges that merging turns into self-loops go.
        """
        kept = [s for s in self.order if mapping[s] == s]
        transitions: dict[tuple[int, int], set[str]] = {}
        for (src, dst), syms in self.transitions.items():
            edge = (mapping[src], mapping[dst])
            if None not in edge and edge[0] != edge[1]:
                transitions.setdefault(edge, set()).update(syms)
        return TransitionSystem(
            order=kept,
            labels={s: self.labels[s] for s in kept},
            transitions=transitions,
            initial=mapping[self.initial],
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

    def to_dot(self) -> str:
        name = self.state_name
        nodes = [(name(s), f'label="{name(s)}" xlabel="{format_labelset(self.labels[s])}"')
                 for s in self.order]
        edges = [(name(src), name(dst), ",".join(sorted(self.transitions[(src, dst)])))
                 for src, dst in self.edges()]
        return dot_text("ts", nodes, edges)


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


def twin_classes(regions: list[Region], adjacency: dict[int, tuple[int, ...]]) -> list[int]:
    """Each region's twin class: the first region with its label and its neighbours."""
    first: dict[tuple, int] = {}
    return [first.setdefault((r.label, adjacency.get(r.id, ())), r.id) for r in regions]


def generate_ts_labels(ts: TransitionSystem, twinned=frozenset()) -> TransitionSystem:
    """Label every transition with the tasks it makes progress toward.

    A state ``x`` contributes its task symbols (or the empty-label
    sentinel when unlabeled) to transition ``(start, end)`` exactly when
    the crossing strictly reduces the hop distance to ``x``: ``x`` is
    ``j`` hops from ``end`` and ``j + 1`` from ``start``.  A state in
    ``twinned`` stands for two or more twins, and a twin of ``start`` is one
    hop from ``end`` and two from ``start``: such a state also contributes to
    its own out-edges.

    Hop distance is symmetric, so one breadth-first pass serves a whole
    batch of states ``x`` at once (Then et al., VLDB 2015): in round
    ``k``, bit ``i`` of ``front[u]`` is set when batch state ``i`` is
    exactly ``k`` hops from ``u``, and ``unseen[u]`` holds the batch
    states more than ``k`` hops away.  Only neighbours of a non-empty
    front are visited, so the work is the sum over states of
    eccentricity times degree.
    """
    transitions = {edge: set(syms) for edge, syms in ts.transitions.items()}
    edge_index = {edge: e for e, edge in enumerate(transitions)}
    position = {s: i for i, s in enumerate(ts.order)}
    graph = ts.graph()
    # pulls[v]: (u, e) per neighbour u of v, e indexing transition (u, v) or None.
    pulls = [[(position[u], edge_index.get((u, v))) for u in graph[v]] for v in ts.order]
    contributes = [ts.task_symbols_of_state(x) or frozenset({EMPTY_LABEL}) for x in ts.order]

    for lo in range(0, len(ts.order), _BATCH):
        batch = range(lo, min(lo + _BATCH, len(ts.order)))
        groups: dict[frozenset[str], int] = {}
        for i in batch:
            groups[contributes[i]] = groups.get(contributes[i], 0) | 1 << (i - lo)
        front = {i: 1 << (i - lo) for i in batch}
        unseen = [(1 << len(batch)) - 1] * len(ts.order)
        for i, bits in front.items():
            unseen[i] ^= bits
        closer = [0] * len(edge_index)
        while front:
            grown: dict[int, int] = {}
            for v, bits in front.items():
                for u, e in pulls[v]:
                    # Batch states k hops from v and k + 1 hops from u.
                    new = bits & unseen[u]
                    if new:
                        grown[u] = grown.get(u, 0) | new
                        if e is not None:
                            closer[e] |= new
            for u, bits in grown.items():
                unseen[u] ^= bits
            front = grown
        for hit, symbols in zip(closer, transitions.values()):
            if hit:
                for contributed, mask in groups.items():
                    if hit & mask:
                        symbols |= contributed
    for state in twinned:
        for edge in ts.out_edges(state):
            transitions[edge] |= contributes[position[state]]
    return ts.with_transitions(transitions)


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
