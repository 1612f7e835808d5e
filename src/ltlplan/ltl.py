"""Linear temporal logic over task symbols, and its Büchi compilation.

The formula grammar is negation-normal: negation applies only to atomic
propositions, and there is no next-step operator.  Surface syntax uses
``F`` (eventually), ``G`` (always), ``U`` (until), ``&``, ``|``, ``!``
and ``true``; ``U`` binds tighter than ``&``, which binds tighter than
``|``, and the unary operators bind tightest.

Compilation to a Büchi automaton uses the classic on-the-fly tableau:
formulas are split into "now" obligations (literals checked on the
current letter) and "next" obligations carried forward, yielding a
generalized automaton with one fairness set per eventuality, which a
counter construction then degeneralizes.  ``eval_ltl_on_lasso`` is an
independent recursive evaluator over ultimately-periodic words used to
cross-check the construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

LabelSet = frozenset[str]


class LtlParseError(ValueError):
    """Raised for syntax errors, undeclared atoms, or grammar violations."""


# ---------------------------------------------------------------------------
# Formula AST


class LtlFormula:
    """Base class for formula nodes; all nodes are immutable and hashable."""

    def atoms(self) -> frozenset[str]:
        out: set[str] = set()
        _collect_atoms(self, out)
        return frozenset(out)


@dataclass(frozen=True)
class Top(LtlFormula):
    pass


@dataclass(frozen=True)
class Atom(LtlFormula):
    name: str


@dataclass(frozen=True)
class NotAtom(LtlFormula):
    name: str


@dataclass(frozen=True)
class And(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Or(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Until(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Eventually(LtlFormula):
    sub: LtlFormula


@dataclass(frozen=True)
class Always(LtlFormula):
    sub: LtlFormula


def _collect_atoms(formula: LtlFormula, out: set[str]) -> None:
    match formula:
        case Atom(name) | NotAtom(name):
            out.add(name)
        case And(left, right) | Or(left, right) | Until(left, right):
            _collect_atoms(left, out)
            _collect_atoms(right, out)
        case Eventually(sub) | Always(sub):
            _collect_atoms(sub, out)


_LEVEL_OR, _LEVEL_AND, _LEVEL_UNTIL, _LEVEL_UNARY = 1, 2, 3, 4


def to_text(formula: LtlFormula) -> str:
    """Render with minimal parentheses; ``parse_ltl`` round-trips it."""
    return _render(formula, 0)


def _render(formula: LtlFormula, parent_level: int) -> str:
    match formula:
        case Top():
            return "true"
        case Atom(name):
            return name
        case NotAtom(name):
            return f"!{name}"
        case Or(left, right):
            text = f"{_render(left, _LEVEL_OR)} | {_render(right, _LEVEL_OR)}"
            level = _LEVEL_OR
        case And(left, right):
            text = f"{_render(left, _LEVEL_AND)} & {_render(right, _LEVEL_AND)}"
            level = _LEVEL_AND
        case Until(left, right):
            # Right-associative: a left-nested until must keep its parens.
            text = f"{_render(left, _LEVEL_UNTIL + 1)} U {_render(right, _LEVEL_UNTIL)}"
            level = _LEVEL_UNTIL
        case Eventually(sub):
            text = f"F {_render(sub, _LEVEL_UNARY)}"
            level = _LEVEL_UNARY
        case Always(sub):
            text = f"G {_render(sub, _LEVEL_UNARY)}"
            level = _LEVEL_UNARY
        case _:
            raise TypeError(f"not a formula: {formula!r}")
    return f"({text})" if level < parent_level else text


# ---------------------------------------------------------------------------
# Parser

_RESERVED = {"F", "G", "U", "true"}

# Deepest accepted nesting, counting each F, G, U, &, | and parenthesis on
# the way down.  Parsing costs up to five frames per level and later passes
# recurse over the tree, so this stays far below Python's recursion limit.
MAX_NESTING = 100


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "&|!()":
                kind = {"&": "AND", "|": "OR", "!": "NOT", "(": "LPAREN", ")": "RPAREN"}[ch]
                self.tokens.append((kind, ch, i))
                i += 1
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word in _RESERVED:
                    self.tokens.append((word.upper() if word == "true" else word, word, i))
                else:
                    self.tokens.append(("NAME", word, i))
                i = j
                continue
            raise LtlParseError(f"unexpected character {ch!r} at offset {i}")
        self.tokens.append(("END", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token


def parse_ltl(text: str, alphabet: frozenset[str] | None = None) -> LtlFormula:
    """Parse a formula; with ``alphabet`` given, atoms outside it are errors."""
    tokens = _Tokenizer(text)
    formula = _parse_or(tokens, 0)
    kind, value, pos = tokens.peek()
    if kind != "END":
        raise LtlParseError(f"unexpected token {value!r} at offset {pos}")
    if alphabet is not None:
        undeclared = formula.atoms() - alphabet
        if undeclared:
            listed = ", ".join(sorted(undeclared))
            raise LtlParseError(f"undeclared atomic propositions: {listed}")
    return formula


def _parse_or(tokens: _Tokenizer, depth: int) -> LtlFormula:
    node = _parse_and(tokens, depth)
    while tokens.peek()[0] == "OR":
        tokens.next()
        depth += 1
        node = Or(node, _parse_and(tokens, depth))
    return node


def _parse_and(tokens: _Tokenizer, depth: int) -> LtlFormula:
    node = _parse_until(tokens, depth)
    while tokens.peek()[0] == "AND":
        tokens.next()
        depth += 1
        node = And(node, _parse_until(tokens, depth))
    return node


def _parse_until(tokens: _Tokenizer, depth: int) -> LtlFormula:
    node = _parse_unary(tokens, depth)
    if tokens.peek()[0] == "U":
        tokens.next()
        return Until(node, _parse_until(tokens, depth + 1))
    return node


def _parse_unary(tokens: _Tokenizer, depth: int) -> LtlFormula:
    kind, value, pos = tokens.peek()
    if depth > MAX_NESTING:
        raise LtlParseError(f"formula nests deeper than {MAX_NESTING} levels at offset {pos}")
    if kind == "F":
        tokens.next()
        return Eventually(_parse_unary(tokens, depth + 1))
    if kind == "G":
        tokens.next()
        return Always(_parse_unary(tokens, depth + 1))
    if kind == "NOT":
        tokens.next()
        inner_kind, inner_value, inner_pos = tokens.next()
        if inner_kind != "NAME":
            raise LtlParseError(
                f"negation applies only to atomic propositions (offset {inner_pos})"
            )
        return NotAtom(inner_value)
    return _parse_primary(tokens, depth)


def _parse_primary(tokens: _Tokenizer, depth: int) -> LtlFormula:
    kind, value, pos = tokens.next()
    if kind == "TRUE":
        return Top()
    if kind == "NAME":
        return Atom(value)
    if kind == "LPAREN":
        node = _parse_or(tokens, depth + 1)
        closing = tokens.next()
        if closing[0] != "RPAREN":
            raise LtlParseError(f"expected ')' at offset {closing[2]}")
        return node
    raise LtlParseError(f"unexpected token {value or 'end of input'!r} at offset {pos}")


# ---------------------------------------------------------------------------
# Guards: DNF constraints over label sets


@dataclass(frozen=True)
class Guard:
    """Disjunction of literal conjunctions, evaluated on a label set.

    Each clause is a set of ``(symbol, positive)`` literals; the empty
    clause is true everywhere, so ``Guard.true()`` has one empty clause
    and the unsatisfiable guard has no clauses at all.
    """

    clauses: frozenset[frozenset[tuple[str, bool]]]

    @classmethod
    def true(cls) -> "Guard":
        return cls(frozenset({frozenset()}))

    @classmethod
    def clause(cls, literals) -> "Guard":
        return cls(frozenset({frozenset(literals)}))

    def merged(self, other: "Guard") -> "Guard":
        return Guard(self.clauses | other.clauses)

    def satisfied_by(self, labels: LabelSet) -> bool:
        return any(
            all((name in labels) == positive for name, positive in clause)
            for clause in self.clauses
        )

    def format(self) -> str:
        if not self.clauses:
            raise ValueError("unsatisfiable guard has no textual form")
        parts = []
        for clause in self.clauses:
            if not clause:
                parts.append("true")
            else:
                literals = sorted(clause, key=lambda lit: (lit[0], not lit[1]))
                parts.append("&".join(name if pos else f"!{name}" for name, pos in literals))
        return " | ".join(sorted(parts))


def parse_guard(text: str) -> Guard:
    clauses = []
    for part in text.split("|"):
        part = part.strip()
        if part == "true":
            clauses.append(frozenset())
            continue
        literals = []
        for raw in part.split("&"):
            raw = raw.strip()
            if not raw:
                raise LtlParseError(f"empty literal in guard {text!r}")
            if raw.startswith("!"):
                literals.append((raw[1:].strip(), False))
            else:
                literals.append((raw, True))
        clauses.append(frozenset(literals))
    return Guard(frozenset(clauses))


# ---------------------------------------------------------------------------
# Büchi automata


@dataclass
class BuchiAutomaton:
    """Nondeterministic Büchi automaton with edge guards over label sets.

    A run consumes one label set per edge taken, starting from ``initial``
    (the first letter is consumed by the first edge); it accepts when some
    accepting state repeats forever.

    The edge set is fixed at construction: each state's successor list is
    built once, in ``order`` position, and passes that drop edges return
    a new automaton.
    """

    order: list[str]
    initial: str
    accepting: frozenset[str]
    transitions: dict[tuple[str, str], Guard]

    def __post_init__(self) -> None:
        position = {s: i for i, s in enumerate(self.order)}
        self._successors: dict[str, list[str]] = {s: [] for s in self.order}
        for (src, dst) in self.transitions:
            self._successors[src].append(dst)
        for targets in self._successors.values():
            targets.sort(key=position.__getitem__)

    def successors(self, state: str) -> list[tuple[str, Guard]]:
        return [(dst, self.transitions[(state, dst)]) for dst in self._successors[state]]

    def edges(self) -> list[tuple[str, str]]:
        """Every transition, by source then target ``order`` position."""
        return [(src, dst) for src in self.order for dst in self._successors[src]]

    def to_document(self) -> dict:
        return {
            "states": list(self.order),
            "initial": self.initial,
            "accepting": [s for s in self.order if s in self.accepting],
            "transitions": [
                {"from": src, "to": dst, "guard": self.transitions[(src, dst)].format()}
                for (src, dst) in self.edges()
            ],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "BuchiAutomaton":
        transitions = {
            (entry["from"], entry["to"]): parse_guard(entry["guard"])
            for entry in doc["transitions"]
        }
        return cls(
            order=list(doc["states"]),
            initial=doc["initial"],
            accepting=frozenset(doc["accepting"]),
            transitions=transitions,
        )

    def to_dot(self) -> str:
        lines = ["digraph buchi {", "  rankdir=LR;", "  node [shape=circle];"]
        for state in self.order:
            shape = ", peripheries=2" if state in self.accepting else ""
            marker = ' style="bold"' if state == self.initial else ""
            lines.append(f'  {state} [label="{state}"{shape}{marker}];'.replace(", p", " p"))
        for (src, dst) in self.edges():
            lines.append(f'  {src} -> {dst} [label="{self.transitions[(src, dst)].format()}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tableau construction


def to_buchi(formula: LtlFormula) -> BuchiAutomaton:
    """Compile a formula into a language-equivalent Büchi automaton."""
    nodes, incoming = _expand_tableau(formula)
    eventualities = _eventualities(formula)

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
        nid: Guard.clause(
            {(f.name, True) for f in old if isinstance(f, Atom)}
            | {(f.name, False) for f in old if isinstance(f, NotAtom)}
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

    start = (init, 1)
    reachable: dict[tuple[str, int], None] = {start: None}
    queue = deque([start])
    product_edges: list[tuple[tuple[str, int], tuple[str, int], Guard]] = []
    while queue:
        src_state = queue.popleft()
        src, counter = src_state
        nxt = advance(src, counter)
        for nid in targets.get(src, ()):
            dst_state = (nid, nxt)
            product_edges.append((src_state, dst_state, guards[nid]))
            if dst_state not in reachable:
                reachable[dst_state] = None
                queue.append(dst_state)

    names = {state: f"b{i}" for i, state in enumerate(reachable)}
    accepting = frozenset(
        names[(nid, counter)]
        for (nid, counter) in reachable
        if counter == 1 and nid != init and nid in fairness[0]
    )
    transitions: dict[tuple[str, str], Guard] = {}
    for src_state, dst_state, guard in product_edges:
        edge = (names[src_state], names[dst_state])
        transitions[edge] = guard if edge not in transitions else transitions[edge].merged(guard)
    return BuchiAutomaton(
        order=[names[s] for s in reachable],
        initial=names[start],
        accepting=accepting,
        transitions=transitions,
    )


def _eventualities(formula: LtlFormula) -> list[LtlFormula]:
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


def _expand_tableau(
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
# Lasso words


def _check_lasso(prefix, cycle) -> tuple[list[LabelSet], int, int]:
    if not cycle:
        raise ValueError("lasso cycle must be non-empty")
    word = [frozenset(letter) for letter in list(prefix) + list(cycle)]
    return word, len(prefix), len(cycle)


def accepts_lasso(aut: BuchiAutomaton, prefix, cycle) -> bool:
    """Whether the automaton accepts ``prefix . cycle^ω``.

    Searches the product of the automaton with the lasso's positions for a
    reachable cycle through an accepting state.
    """
    word, plen, clen = _check_lasso(prefix, cycle)
    total = plen + clen

    def next_pos(pos: int) -> int:
        nxt = pos + 1
        return nxt if nxt < total else plen

    by_state: dict[str, list[tuple[str, Guard]]] = {
        state: aut.successors(state) for state in aut.order
    }
    successors: dict[tuple[str, int], list[tuple[str, int]]] = {}

    def succ(node: tuple[str, int]) -> list[tuple[str, int]]:
        cached = successors.get(node)
        if cached is None:
            state, pos = node
            cached = [
                (dst, next_pos(pos))
                for (dst, guard) in by_state[state]
                if guard.satisfied_by(word[pos])
            ]
            successors[node] = cached
        return cached

    start = (aut.initial, 0)
    reachable = {start}
    queue = deque([start])
    while queue:
        for nxt in succ(queue.popleft()):
            if nxt not in reachable:
                reachable.add(nxt)
                queue.append(nxt)

    candidates = [n for n in reachable if n[0] in aut.accepting]
    for cand in candidates:
        seen = set(succ(cand))
        queue = deque(seen)
        if cand in seen:
            return True
        while queue:
            node = queue.popleft()
            if node == cand:
                return True
            for nxt in succ(node):
                if nxt == cand:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def empty_word_accepting_states(aut: BuchiAutomaton) -> frozenset[str]:
    """States from which consuming empty label sets forever can accept."""
    empty: LabelSet = frozenset()
    adj: dict[str, list[str]] = {s: [] for s in aut.order}
    for (src, dst), guard in aut.transitions.items():
        if guard.satisfied_by(empty):
            adj[src].append(dst)

    good = set()
    for state in aut.order:
        if state not in aut.accepting:
            continue
        seen: set[str] = set()
        queue = deque(adj[state])
        while queue:
            node = queue.popleft()
            if node == state:
                good.add(state)
                queue.clear()
                break
            if node not in seen:
                seen.add(node)
                queue.extend(adj[node])

    result = set(good)
    changed = True
    while changed:
        changed = False
        for state in aut.order:
            if state not in result and any(dst in result for dst in adj[state]):
                result.add(state)
                changed = True
    return frozenset(result)


# ---------------------------------------------------------------------------
# Independent semantics: recursive evaluation on ultimately periodic words


def eval_ltl_on_lasso(formula: LtlFormula, prefix, cycle) -> bool:
    """Ground-truth satisfaction of ``formula`` on ``prefix . cycle^ω``.

    Evaluates every subformula at every distinct position of the lasso by
    structural recursion; cycle positions use fixpoint reasoning (a value
    at a cycle position depends only on the finitely many distinct
    positions reachable from it).
    """
    word, plen, clen = _check_lasso(prefix, cycle)
    total = plen + clen
    memo: dict[LtlFormula, list[bool]] = {}

    def ev(f: LtlFormula) -> list[bool]:
        cached = memo.get(f)
        if cached is not None:
            return cached
        match f:
            case Top():
                res = [True] * total
            case Atom(name):
                res = [name in word[i] for i in range(total)]
            case NotAtom(name):
                res = [name not in word[i] for i in range(total)]
            case And(left, right):
                lv, rv = ev(left), ev(right)
                res = [lv[i] and rv[i] for i in range(total)]
            case Or(left, right):
                lv, rv = ev(left), ev(right)
                res = [lv[i] or rv[i] for i in range(total)]
            case Eventually(sub):
                res = _eventually(ev(sub))
            case Always(sub):
                res = _always(ev(sub))
            case Until(left, right):
                res = _until(ev(left), ev(right))
            case _:
                raise TypeError(f"not a formula: {f!r}")
        memo[f] = res
        return res

    def _eventually(sub: list[bool]) -> list[bool]:
        res = [False] * total
        on_cycle = any(sub[plen:])
        for i in range(plen, total):
            res[i] = on_cycle
        for i in range(plen - 1, -1, -1):
            res[i] = sub[i] or res[i + 1]
        return res

    def _always(sub: list[bool]) -> list[bool]:
        res = [False] * total
        on_cycle = all(sub[plen:])
        for i in range(plen, total):
            res[i] = on_cycle
        for i in range(plen - 1, -1, -1):
            res[i] = sub[i] and res[i + 1]
        return res

    def _until(lv: list[bool], rv: list[bool]) -> list[bool]:
        res = [False] * total
        for i in range(plen, total):
            value = False
            j = i
            for _ in range(clen):
                if rv[j]:
                    value = True
                    break
                if not lv[j]:
                    break
                j += 1
                if j == total:
                    j = plen
            res[i] = value
        for i in range(plen - 1, -1, -1):
            res[i] = rv[i] or (lv[i] and res[i + 1])
        return res

    return ev(formula)[0]
