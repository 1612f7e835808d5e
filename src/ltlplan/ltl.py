"""Linear temporal logic over task symbols, and its Büchi compilation.

The formula grammar is negation-normal: negation applies only to atomic
propositions, and there is no next-step operator.  Surface syntax uses
``F`` (eventually), ``G`` (always), ``U`` (until), ``&``, ``|``, ``!``
and ``true``; ``U`` binds tighter than ``&``, which binds tighter than
``|``, and the unary operators bind tightest.

Compilation to a Büchi automaton uses the on-the-fly tableau: an
obligation set is split into leaves, each a set of "now" obligations
(whose literals guard the letter) and a set of "next" obligations carried
forward.  Each distinct obligation set is expanded once.  Every leaf is an
edge with one mark per eventuality it discharges or never promised (a
transition-based generalized automaton, Gastin & Oddoux, CAV 2001), and
the marks are degeneralized by levels: a state is a (next set, level)
pair, and level ``k`` of ``k`` eventualities accepts.  A carried ``F φ``
is dropped beside a carried ``G F φ``, so ``G F^k`` needs ``k + 2``
states.  The tableau runs on integer bitsets over the formula's closure
(its distinct subformulas, numbered once in ``to_text`` order, which
renders distinct formulas distinctly), so each subformula is rendered
once per compilation and the output does not depend on the interpreter's
hash seed.  ``eval_ltl_on_lasso`` is an independent recursive evaluator over
ultimately-periodic words used to cross-check the construction.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .gridworld import KEYWORDS, SYMBOL, bfs_tree, cycle_path, dot_text

LabelSet = frozenset[str]


class LtlParseError(ValueError):
    """Raised for syntax errors, undeclared atoms, grammar violations, or too wide a formula."""


# ---------------------------------------------------------------------------
# Formula AST


class LtlFormula(tuple):
    """Base class for formula nodes, each a ``namedtuple`` of its fields.

    A node equals only a node of the same class with equal fields, and
    hashes as the plain tuple of its fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def atoms(self) -> frozenset[str]:
        return frozenset(f.name for f in _subformulas(self) if isinstance(f, (Atom, NotAtom)))


class Top(namedtuple("Top", ""), LtlFormula):
    __slots__ = ()


class Atom(namedtuple("Atom", "name"), LtlFormula):
    __slots__ = ()


class NotAtom(namedtuple("NotAtom", "name"), LtlFormula):
    __slots__ = ()


class And(namedtuple("And", "left right"), LtlFormula):
    __slots__ = ()


class Or(namedtuple("Or", "left right"), LtlFormula):
    __slots__ = ()


class Until(namedtuple("Until", "left right"), LtlFormula):
    __slots__ = ()


class Eventually(namedtuple("Eventually", "sub"), LtlFormula):
    __slots__ = ()


class Always(namedtuple("Always", "sub"), LtlFormula):
    __slots__ = ()


def _subformulas(formula: LtlFormula) -> list[LtlFormula]:
    """Distinct subformulas of ``formula`` in pre-order discovery."""
    found: dict[LtlFormula, None] = {}

    def walk(f: LtlFormula) -> None:
        if f not in found:
            found[f] = None
            for field in f:
                if isinstance(field, LtlFormula):
                    walk(field)

    walk(formula)
    return list(found)


# The binary operators, loosest first: token kind, text, node class and
# whether it is right-associative.  A node's precedence level is its entry's
# index here; the unary operators bind tightest, at ``_LEVEL_UNARY``, so
# they never need parentheses.
_BINARY = (("OR", "|", Or, False), ("AND", "&", And, False), ("U", "U", Until, True))
_LEVEL_OF = {entry[2]: level for level, entry in enumerate(_BINARY)}
_LEVEL_UNARY = len(_BINARY)


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
        case Eventually(sub):
            return f"F {_render(sub, _LEVEL_UNARY)}"
        case Always(sub):
            return f"G {_render(sub, _LEVEL_UNARY)}"
        case Or(left, right) | And(left, right) | Until(left, right):
            level = _LEVEL_OF[type(formula)]
            _, op, _, right_assoc = _BINARY[level]
            # The operand on the side the operator does not associate to keeps
            # its own-level parentheses.
            text = (f"{_render(left, level + right_assoc)} {op} "
                    f"{_render(right, level + 1 - right_assoc)}")
            return f"({text})" if level < parent_level else text
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Parser

# One token per match: space to skip, an operator or a symbol, or any other
# character, which is an error.  The symbols in ``KEYWORDS`` are keywords.
_TOKEN_RE = re.compile(rf"(?P<space>\s+)|(?P<token>[&|!()]|{SYMBOL})|(?P<bad>.)", re.S)
_KINDS = {"&": "AND", "|": "OR", "!": "NOT", "(": "LPAREN", ")": "RPAREN",
          **{word: word.upper() for word in KEYWORDS}}

# Deepest accepted nesting, counting each F, G, U, &, | and parenthesis on
# the way down.  Parsing costs up to five frames per level and later passes
# recurse over the tree, so this stays far below Python's recursion limit.
MAX_NESTING = 100

# Most tableau leaves one compilation may record, summed over the distinct
# obligation sets it expands, duplicates included.  This bounds formula
# width, which MAX_NESTING does not: ``F a0 & ... & F a10`` needs 179k
# leaves, ``F a0 & ... & F a8`` 20k and ``G F a0 & ... & G F a9`` 2k, while
# every formula the benchmarks compile needs under 300.
MAX_TABLEAU_EDGES = 100_000


def parse_ltl(text: str, alphabet: frozenset[str] | None = None) -> LtlFormula:
    """Parse a formula; with ``alphabet`` given, atoms outside it are errors."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind, value, pos = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise LtlParseError(f"unexpected character {value!r} at offset {pos}")
        if kind == "token":
            tokens.append((_KINDS.get(value, "NAME"), value, pos))
    # The parse pops tokens off the end, so they lie in reverse behind an end marker.
    tokens = [("END", "", len(text)), *reversed(tokens)]
    formula = _parse_binary(tokens, 0, 0)
    kind, value, pos = tokens[-1]
    if kind != "END":
        raise LtlParseError(f"unexpected token {value!r} at offset {pos}")
    if alphabet is not None:
        undeclared = formula.atoms() - alphabet
        if undeclared:
            listed = ", ".join(sorted(undeclared))
            raise LtlParseError(f"undeclared atomic propositions: {listed}")
    return formula


def _parse_binary(tokens: list[tuple[str, str, int]], depth: int, level: int) -> LtlFormula:
    """Parse operators of ``_BINARY[level]`` and tighter ones; past them, a unary formula."""
    if level == _LEVEL_UNARY:
        return _parse_unary(tokens, depth)
    kind, _, node_class, right_assoc = _BINARY[level]
    node = _parse_binary(tokens, depth, level + 1)
    while tokens[-1][0] == kind:
        tokens.pop()
        depth += 1
        # A right-associative operator's right operand may hold it again.
        node = node_class(node, _parse_binary(tokens, depth, level + 1 - right_assoc))
    return node


def _parse_unary(tokens: list[tuple[str, str, int]], depth: int) -> LtlFormula:
    kind, value, pos = tokens.pop()
    if depth > MAX_NESTING:
        raise LtlParseError(f"formula nests deeper than {MAX_NESTING} levels at offset {pos}")
    if kind == "F":
        return Eventually(_parse_unary(tokens, depth + 1))
    if kind == "G":
        return Always(_parse_unary(tokens, depth + 1))
    if kind == "NOT":
        kind, value, pos = tokens.pop()
        if kind != "NAME":
            raise LtlParseError(f"negation applies only to atomic propositions (offset {pos})")
        return NotAtom(value)
    if kind == "TRUE":
        return Top()
    if kind == "NAME":
        return Atom(value)
    if kind == "LPAREN":
        node = _parse_binary(tokens, depth + 1, 0)
        kind, _, pos = tokens.pop()
        if kind != "RPAREN":
            raise LtlParseError(f"expected ')' at offset {pos}")
        return node
    raise LtlParseError(f"unexpected token {value or 'end of input'!r} at offset {pos}")


# ---------------------------------------------------------------------------
# Guards: literal conjunctions over label sets


class Guard(namedtuple("Guard", "positives negatives", defaults=(frozenset(), frozenset()))):
    """Conjunction of literals, evaluated on a label set.

    A label set satisfies the guard when it holds every symbol in
    ``positives`` and none in ``negatives``; ``Guard()`` is true everywhere.
    """

    __slots__ = ()

    def satisfied_by(self, labels: LabelSet) -> bool:
        return self.positives <= labels and not self.negatives & labels

    def format(self) -> str:
        literals = sorted(
            [(name, False) for name in self.positives] + [(name, True) for name in self.negatives]
        )
        return "&".join(f"!{name}" if negated else name for name, negated in literals) or "true"


# ---------------------------------------------------------------------------
# Büchi automata


class BuchiAutomaton:
    """Nondeterministic Büchi automaton with edge guards over label sets.

    A run consumes one label set per edge taken, starting from ``initial``
    (the first letter is consumed by the first edge); it accepts when some
    accepting state repeats forever.

    The edge set is fixed at construction: each state's successor list is
    built once, in ``order`` position, and passes that drop edges return
    a new automaton.
    """

    def __init__(self, order: list[str], initial: str, accepting: frozenset[str],
                 transitions: dict[tuple[str, str], Guard]):
        self.order, self.initial, self.accepting, self.transitions = (
            order, initial, accepting, transitions)
        position = {s: i for i, s in enumerate(self.order)}
        self._successors: dict[str, list[str]] = {s: [] for s in self.order}
        for (src, dst) in self.transitions:
            self._successors[src].append(dst)
        for targets in self._successors.values():
            targets.sort(key=position.__getitem__)
        self._steps: dict[tuple[str, LabelSet], list[str]] = {}

    def step(self, state: str, letter: LabelSet) -> list[str]:
        """Successors of ``state`` whose guard admits ``letter``, in ``order`` position."""
        hits = self._steps.get((state, letter))
        if hits is None:
            hits = [
                dst
                for dst in self._successors[state]
                if self.transitions[(state, dst)].satisfied_by(letter)
            ]
            self._steps[(state, letter)] = hits
        return hits

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

    def to_dot(self) -> str:
        nodes = [(s, f'label="{s}"' + (" peripheries=2" if s in self.accepting else "")
                  + (' style="bold"' if s == self.initial else "")) for s in self.order]
        edges = [(src, dst, self.transitions[(src, dst)].format()) for src, dst in self.edges()]
        return dot_text("buchi", nodes, edges)


# ---------------------------------------------------------------------------
# Tableau construction


def to_buchi(formula: LtlFormula) -> BuchiAutomaton:
    """Compile a formula into a language-equivalent Büchi automaton.

    Raises ``LtlParseError`` when the tableau would record more than
    ``MAX_TABLEAU_EDGES`` leaves.
    """
    closure = _closure(formula)
    bit = {f: 1 << i for i, f in enumerate(closure)}
    rules = {b: _rule(f, bit) for f, b in bit.items()}
    # A leaf carries an eventuality's mark when its ``old`` set discharged the
    # goal or never promised it.  The first in closure order is checked last.
    marks = [
        (bit[ev], bit[ev.right if isinstance(ev, Until) else ev.sub])
        for ev in closure
        if isinstance(ev, (Until, Eventually))
    ]
    marks = marks[1:] + marks[:1]
    k = len(marks)
    # A carried ``F φ`` beside a carried ``G F φ`` changes no successor.
    redundant = [
        (bit[f], bit[f.sub])
        for f in closure
        if isinstance(f, Always) and isinstance(f.sub, Eventually)
    ]
    literals = [(bit[f], f) for f in closure if isinstance(f, (Atom, NotAtom))]
    literal_bits = sum(b for b, _ in literals)
    leaves: dict[int, list[tuple[int, int]]] = {}
    budget = MAX_TABLEAU_EDGES

    def targets(nxt: int, level: int) -> list[tuple[tuple, int]]:
        """Each edge's target state and guard literals, in leaf order."""
        nonlocal budget
        if nxt not in leaves:
            found = _expand_tableau(nxt, rules, budget)
            budget -= len(found)
            leaves[nxt] = [
                (old, carried & ~sum(f for gf, f in redundant if carried & gf))
                for old, carried in found
            ]
        # Level k restarts at 0, then each leaf climbs past the marks it carries.
        start = 0 if level == k else level
        groups: dict[tuple[int, int], set[int]] = {}
        for old, carried in leaves[nxt]:
            reached = start
            while reached < k and (not old & marks[reached][0] or old & marks[reached][1]):
                reached += 1
            groups.setdefault((carried, reached), set()).add(old & literal_bits)
        out = []
        for dst, options in groups.items():
            # Keep the weakest guards; each incomparable one after the first
            # goes to a copy of the target.
            weakest: list[int] = []
            for lits in sorted(options, key=lambda lits: (lits.bit_count(), lits)):
                if all(w & ~lits for w in weakest):
                    weakest.append(lits)
            out.append((dst, weakest[0]))
            out.extend((dst + (lits,), lits) for lits in weakest[1:])
        return out

    # A copy ``(next, level, guard)`` has the successors of ``(next, level)``.
    successors: dict[tuple[int, int], list[tuple[tuple, int]]] = {}
    edges: dict[tuple[tuple, tuple], int] = {}

    def expand(state: tuple) -> list[tuple]:
        key = state[:2]
        if key not in successors:
            successors[key] = targets(*key)
        for dst, lits in successors[key]:
            edges[(state, dst)] = lits
        return [dst for dst, _ in successors[key]]

    start = (bit[formula], max(k - 1, 0))
    reachable = list(bfs_tree([start], expand))
    names = {state: f"b{i}" for i, state in enumerate(reachable)}
    guards = {
        lits: Guard(
            frozenset(f.name for b, f in literals if lits & b and isinstance(f, Atom)),
            frozenset(f.name for b, f in literals if lits & b and isinstance(f, NotAtom)),
        )
        for lits in set(edges.values())
    }
    return BuchiAutomaton(
        order=[names[s] for s in reachable],
        initial=names[start],
        accepting=frozenset(names[s] for s in reachable if s[1] == k),
        transitions={(names[src], names[dst]): guards[lits] for (src, dst), lits in edges.items()},
    )


def _closure(formula: LtlFormula) -> list[LtlFormula]:
    """Distinct subformulas sorted by ``to_text``; no two render alike, so no ties."""
    return sorted(_subformulas(formula), key=to_text)


def _rule(f: LtlFormula, bit: dict[LtlFormula, int]) -> tuple[int, tuple[tuple[int, bool], ...]]:
    """How expanding ``f`` splits a tableau node.

    Returns the bit of the literal ``f`` contradicts (0 for none), then per
    branch the obligations added now and whether ``f`` is carried next.
    """
    match f:
        case Atom(name):
            return bit.get(NotAtom(name), 0), ((0, False),)
        case NotAtom(name):
            return bit.get(Atom(name), 0), ((0, False),)
        case And(left, right):
            return 0, ((bit[left] | bit[right], False),)
        case Or(left, right):
            return 0, ((bit[left], False), (bit[right], False))
        case Until(left, right):
            return 0, ((bit[left], True), (bit[right], False))
        case Eventually(sub):
            return 0, ((0, True), (bit[sub], False))
        case Always(sub):
            return 0, ((bit[sub], True),)
        case Top():
            return 0, ((0, False),)
    raise TypeError(f"not a formula: {f!r}")


def _expand_tableau(
    new: int, rules: dict[int, tuple[int, tuple[tuple[int, bool], ...]]], budget: int
) -> list[tuple[int, int]]:
    """Split an obligation set into its tableau leaves ``(old, next)``.

    Obligation sets are bitsets over the closure numbered in text order, so
    the lowest set bit of ``new`` is its textually smallest formula, the one
    expanded next.  Raises ``LtlParseError`` past ``budget`` leaves.
    """
    leaves: list[tuple[int, int]] = []
    pending = [(new, 0, 0)]
    while pending:
        new, old, nxt = pending.pop()
        if not new:
            if len(leaves) == budget:
                raise LtlParseError(
                    f"formula is too wide: its tableau exceeds {MAX_TABLEAU_EDGES} edges"
                )
            leaves.append((old, nxt))
            continue
        eta = new & -new
        conflict, branches = rules[eta]
        if old & conflict:
            continue
        new ^= eta
        for now, carried in branches:
            pending.append((new | (now & ~old), old | eta, nxt | eta if carried else nxt))
    return leaves


# ---------------------------------------------------------------------------
# Lasso words


def _check_lasso(prefix, cycle) -> tuple[list[LabelSet], int, int]:
    if not cycle:
        raise ValueError("lasso cycle must be non-empty")
    # One object per distinct letter, however many times the word repeats it.
    distinct: dict[LabelSet, LabelSet] = {}
    word = [distinct.setdefault(letter, letter) for letter in map(frozenset, [*prefix, *cycle])]
    return word, len(prefix), len(cycle)


def accepts_lasso(aut: BuchiAutomaton, prefix, cycle) -> bool:
    """Whether the automaton accepts ``prefix . cycle^ω``.

    Steps the set of live states through the prefix, then searches the
    product of the automaton with the cycle's positions for a cycle through
    an accepting state reachable from a live state at position 0.
    """
    word, plen, clen = _check_lasso(prefix, cycle)
    states = [aut.initial]
    for letter in word[:plen]:
        states = list(dict.fromkeys(dst for state in states for dst in aut.step(state, letter)))

    def succ(node: tuple[str, int]) -> list[tuple[str, int]]:
        state, i = node
        return [(dst, (i + 1) % clen) for dst in aut.step(state, word[plen + i])]

    return any(
        state in aut.accepting and cycle_path((state, i), succ) is not None
        for state, i in bfs_tree([(q, 0) for q in states], succ)
    )


def empty_word_accepting_states(aut: BuchiAutomaton) -> frozenset[str]:
    """States from which consuming empty label sets forever can accept.

    These are the states with an empty-guard path to an accepting state
    that lies on an empty-guard cycle.
    """

    def idle(state: str) -> list[str]:
        return aut.step(state, frozenset())

    back: dict[str, list[str]] = {s: [] for s in aut.order}
    for src in aut.order:
        for dst in idle(src):
            back[dst].append(src)
    cyclic = [s for s in aut.order if s in aut.accepting and cycle_path(s, idle) is not None]
    return frozenset(bfs_tree(cyclic, back.__getitem__))


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
