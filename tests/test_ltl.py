"""Formula parsing, automaton compilation, and lasso-word acceptance."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from envgen import (
    ATOMS,
    buchi_from_document,
    parse_guard,
    random_formula,
    random_lasso,
    random_letter,
    reference_buchi,
)
import ltlplan
from ltlplan import ltl
from ltlplan.ltl import (
    And,
    Atom,
    BuchiAutomaton,
    Eventually,
    Guard,
    MAX_NESTING,
    LtlParseError,
    NotAtom,
    Or,
    Top,
    Until,
    accepts_lasso,
    empty_word_accepting_states,
    eval_ltl_on_lasso,
    parse_ltl,
    to_buchi,
    to_text,
)
from ltlplan.ltl import Always
from ltlplan.cli import main
from ltlplan.mvpolicy import Trace, check_trace

RING = str(Path(__file__).resolve().parent.parent / "maps" / "nested_abc.txt")


# ---------------------------------------------------------------------------
# Parsing


def test_operator_precedence_and_associativity():
    assert parse_ltl("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))
    assert parse_ltl("!a U b & c | d") == Or(
        And(Until(NotAtom("a"), Atom("b")), Atom("c")), Atom("d")
    )
    assert parse_ltl("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))
    assert parse_ltl("F (a & b)") == Eventually(And(Atom("a"), Atom("b")))
    assert parse_ltl("G F a") == Always(Eventually(Atom("a")))
    assert parse_ltl("true U a") == Until(Top(), Atom("a"))
    assert parse_ltl("true") == Top()


def test_rendering_inserts_minimal_parentheses():
    assert to_text(parse_ltl("a U (b U c)")) == "a U b U c"
    assert to_text(Until(Until(Atom("a"), Atom("b")), Atom("c"))) == "(a U b) U c"
    assert to_text(parse_ltl("(a | b) & c")) == "(a | b) & c"
    assert to_text(parse_ltl("a & b | c")) == "a & b | c"


# Each malformed input and the whole message it is rejected with.
MALFORMED = {
    "!(a | b)": "negation applies only to atomic propositions (offset 1)",
    "!true": "negation applies only to atomic propositions (offset 1)",
    "!": "negation applies only to atomic propositions (offset 1)",
    "F": "unexpected token 'end of input' at offset 1",
    "a U": "unexpected token 'end of input' at offset 3",
    "a |": "unexpected token 'end of input' at offset 3",
    "": "unexpected token 'end of input' at offset 0",
    "a b": "unexpected token 'b' at offset 2",
    "F a a": "unexpected token 'a' at offset 4",
    "a ^ b": "unexpected character '^' at offset 2",
    "(a": "expected ')' at offset 2",
    "G (a": "expected ')' at offset 4",
    "a)": "unexpected token ')' at offset 1",
    "()": "unexpected token ')' at offset 1",
    "a & | b": "unexpected token '|' at offset 4",
}


@pytest.mark.parametrize("bad", list(MALFORMED))
def test_malformed_input_rejected(bad):
    with pytest.raises(LtlParseError) as raised:
        parse_ltl(bad)
    assert str(raised.value) == MALFORMED[bad]


@pytest.mark.parametrize(
    "text, offset",
    [("F é", 2), ("a²", 1), ("aé & b", 1), ("F a\u00a0& 1b", 6)],
)
def test_atoms_use_the_map_symbol_syntax(text, offset):
    bad = text[offset]
    with pytest.raises(LtlParseError, match=f"^unexpected character {bad!r} at offset {offset}$"):
        parse_ltl(text)


def test_operator_names_cannot_be_atoms():
    for reserved in ("F", "G", "U"):
        with pytest.raises(LtlParseError):
            parse_ltl(f"a & {reserved}")


def test_alphabet_restriction_flags_unknown_atoms():
    with pytest.raises(LtlParseError, match="ghost"):
        parse_ltl("F ghost", alphabet=frozenset({"a", "b"}))
    parse_ltl("F a", alphabet=frozenset({"a"}))


def test_atoms_collected():
    assert parse_ltl("F (a & !b) | c U a").atoms() == frozenset({"a", "b", "c"})
    assert parse_ltl("true").atoms() == frozenset()


# Each shape, and the offset at which one level more than MAX_NESTING fails.
NESTED_SHAPES = {
    "eventually": (lambda n: "F " * n + "a", 202),
    "parentheses": (lambda n: "(" * n + "a" + ")" * n, 101),
    "until_chain": (lambda n: "!a U " * n + "b", 505),
    "conjunction_chain": (lambda n: " & ".join(["a"] * (n + 1)), 404),
    "disjunction_chain": (lambda n: " | ".join(["a"] * (n + 1)), 404),
}


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_nesting_bound_is_exact(shape):
    nest, offset = NESTED_SHAPES[shape]
    # Only parse: compiling F^k at this depth would take far too long.
    at_bound = parse_ltl(nest(MAX_NESTING), alphabet=frozenset({"a", "b"}))
    assert parse_ltl(to_text(at_bound)) == at_bound
    with pytest.raises(LtlParseError) as raised:
        parse_ltl(nest(MAX_NESTING + 1))
    assert str(raised.value) == (
        f"formula nests deeper than {MAX_NESTING} levels at offset {offset}"
    )


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_parsing_spends_at_most_five_frames_per_nesting_level(shape):
    # MAX_NESTING's comment budgets five frames per level against Python's
    # recursion limit; count the deepest stack of Python calls while parsing.
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    text = NESTED_SHAPES[shape][0](MAX_NESTING)
    sys.setprofile(profile)
    try:
        parse_ltl(text)
    finally:
        sys.setprofile(None)
    assert deepest <= 5 * (MAX_NESTING + 2)


@st.composite
def formulas(draw, depth=3):
    atom = st.sampled_from(["a", "b", "longname", "square"])
    if depth == 0:
        kind = draw(st.sampled_from(["top", "atom", "notatom"]))
        if kind == "top":
            return Top()
        name = draw(atom)
        return Atom(name) if kind == "atom" else NotAtom(name)
    kind = draw(
        st.sampled_from(["top", "atom", "notatom", "and", "or", "until", "ev", "alw"])
    )
    if kind == "top":
        return Top()
    if kind in ("atom", "notatom"):
        name = draw(atom)
        return Atom(name) if kind == "atom" else NotAtom(name)
    if kind in ("and", "or", "until"):
        left = draw(formulas(depth=depth - 1))
        right = draw(formulas(depth=depth - 1))
        return {"and": And, "or": Or, "until": Until}[kind](left, right)
    sub = draw(formulas(depth=depth - 1))
    return Eventually(sub) if kind == "ev" else Always(sub)


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_rendering_roundtrip_preserves_meaning(formula):
    # Parentheses go only where the grammar needs them, so reparsing the
    # rendering rebuilds the very tree, right-nested & and | included.
    assert parse_ltl(to_text(formula)) == formula


# ---------------------------------------------------------------------------
# Guards


def test_guard_parsing_and_satisfaction():
    guard = parse_guard("a&!b")
    assert guard.satisfied_by(frozenset({"a"}))
    assert not guard.satisfied_by(frozenset({"a", "b"}))
    assert not guard.satisfied_by(frozenset())
    assert Guard().satisfied_by(frozenset())
    assert parse_guard("true").satisfied_by(frozenset({"anything"}))


def test_guard_format_roundtrip():
    atoms = ["a", "b", "c", "d"]
    letters = [
        frozenset(x for i, x in enumerate(atoms) if mask >> i & 1) for mask in range(16)
    ]
    rng = random.Random(9)
    for _ in range(200):
        positives = frozenset(x for x in atoms if rng.random() < 0.3)
        negatives = frozenset(x for x in atoms if rng.random() < 0.3)
        guard = Guard(positives, negatives)
        assert parse_guard(guard.format()) == guard
        for letter in letters:
            expected = all(x in letter for x in positives) and all(
                x not in letter for x in negatives
            )
            assert guard.satisfied_by(letter) == expected


def test_contradictory_guard_clause_never_satisfied():
    clause = Guard(frozenset({"a"}), frozenset({"a"}))
    assert not clause.satisfied_by(frozenset({"a"}))
    assert not clause.satisfied_by(frozenset())


# ---------------------------------------------------------------------------
# Compilation golden


def test_single_eventuality_automaton_golden():
    # b0 still owes F square (level 0); b1 owes nothing (level 1, accepting).
    aut = to_buchi(parse_ltl("F square"))
    assert aut.to_document() == {
        "states": ["b0", "b1"],
        "initial": "b0",
        "accepting": ["b1"],
        "transitions": [
            {"from": "b0", "to": "b0", "guard": "true"},
            {"from": "b0", "to": "b1", "guard": "square"},
            {"from": "b1", "to": "b1", "guard": "true"},
        ],
    }
    assert empty_word_accepting_states(aut) == frozenset({"b1"})


def test_automaton_document_roundtrip():
    for text in ("F square", "G F a", "a U b & !c", "F (a & F b)"):
        aut = to_buchi(parse_ltl(text))
        doc = aut.to_document()
        again = buchi_from_document(doc)
        assert again.to_document() == doc
        assert again.order == aut.order
        assert again.accepting == aut.accepting


def test_dot_export_shape():
    dot = to_buchi(parse_ltl("F a")).to_dot()
    assert dot.startswith("digraph")
    assert "peripheries=2" in dot


# ---------------------------------------------------------------------------
# Acceptance semantics


A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})
E = frozenset()


@pytest.mark.parametrize(
    "text,prefix,cycle,expected",
    [
        ("a", [A], [E], True),
        ("a", [E], [A], False),
        ("!a", [E], [A], True),
        ("F a", [E, E], [A, E], True),
        ("F a", [E], [E], False),
        ("G a", [], [A], True),
        ("G a", [], [A, E], False),
        ("a U b", [A, AB], [E], True),
        ("a U b", [A], [E], False),
        ("a U b", [], [B], True),
        ("G F a", [], [A, E], True),
        ("G F a", [A], [E], False),
        ("F G a", [E], [A], True),
        ("F G a", [], [A, E], False),
        ("true", [], [E], True),
        ("F (a & b)", [A, B], [AB, E], True),
        ("G (a | b)", [A], [B, AB], True),
        ("G (a & b)", [A], [AB], False),
    ],
)
def test_hand_checked_words(text, prefix, cycle, expected):
    formula = parse_ltl(text)
    assert eval_ltl_on_lasso(formula, prefix, cycle) is expected
    assert accepts_lasso(to_buchi(formula), prefix, cycle) is expected


def test_lasso_needs_a_cycle():
    formula = parse_ltl("F a")
    with pytest.raises(ValueError, match="lasso cycle must be non-empty"):
        eval_ltl_on_lasso(formula, [A], [])
    with pytest.raises(ValueError, match="lasso cycle must be non-empty"):
        accepts_lasso(to_buchi(formula), [A], [])


def test_automaton_agrees_with_direct_evaluation_on_random_words():
    rng = random.Random(41)
    checked = 0
    for _ in range(80):
        formula = random_formula(rng, rng.randint(1, 8), ATOMS)
        aut = to_buchi(formula)
        for _ in range(5):
            prefix, cycle = random_lasso(rng, ATOMS)
            want = eval_ltl_on_lasso(formula, prefix, cycle)
            assert accepts_lasso(aut, prefix, cycle) is want, (
                to_text(formula),
                prefix,
                cycle,
            )
            checked += 1
    assert checked == 400


def test_automaton_agrees_with_direct_evaluation_on_long_prefixes():
    rng = random.Random(44)
    verdicts = []
    for _ in range(30):
        formula = random_formula(rng, rng.randint(1, 8), ATOMS)
        aut = to_buchi(formula)
        for _ in range(2):
            prefix = [random_letter(rng, ATOMS) for _ in range(rng.randint(50, 500))]
            cycle = [random_letter(rng, ATOMS) for _ in range(rng.randint(1, 4))]
            want = eval_ltl_on_lasso(formula, prefix, cycle)
            got = accepts_lasso(aut, prefix, cycle)
            assert got is want, (to_text(formula), len(prefix), cycle)
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_lasso_check_searches_cycles_from_cycle_positions_only(monkeypatch, tmp_path):
    # 800 unrolled cycles make a long prefix; no prefix position lies on a cycle.
    out = tmp_path / "run.json"
    argv = ["run", "--map", RING, "--ltl", "G F a & G F c", "--cycles", "800"]
    assert main([*argv, "--out", str(out)]) == 0
    trace = Trace.from_document(json.loads(out.read_text())["trace"])
    boundary = trace.segments[-trace.cycle_length].start
    cycle_letters = sum(1 for cell_idx in trace.word_cells if cell_idx > boundary)
    aut = to_buchi(parse_ltl("G F a & G F c"))
    calls = []
    cycle_path = ltl.cycle_path

    def counted(node, succ):
        calls.append(node)
        return cycle_path(node, succ)

    monkeypatch.setattr(ltl, "cycle_path", counted)
    assert check_trace(aut, trace)
    assert 0 < len(calls) <= len(aut.order) * cycle_letters


def test_lasso_check_memory_does_not_grow_with_the_prefix():
    # A search node per (state, prefix position) would peak at ~10 MB here.
    C = frozenset({"c"})
    prefix = [A, E, C, E] * 5000
    for text in ("G F a & G F c", "(!c U a) & F G !a"):
        formula = parse_ltl(text)
        aut = to_buchi(formula)
        for cycle in ([A, C], [C, E]):
            assert accepts_lasso(aut, prefix, cycle) is eval_ltl_on_lasso(formula, prefix, cycle)
        tracemalloc.start()
        try:
            accepts_lasso(aut, prefix, [A, C])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (text, peak)


def test_lasso_check_shares_equal_set_letters():
    # A library caller may pass mutable set letters; each distinct letter is
    # converted once, not once per position, so they cost what frozensets do.
    aut = to_buchi(parse_ltl("G F a & G F c"))
    peaks = {}
    for kind in (frozenset, set):
        prefix = [kind({"a"}), kind(), kind({"c"}), kind()] * 5000
        cycle = [kind({"a"}), kind({"c"})]
        tracemalloc.start()
        try:
            assert accepts_lasso(aut, prefix, cycle)
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[set] <= 2 * peaks[frozenset], peaks


def test_eventually_dual_to_always_not():
    rng = random.Random(42)
    pos = to_buchi(parse_ltl("F a"))
    neg = to_buchi(parse_ltl("G !a"))
    for _ in range(60):
        prefix, cycle = random_lasso(rng, ["a"])
        assert accepts_lasso(pos, prefix, cycle) is not accepts_lasso(neg, prefix, cycle)


def test_empty_word_acceptance_matches_idling_lasso():
    # A state admits idling exactly when an all-empty cycle from it is accepting.
    for text in ("F a", "G a", "G F a", "a U b", "F (a & F b)"):
        aut = to_buchi(parse_ltl(text))
        idle_ok = empty_word_accepting_states(aut)
        shifted = BuchiAutomaton(
            order=aut.order,
            initial=aut.initial,
            accepting=aut.accepting,
            transitions=aut.transitions,
        )
        for state in aut.order:
            rebased = BuchiAutomaton(
                order=shifted.order,
                initial=state,
                accepting=shifted.accepting,
                transitions=shifted.transitions,
            )
            assert accepts_lasso(rebased, [], [E]) is (state in idle_ok), (text, state)


# ---------------------------------------------------------------------------
# The automaton against the set-based reference tableau


def _subformulas(formula) -> set:
    match formula:
        case And(left, right) | Or(left, right) | Until(left, right):
            return {formula} | _subformulas(left) | _subformulas(right)
        case Eventually(sub) | Always(sub):
            return {formula} | _subformulas(sub)
    return {formula}


def _renders_alike(formula) -> bool:
    """Whether two distinct subformulas share one ``to_text`` rendering."""
    subs = _subformulas(formula)
    return len({to_text(f) for f in subs}) < len(subs)


# The goals benchmark families at k = 4, 5, and the k = 6 sizes on ROADMAP.
FAMILIES = [
    *(" & ".join(f"F {a}" for a in "abcdef"[:k]) for k in (4, 5, 6)),
    *(" & ".join(f"G F {a}" for a in "abcdef"[:k]) for k in (4, 5, 6)),
    *(" & ".join(f"!{a} U {b}" for a, b in zip("abcdef", "bcdef"[:k])) for k in (4, 5)),
]


def _verdicts(formula, aut, reference, rng, atoms, lassos: int) -> list[bool]:
    """Check both automata against the evaluator on seeded lassos; return its verdicts."""
    verdicts = []
    for _ in range(lassos):
        prefix, cycle = random_lasso(rng, atoms)
        want = eval_ltl_on_lasso(formula, prefix, cycle)
        assert accepts_lasso(aut, prefix, cycle) is want, (to_text(formula), prefix, cycle)
        assert accepts_lasso(reference, prefix, cycle) is want, (to_text(formula), prefix, cycle)
        verdicts.append(want)
    return verdicts


@pytest.mark.parametrize("text", FAMILIES)
def test_family_automaton_matches_reference(text):
    formula = parse_ltl(text)
    atoms = sorted(formula.atoms())
    verdicts = _verdicts(formula, to_buchi(formula), reference_buchi(formula),
                         random.Random(29), atoms, 100)
    assert True in verdicts and False in verdicts


def test_random_automata_match_reference_or_semantics():
    rng = random.Random(8)
    verdicts = []
    for _ in range(1000):
        formula = random_formula(rng, rng.randint(1, 9), ATOMS)
        verdicts += _verdicts(formula, to_buchi(formula), reference_buchi(formula),
                              rng, ATOMS, 20)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


# Each holds ``a | (b | c)`` beside ``(a | b) | c``, two subformulas that
# once rendered alike and tied in closure order.
ALIKE_FORMULAS = [
    "G ((a | (b | c)) & ((a | b) | c))",
    "F (a | (b | c)) & F ((a | b) | c)",
]

_COMPILE_ALL = (
    "import json, sys\n"
    "from ltlplan.ltl import parse_ltl, to_buchi\n"
    "docs = [to_buchi(parse_ltl(text)).to_document() for text in json.loads(sys.argv[1])]\n"
    "print(json.dumps(docs))\n"
)


# Edges reaching one target under incomparable guards, e.g. ``a`` and ``b``.
COPY_FORMULAS = ["G (a | F b)", "G (a | b) & G F c"]


def test_compile_output_is_independent_of_hash_seed():
    package_root = str(Path(ltlplan.__file__).resolve().parent.parent)
    outputs = set()
    texts = [*ALIKE_FORMULAS, *COPY_FORMULAS, *FAMILIES[:2]]
    for seed in ("0", "3", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
        done = subprocess.run(
            [sys.executable, "-c", _COMPILE_ALL, json.dumps(texts)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1

    rng = random.Random(43)
    for text in ALIKE_FORMULAS:
        formula = parse_ltl(text)
        assert not _renders_alike(formula)
        aut = to_buchi(formula)
        for _ in range(300):
            prefix, cycle = random_lasso(rng, ATOMS)
            assert accepts_lasso(aut, prefix, cycle) is eval_ltl_on_lasso(
                formula, prefix, cycle
            ), (text, prefix, cycle)


def test_compile_renders_each_subformula_once(monkeypatch):
    calls = 0
    render = ltl._render

    def counted(formula, parent_level):
        nonlocal calls
        calls += 1
        return render(formula, parent_level)

    formula = parse_ltl("G F a & G F b & G F c & G F d & G F e")
    monkeypatch.setattr(ltl, "_render", counted)
    to_buchi(formula)
    assert calls <= 200


def _conjunction(template: str, atoms: str) -> str:
    return " & ".join(template.format(a) for a in atoms)


LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _until_chain(k: int) -> str:
    return " & ".join(f"!{a} U {b}" for a, b in zip(LETTERS, LETTERS[1 : k + 1]))


@pytest.mark.parametrize("k", range(1, 9))
def test_automaton_sizes_are_bounded(k):
    # Hand-built automata need k + 1 states for G F^k and 2^k for F^k.
    atoms = LETTERS[:k]
    assert len(to_buchi(parse_ltl(_conjunction("G F {}", atoms))).order) <= k + 2
    assert len(to_buchi(parse_ltl(_conjunction("F {}", atoms))).order) <= 2 ** (k + 1)
    assert len(to_buchi(parse_ltl(_until_chain(k))).order) <= k + 3


def test_each_obligation_set_is_expanded_once(monkeypatch):
    expanded = []
    expand = ltl._expand_tableau

    def counted(new, rules, budget):
        expanded.append(new)
        return expand(new, rules, budget)

    monkeypatch.setattr(ltl, "_expand_tableau", counted)
    rng = random.Random(30)
    texts = FAMILIES + [to_text(random_formula(rng, rng.randint(1, 9), ATOMS)) for _ in range(200)]
    for text in texts:
        expanded.clear()
        aut = to_buchi(parse_ltl(text))
        assert len(set(expanded)) == len(expanded) <= len(aut.order), text
    # G F a & ... & G F f: the formula itself, then the six carried G F's.
    expanded.clear()
    to_buchi(parse_ltl(_conjunction("G F {}", "abcdef")))
    assert len(expanded) == 2


def test_tableau_bound_is_exact(monkeypatch):
    # G F a & ... & G F e expands two obligation sets, the formula and the
    # five carried G F's, into 2^5 leaves each.
    formula = parse_ltl(_conjunction("G F {}", "abcde"))
    document = to_buchi(formula).to_document()
    monkeypatch.setattr(ltl, "MAX_TABLEAU_EDGES", 64)
    assert to_buchi(formula).to_document() == document
    monkeypatch.setattr(ltl, "MAX_TABLEAU_EDGES", 63)
    with pytest.raises(LtlParseError, match="exceeds 63 edges"):
        to_buchi(formula)


# F^11 needs 179k tableau leaves, G F^17 over 2^17.
WIDE_FORMULAS = {
    "F^11": _conjunction("F {}", LETTERS[:11]),
    "F^12": _conjunction("F {}", LETTERS[:12]),
    "G F^17": _conjunction("G F {}", LETTERS[:17]),
}


@pytest.mark.parametrize("name", sorted(WIDE_FORMULAS))
def test_too_wide_formula_exits_2_quickly(name, tmp_path, capsys):
    out = tmp_path / "buchi.json"
    begin = time.perf_counter()
    assert main(["compile", "--ltl", WIDE_FORMULAS[name], "--out", str(out)]) == 2
    assert time.perf_counter() - begin < 3.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"exceeds {ltl.MAX_TABLEAU_EDGES} edges" in err
    assert not out.exists()


# Each of these exceeded the bound before each obligation set was expanded once.
FORMERLY_WIDE_FORMULAS = {
    "F^9": _conjunction("F {}", LETTERS[:9]),
    "G F^8": _conjunction("G F {}", LETTERS[:8]),
    "G F^10": _conjunction("G F {}", LETTERS[:10]),
}


@pytest.mark.parametrize("name", sorted(FORMERLY_WIDE_FORMULAS))
def test_formerly_too_wide_formula_compiles_quickly(name, tmp_path):
    out = tmp_path / "buchi.json"
    begin = time.perf_counter()
    assert main(["compile", "--ltl", FORMERLY_WIDE_FORMULAS[name], "--out", str(out)]) == 0
    assert time.perf_counter() - begin < 3.0
    assert json.loads(out.read_text())["accepting"]


def test_widest_family_formula_compiles_unchanged(tmp_path):
    # G F a & ... & G F f, the widest test family, compiles to k + 2 = 8
    # states; the digest pins that output.
    out = tmp_path / "buchi.json"
    assert main(["compile", "--ltl", _conjunction("G F {}", "abcdef"), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["states"]) == 8
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "91af909c929983879774e9536ea658bf42d84ad7bf1cd66b3c469b41d86ca510"
