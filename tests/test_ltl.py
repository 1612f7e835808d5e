"""Formula parsing, automaton compilation, and lasso-word acceptance."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from envgen import ATOMS, random_formula, random_lasso
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
    parse_guard,
    parse_ltl,
    to_buchi,
    to_text,
)
from ltlplan.ltl import Always


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


@pytest.mark.parametrize(
    "bad",
    ["!(a | b)", "!true", "F", "a U", "a b", "a ^ b", "", "(a", "a)"],
)
def test_malformed_input_rejected(bad):
    with pytest.raises(LtlParseError):
        parse_ltl(bad)


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


NESTED_SHAPES = {
    "eventually": lambda n: "F " * n + "a",
    "parentheses": lambda n: "(" * n + "a" + ")" * n,
    "until_chain": lambda n: "!a U " * n + "b",
    "conjunction_chain": lambda n: " & ".join(["a"] * (n + 1)),
}


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_nesting_bound_is_exact(shape):
    # Only parse: compiling F^k at this depth would take far too long.
    at_bound = parse_ltl(NESTED_SHAPES[shape](MAX_NESTING), alphabet=frozenset({"a", "b"}))
    assert parse_ltl(to_text(at_bound)) == at_bound
    with pytest.raises(LtlParseError, match="nests deeper"):
        parse_ltl(NESTED_SHAPES[shape](MAX_NESTING + 1))


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
    # And/Or render without redundant parentheses, so reparsing may regroup
    # them; the rendering must be a fixpoint and the meaning must not change.
    again = parse_ltl(to_text(formula))
    assert to_text(again) == to_text(formula)
    assert again.atoms() == formula.atoms()
    letters = [frozenset(), frozenset({"a"}), frozenset({"b", "square"})]
    for i in range(len(letters)):
        prefix, cycle = letters[:i], letters[i:] or [frozenset()]
        assert eval_ltl_on_lasso(again, prefix, cycle) is eval_ltl_on_lasso(
            formula, prefix, cycle
        )


# ---------------------------------------------------------------------------
# Guards


def test_guard_parsing_and_satisfaction():
    guard = parse_guard("a&!b")
    assert guard.satisfied_by(frozenset({"a"}))
    assert not guard.satisfied_by(frozenset({"a", "b"}))
    assert not guard.satisfied_by(frozenset())
    assert Guard.true().satisfied_by(frozenset())
    assert parse_guard("true").satisfied_by(frozenset({"anything"}))


def test_guard_format_roundtrip():
    for text in ("true", "a", "!a", "a&!b"):
        assert parse_guard(parse_guard(text).format()).satisfied_by(
            frozenset({"a"})
        ) == parse_guard(text).satisfied_by(frozenset({"a"}))


def test_contradictory_guard_clause_never_satisfied():
    clause = Guard.clause([("a", True), ("a", False)])
    assert not clause.satisfied_by(frozenset({"a"}))
    assert not clause.satisfied_by(frozenset())


def test_guard_with_no_clauses_has_no_textual_form():
    with pytest.raises(ValueError):
        Guard(clauses=frozenset()).format()


def test_guard_merge_is_disjunction():
    merged = Guard.clause([("a", True)]).merged(Guard.clause([("b", True)]))
    assert merged.satisfied_by(frozenset({"a"}))
    assert merged.satisfied_by(frozenset({"b"}))
    assert not merged.satisfied_by(frozenset())


# ---------------------------------------------------------------------------
# Compilation golden


def test_single_eventuality_automaton_golden():
    aut = to_buchi(parse_ltl("F square"))
    assert aut.to_document() == {
        "states": ["b0", "b1", "b2", "b3"],
        "initial": "b0",
        "accepting": ["b1", "b3"],
        "transitions": [
            {"from": "b0", "to": "b1", "guard": "square"},
            {"from": "b0", "to": "b2", "guard": "true"},
            {"from": "b1", "to": "b3", "guard": "true"},
            {"from": "b2", "to": "b1", "guard": "square"},
            {"from": "b2", "to": "b2", "guard": "true"},
            {"from": "b3", "to": "b3", "guard": "true"},
        ],
    }
    assert empty_word_accepting_states(aut) == frozenset({"b1", "b3"})


def test_automaton_document_roundtrip():
    for text in ("F square", "G F a", "a U b & !c", "F (a & F b)"):
        aut = to_buchi(parse_ltl(text))
        doc = aut.to_document()
        again = BuchiAutomaton.from_document(doc)
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
