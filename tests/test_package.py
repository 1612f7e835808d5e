"""The package's public surface: what ``ltlplan`` exports."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltlplan
from ltlplan import GridMap, Guard, Region, parse_policy
from ltlplan.gridworld import extract_regions, parse_map
from ltlplan.ltl import Always, And, Atom, Eventually, NotAtom, Or, Until
from ltlplan.mvpolicy import Trace, TraceSegment, execute_plan, region_index


def test_every_exported_name_resolves_once():
    assert len(ltlplan.__all__) == len(set(ltlplan.__all__))
    missing = [name for name in ltlplan.__all__ if not hasattr(ltlplan, name)]
    assert missing == []


def test_a_policy_is_a_guard():
    assert parse_policy("b&!square") == Guard(frozenset({"b"}), frozenset({"square"}))


def test_cold_import_leaves_out_heavy_modules():
    # ``dataclasses`` imports ``inspect``, which imports ``ast``, ``dis`` and
    # ``tokenize``: a cost every fresh process pays before its first op.
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = ("dataclasses", "inspect")
    code = f"import sys, ltlplan.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_records_keep_value_semantics():
    x, y = Atom("x"), Atom("y")
    assert Atom("a") != NotAtom("a")
    assert len({Atom("a"), NotAtom("a")}) == 2
    assert And(x, y) != Or(x, y)
    assert Until(x, y) != And(x, y)
    assert Atom("a") != ("a",) and ("a",) != Atom("a")
    assert hash(Atom("a")) == hash(("a",))
    assert hash(And(x, y)) == hash((x, y))
    assert And(x, y) == And(Atom("x"), Atom("y"))
    assert hash(And(x, y)) == hash(And(Atom("x"), Atom("y")))
    frozen = ((x, "name"), (Until(x, y), "left"), (Always(x), "sub"), (Guard(), "positives"))
    for node, field in frozen:
        with pytest.raises(AttributeError):
            setattr(node, field, y)
    match Until(x, Eventually(y)):
        case Until(Atom(left), Eventually(Atom(right))):
            assert (left, right) == ("x", "y")
        case _:
            pytest.fail("positional patterns no longer bind")
    assert all(Guard().satisfied_by(labels) for labels in (frozenset(), frozenset({"a", "b"})))
    runs = ((0, 0, 2),)
    assert Region(0, runs, frozenset({"a"})) == Region(0, runs, frozenset({"a"}))
    assert Region(0, runs, frozenset({"a"})) != Region(1, runs, frozenset({"a"}))
    codes, labelsets = "\x01\x00", (None, frozenset())
    assert GridMap(2, 1, codes, labelsets) == GridMap(2, 1, codes, labelsets, None)
    assert GridMap(2, 1, codes, labelsets) != GridMap(2, 1, codes, labelsets, (0, 0))
    segment = TraceSegment(symbol="b", start=0, end=2, forced_violations=1)
    assert (segment.symbol, segment.start, segment.end, segment.forced_violations) == ("b", 0, 2, 1)
    assert segment == TraceSegment("b", 0, 2, 1)
    grid = parse_map(".a.b")
    index = region_index(extract_regions(grid)[0], grid)
    trace = execute_plan((0, 0), ["b"], ["a"], index, cycles=2)
    assert Trace.from_document(trace.to_document()) == trace
