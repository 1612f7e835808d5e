"""Complexity contracts on counted work rather than on the clock.

Each contract counts the bytecodes one call executes
(``envgen.count_opcodes``) at three input sizes and bounds the growth
exponent fitted over them (``envgen.growth_exponent``).  On one interpreter
the counts repeat to the opcode between processes, where wall time moves by
tens of percent; they differ between CPython versions, so the contracts
gate exponents, never absolute counts.  Tracing costs about 15x wall time,
so each case stays near a second traced.
"""

from __future__ import annotations

import pytest

from envgen import count_opcodes, growth_exponent
from ltlplan.gridworld import extract_regions, parse_map
from ltlplan.ltl import accepts_lasso, parse_ltl, to_buchi
from ltlplan.product import build_product, find_plan
from ltlplan.tsys import PRIMITIVE
from test_product import pruned_system, six_symbol_board

# Linear growth, with slack for a fit over three sizes.
LINEAR = 1.2

ITEM_26_STEP_2 = (
    "ROADMAP item 26 step 2: accepts_lasso runs one cycle_path search per"
    " accepting node, so a rejected lasso costs work quadratic in its cycle"
)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_26_STEP_2)
def test_rejected_lasso_check_is_linear_in_the_cycle():
    aut = to_buchi(parse_ltl("G F a & G F c"))
    sizes, counts = (100, 200, 400), []
    for n in sizes:
        # c never holds, so every accepting node's cycle search comes back empty.
        cycle = [frozenset({"a"}), frozenset(), frozenset({"b"}), frozenset()] * (n // 4)
        counts.append(count_opcodes(accepts_lasso, aut, [], cycle))
    assert not accepts_lasso(aut, [], cycle)
    assert growth_exponent(sizes, counts) <= LINEAR, counts


def test_plan_search_is_linear_in_the_product():
    aut = to_buchi(parse_ltl("F a & F b & F c & F d & F e & F f"))
    sizes, counts = [], []
    for side in (6, 8, 10):
        pa = build_product(pruned_system(six_symbol_board(side), PRIMITIVE), aut)
        sizes.append(len(pa.states))
        counts.append(count_opcodes(find_plan, pa))
    assert growth_exponent(sizes, counts) <= LINEAR, (sizes, counts)


def test_product_build_is_linear_in_the_product():
    aut = to_buchi(parse_ltl("F a & F b & F c & F d & F e & F f"))
    sizes, counts = [], []
    for side in (6, 8, 10):
        ts = pruned_system(six_symbol_board(side), PRIMITIVE)
        sizes.append(len(build_product(ts, aut).states))
        counts.append(count_opcodes(build_product, ts, aut))
    assert growth_exponent(sizes, counts) <= LINEAR, (sizes, counts)


def _map_stages(text: str) -> None:
    extract_regions(parse_map(text))


def test_map_stages_are_linear_in_the_cells():
    # An a/b checkerboard with a free start cell: one region, and one row run,
    # per cell, so the runs cost the most interpreter work a map can ask for.
    sizes, counts = [], []
    for side in (16, 32, 64):
        rows = ("".join("ab"[(x + y) % 2] for x in range(side)) for y in range(side))
        text = "." + "\n".join(rows)[1:]
        sizes.append(side * side)
        counts.append(count_opcodes(_map_stages, text))
    assert growth_exponent(sizes, counts) <= LINEAR, counts
