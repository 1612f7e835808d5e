"""Self-test of the benchmark's own code.

Run from the repository root::

    python3 -m pytest benchmarks -q

Covers generator determinism, the oracles against the README's
bundled-map examples and against ``ltlplan``'s own semantic evaluator,
and the metric names ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from gen import ap, conj  # noqa: E402
from worker import call_cli  # noqa: E402


def load_map(path: Path) -> gen.Grid:
    """A bundled map in the benchmark's own model (JSON or ASCII art)."""
    text = path.read_text()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        start = doc.get("start")
        return gen.Grid(
            doc["width"], doc["height"],
            {(c["x"], c["y"]): frozenset(c["labels"]) for c in doc.get("cells", [])},
            {(c["x"], c["y"]) for c in doc.get("obstacles", [])},
            (start["x"], start["y"]) if start else None,
        )
    rows = [row for row in text.splitlines() if row.strip()]
    grid = gen.Grid(len(rows[0]), len(rows))
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == "#":
                grid.obstacles.add((x, y))
            elif ch != ".":
                grid.labels[(x, y)] = frozenset(ch)
    return grid


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    n = 2 * gen.ROUND[workload]
    first, again, other = (gen.take(workload, seed, n) for seed in (7, 7, 8))
    key = lambda ops: [(o.index, o.command, o.map.name, o.map.text, o.mode, o.ltl, o.run_index)
                       for o in ops]
    assert key(first) == key(again)
    assert key(first) != key(other)
    assert [o.family for o in first] == [o.family for o in other]  # seeds change content, not mix


def _run_example(tmp_path, map_name, mode, formula, command="run", trace_of=None):
    from ltlplan import cli

    mapfile = gen.MapFile(map_name, load_map(REPO / "maps" / map_name), "")
    op = gen.Op(0, command, mapfile, mode, "example", formula)
    argv = [command, "--map", str(REPO / "maps" / map_name), "--mode", mode, "--ltl", op.ltl]
    trace_doc = None
    if trace_of is not None:
        (tmp_path / "run.json").write_text(trace_of)
        argv += ["--trace", str(tmp_path / "run.json")]
        trace_doc = json.loads(trace_of)["trace"]
    code, stdout, _ = call_cli(cli.main, argv)
    regs = oracle.regions(mapfile.grid)
    is_feasible = oracle.feasible(mapfile.grid, formula, regs) if command == "run" else None
    return oracle.judge(op, code, stdout, trace_doc, regs, is_feasible), stdout


def test_oracles_accept_readme_examples(tmp_path):
    outcome, _ = _run_example(tmp_path, "shapes_obstacle_course.json", "composite",
                              conj(("F", ("and", ap("b"), ("not", "square"))), ("F", ap("p"))))
    assert outcome == oracle.PLANNED
    outcome, stored = _run_example(tmp_path, "shapes_open_room.json", "composite", ("F", ap("square")))
    assert outcome == oracle.PLANNED
    outcome, _ = _run_example(tmp_path, "shapes_open_room.json", "composite", ("F", ap("circle")),
                              command="check", trace_of=stored)
    assert outcome == oracle.CHECKED
    outcome, _ = _run_example(tmp_path, "nested_abc.txt", "primitive",
                              conj(("G", ("F", ap("a"))), ("G", ("F", ap("c")))))
    assert outcome in (oracle.PLANNED, oracle.UNSATISFIED, oracle.NO_PLAN)


def test_oracle_rejects_a_wrong_verdict(tmp_path):
    _, stored = _run_example(tmp_path, "shapes_open_room.json", "composite", ("F", ap("square")))
    doc = json.loads(stored)
    doc["satisfied"] = False
    op = gen.Op(0, "run", gen.MapFile("m", load_map(REPO / "maps" / "shapes_open_room.json"), ""),
                "composite", "example", ("F", ap("square")))
    regs = oracle.regions(op.map.grid)
    with pytest.raises(oracle.Wrong):
        oracle.judge(op, 0, json.dumps(doc), None, regs, True)
    # The same trace judged against a goal it misses: a truthful report, but exit 0
    # ("success") on a feasible goal is still a failed op.
    missed = gen.Op(0, "run", op.map, "composite", "example", ("F", ap("circle")))
    outcome = oracle.judge(missed, 0, json.dumps(doc), None, regs, True)
    assert outcome == oracle.UNSATISFIED and outcome in oracle.FAILURES


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return (rng.choice(("ap", "not")), rng.choice("abc"))
    kind = rng.choice(("and", "or", "U", "F", "G"))
    if kind in ("F", "G"):
        return (kind, _random_formula(rng, depth - 1))
    return (kind, _random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_lasso_evaluator_matches_ltlplan_semantics():
    from ltlplan.ltl import eval_ltl_on_lasso, parse_ltl

    rng = random.Random(5)
    letters = [frozenset(s) for s in ("", "a", "b", "c", "ab", "bc", "abc")]
    for _ in range(400):
        f = _random_formula(rng, 3)
        prefix = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        cycle = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
        expected = eval_ltl_on_lasso(parse_ltl(gen.render(f)), prefix, cycle)
        assert oracle.eval_lasso(f, prefix, cycle) == expected, gen.render(f)


def test_feasibility_respects_until_links():
    # start . b a : reaching b first is possible; reaching a before b is not.
    grid = gen.Grid(3, 1, {(1, 0): frozenset("b"), (2, 0): frozenset("a")})
    assert oracle.feasible(grid, ("U", ("not", "a"), ap("b")))
    assert not oracle.feasible(grid, ("U", ("not", "b"), ap("a")))
    assert oracle.feasible(grid, conj(("F", ap("a")), ("G", ("F", ap("b")))))
    assert not oracle.feasible(grid, ("F", ap("c")))


def test_benchmark_json_names_every_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(gen.WORKLOADS)


def test_run_size_is_fixed_by_seconds():
    # A run's ops depend on --seconds and the seed, never on the machine's speed,
    # so two runs with one seed attempt, and fail, the same ops.
    for workload in gen.WORKLOADS:
        assert gen.rounds(workload, 0.1) == gen.MIN_ROUNDS
        assert gen.rounds(workload, 30) * gen.ROUND_S[workload] == pytest.approx(30, rel=0.1)
