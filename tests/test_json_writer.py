"""The CLI's JSON writer against its oracle, ``json.dumps(doc, indent=2, sort_keys=True)``.

``cli._write_json`` renders documents itself (``cli._json_text``), because
with ``indent`` the ``json`` module runs its pure-Python encoder.  Every
document it writes must be byte-for-byte what that call writes: on every
document kind the CLI writes, from seeded maps and formulas, and on seeded
values that reach each of the writer's branches.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from envgen import map_document, map_symbols, random_formula, sea_with_islands
from ltlplan import cli
from ltlplan.ltl import to_text


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _cli_documents(tmp_path: Path, monkeypatch, seed: int) -> list:
    """Every document the CLI writes for one seeded map, in both modes, as passed to the writer."""
    written = []
    write = cli._write_json

    def spy(path, doc):
        written.append(doc)
        write(path, doc)

    monkeypatch.setattr(cli, "_write_json", spy)
    rng = random.Random(seed)
    grid = sea_with_islands(rng, max_side=8)
    symbols = sorted(map_symbols(grid))
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps(map_document(grid)))
    out, trace = str(tmp_path / "out.json"), str(tmp_path / "trace.json")
    formulas = [f"F {symbols[0]}", f"G F {symbols[-1]}", to_text(random_formula(rng, 4, symbols))]
    for mode in ("primitive", "composite"):
        base = ["--map", str(mapfile), "--mode", mode]
        stages = ["--emit-stages", str(tmp_path / f"stages-{mode}")]
        argvs = [["abstract", *base, "--out", out],
                 ["prune", *base, "--out", out, "--report", out, *stages],
                 ["prune", *base, "--out", out, "--drop-unreachable"]]
        for ltl in formulas:
            argvs += [["compile", "--ltl", ltl, "--out", out],
                      ["product", *base, "--ltl", ltl, "--out", out],
                      ["plan", *base, "--ltl", ltl, "--out", out, *stages],
                      ["run", *base, "--ltl", ltl, "--cycles", "2", "--out", trace, *stages],
                      ["check", *base, "--ltl", ltl, "--trace", trace, "--out", out]]
        for argv in argvs:
            cli.main(argv)
    return written


@pytest.mark.parametrize("seed", range(6))
def test_every_cli_document_matches_the_oracle(tmp_path, monkeypatch, capsys, seed):
    docs = _cli_documents(tmp_path, monkeypatch, seed)
    capsys.readouterr()
    kinds = {tuple(sorted(doc)) for doc in docs}
    # the system, report, automaton, product, plan, run and check documents
    assert len(kinds) == 7, kinds
    for doc in docs:
        assert cli._json_text(doc, "") == oracle(doc)


def test_the_written_file_is_the_oracle_plus_a_newline(tmp_path):
    doc = {"trace": {"cells": [{"x": 0, "y": 1}], "word": [("a",), ()]}, "satisfied": True}
    cli._write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_text() == oracle(doc) + "\n"


STRINGS = ["", "a", "q0|b16", "a&!b", "%s", "100%", 'say "hi"', "back\\slash", "tab\there",
           "line\nbreak", "\x00\x1f", "Büchi", " ", "😀", "€%d"]
KEYS = ["x", "y", "from", "to", "symbol", "é", "%(k)s", "a b", "\"", ""]


def _leaf(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice([0, 1, -1, 7, 2**70, -(2**63)])
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.5, 1e300, -2.5e-8, float("inf"), float("-inf")])
    return rng.choice(STRINGS)


def _records(rng: random.Random, depth: int):
    """A list of dicts that share one key set, usually with int or str columns."""
    keys = rng.sample(KEYS, rng.randint(1, 4))
    columns = {key: rng.choice([int, str, "mixed"]) for key in keys}
    rows = []
    for _ in range(rng.randint(1, 5)):
        row = {}
        for key, kind in columns.items():
            if kind is int:
                row[key] = rng.randrange(-5, 300)
            elif kind is str:
                row[key] = rng.choice(STRINGS)
            else:
                row[key] = _value(rng, depth - 1)
        rows.append(row)
    if rng.random() < 0.3:  # break the record shape in one row
        row = rng.choice(rows)
        key = rng.choice(keys)
        change = rng.randrange(4)
        if change == 0:
            row[key] = rng.choice([True, False, None, 1.0, [], {}, (1,)])
        elif change == 1:
            del row[key]
        elif change == 2:
            row[rng.choice([k for k in KEYS if k not in row] or ["extra"])] = 1
        else:
            rows[rows.index(row)] = rng.choice([[], 3, "row", (1, 2)])
    return tuple(rows) if rng.random() < 0.3 else rows


def _value(rng: random.Random, depth: int = 4):
    if depth <= 0 or rng.random() < 0.25:
        return _leaf(rng)
    kind = rng.randrange(5)
    if kind == 0:
        return {key: _value(rng, depth - 1) for key in rng.sample(KEYS, rng.randint(0, 4))}
    if kind == 1:
        return [_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 2:
        return tuple(_value(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return _records(rng, depth)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_values_match_the_oracle(seed):
    rng = random.Random(seed)
    for _ in range(1000):
        value = _value(rng)
        assert cli._json_text(value, "") == oracle(value), value


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}], [{}], [{}, {}],
    [{"x": 1, "y": 2}, {"y": 3, "x": 4}],  # key order differs, key set does not
    [{"n": True}, {"n": 1}], [{"n": 1}, {"n": 1.0}], [{"n": None}], [{"n": "a"}, {"n": 1}],
    [{"a": 1}, {"b": 1}], [{"a": 1}, {"a": 1, "b": 2}], [{"a": 1}, ["a"]],
    [{"k%s": 1}], [{"%": "%"}], {"%s": "%d"}, ["%s", {"v": "%%"}],
])
def test_edge_values_match_the_oracle(value):
    assert cli._json_text(value, "") == oracle(value)


def test_the_writer_loads_no_module_of_its_own():
    # The writer's quoting comes from ``json.encoder``, which ``import json``
    # already loads, so the CLI's cold import is unchanged.
    code = ("import sys, json; loaded = set(sys.modules); import json.encoder;"
            " print(sorted(set(sys.modules) - loaded))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
