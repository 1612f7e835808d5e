"""Byte-level CLI regression: every subcommand's output on fixed inputs.

``tests/golden/cli.json`` records, for each case, the exit code, stdout,
the sha256 of stderr without its ``[time]`` lines, and the sha256 of every
file the command writes.  Stdout of ``run``, ``plan`` and ``check`` is kept
as text, one list entry per line with its line ending, so a re-record
shows what changed; every other stdout is kept as its sha256.  Cases cover the three bundled maps in both
labeling modes, plus seeded ``envgen`` maps whose hubs and touching
regions exercise case1 merges and case2 ties.

To record the golden file (only ever for an intended output change)::

    PYTHONPATH=src python tests/test_golden.py

It prints one line per case added, removed or changed since the previous
record (``change_line``), then the case and change counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from envgen import (  # noqa: E402
    MAX_ATTEMPTS,
    harsh_map,
    map_document,
    map_symbols,
    sea_with_islands,
)
from ltlplan.cli import main  # noqa: E402

MAPS = Path(__file__).resolve().parent.parent / "maps"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
MODES = ("primitive", "composite")
# Commands whose stdout the golden file stores as text, not as a digest.
TEXT_COMMANDS = ("run", "plan", "check")

# Bundled map -> formulas from the README and the CLI and acceptance tests.
BUNDLED = {
    "ring": ("nested_abc.txt", ["F c", "G F c", "F b & G !b", "G F a & G F c"]),
    "open_room": (
        "shapes_open_room.json",
        ["F square", "F circle", "F circle & F square", "G F circle", "G !square"],
    ),
    "obstacle_course": (
        "shapes_obstacle_course.json",
        ["F (b & !square) & F p", "F square", "F (b & !square)"],
    ),
}


def _seeded_maps() -> dict[str, object]:
    maps = {}
    for seed in (3, 50, 53):
        maps[f"sea{seed}"] = sea_with_islands(random.Random(seed), max_side=12)
    for seed in (4, 5):
        rng = random.Random(seed)
        grids = (harsh_map(rng, max_side=10) for _ in range(MAX_ATTEMPTS))
        grid = next((g for g in grids if g is not None), None)
        if grid is None:
            raise RuntimeError(f"no harsh map for seed {seed} in {MAX_ATTEMPTS} attempts")
        maps[f"harsh{seed}"] = grid
    return maps


SEEDED = _seeded_maps()


def _seeded_formulas(grid) -> list[str]:
    symbols = sorted(map_symbols(grid))
    formulas = [f"F {symbols[0]}", f"G F {symbols[-1]}"]
    if len(symbols) > 1:
        formulas.append(f"F {symbols[0]} & F {symbols[1]}")
    return formulas


def _cases() -> dict[str, dict]:
    """Case name -> argv template; ``trace`` names the run a check reads."""
    cases: dict[str, dict] = {}

    def add(name: str, argv: list[str], trace: list[str] | None = None) -> None:
        cases[name] = {"argv": argv, "trace": trace}

    formulas: set[str] = set()
    for key, (filename, texts) in BUNDLED.items():
        path = str(MAPS / filename)
        formulas.update(texts)
        for mode in MODES:
            base = ["--map", path, "--mode", mode]
            tag = f"{key}-{mode}"
            add(f"abstract-{tag}", ["abstract", *base, "--dot", "{out}/ts.dot"])
            add(f"prune-{tag}", ["prune", *base, "--report", "{out}/report.json",
                                 "--emit-stages", "{out}/stages", "--dot", "{out}/ts.dot"])
            add(f"prune-drop-{tag}", ["prune", *base, "--drop-unreachable"])
            run_first = ["run", *base, "--ltl", texts[0]]
            for i, text in enumerate(texts):
                ltl = ["--ltl", text]
                add(f"product-{tag}-f{i}", ["product", *base, *ltl, "--dot", "{out}/pa.dot"])
                add(f"plan-{tag}-f{i}", ["plan", *base, *ltl, "--emit-stages", "{out}/stages"])
                add(f"run-{tag}-f{i}", ["run", *base, *ltl, "--emit-stages", "{out}/stages"])
                add(f"check-{tag}-f{i}", ["check", *base, *ltl, "--trace", "{trace}"], run_first)
    for key, grid in SEEDED.items():
        path = "{inputs}/" + f"{key}.json"
        for mode in MODES:
            base = ["--map", path, "--mode", mode]
            tag = f"{key}-{mode}"
            add(f"prune-{tag}", ["prune", *base, "--report", "{out}/report.json",
                                 "--emit-stages", "{out}/stages", "--dot", "{out}/ts.dot"])
            for i, text in enumerate(_seeded_formulas(grid)):
                add(f"run-{tag}-f{i}", ["run", *base, "--ltl", text, "--emit-stages", "{out}/stages"])
    for i, text in enumerate(sorted(formulas)):
        add(f"compile-f{i}", ["compile", "--ltl", text, "--dot", "{out}/aut.dot"])
    return cases


CASES = _cases()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_case(name: str, root: Path) -> dict:
    """Execute one case under ``root``; return its recorded fingerprint."""
    inputs, out = root / "inputs", root / "out"
    inputs.mkdir()
    out.mkdir()
    for key, grid in SEEDED.items():
        (inputs / f"{key}.json").write_text(json.dumps(map_document(grid)))
    case = CASES[name]
    fill = lambda argv: [
        a.format(inputs=inputs, out=out, trace=inputs / "trace.json") for a in argv
    ]
    if case["trace"] is not None:
        _, stdout, _ = _call(fill(case["trace"]))
        (inputs / "trace.json").write_text(stdout)
    code, stdout, stderr = _call(fill(case["argv"]))
    kept = "".join(
        line for line in stderr.splitlines(keepends=True) if not line.startswith("[time] ")
    )
    return {
        "exit": code,
        "stdout": (
            stdout.splitlines(keepends=True)
            if case["argv"][0] in TEXT_COMMANDS
            else _sha(stdout.encode())
        ),
        "stderr": _sha(kept.encode()),
        "files": {
            str(p.relative_to(out)): _sha(p.read_bytes())
            for p in sorted(out.rglob("*"))
            if p.is_file()
        },
    }


def _stdout_fields(command: str, stdout) -> dict:
    """The fields a re-record summary shows of one ``run``, ``plan`` or ``check`` stdout."""
    if not isinstance(stdout, list) or not stdout:
        return {}
    doc = json.loads("".join(stdout))
    if command == "check":
        return {"satisfied": doc["satisfied"]}
    if command == "plan":
        return {"prefix": doc["prefix"], "cycle": doc["cycle"]}
    plan = doc["plan"]
    return {
        "prefix": plan["prefix"],
        "cycle": plan["cycle"],
        "satisfied": doc["satisfied"],
        "cells": len(doc["trace"]["cells"]),
    }


def change_line(name: str, old: dict | None, new: dict | None) -> str | None:
    """How case ``name``'s record changed on a re-record, in one line; ``None`` if it did not."""
    if old == new:
        return None
    if old is None:
        return f"{name}: added (exit {new['exit']})"
    if new is None:
        return f"{name}: removed"
    parts = [f"exit {old['exit']} -> {new['exit']}"] if old["exit"] != new["exit"] else []
    if old["stdout"] != new["stdout"]:
        was, now = (_stdout_fields(name.split("-")[0], r["stdout"]) for r in (old, new))
        parts += [
            f"{key} {json.dumps(was.get(key))} -> {json.dumps(now.get(key))}"
            for key in dict.fromkeys([*was, *now])
            if was.get(key) != now.get(key)
        ] or ["stdout"]
    parts += [key for key in ("stderr", "files") if old[key] != new[key]]
    return f"{name}: " + "; ".join(parts)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden, tmp_path):
    assert run_case(name, tmp_path) == golden[name]


def test_change_line_summarizes_a_rerecorded_case():
    def run_record(exit, prefix, cycle, cells, stderr="e0"):
        doc = {
            "plan": {"prefix": prefix, "cycle": cycle},
            "satisfied": exit == 0,
            "trace": {"cells": [{"x": 0, "y": 0}] * cells},
        }
        stdout = json.dumps(doc, indent=2).splitlines(keepends=True)
        return {"exit": exit, "stdout": stdout, "stderr": stderr, "files": {}}

    old = run_record(0, ["a"], ["b", "c"], 9)
    new = run_record(0, [], ["b", "c"], 7, stderr="e1")
    assert change_line("run-ring-primitive-f1", old, old) is None
    assert change_line("run-ring-primitive-f1", old, new) == (
        'run-ring-primitive-f1: prefix ["a"] -> []; cells 9 -> 7; stderr'
    )
    gone = {"exit": 3, "stdout": [], "stderr": "e2", "files": {}}
    assert change_line("run-x-f0", old, gone) == (
        'run-x-f0: exit 0 -> 3; prefix ["a"] -> null; cycle ["b", "c"] -> null;'
        " satisfied true -> null; cells 9 -> null; stderr"
    )
    assert change_line("run-x-f0", None, gone) == "run-x-f0: added (exit 3)"
    assert change_line("run-x-f0", gone, None) == "run-x-f0: removed"


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    record = {}
    for case_name in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            record[case_name] = run_case(case_name, Path(scratch))
    lines = [
        change_line(name, previous.get(name), record.get(name))
        for name in sorted(previous.keys() | record.keys())
    ]
    changed = [line for line in lines if line is not None]
    for line in changed:
        print(line)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cases, {len(changed)} changed")
