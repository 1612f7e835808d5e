"""Command-line behavior: exit codes, artifacts, determinism, timing output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import ltlplan.cli as cli
from ltlplan.cli import main
from ltlplan.mvpolicy import UnreachableTargetError

MAPS = Path(__file__).resolve().parent.parent / "maps"
RING = str(MAPS / "nested_abc.txt")
OPEN_ROOM = str(MAPS / "shapes_open_room.json")
OBSTACLE_COURSE = str(MAPS / "shapes_obstacle_course.json")


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Stage commands


def test_abstract_writes_labeled_system(tmp_path):
    out = tmp_path / "ts.json"
    assert main(["abstract", "--map", RING, "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["initial"] == "q2"
    assert len(doc["states"]) == 8
    assert len(doc["transitions"]) == 14


def test_prune_writes_system_report_and_dot(tmp_path):
    out, report, dot = (tmp_path / n for n in ("ts.json", "report.json", "ts.dot"))
    code = main(
        [
            "prune", "--map", RING,
            "--out", str(out), "--report", str(report), "--dot", str(dot),
        ]
    )
    assert code == 0
    assert len(read_json(out)["transitions"]) == 9
    assert read_json(report)["merged"] == [["q3", "q6"], ["q4", "q7"]]
    assert dot.read_text().startswith("digraph")


def test_prune_drop_unreachable_flag(tmp_path):
    out = tmp_path / "ts.json"
    assert main(["prune", "--map", RING, "--out", str(out), "--drop-unreachable"]) == 0
    doc = read_json(out)
    assert [s["id"] for s in doc["states"]] == ["q0", "q1", "q2", "q3", "q4"]


def test_prune_emit_stages_writes_every_snapshot(tmp_path):
    out = tmp_path / "ts.json"
    stages = tmp_path / "stages"
    assert main(
        ["prune", "--map", RING, "--out", str(out), "--emit-stages", str(stages)]
    ) == 0
    names = {p.name for p in stages.iterdir()}
    expected = {"labeled", "stage1", "stage2", "stage3", "stage4"}
    assert names == {f"{n}.json" for n in expected} | {f"{n}.dot" for n in expected}
    assert read_json(stages / "stage4.json") == read_json(out)
    assert len(read_json(stages / "labeled.json")["transitions"]) == 14
    assert len(read_json(stages / "stage1.json")["states"]) == 6


def test_compile_reference_automaton(tmp_path):
    out = tmp_path / "aut.json"
    assert main(["compile", "--ltl", "F square", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["states"] == ["b0", "b1", "b2", "b3"]
    assert doc["accepting"] == ["b1", "b3"]


def test_product_command(tmp_path):
    out = tmp_path / "pa.json"
    code = main(
        [
            "product", "--map", OPEN_ROOM, "--mode", "composite",
            "--ltl", "F square", "--out", str(out),
        ]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["initial"] == ["q0|b2"]
    assert "stoppable" in doc


def test_plan_respects_labeling_mode(tmp_path):
    out = tmp_path / "plan.json"
    args = ["plan", "--map", OPEN_ROOM, "--ltl", "F square", "--out", str(out)]
    assert main(args + ["--mode", "composite"]) == 0
    assert read_json(out)["prefix"] == ["b&square"]
    assert main(args + ["--mode", "primitive"]) == 0
    assert read_json(out)["prefix"] == ["square"]


def test_run_open_room(tmp_path):
    out = tmp_path / "run.json"
    code = main(
        [
            "run", "--map", OPEN_ROOM, "--mode", "composite",
            "--ltl", "F square", "--out", str(out),
        ]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["satisfied"] is True
    assert doc["plan"]["prefix"] == ["b&square"]
    assert doc["unsafe"]["count"] == 0
    assert doc["trace"]["cells"][0] == {"x": 1, "y": 6}
    assert doc["trace"]["cells"][-1] == {"x": 8, "y": 4}


def test_run_emit_stages_includes_pipeline_artifacts(tmp_path):
    out = tmp_path / "run.json"
    stages = tmp_path / "stages"
    code = main(
        [
            "run", "--map", OPEN_ROOM, "--mode", "composite",
            "--ltl", "F square", "--out", str(out), "--emit-stages", str(stages),
        ]
    )
    assert code == 0
    names = {p.name for p in stages.iterdir()}
    for base in ("labeled", "stage1", "stage2", "stage3", "stage4", "pruned", "buchi", "product"):
        assert f"{base}.json" in names
        assert f"{base}.dot" in names


# ---------------------------------------------------------------------------
# Exit codes


def test_infeasible_goal_exits_3(tmp_path):
    assert main(["plan", "--map", RING, "--ltl", "F b & G !b"]) == 3
    assert main(["run", "--map", RING, "--ltl", "F b & G !b"]) == 3


def test_undeclared_atom_exits_2():
    assert main(["plan", "--map", RING, "--ltl", "F ghost"]) == 2


def test_syntax_error_exits_2():
    assert main(["plan", "--map", RING, "--ltl", "F ("]) == 2


@pytest.mark.parametrize(
    "formula",
    ["F " * 3000 + "a", "(" * 3000 + "a" + ")" * 3000, "!a U " * 3000 + "b"],
    ids=["eventually", "parentheses", "until_chain"],
)
def test_deeply_nested_formula_exits_2(formula):
    assert main(["compile", "--ltl", formula]) == 2


def test_missing_map_exits_2(tmp_path):
    assert main(["abstract", "--map", str(tmp_path / "nope.txt")]) == 2


def test_malformed_map_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ab\nabc\n")
    assert main(["abstract", "--map", str(bad)]) == 2


def test_bad_start_overrides_exit_2():
    assert main(["plan", "--map", RING, "--ltl", "F c", "--start", "banana"]) == 2
    assert main(["plan", "--map", RING, "--ltl", "F c", "--start", "99,99"]) == 2


def test_cycles_below_one_exits_2():
    assert main(["run", "--map", RING, "--ltl", "G F c", "--cycles", "0"]) == 2


def test_unreachable_execution_exits_4(monkeypatch, tmp_path):
    def explode(*args, **kwargs):
        raise UnreachableTargetError("policy target vanished")

    monkeypatch.setattr(cli, "execute_plan", explode)
    out = tmp_path / "run.json"
    code = main(
        [
            "run", "--map", OPEN_ROOM, "--mode", "composite",
            "--ltl", "F square", "--out", str(out),
        ]
    )
    assert code == 4
    assert not out.exists()


# ---------------------------------------------------------------------------
# Trace checking


def test_check_accepts_run_output_and_bare_trace(tmp_path):
    run_out = tmp_path / "run.json"
    main(
        [
            "run", "--map", OPEN_ROOM, "--mode", "composite",
            "--ltl", "F square", "--out", str(run_out),
        ]
    )
    verdict = tmp_path / "verdict.json"
    code = main(
        [
            "check", "--map", OPEN_ROOM, "--ltl", "F square",
            "--trace", str(run_out), "--out", str(verdict),
        ]
    )
    assert code == 0
    assert read_json(verdict) == {"satisfied": True}

    bare = tmp_path / "trace.json"
    bare.write_text(json.dumps(read_json(run_out)["trace"]))
    assert main(
        ["check", "--map", OPEN_ROOM, "--ltl", "F square", "--trace", str(bare)]
    ) == 0


def test_check_unsatisfied_exits_1(tmp_path):
    run_out = tmp_path / "run.json"
    main(
        [
            "run", "--map", OPEN_ROOM, "--mode", "composite",
            "--ltl", "F square", "--out", str(run_out),
        ]
    )
    code = main(
        ["check", "--map", OPEN_ROOM, "--ltl", "G !square", "--trace", str(run_out)]
    )
    assert code == 1


def test_check_rejects_offmap_trace(tmp_path):
    bogus = tmp_path / "trace.json"
    bogus.write_text(
        json.dumps(
            {
                "cells": [{"x": 0, "y": 0}, {"x": 50, "y": 50}],
                "word": [[]],
                "word_cells": [0],
                "segments": [],
                "prefix_segments": 0,
                "cycle_length": 0,
                "cycles": 0,
            }
        )
    )
    assert main(
        ["check", "--map", OPEN_ROOM, "--ltl", "F square", "--trace", str(bogus)]
    ) == 2


# ---------------------------------------------------------------------------
# Output behavior


def test_default_output_is_stdout(capsys):
    assert main(["compile", "--ltl", "F a"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["initial"] == "b0"


def test_stage_timings_printed_to_stderr(capsys, tmp_path):
    out = tmp_path / "run.json"
    main(
        [
            "run", "--map", OPEN_ROOM, "--mode", "composite",
            "--ltl", "F square", "--out", str(out),
        ]
    )
    err = capsys.readouterr().err
    for label in ("parse-map", "abstract", "prune", "compile", "product", "plan", "execute", "check"):
        assert f"[time] {label}: " in err


def test_outputs_are_byte_stable(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--map", OBSTACLE_COURSE, "--mode", "composite", "--ltl", "F (b & !square) & F p"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_start_override_changes_trace(tmp_path):
    out = tmp_path / "run.json"
    code = main(
        [
            "run", "--map", OPEN_ROOM, "--mode", "composite",
            "--ltl", "F square", "--out", str(out), "--start", "5,1",
        ]
    )
    assert code == 0
    assert read_json(out)["trace"]["cells"][0] == {"x": 5, "y": 1}
