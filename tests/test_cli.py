"""Command-line behavior: exit codes, artifacts, determinism, timing output."""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ltlplan.cli as cli
import ltlplan.mvpolicy as mvpolicy
from ltlplan.cli import main
from ltlplan.gridworld import extract_regions, parse_map
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
    assert doc["states"] == ["b0", "b1"]
    assert doc["accepting"] == ["b1"]


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
    assert doc["initial"] == ["q0|b0"]
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


def test_non_symbol_atom_exits_2(capsys):
    assert main(["compile", "--ltl", "F é"]) == 2
    assert "error: formula error: unexpected character 'é' at offset 2" in capsys.readouterr().err


def test_keyword_cell_exits_2(tmp_path, capsys):
    grid = tmp_path / "map.txt"
    grid.write_text("..F\n.#U\n")
    assert main(["plan", "--map", str(grid), "--ltl", "F F"]) == 2
    assert "error: map error: row 1, col 3: invalid cell character 'F'" in capsys.readouterr().err


def test_keyword_label_exits_2(tmp_path, capsys):
    grid = tmp_path / "map.json"
    grid.write_text(json.dumps({"width": 2, "height": 1, "cells": [
        {"x": 1, "y": 0, "labels": ["a", "true"]},
    ]}))
    assert main(["abstract", "--map", str(grid)]) == 2
    assert "error: map error: cells[0]: invalid symbol 'true'" in capsys.readouterr().err


def test_symbols_that_start_with_a_keyword_plan(tmp_path):
    grid = tmp_path / "map.json"
    grid.write_text(json.dumps({"width": 4, "height": 1, "cells": [
        {"x": x, "y": 0, "labels": [symbol]} for x, symbol in enumerate(("Fa", "trueish", "G_"), 1)
    ]}))
    assert main(["plan", "--map", str(grid), "--ltl", "F Fa & F trueish & F G_"]) == 0


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


def test_non_utf8_map_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe.#")
    assert main(["abstract", "--map", str(bad)]) == 2


def test_deeply_nested_json_exits_2(tmp_path):
    deep_map, deep_trace = tmp_path / "map.json", tmp_path / "trace.json"
    deep_map.write_text('{"a":' * 100000 + "1" + "}" * 100000)
    deep_trace.write_text("[" * 100000)
    assert main(["abstract", "--map", str(deep_map)]) == 2
    assert main(["check", "--map", RING, "--ltl", "F c", "--trace", str(deep_trace)]) == 2


@pytest.mark.parametrize("key", ["cells", "obstacles"])
@pytest.mark.parametrize("value", [5, None, ""], ids=["number", "null", "string"])
def test_non_list_map_entries_exit_2(tmp_path, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"width": 3, "height": 1, key: value}))
    assert main(["abstract", "--map", str(bad)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"width": 2, "height": 1, "cells": [{"x": "1", "y": 0, "labels": ["a"]}]}',
         "cells[0]: 'x' and 'y' must be integers"),
        ('{"width": 2, "height": 1, "cells": [{"x": true, "y": 0, "labels": ["a"]}]}',
         "cells[0]: 'x' and 'y' must be integers"),
        # Not "{": read as ASCII art.
        ("[1, 2]", "row 1, col 1: invalid cell character '['"),
        ('{"width": 1, "height": 1} x', "invalid JSON map document: Extra data"),
    ],
    ids=["string-coordinate", "bool-coordinate", "json-array", "trailing-data"],
)
def test_malformed_map_reports_its_fault(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["abstract", "--map", str(bad)]) == 2
    assert f"error: map error: {message}" in capsys.readouterr().err


def test_oversized_map_exits_2(monkeypatch, tmp_path):
    def walk_cells(grid):
        raise AssertionError("an oversized map reached region extraction")

    # Without the cap, extraction would walk all 10^18 declared cells.
    monkeypatch.setattr(cli, "extract_regions", walk_cells)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"width": 1000000000, "height": 1000000000}))
    assert main(["abstract", "--map", str(huge)]) == 2


def test_bad_start_overrides_exit_2():
    assert main(["plan", "--map", RING, "--ltl", "F c", "--start", "banana"]) == 2
    assert main(["plan", "--map", RING, "--ltl", "F c", "--start", "99,99"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--ltl", "F a", "--out"],
        ["compile", "--ltl", "F a", "--dot"],
        ["abstract", "--map", RING, "--dot"],
        ["prune", "--map", RING, "--report"],
        ["prune", "--map", RING, "--emit-stages"],
        ["run", "--map", RING, "--ltl", "F c", "--emit-stages"],
        ["run", "--map", RING, "--ltl", "F c", "--out"],
    ],
    ids=[
        "compile-out", "compile-dot", "abstract-dot", "prune-report", "prune-emit-stages",
        "run-emit-stages", "run-out",
    ],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*argv, str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write output" in err
    assert "Traceback" not in err


def test_cycles_below_one_exits_2():
    assert main(["run", "--map", RING, "--ltl", "G F c", "--cycles", "0"]) == 2


def test_cycles_past_the_trace_bound_exit_2_quickly(tmp_path, capsys):
    # Unrolled eagerly, a billion cycles of two policies would be a list of
    # 2e9 symbols before the first search.
    out = tmp_path / "run.json"
    argv = ["run", "--map", RING, "--ltl", "G F a & G F c", "--cycles", "1000000000"]
    begin = time.perf_counter()
    assert main([*argv, "--out", str(out)]) == 2
    assert time.perf_counter() - begin < 1.0
    err = capsys.readouterr().err
    assert "error: execution error: the plan unrolls to 2000000001 policy segments" in err
    assert f"MAX_TRACE_CELLS bound of {mvpolicy.MAX_TRACE_CELLS}" in err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--map", OBSTACLE_COURSE, "--mode", "composite", "--ltl", "F (b & !square) & F p"],
        ["--map", RING, "--ltl", "G F a & G F c", "--cycles", "2"],
    ],
    ids=["obstacle-course", "ring-cycles-2"],
)
def test_run_searches_each_policy_once(monkeypatch, tmp_path, argv):
    calls = []
    search = mvpolicy.mv_path

    def counted(*args):
        calls.append(args[:2])
        return search(*args)

    monkeypatch.setattr(mvpolicy, "mv_path", counted)
    out = tmp_path / "run.json"
    assert main(["run", *argv, "--out", str(out)]) == 0
    trace = read_json(out)["trace"]
    segments = trace["segments"]
    assert len(segments) >= 3
    # One search per distinct (start cell, policy) among the segments.
    starts = [trace["cells"][seg["start_index"]] for seg in segments]
    pairs = {
        ((cell["x"], cell["y"]), mvpolicy.parse_policy(seg["policy"]))
        for cell, seg in zip(starts, segments)
    }
    assert len(calls) == len(set(calls)) == len(pairs)
    assert set(calls) == pairs


def _unshared_trace(start, prefix, cycle, index, cycles):
    """``execute_plan`` with one fresh search per segment."""
    cells, segments = [start], []
    for symbol in prefix + cycle * cycles:
        policy = mvpolicy.parse_policy(symbol)
        forced, path = mvpolicy.mv_path(cells[-1], policy, index)
        end = len(cells) + len(path) - 2
        segments.append(mvpolicy.TraceSegment(symbol, len(cells) - 1, end, forced))
        cells.extend(path[1:])
    word, word_cells = mvpolicy.trace_word(cells, index)
    return mvpolicy.Trace(cells, word, word_cells, segments, len(prefix), len(cycle), cycles)


def test_long_cyclic_run_reuses_searches(monkeypatch, tmp_path):
    argv = ["run", "--map", RING, "--ltl", "G F a & G F c", "--cycles", "800"]
    calls = []
    search = mvpolicy.mv_path

    def counted(*args):
        calls.append(args[:2])
        return search(*args)

    monkeypatch.setattr(mvpolicy, "mv_path", counted)
    out = tmp_path / "run.json"
    assert main([*argv, "--out", str(out)]) == 0
    monkeypatch.setattr(mvpolicy, "mv_path", search)

    doc = read_json(out)
    grid = parse_map(Path(RING).read_text())
    index = mvpolicy.region_index(extract_regions(grid)[0], grid)
    plan = doc["plan"]
    unshared = _unshared_trace(grid.resolved_start(), plan["prefix"], plan["cycle"], index, 800)
    pairs = {(unshared.cells[seg.start], seg.symbol) for seg in unshared.segments}
    assert len(unshared.segments) == 1601
    assert len(calls) <= len(pairs) == 4
    expected = unshared.to_document()
    assert json.dumps(doc["trace"], indent=2, sort_keys=True) == json.dumps(
        expected, indent=2, sort_keys=True
    )


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


def test_check_rejects_offmap_trace(tmp_path, capsys):
    bogus = tmp_path / "trace.json"
    bogus.write_text(
        json.dumps(
            {
                # A legal move off the 10-cell-wide room's right edge.
                "cells": [{"x": 9, "y": 0}, {"x": 10, "y": 0}],
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
    assert "trace leaves the map's passable cells" in capsys.readouterr().err


def test_check_rejects_trace_below_the_last_row(tmp_path, capsys):
    # A legal move off the 8-row room's bottom edge; on a flat y * width + x
    # index, (0, 8) lies just past the last cell.
    bogus = tmp_path / "trace.json"
    bogus.write_text(
        json.dumps(
            {
                "cells": [{"x": 0, "y": 7}, {"x": 0, "y": 8}],
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
    assert "trace leaves the map's passable cells" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    [
        lambda doc: {"cycle_length": "x"},
        lambda doc: {"cycle_length": 2, "segments": []},
        lambda doc: {"cells": [{"x": [4], "y": 0}, *doc["cells"][1:]]},
        lambda doc: {"cells": [{"x": 4.0, "y": 0}, *doc["cells"][1:]]},
        lambda doc: {
            "segments": [{**doc["segments"][0], "end_index": 1000000}, *doc["segments"][1:]]
        },
        # From (3, 4) across the a-ring straight into the c-core at (2, 6).
        lambda doc: {"cells": [*doc["cells"][:6], {"x": 2, "y": 6}, *doc["cells"][7:]]},
        lambda doc: {
            "cells": [], "word": [], "word_cells": [], "segments": [],
            "prefix_segments": 0, "cycle_length": 0,
        },
    ],
    ids=[
        "non-integer-cycle-length",
        "cycle-longer-than-segments",
        "list-coordinate",
        "float-coordinate",
        "segment-past-last-cell",
        "wall-jump",
        "no-cells",
    ],
)
def test_check_malformed_trace_exits_2(tmp_path, fields):
    run_out = tmp_path / "run.json"
    main(
        [
            "run", "--map", RING, "--ltl", "G F c", "--cycles", "1",
            "--out", str(run_out),
        ]
    )
    doc = read_json(run_out)["trace"]
    assert doc["cycles"] == 1
    assert doc["cells"][0] == {"x": 4, "y": 0}
    assert doc["cells"][5:8] == [{"x": 3, "y": 4}, {"x": 3, "y": 5}, {"x": 3, "y": 6}]
    bogus = tmp_path / "trace.json"
    bogus.write_text(json.dumps({**doc, **fields(doc)}))
    assert main(["check", "--map", RING, "--ltl", "G F c", "--trace", str(bogus)]) == 2


def test_check_rejects_a_stored_trace_past_the_bound(tmp_path, monkeypatch, capsys):
    run_out = tmp_path / "run.json"
    assert main(["run", "--map", RING, "--ltl", "F c & F b", "--out", str(run_out)]) == 0
    doc = read_json(run_out)["trace"]
    assert (len(doc["cells"]), len(doc["segments"])) == (11, 6)
    last = len(doc["cells"]) - 1
    parked = {"policy": "b", "start_index": last, "end_index": last, "forced_violations": 0}
    check = ["check", "--map", RING, "--ltl", "F c & F b", "--trace", str(tmp_path / "trace.json")]
    for bound, segments, exit_code, fault in [
        (11, doc["segments"], 0, None),
        (10, doc["segments"], 2, "11 cells, more than the MAX_TRACE_CELLS bound of 10"),
        (11, doc["segments"] + [parked] * 6, 2, "12 segments, more than the MAX_TRACE_CELLS"),
    ]:
        monkeypatch.setattr(mvpolicy, "MAX_TRACE_CELLS", bound)
        (tmp_path / "trace.json").write_text(json.dumps({**doc, "segments": segments}))
        assert main(check) == exit_code
        err = capsys.readouterr().err
        if fault:
            assert f"cannot load trace: the trace holds {fault}" in err


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


def test_start_flag_runs_like_a_map_that_starts_there(tmp_path):
    # Every passable cell, the last column and row (next to the cell index's
    # row pads) among them: ``--start X,Y`` writes what the map's own start
    # cell X,Y would.
    doc = read_json(Path(OBSTACLE_COURSE))
    width, height = doc["width"], doc["height"]
    obstacles = {(o["x"], o["y"]) for o in doc["obstacles"]}
    cells = [(x, y) for y in range(height) for x in range(width) if (x, y) not in obstacles]
    edges = {(width - 1, y) for y in range(height)} | {(x, height - 1) for x in range(width)}
    assert edges <= set(cells)
    argv = ["run", "--mode", "composite", "--ltl", "G F p & G F w"]
    for x, y in cells:
        moved = tmp_path / f"map-{x}-{y}.json"
        moved.write_text(json.dumps({**doc, "start": {"x": x, "y": y}}))
        flag, own = tmp_path / f"flag-{x}-{y}.json", tmp_path / f"own-{x}-{y}.json"
        code = main([*argv, "--map", OBSTACLE_COURSE, "--start", f"{x},{y}", "--out", str(flag)])
        assert code == main([*argv, "--map", str(moved), "--out", str(own)]), (x, y)
        assert flag.read_bytes() == own.read_bytes(), (x, y)


# ---------------------------------------------------------------------------
# Hostile input

SMALL = st.integers(-1, 5)
COORD = st.integers(0, 4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL | st.text("abc", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("xyabc", max_size=2), inner),
    max_leaves=6,
)
CELL = st.fixed_dictionaries({"x": COORD, "y": COORD}) | st.fixed_dictionaries({"x": SMALL, "y": SMALL})
SYMBOLS = st.lists(st.sampled_from("abc"), min_size=1, max_size=2) | st.lists(
    st.sampled_from(["a", "9", ""]), max_size=2
)
JSON_MAPS = st.fixed_dictionaries(
    {"width": st.integers(1, 5) | SMALL, "height": st.integers(1, 5) | SMALL},
    optional={
        "cells": st.lists(
            st.fixed_dictionaries({"x": COORD, "y": COORD, "labels": SYMBOLS}), max_size=6
        ) | JSON_VALUES,
        "obstacles": st.lists(CELL, max_size=3) | JSON_VALUES,
        "start": CELL | JSON_VALUES,
    },
)
RECTANGLES = st.integers(1, 5).flatmap(
    lambda width: st.lists(
        st.text(st.sampled_from("....#abc"), min_size=width, max_size=width), min_size=1, max_size=5
    )
)
RAGGED = st.lists(st.text(".#abc?", max_size=5), max_size=5)
MAP_BYTES = st.one_of(
    # Rectangular grids weigh double so that most runs get past parsing.
    RECTANGLES.map(lambda rows: "\n".join(rows).encode()),
    RECTANGLES.map(lambda rows: "\n".join(rows).encode()),
    RAGGED.map(lambda rows: "\n".join(rows).encode()),
    JSON_MAPS.map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=24),
)


def walk(start, moves):
    cells = [start]
    for dx, dy in moves:
        cells.append({"x": cells[-1]["x"] + dx, "y": cells[-1]["y"] + dy})
    return cells


MOVES = st.lists(st.sampled_from([(0, 1), (1, 0), (0, -1), (-1, 0)]), max_size=6)
INDICES = st.integers(0, 6) | SMALL
TRACE_DOCS = st.fixed_dictionaries(
    {
        "cells": st.builds(walk, CELL, MOVES) | st.lists(CELL, max_size=3),
        "word": st.lists(SYMBOLS, max_size=4),
        "word_cells": st.lists(SMALL, max_size=4),
        "segments": st.lists(
            st.fixed_dictionaries(
                {
                    "policy": st.sampled_from("abc"),
                    "start_index": INDICES,
                    "end_index": INDICES,
                    "forced_violations": SMALL,
                }
            ),
            max_size=3,
        ),
        "prefix_segments": SMALL,
        "cycle_length": SMALL,
        "cycles": SMALL,
    }
)
TRACE_BYTES = st.one_of(
    TRACE_DOCS.map(lambda doc: json.dumps(doc).encode()),
    TRACE_DOCS.map(lambda doc: json.dumps(doc).encode()),
    JSON_VALUES.map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=24),
)


def formula_texts(depth: int):
    """Formulas over at most three atoms, nested at most ``depth`` operators deep."""
    leaf = st.sampled_from(["a", "b", "c", "!a", "!c", "true"])
    if depth == 0:
        return leaf
    sub = formula_texts(depth - 1)
    unary = st.builds("{} ({})".format, st.sampled_from("FG"), sub)
    binary = st.builds("({}) {} ({})".format, sub, st.sampled_from("&|U"), sub)
    return leaf | unary | binary


FORMULAS = formula_texts(3) | st.text("FGU&|!() abc", max_size=10)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(["abstract", "prune", "compile", "run", "check"]),
    map_bytes=MAP_BYTES,
    trace_bytes=TRACE_BYTES,
    formula=FORMULAS,
    mode=st.sampled_from(["primitive", "composite"]),
    start=st.sampled_from([None, None, None, "0,0", "1,2", "9,9", "x"]),
    cycles=st.integers(1, 2),
)
def test_hostile_input_yields_only_documented_exit_codes(
    command, map_bytes, trace_bytes, formula, mode, start, cycles
):
    with tempfile.TemporaryDirectory() as tmp:
        map_path, trace_path = Path(tmp) / "map", Path(tmp) / "trace.json"
        map_path.write_bytes(map_bytes)
        trace_path.write_bytes(trace_bytes)
        argv = [command, "--out", str(Path(tmp) / "out.json")]
        if command != "compile":
            argv += ["--map", str(map_path), "--mode", mode]
            argv += [] if start is None else ["--start", start]
        if command in ("compile", "run", "check"):
            argv += ["--ltl", formula]
        if command == "run":
            argv += ["--cycles", str(cycles)]
        if command == "check":
            argv += ["--trace", str(trace_path)]
        # An uncaught exception, which a shell would see as exit 1, propagates here.
        assert main(argv) in (0, 1, 2, 3, 4)
