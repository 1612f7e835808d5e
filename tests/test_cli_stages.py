"""Which pipeline stages each subcommand runs, in what order, what their ``[time]``
lines cover, and which error wins.

The layer functions bound in ``ltlplan.cli`` are the names
``benchmarks/tracer.py`` hooks, so counting calls through them also shows
that every stage looks its function up when it runs.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import ltlplan.cli as cli
from ltlplan.cli import main
from ltlplan.mvpolicy import UnreachableTargetError

MAPS = Path(__file__).resolve().parent.parent / "maps"
RING = str(MAPS / "nested_abc.txt")

LAYER_FUNCTIONS = (
    "parse_map", "extract_regions", "region_index", "build_initial_ts", "generate_ts_labels",
    "prune", "parse_ltl", "to_buchi", "build_product", "find_plan",
    "execute_plan", "unsafe_report", "check_trace", "trace_word",
)
MAP_CHAIN = ("parse_map", "extract_regions", "build_initial_ts", "generate_ts_labels")
PRODUCT_CHAIN = (*MAP_CHAIN, "prune", "parse_ltl", "to_buchi", "build_product")
STAGE_CALLS = {
    "abstract": MAP_CHAIN,
    "prune": (*MAP_CHAIN, "prune"),
    "compile": ("parse_ltl", "to_buchi"),
    "product": PRODUCT_CHAIN,
    "plan": (*PRODUCT_CHAIN, "find_plan"),
    "run": (*PRODUCT_CHAIN, "find_plan", "region_index", "execute_plan", "unsafe_report",
            "check_trace"),
    "check": ("parse_map", "extract_regions", "region_index", "parse_ltl", "to_buchi",
              "trace_word", "check_trace"),
}
TIME_LABELS = ("parse-map", "abstract", "prune", "compile", "product", "plan", "execute", "check")
STAGE_TIMES = {
    "abstract": TIME_LABELS[:2],
    "prune": TIME_LABELS[:3],
    "compile": ("compile",),
    "product": TIME_LABELS[:5],
    "plan": TIME_LABELS[:6],
    "run": TIME_LABELS,
    "check": ("parse-map", "compile", "check"),
}
TIME_LINE = re.compile(r"^\[time\] ([a-z-]+): ([0-9.]+) ms$", re.M)


@pytest.fixture(scope="module")
def ring_trace(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("trace") / "run.json"
    assert main(["run", "--map", RING, "--ltl", "G F c", "--out", str(out)]) == 0
    return str(out)


def argv_for(command: str, trace: str) -> list[str]:
    argv = [command]
    if command != "compile":
        argv += ["--map", RING]
    if command not in ("abstract", "prune"):
        argv += ["--ltl", "G F c"]
    if command == "check":
        argv += ["--trace", trace]
    return argv


def time_lines(err: str) -> list[tuple[str, float]]:
    return [(label, float(ms)) for label, ms in TIME_LINE.findall(err)]


@pytest.mark.parametrize("command", STAGE_CALLS)
def test_each_subcommand_runs_each_of_its_stages_once(monkeypatch, capsys, ring_trace, command):
    calls = dict.fromkeys(LAYER_FUNCTIONS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in LAYER_FUNCTIONS:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    assert main(argv_for(command, ring_trace)) == 0
    assert calls == {name: int(name in STAGE_CALLS[command]) for name in LAYER_FUNCTIONS}


@pytest.mark.parametrize("command", STAGE_TIMES)
def test_stage_times_print_in_pipeline_order(capsys, ring_trace, command):
    assert main(argv_for(command, ring_trace)) == 0
    err = capsys.readouterr().err
    assert tuple(re.findall(r"^\[time\] ([a-z-]+): [0-9.]+ ms$", err, re.M)) == STAGE_TIMES[command]


@pytest.mark.parametrize("command", ("abstract", "prune", "plan", "run"))
def test_no_time_prints_twice(monkeypatch, capsys, command):
    parse_map = cli.parse_map

    def slow_parse_map(text):
        time.sleep(0.1)
        return parse_map(text)

    monkeypatch.setattr(cli, "parse_map", slow_parse_map)
    begin = time.perf_counter()
    assert main(argv_for(command, "")) == 0
    wall_ms = (time.perf_counter() - begin) * 1000.0
    times = time_lines(capsys.readouterr().err)
    assert times[0][0] == "parse-map" and times[0][1] >= 100.0
    assert sum(ms for _, ms in times) <= wall_ms + 1.0


def explode(*args, **kwargs):
    raise UnreachableTargetError("policy target vanished")


@pytest.mark.parametrize(
    "argv, code, printed, error",
    [
        (["plan", "--ltl", "F b & G !b"], 3, TIME_LABELS[:5], "no satisfying plan exists"),
        (["run", "--ltl", "G F c"], 4, TIME_LABELS[:6],
         "execution failed: policy target vanished"),
        (["run", "--ltl", "G F a & G F c", "--cycles", "1000000000"], 2, TIME_LABELS[:6],
         "error: execution error: the plan unrolls to 2000000001 policy segments"),
        (["plan", "--ltl", "F ("], 2, TIME_LABELS[:3], "error: formula error: "),
        (["abstract", "--start", "99,99"], 2, (), "error: start cell (99, 99) is not a passable"),
        (["abstract", "--start", "1,x"], 2, (), "error: --start expects integer coordinates 'X,Y'"),
    ],
    ids=["infeasible", "unreachable", "too-long", "bad-formula", "bad-start", "non-integer-start"],
)
def test_a_failing_stage_prints_no_time(monkeypatch, capsys, argv, code, printed, error):
    if code == 4:
        monkeypatch.setattr(cli, "execute_plan", explode)
    assert main([*argv, "--map", RING]) == code
    err = capsys.readouterr().err
    assert tuple(label for label, _ in time_lines(err)) == printed
    *times, last = err.splitlines()
    assert len(times) == len(printed) and last.startswith(error)


@pytest.fixture
def bad_map(tmp_path) -> str:
    path = tmp_path / "bad.txt"
    path.write_text("..\n.\n")
    return str(path)


@pytest.fixture
def labeled_map(tmp_path) -> str:
    """A map whose every passable cell is labeled, so it has no default start."""
    path = tmp_path / "ab.txt"
    path.write_text("ab\n")
    return str(path)


def error_of(capsys, argv: list[str]) -> str:
    assert main(argv) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ("product", "plan", "run", "check"))
def test_malformed_map_beats_bad_formula(capsys, tmp_path, bad_map, command):
    argv = [command, "--map", bad_map, "--ltl", "F ("]
    if command == "check":
        argv += ["--trace", str(tmp_path / "missing.json")]
    assert "error: map error: row 2 has 1 cells" in error_of(capsys, argv)


def test_cycles_check_beats_missing_map(capsys, tmp_path):
    argv = ["run", "--map", str(tmp_path / "missing.txt"), "--ltl", "F (", "--cycles", "0"]
    assert "error: --cycles must be at least 1" in error_of(capsys, argv)


@pytest.mark.parametrize("command", ("abstract", "prune", "product", "plan", "run"))
def test_missing_start_cell_beats_bad_formula(capsys, labeled_map, command):
    argv = [command, "--map", labeled_map]
    if command not in ("abstract", "prune"):
        argv += ["--ltl", "F ("]
    err = error_of(capsys, argv)
    assert "error: map has no unlabeled passable cell to start from" in err


def test_missing_trace_beats_bad_formula_in_check(capsys, tmp_path):
    argv = ["check", "--map", RING, "--ltl", "F (", "--trace", str(tmp_path / "missing.json")]
    assert "error: cannot load trace" in error_of(capsys, argv)


def test_check_needs_no_start_cell(capsys, tmp_path, labeled_map):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({
        "cells": [{"x": 0, "y": 0}, {"x": 1, "y": 0}],
        "word": [], "word_cells": [], "segments": [],
        "prefix_segments": 0, "cycle_length": 0, "cycles": 0,
    }))
    argv = ["check", "--map", labeled_map, "--trace", str(trace), "--ltl"]
    assert main([*argv, "a & F b"]) == 0
    assert main([*argv, "G a"]) == 1
    assert "error" not in capsys.readouterr().err
