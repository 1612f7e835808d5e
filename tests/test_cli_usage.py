"""Snapshot of the CLI's argparse output: help, usage and argument errors.

``tests/golden/cli_usage.json`` records, per case, the exit code, stdout
and stderr of ``ltlplan.cli.main`` at a terminal width of 80 columns.
argparse's layout differs between Python minor versions, so the snapshot
is only compared on the version it was recorded with.

To record the snapshot (only ever for an intended output change)::

    PYTHONPATH=src python tests/test_cli_usage.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ltlplan.cli import COMMANDS, build_parser, main

SNAPSHOT = Path(__file__).resolve().parent / "golden" / "cli_usage.json"

CASES = {
    "help": ["--help"],
    **{f"{command}-help": [command, "--help"] for command in COMMANDS},
    "no-arguments": [],
    "unknown-command": ["bogus"],
    "run-no-map": ["run", "--ltl", "F c"],
    "run-bare": ["run"],
}


def _invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _python() -> str:
    return "{}.{}".format(*sys.version_info[:2])


@pytest.mark.parametrize("name", CASES)
def test_cli_usage_matches_snapshot(monkeypatch, name):
    snapshot = json.loads(SNAPSHOT.read_text())
    if snapshot["python"] != _python():
        pytest.skip(f"snapshot recorded with Python {snapshot['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    assert _invoke(CASES[name]) == snapshot["cases"][name]


def test_help_text_is_ascii():
    # Help goes to stdout in its encoding, which need not cover more than ASCII.
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in (parser, *sub.choices.values()):
        text = p.format_help()
        assert text.isascii(), (p.prog, sorted({c for c in text if not c.isascii()}))


MAP_OPTS = ["--map", "m.txt", "--mode", "composite", "--start", "1,2"]
EVERY_OPTION = {
    "abstract": [*MAP_OPTS, "--out", "o.json", "--dot", "o.dot"],
    "prune": [*MAP_OPTS, "--out", "o.json", "--dot", "o.dot", "--report", "r.json",
              "--emit-stages", "stages", "--drop-unreachable"],
    "compile": ["--ltl", "F a", "--out", "o.json", "--dot", "o.dot"],
    "product": [*MAP_OPTS, "--ltl", "F a", "--out", "o.json", "--dot", "o.dot"],
    "plan": [*MAP_OPTS, "--ltl", "F a", "--out", "o.json", "--emit-stages", "stages"],
    "run": [*MAP_OPTS, "--ltl", "F a", "--cycles", "3", "--out", "o.json",
            "--emit-stages", "stages"],
    "check": [*MAP_OPTS, "--ltl", "F a", "--trace", "t.json", "--out", "o.json"],
}


def _minimal(command: str) -> list[str]:
    """``command`` with only its required options."""
    required = [flag for flag, kwargs in COMMANDS[command][2] if kwargs.get("required")]
    return [command, *(a for flag in required for a in (flag, "x"))]


@pytest.mark.parametrize("command", EVERY_OPTION)
def test_lazy_fill_parses_like_the_full_parser(command):
    # The parser is built lazily, on the first call, then shared: after every
    # other command has set every option, a minimal parse still matches a
    # freshly built parser's, so no value leaks from one call into the next.
    shared = build_parser()
    for other, options in EVERY_OPTION.items():
        assert vars(shared.parse_args([other, *options]))["command"] == other
    parsed = vars(shared.parse_args(_minimal(command)))
    assert parsed == vars(build_parser.__wrapped__().parse_args(_minimal(command)))
    assert parsed["command"] == command


def test_a_second_main_call_builds_no_parser(monkeypatch, capsys):
    assert main(["compile", "--ltl", "F a"]) == 0

    def built(*args, **kwargs):
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(argparse, "ArgumentParser", built)
    assert main(["compile", "--ltl", "G a"]) == 0
    assert '"states"' in capsys.readouterr().out


def test_every_option_case_sets_every_option():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(EVERY_OPTION) == list(sub.choices)
    for command, options in EVERY_OPTION.items():
        parsed = vars(parser.parse_args([command, *options]))
        for action in sub.choices[command]._actions[1:]:
            assert parsed[action.dest] != action.default, (command, action.dest)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = {name: _invoke(argv) for name, argv in CASES.items()}
    doc = {"python": _python(), "cases": cases}
    SNAPSHOT.write_text(json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"recorded {len(cases)} cases in {SNAPSHOT}")
