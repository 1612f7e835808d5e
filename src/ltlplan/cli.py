"""Command-line front end for the grid planning pipeline.

Subcommands mirror the pipeline stages: ``abstract`` builds the labeled
transition system from a map, ``prune`` reduces it, ``compile`` turns a
formula into a Büchi automaton, ``product`` combines both, ``plan``
extracts the shortest policy sequence, ``run`` executes it with
minimum-violation navigation, and ``check`` validates a stored trace.
Each subcommand is declared once in ``COMMANDS``: its help, handler and
arguments.

Exit codes: 0 success, 1 check failed, 2 malformed input, 3 no
satisfying plan exists, 4 a policy target was unreachable during
execution.  Every stage reports wall-clock time on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .gridworld import GridMap, MapParseError, extract_regions, parse_map
from .ltl import LtlParseError, parse_ltl, to_buchi
from .mvpolicy import (
    Trace,
    TraceTooLongError,
    UnreachableTargetError,
    check_trace,
    execute_plan,
    region_index,
    trace_word,
    unsafe_report,
)
from .product import build_product, find_plan
from .pruner import ALL_CASES, drop_unreachable, prune
from .tsys import PRIMITIVE, build_initial_ts, generate_ts_labels

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_UNREACHABLE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _timed(label: str, fn, *args, **kwargs):
    begin = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed_ms = (time.perf_counter() - begin) * 1000.0
    print(f"[time] {label}: {elapsed_ms:.1f} ms", file=sys.stderr)
    return result


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_BAD_INPUT)


def _write_json(path: str | None, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_artifact(out: str | None, artifact, dot: str | None = None) -> None:
    """Write ``artifact`` as Graphviz to ``dot`` when given, then as JSON to ``out``."""
    if dot:
        _write_text(dot, artifact.to_dot())
    _write_json(out, artifact.to_document())


def _load_map(args) -> GridMap:
    try:
        text = Path(args.map).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read map file: {exc}", EXIT_BAD_INPUT)
    try:
        grid = _timed("parse-map", parse_map, text)
    except MapParseError as exc:
        raise CliError(f"map error: {exc}", EXIT_BAD_INPUT)
    if args.start is not None:
        cell = _parse_start(args.start)
        if not grid.is_free(cell):
            raise CliError(f"start cell {cell} is not a passable map cell", EXIT_BAD_INPUT)
        grid = dataclasses.replace(grid, start=cell)
    return grid


def _parse_start(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError("--start expects 'X,Y'", EXIT_BAD_INPUT)
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise CliError("--start expects integer coordinates 'X,Y'", EXIT_BAD_INPUT)


def _abstract(grid: GridMap, mode: str):
    """Labeled transition system plus the run's cell index."""

    def stage():
        regions, adjacency = extract_regions(grid)
        try:
            start_cell = grid.resolved_start()
        except MapParseError as exc:
            raise CliError(str(exc), EXIT_BAD_INPUT)
        index = region_index(regions, grid.width, grid.height)
        ts = build_initial_ts(regions, adjacency, index[start_cell][0], mode)
        return generate_ts_labels(ts), index, start_cell

    return _timed("abstract", stage)


def _compile_formula(formula_text: str, alphabet: frozenset[str] | None):
    try:
        formula = parse_ltl(formula_text, alphabet)
        return _timed("compile", to_buchi, formula)
    except LtlParseError as exc:
        raise CliError(f"formula error: {exc}", EXIT_BAD_INPUT)


def _prepare_product(args):
    grid = _load_map(args)
    labeled, index, start_cell = _abstract(grid, args.mode)
    pruned, report = _timed("prune", prune, labeled)
    aut = _compile_formula(args.ltl, grid.symbols())
    pa = _timed("product", build_product, pruned, aut)
    if getattr(args, "emit_stages", None):
        _emit_stages(args.emit_stages, labeled, report, pruned=pruned, buchi=aut, product=pa)
    return index, start_cell, aut, pa


def _emit_stages(directory: str, labeled, report, **artifacts) -> None:
    """Write the labeled system, each reduction pass's result, then ``artifacts``."""
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_BAD_INPUT)
    stages = {"labeled": labeled}
    for i in range(1, len(ALL_CASES) + 1):
        stages[f"stage{i}"] = report.replay(labeled, ALL_CASES[:i])
    for name, artifact in {**stages, **artifacts}.items():
        _write_artifact(str(path / f"{name}.json"), artifact, str(path / f"{name}.dot"))


def cmd_abstract(args) -> int:
    grid = _load_map(args)
    ts, _, _ = _abstract(grid, args.mode)
    _write_artifact(args.out, ts, args.dot)
    return EXIT_OK


def cmd_prune(args) -> int:
    grid = _load_map(args)
    labeled, _, _ = _abstract(grid, args.mode)
    pruned, report = _timed("prune", prune, labeled)
    if args.emit_stages:
        _emit_stages(args.emit_stages, labeled, report)
    if args.drop_unreachable:
        pruned = drop_unreachable(pruned)
    if args.report:
        _write_json(args.report, report.to_document())
    _write_artifact(args.out, pruned, args.dot)
    return EXIT_OK


def cmd_compile(args) -> int:
    aut = _compile_formula(args.ltl, None)
    _write_artifact(args.out, aut, args.dot)
    return EXIT_OK


def cmd_product(args) -> int:
    *_, pa = _prepare_product(args)
    _write_artifact(args.out, pa, args.dot)
    return EXIT_OK


def cmd_plan(args) -> int:
    *_, pa = _prepare_product(args)
    plan = _timed("plan", find_plan, pa)
    if plan is None:
        print("no satisfying plan exists", file=sys.stderr)
        return EXIT_INFEASIBLE
    _write_json(args.out, plan.to_document(pa))
    return EXIT_OK


def cmd_run(args) -> int:
    if args.cycles < 1:
        raise CliError("--cycles must be at least 1", EXIT_BAD_INPUT)
    index, start_cell, aut, pa = _prepare_product(args)
    plan = _timed("plan", find_plan, pa)
    if plan is None:
        print("no satisfying plan exists", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        trace = _timed(
            "execute", execute_plan,
            start_cell, plan.prefix, plan.cycle, index, args.cycles,
        )
    except UnreachableTargetError as exc:
        print(f"execution failed: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except TraceTooLongError as exc:
        raise CliError(f"execution error: {exc}", EXIT_BAD_INPUT)
    report = unsafe_report(trace)
    satisfied = _timed("check", check_trace, aut, trace)
    _write_json(
        args.out,
        {
            "plan": plan.to_document(pa),
            "trace": trace.to_document(),
            "unsafe": report,
            "satisfied": satisfied,
        },
    )
    return EXIT_OK


def cmd_check(args) -> int:
    grid = _load_map(args)
    try:
        doc = json.loads(Path(args.trace).read_text())
        if isinstance(doc, dict) and isinstance(doc.get("trace"), dict):
            doc = doc["trace"]
        trace = Trace.from_document(doc)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(f"cannot load trace: {exc}", EXIT_BAD_INPUT)
    index = region_index(extract_regions(grid)[0], grid.width, grid.height)
    try:
        trace.word, trace.word_cells = trace_word(trace.cells, index)
    except KeyError:
        raise CliError("trace leaves the map's passable cells", EXIT_BAD_INPUT)
    aut = _compile_formula(args.ltl, grid.symbols())
    satisfied = _timed("check", check_trace, aut, trace)
    _write_json(args.out, {"satisfied": satisfied})
    return EXIT_OK if satisfied else EXIT_CHECK_FAILED


_MAP = (
    ("--map", dict(required=True, help="map file (ASCII art or JSON)")),
    ("--mode", dict(choices=("primitive", "composite"), default=PRIMITIVE)),
    ("--start", dict(default=None, help="override start cell as 'X,Y'")),
)
_LTL = ("--ltl", dict(required=True))
_OUT = ("--out", dict(default=None, help="output file (default: stdout)"))
_DOT = ("--dot", dict(default=None))
_STAGES = ("--emit-stages", dict(default=None, metavar="DIR", help="dump intermediate artifacts"))

# name -> (help, handler, arguments); dict order is the order ``--help`` lists.
COMMANDS = {
    "abstract": ("map -> labeled transition system", cmd_abstract, (
        *_MAP, _OUT, ("--dot", dict(default=None, help="also write Graphviz output here")),
    )),
    "prune": ("map -> reduced transition system", cmd_prune, (
        *_MAP, _OUT, _DOT,
        ("--report", dict(default=None, help="write the reduction report here")),
        ("--emit-stages", dict(default=None, metavar="DIR", help="write per-pass snapshots")),
        ("--drop-unreachable", dict(action="store_true")),
    )),
    "compile": ("formula -> Büchi automaton", cmd_compile, (_LTL, _OUT, _DOT)),
    "product": ("map + formula -> product automaton", cmd_product, (*_MAP, _LTL, _OUT, _DOT)),
    "plan": ("map + formula -> shortest policy sequence", cmd_plan, (*_MAP, _LTL, _OUT, _STAGES)),
    "run": ("plan, then execute with minimum violations", cmd_run, (
        *_MAP, _LTL,
        ("--cycles", dict(type=int, default=1, help="cycle repetitions to unroll")),
        _OUT, _STAGES,
    )),
    "check": ("validate a stored trace against a formula", cmd_check, (
        *_MAP, _LTL, ("--trace", dict(required=True, help="trace JSON produced by 'run'")), _OUT,
    )),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given ``argv``, only the subcommand it names gets arguments.

    Every subcommand is registered with its help string, so the top-level
    usage and help stay whole.  Without a valid command in ``argv`` (e.g.
    ``--help`` or an unknown name), every subcommand is filled.
    """
    named = next((arg for arg in argv or () if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="ltlplan",
        description="Plan and execute temporal-logic tasks on labeled grid maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if named == name or named not in COMMANDS:
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
