"""Command-line front end for the grid planning pipeline.

Subcommands mirror the pipeline stages: ``abstract`` builds the labeled
transition system from a map, ``prune`` reduces it, ``compile`` turns a
formula into a Büchi automaton, ``product`` combines both, ``plan``
extracts the shortest policy sequence, ``run`` executes it with
minimum-violation navigation, and ``check`` validates a stored trace.

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

from .gridworld import GridMap, MapParseError, cell_regions, extract_regions, parse_map
from .ltl import LtlParseError, parse_ltl, to_buchi
from .mvpolicy import (
    Trace,
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
    else:
        Path(path).write_text(text)


def _write_json(path: str | None, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_map(args) -> GridMap:
    try:
        text = Path(args.map).read_text()
    except OSError as exc:
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
    """Labeled transition system plus the region decomposition behind it."""

    def stage():
        regions, adjacency = extract_regions(grid)
        try:
            start_cell = grid.resolved_start()
        except MapParseError as exc:
            raise CliError(str(exc), EXIT_BAD_INPUT)
        initial_region = cell_regions(regions)[start_cell]
        ts = build_initial_ts(regions, adjacency, initial_region, mode)
        return generate_ts_labels(ts), regions, start_cell

    return _timed("abstract", stage)


def _compile_formula(formula_text: str, alphabet: frozenset[str] | None):
    try:
        formula = parse_ltl(formula_text, alphabet)
    except LtlParseError as exc:
        raise CliError(f"formula error: {exc}", EXIT_BAD_INPUT)
    return _timed("compile", to_buchi, formula)


def _prepare_product(args):
    grid = _load_map(args)
    labeled, regions, start_cell = _abstract(grid, args.mode)
    pruned, report = _timed("prune", prune, labeled)
    aut = _compile_formula(args.ltl, grid.symbols())
    pa = _timed("product", build_product, pruned, aut)
    if getattr(args, "emit_stages", None):
        directory = Path(args.emit_stages)
        _emit_prune_stages(directory, labeled, report)
        for name, artifact in (("pruned", pruned), ("buchi", aut), ("product", pa)):
            _write_json(str(directory / f"{name}.json"), artifact.to_document())
            _write_text(str(directory / f"{name}.dot"), artifact.to_dot())
    return grid, regions, start_cell, aut, pa


def _emit_prune_stages(directory: Path, labeled, report) -> None:
    """Write the labeled system and each reduction pass's result."""
    directory.mkdir(parents=True, exist_ok=True)
    snapshots = [("labeled", labeled)]
    for i in range(len(ALL_CASES)):
        snapshots.append((f"stage{i + 1}", report.replay(labeled, ALL_CASES[: i + 1])))
    for name, snapshot in snapshots:
        _write_json(str(directory / f"{name}.json"), snapshot.to_document())
        _write_text(str(directory / f"{name}.dot"), snapshot.to_dot())


def cmd_abstract(args) -> int:
    grid = _load_map(args)
    ts, _, _ = _abstract(grid, args.mode)
    if args.dot:
        _write_text(args.dot, ts.to_dot())
    _write_json(args.out, ts.to_document())
    return EXIT_OK


def cmd_prune(args) -> int:
    grid = _load_map(args)
    labeled, _, _ = _abstract(grid, args.mode)
    pruned, report = _timed("prune", prune, labeled)
    if args.emit_stages:
        _emit_prune_stages(Path(args.emit_stages), labeled, report)
    if args.drop_unreachable:
        pruned = drop_unreachable(pruned)
    if args.report:
        _write_json(args.report, report.to_document())
    if args.dot:
        _write_text(args.dot, pruned.to_dot())
    _write_json(args.out, pruned.to_document())
    return EXIT_OK


def cmd_compile(args) -> int:
    aut = _compile_formula(args.ltl, None)
    if args.dot:
        _write_text(args.dot, aut.to_dot())
    _write_json(args.out, aut.to_document())
    return EXIT_OK


def cmd_product(args) -> int:
    *_, pa = _prepare_product(args)
    if args.dot:
        _write_text(args.dot, pa.to_dot())
    _write_json(args.out, pa.to_document())
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
    grid, regions, start_cell, aut, pa = _prepare_product(args)
    plan = _timed("plan", find_plan, pa)
    if plan is None:
        print("no satisfying plan exists", file=sys.stderr)
        return EXIT_INFEASIBLE
    index = region_index(regions)
    try:
        trace = _timed(
            "execute", execute_plan,
            grid, start_cell, plan.prefix, plan.cycle, index, args.cycles,
        )
    except UnreachableTargetError as exc:
        print(f"execution failed: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    report = unsafe_report(grid, trace, index)
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
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(f"cannot load trace: {exc}", EXIT_BAD_INPUT)
    index = region_index(extract_regions(grid)[0])
    if any(cell not in index for cell in trace.cells):
        raise CliError("trace leaves the map's passable cells", EXIT_BAD_INPUT)
    trace.word, trace.word_cells = trace_word(trace.cells, index)
    aut = _compile_formula(args.ltl, grid.symbols())
    satisfied = _timed("check", check_trace, aut, trace)
    _write_json(args.out, {"satisfied": satisfied})
    return EXIT_OK if satisfied else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlplan",
        description="Plan and execute temporal-logic tasks on labeled grid maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map_opts(p):
        p.add_argument("--map", required=True, help="map file (ASCII art or JSON)")
        p.add_argument("--mode", choices=["primitive", "composite"], default=PRIMITIVE)
        p.add_argument("--start", default=None, help="override start cell as 'X,Y'")

    def add_out(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("abstract", help="map -> labeled transition system")
    add_map_opts(p)
    add_out(p)
    p.add_argument("--dot", default=None, help="also write Graphviz output here")
    p.set_defaults(handler=cmd_abstract)

    p = sub.add_parser("prune", help="map -> reduced transition system")
    add_map_opts(p)
    add_out(p)
    p.add_argument("--dot", default=None)
    p.add_argument("--report", default=None, help="write the reduction report here")
    p.add_argument(
        "--emit-stages", default=None, metavar="DIR", help="write per-pass snapshots"
    )
    p.add_argument("--drop-unreachable", action="store_true")
    p.set_defaults(handler=cmd_prune)

    p = sub.add_parser("compile", help="formula -> Büchi automaton")
    p.add_argument("--ltl", required=True)
    add_out(p)
    p.add_argument("--dot", default=None)
    p.set_defaults(handler=cmd_compile)

    p = sub.add_parser("product", help="map + formula -> product automaton")
    add_map_opts(p)
    p.add_argument("--ltl", required=True)
    add_out(p)
    p.add_argument("--dot", default=None)
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("plan", help="map + formula -> shortest policy sequence")
    add_map_opts(p)
    p.add_argument("--ltl", required=True)
    add_out(p)
    p.add_argument(
        "--emit-stages", default=None, metavar="DIR", help="dump intermediate artifacts"
    )
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("run", help="plan, then execute with minimum violations")
    add_map_opts(p)
    p.add_argument("--ltl", required=True)
    p.add_argument("--cycles", type=int, default=1, help="cycle repetitions to unroll")
    add_out(p)
    p.add_argument(
        "--emit-stages", default=None, metavar="DIR", help="dump intermediate artifacts"
    )
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("check", help="validate a stored trace against a formula")
    add_map_opts(p)
    p.add_argument("--ltl", required=True)
    p.add_argument("--trace", required=True, help="trace JSON produced by 'run'")
    add_out(p)
    p.set_defaults(handler=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
