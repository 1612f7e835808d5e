"""Command-line front end for the grid planning pipeline.

Subcommands mirror the pipeline stages: ``abstract`` builds the labeled
transition system from a map, ``prune`` reduces it, ``compile`` turns a
formula into a Büchi automaton, ``product`` combines both, ``plan``
extracts the shortest policy sequence, ``run`` executes it with
minimum-violation navigation, and ``check`` validates a stored trace.
Each subcommand is declared once in ``COMMANDS``: its help, handler and
arguments.  ``main(argv)`` may be called repeatedly in one process; the
parser is built on the first call and serves every later one.  Each
pipeline stage is declared once in ``STAGES``; a ``Pipeline`` memo runs
it at most once per command, when a handler or a later stage first reads
it.  The map stages never read the formula.

Exit codes: 0 success, 1 check failed, 2 malformed input, 3 no
satisfying plan exists, 4 a policy target was unreachable during
execution.  Each labeled stage that returns prints one ``[time]`` line on
stderr, timed from its start or from the previous line, whichever is later.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
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
from .tsys import PRIMITIVE, TransitionSystem, build_initial_ts, generate_ts_labels, twin_classes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_UNREACHABLE = 4


class CliError(Exception):
    """Ends a command with exit ``code``; malformed input (code 2) prints as an error."""

    def __init__(self, message: str, code: int):
        super().__init__(f"error: {message}" if code == EXIT_BAD_INPUT else message)
        self.code = code


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_BAD_INPUT)


def _write_json(path: str | None, doc) -> None:
    _write_text(path, _json_text(doc, "") + "\n")


def _json_text(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it at margin ``pad``,
    without ``json``'s pure-Python encoder.  Keys are strings; flat records fill one template."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        body = ",\n".join([f"{inner}{_quote(k)}: {_json_text(value[k], inner)}"
                            for k in sorted(value)])
        return f"{{\n{body}\n{pad}}}" if value else "{}"
    if isinstance(value, (list, tuple)):
        body = _records(value, inner) or ",\n".join([inner + _json_text(v, inner) for v in value])
        return f"[\n{body}\n{pad}]" if value else "[]"
    return json.dumps(value)


def _records(items, pad: str) -> str | None:
    """``items`` at margin ``pad`` if they are dicts with one key set and every
    column all ``int`` (``bool`` is not) or all ``str``, else ``None``."""
    keys = sorted(items[0]) if items and type(items[0]) is dict else ()
    if not keys or set(map(type, items)) != {dict} or set(map(len, items)) != {len(keys)}:
        return None
    columns = [[item.get(k) for item in items] for k in keys]  # a missing key reads None
    for i, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds == {str}:
            columns[i] = map(_quote, column)
        elif kinds != {int}:
            return None
    fields = ",\n".join(f"{pad}  {_quote(k).replace('%', '%%')}: %s" for k in keys)
    return ",\n".join(map(f"{pad}{{\n{fields}\n{pad}}}".__mod__, zip(*columns)))


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
        grid = parse_map(text)
    except MapParseError as exc:
        raise CliError(f"map error: {exc}", EXIT_BAD_INPUT)
    if args.start is not None:
        cell = _parse_start(args.start)
        if not grid.is_free(cell):
            raise CliError(f"start cell {cell} is not a passable map cell", EXIT_BAD_INPUT)
        grid = grid._replace(start=cell)
    return grid


def _parse_start(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError("--start expects 'X,Y'", EXIT_BAD_INPUT)
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise CliError("--start expects integer coordinates 'X,Y'", EXIT_BAD_INPUT)


def _start_cell(p):
    try:
        return p["grid"].resolved_start()
    except MapParseError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)


def _origin(p):
    """The start cell's region, found on the regions' row runs."""
    x, y = p["start"]
    return next(r.id for r in p["regions"][0] for row, a, b in r.runs if row == y and a <= x < b)


def _label(p):
    """Labeled transition system over the twin classes, entered at the start region's class."""
    (regions, adjacency), twins = p["regions"], p["twins"]
    heads = [r for r in regions if twins[r.id] == r.id]
    quotient = {r.id: tuple(sorted({twins[n] for n in adjacency[r.id]})) for r in heads}
    ts = build_initial_ts(heads, quotient, twins[p["origin"]], p["args"].mode)
    return generate_ts_labels(ts, {twin for r, twin in enumerate(twins) if twin != r})


def _unfold(p):
    """The labeled system over every region; edge (u, n) carries its classes' edge's symbols."""
    (regions, adjacency), twins, labeled = p["regions"], p["twins"], p["labeled"]
    transitions = {(u, n): set(labeled.transitions[twins[u], twins[n]])
                   for u, near in adjacency.items() for n in near}
    labels = {r.id: r.label for r in regions}
    return TransitionSystem(list(labels), labels, transitions, p["origin"], labeled.mode)


def _compile(p):
    """Büchi automaton of ``--ltl``; with a map, its atoms must be map symbols."""
    try:
        formula = parse_ltl(p["args"].ltl, p["symbols"] if "map" in p["args"] else None)
        return to_buchi(formula)
    except LtlParseError as exc:
        raise CliError(f"formula error: {exc}", EXIT_BAD_INPUT)


def _plan(p):
    """Shortest plan, after ``--emit-stages`` has written the stages before it; exit 3 if none."""
    if p["args"].emit_stages:
        _emit_stages(p, "pruned", "buchi", "product")
    plan = find_plan(p["product"])
    if plan is None:
        raise CliError("no satisfying plan exists", EXIT_INFEASIBLE)
    return plan


def _execute(p):
    """Cell trace of the plan, unrolled ``--cycles`` times; exit 4 if a target is cut off."""
    plan = p["plan"]
    try:
        return execute_plan(p["start"], plan.prefix, plan.cycle, p["index"], p["args"].cycles)
    except UnreachableTargetError as exc:
        raise CliError(f"execution failed: {exc}", EXIT_UNREACHABLE)
    except TraceTooLongError as exc:
        raise CliError(f"execution error: {exc}", EXIT_BAD_INPUT)


# stage -> ([time] label or None, compute); a body names its layer function, so
# it calls what ``ltlplan.cli`` binds at run time.  No stage up to "report" reads --ltl.
STAGES = {
    "grid": ("parse-map", lambda p: _load_map(p["args"])),
    "regions": (None, lambda p: extract_regions(p["grid"])),
    "start": (None, _start_cell),
    "index": (None, lambda p: region_index(p["regions"][0], p["grid"])),
    "symbols": (None, lambda p: frozenset().union(*(r.label for r in p["regions"][0]))),
    "twins": (None, lambda p: twin_classes(*p["regions"])),
    "origin": (None, _origin),
    "labeled": ("abstract", _label),
    "unfolded": (None, _unfold),
    "prune": ("prune", lambda p: prune(p["labeled"], p["twins"])),
    "pruned": (None, lambda p: p["prune"][0]),
    "report": (None, lambda p: p["prune"][1]),
    "buchi": ("compile", _compile),
    "product": ("product", lambda p: build_product(p["pruned"], p["buchi"])),
    "plan": ("plan", _plan),
    "trace": ("execute", _execute),
    "satisfied": ("check", lambda p: check_trace(p["buchi"], p["trace"])),
}


class Pipeline(dict):
    """One command's stages by name, built as ``Pipeline(args=args)``; each runs once."""

    printed = 0.0  # clock reading at the last [time] line

    def __missing__(self, name: str):
        label, compute = STAGES[name]
        begin = time.perf_counter()
        self[name] = compute(self)
        if label:
            begin, self.printed = max(begin, self.printed), time.perf_counter()
            print(f"[time] {label}: {(self.printed - begin) * 1000.0:.1f} ms", file=sys.stderr)
        return self[name]


def _emit_stages(p, *names: str) -> None:
    """Write the labeled system, each reduction pass's result, then the stages ``names``."""
    artifacts = {"labeled": p["unfolded"]}
    for i in range(1, len(ALL_CASES) + 1):
        artifacts[f"stage{i}"] = p["report"].replay(p["unfolded"], ALL_CASES[:i])
    artifacts.update((name, p[name]) for name in names)
    path = Path(p["args"].emit_stages)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_BAD_INPUT)
    for name, artifact in artifacts.items():
        _write_artifact(str(path / f"{name}.json"), artifact, str(path / f"{name}.dot"))


def _writes(stage: str):
    """Handler of a command whose output is the one artifact ``stage``."""
    def handler(p) -> int:
        _write_artifact(p["args"].out, p[stage], p["args"].dot)
        return EXIT_OK
    return handler


def cmd_prune(p) -> int:
    args, pruned = p["args"], p["pruned"]
    if args.emit_stages:
        _emit_stages(p)
    if args.drop_unreachable:
        pruned = drop_unreachable(pruned)
    if args.report:
        _write_json(args.report, p["report"].to_document())
    _write_artifact(args.out, pruned, args.dot)
    return EXIT_OK


def cmd_plan(p) -> int:
    _write_json(p["args"].out, p["plan"].to_document(p["product"]))
    return EXIT_OK


def cmd_run(p) -> int:
    args = p["args"]
    if args.cycles < 1:
        raise CliError("--cycles must be at least 1", EXIT_BAD_INPUT)
    _write_json(args.out, {
        "plan": p["plan"].to_document(p["product"]),
        "trace": p["trace"].to_document(),
        "unsafe": unsafe_report(p["trace"]),
        "satisfied": p["satisfied"],
    })
    return EXIT_OK


def cmd_check(p) -> int:
    p["grid"]  # a malformed map is reported before a bad trace
    try:
        doc = json.loads(Path(p["args"].trace).read_text())
        if isinstance(doc, dict) and isinstance(doc.get("trace"), dict):
            doc = doc["trace"]
        trace = Trace.from_document(doc)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(f"cannot load trace: {exc}", EXIT_BAD_INPUT)
    try:
        word, word_cells = trace_word(trace.cells, p["index"])
    except KeyError:
        raise CliError("trace leaves the map's passable cells", EXIT_BAD_INPUT)
    p["trace"] = trace._replace(word=word, word_cells=word_cells)
    _write_json(p["args"].out, {"satisfied": p["satisfied"]})
    return EXIT_OK if p["satisfied"] else EXIT_CHECK_FAILED


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
    "abstract": ("map -> labeled transition system", _writes("unfolded"), (
        *_MAP, _OUT, ("--dot", dict(default=None, help="also write Graphviz output here")),
    )),
    "prune": ("map -> reduced transition system", cmd_prune, (
        *_MAP, _OUT, _DOT,
        ("--report", dict(default=None, help="write the reduction report here")),
        ("--emit-stages", dict(default=None, metavar="DIR", help="write per-pass snapshots")),
        ("--drop-unreachable", dict(action="store_true")),
    )),
    "compile": ("formula -> Buchi automaton", _writes("buchi"), (_LTL, _OUT, _DOT)),
    "product": ("map + formula -> product automaton", _writes("product"), (
        *_MAP, _LTL, _OUT, _DOT,
    )),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, built on first use and shared; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="ltlplan",
        description="Plan and execute temporal-logic tasks on labeled grid maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(Pipeline(args=args))
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
