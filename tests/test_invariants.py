"""Invariants that hold whatever a golden records: map symmetries and translations.

Nothing in the pipeline depends on the map's orientation except the
documented direction tie rule of the minimum-violation search, so the eight
symmetries of the square must keep what the rule does not choose: whether a
plan exists and its length, ``run``'s exit code and ``satisfied``, and the
trace's forced violations.  Moving the map inside a frame of obstacles
changes nothing but coordinates: regions keep their row-major numbering, so
``prune`` writes the same documents and ``run`` the same one up to the
shifted cells.  Every case runs ``cli.main`` in-process on seeded maps with
an explicit start cell.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from envgen import (
    cell_labels,
    grid_from_cells,
    harsh_map,
    map_document,
    map_symbols,
    sea_with_islands,
    walled_hub_map,
)
from ltlplan.cli import main
from ltlplan.tsys import COMPOSITE, PRIMITIVE

# name -> ((x, y), width, height) -> the cell's image; the image map's size swaps
# width and height exactly when the name is in SWAPS.
SYMMETRIES = {
    "rotate90": lambda x, y, w, h: (h - 1 - y, x),
    "rotate180": lambda x, y, w, h: (w - 1 - x, h - 1 - y),
    "rotate270": lambda x, y, w, h: (y, w - 1 - x),
    "mirror": lambda x, y, w, h: (w - 1 - x, y),
    "flip": lambda x, y, w, h: (x, h - 1 - y),
    "transpose": lambda x, y, w, h: (y, x),
    "antitranspose": lambda x, y, w, h: (h - 1 - y, w - 1 - x),
}
SWAPS = {"rotate90", "rotate270", "transpose", "antitranspose"}


def seeded_cases(seed: int, count: int):
    """``count`` of ``(grid, mode, formula)`` on island, harsh and walled-hub maps, each
    map with a seeded start cell."""
    rng = random.Random(seed)
    while count:
        grid = rng.choice((sea_with_islands, harsh_map, walled_hub_map))(rng)
        symbols = sorted(map_symbols(grid)) if grid is not None else []
        if not symbols:
            continue
        free = [(i % grid.width, i // grid.width)
                for i, labelset in enumerate(cell_labels(grid)) if labelset is not None]
        s, t = rng.choice(symbols), rng.choice(symbols)
        formula = rng.choice((f"F {s}", f"F {s} & F {t}", f"F ({s} & F {t})", f"G F {s}",
                              f"!{s} U {t}", f"G F {s} & G F {t}"))
        yield grid._replace(start=rng.choice(free)), rng.choice((PRIMITIVE, COMPOSITE)), formula
        count -= 1


def transformed(grid, image, swap: bool):
    """``grid`` with each cell moved to ``image(x, y, width, height)``."""
    w, h = grid.width, grid.height
    size = (h, w) if swap else (w, h)
    cells = [None] * (w * h)
    for i, labelset in enumerate(cell_labels(grid)):
        x, y = image(i % w, i // w, w, h)
        cells[y * size[0] + x] = labelset
    return grid_from_cells(*size, cells, image(*grid.start, w, h))


def framed(grid, left: int, top: int, right: int, bottom: int):
    """``grid`` inside a frame of obstacles ``left``, ``top``, ... cells wide."""
    w = grid.width + left + right
    cells = [None] * (w * (grid.height + top + bottom))
    for i, labelset in enumerate(cell_labels(grid)):
        cells[(i // grid.width + top) * w + i % grid.width + left] = labelset
    x, y = grid.start
    return grid_from_cells(w, grid.height + top + bottom, cells, (x + left, y + top))


def cli(tmp_path, grid, *argv: str) -> tuple[int, str]:
    path = tmp_path / "map.json"
    path.write_text(json.dumps(map_document(grid)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], "--map", str(path), *argv[1:]])
    return code, out.getvalue()


def run_facts(tmp_path, grid, mode: str, formula: str) -> tuple:
    """What a symmetry must keep of one ``run``: exit code, plan length, satisfied, forced."""
    code, text = cli(tmp_path, grid, "run", "--mode", mode, "--ltl", formula)
    if not text:
        return (code,)
    doc = json.loads(text)
    return code, doc["plan"]["length"], doc["satisfied"], doc["unsafe"]["forced"]


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_symmetries_keep_plan_length_exit_code_and_forced_violations(tmp_path, name):
    image, planned = SYMMETRIES[name], 0
    for grid, mode, formula in seeded_cases(301, 30):
        expected = run_facts(tmp_path, grid, mode, formula)
        moved = transformed(grid, image, name in SWAPS)
        assert run_facts(tmp_path, moved, mode, formula) == expected, (grid, mode, formula)
        planned += expected[0] == 0
    assert planned  # some case plans and runs


def shifted(value, dx: int, dy: int):
    """``value`` with every ``{"x", "y"}`` cell moved by ``(dx, dy)``."""
    if isinstance(value, dict):
        if set(value) == {"x", "y"}:
            return {"x": value["x"] + dx, "y": value["y"] + dy}
        return {k: shifted(v, dx, dy) for k, v in value.items()}
    if isinstance(value, list):
        return [shifted(v, dx, dy) for v in value]
    return value


def test_translation_keeps_run_and_prune_output_up_to_coordinates(tmp_path):
    rng, planned = random.Random(302), 0
    for grid, mode, formula in seeded_cases(303, 30):
        left, top, right, bottom = (rng.randint(0, 3) for _ in range(4))
        moved = framed(grid, left, top, right, bottom)
        code, text = cli(tmp_path, grid, "run", "--mode", mode, "--ltl", formula)
        moved_code, moved_text = cli(tmp_path, moved, "run", "--mode", mode, "--ltl", formula)
        assert moved_code == code
        if text:
            assert json.loads(moved_text) == shifted(json.loads(text), left, top)
            planned += 1
        report, moved_report = tmp_path / "report.json", tmp_path / "moved_report.json"
        assert cli(tmp_path, moved, "prune", "--mode", mode, "--report", str(moved_report)) == \
            cli(tmp_path, grid, "prune", "--mode", mode, "--report", str(report))
        assert moved_report.read_text() == report.read_text()
    assert planned
