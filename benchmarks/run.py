"""Seeded benchmark for the ltlplan CLI: op latency, plan coverage, layer traces.

Usage, from the repository root::

    python3 benchmarks/run.py --workload walled|rooms|goals --seed N \\
        --seconds S --trace 0|1

Generates the workload's inputs from the seed, sets up a fresh worker
process (``worker.py``) that drives ``ltlplan.cli.main`` in-process as one
closed-loop client, then judges every op's output with the independent
oracles in ``oracle.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``failed`` counts every op with a wrong outcome; the exit code is 0, and
``correct`` true, only when no output is WRONG (see ``oracle.py``).  See
``benchmarks/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import gen
import oracle
from tracer import COUNTS, LAYERS

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 12  # fresh interpreters that only import ltlplan.cli, besides the worker
PROBE = "import time; t = time.perf_counter(); import ltlplan.cli; print(time.perf_counter() - t)"
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "planned_ratio": "ratio",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPANS = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]
PER_LAYER = {
    **{f"{span}.ms": "ms" for span in SPANS},
    "cli.self.ms": "ms",
    **COUNTS,
    "trace.overhead_pct": "%",
}


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def judge_all(workload: str, seed: int, records: list[dict], workdir: Path) -> tuple[Counter, list[str]]:
    """Outcome tally and failure messages for every recorded op."""
    ops = {op.index: op for op in gen.take(workload, seed, max(r["index"] for r in records) + 1)}
    regions: dict[str, oracle.Regions] = {}
    outcomes, problems = Counter(), []
    for record in records:
        op = ops[record["index"]]
        if op.map.name not in regions:
            regions[op.map.name] = oracle.regions(op.map.grid)
        regs = regions[op.map.name]
        try:
            if record["code"] is None:
                raise oracle.Wrong(f"raised: {record['stderr'].strip().splitlines()[-1:]}")
            stdout = (workdir / f"out-{op.index}.json").read_text()
            trace_doc = None
            if op.command == "check":
                trace_doc = json.loads((workdir / f"out-{op.run_index}.json").read_text())["trace"]
            is_feasible = oracle.feasible(op.map.grid, op.formula, regs) if op.command == "run" else None
            outcome = oracle.judge(op, record["code"], stdout, trace_doc, regs, is_feasible)
        except (oracle.Wrong, ValueError, KeyError, TypeError, IndexError) as exc:
            outcome = oracle.WRONG
            problems.append(f"op {op.index} ({op.command} {op.family}: {op.ltl}): {exc}")
        if outcome == oracle.UNSATISFIED:
            problems.append(f"op {op.index} ({op.command} {op.family}: {op.ltl}): "
                            "exit 0, but its verified trace misses a feasible goal")
        outcomes[outcome] += 1
    return outcomes, problems


def feasible_runs(outcomes: Counter) -> int:
    """``run`` ops the grid oracle calls feasible: the base of planned_ratio."""
    return outcomes[oracle.PLANNED] + outcomes[oracle.UNSATISFIED] + outcomes[oracle.NO_PLAN]


def end_to_end(times: list[float], outcomes: Counter, attempted: int, failed: int, worker: dict,
               setups: list[float]) -> dict:
    feasible = feasible_runs(outcomes)
    tail_ms, _ = tail(times)
    return {
        "op_p50_ms": statistics.median(times),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(times) / worker["loop_s"],
        "planned_ratio": outcomes[oracle.PLANNED] / feasible if feasible else 0.0,
        "correct_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": worker["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(worker: dict) -> dict:
    records = worker["records"]
    traced = [r["ms"] for r in records if r["traced"]]
    untraced = [r["ms"] for r in records if not r["traced"] and r["round"] > 0]  # round 0 warms up
    ops = max(1, len(worker["layers"]))
    self_ms = worker["self_ms"].values()
    out = {f"{name}.ms": sum(op.get(name, 0.0) for op in self_ms) / ops
           for name in SPANS + ["cli.self"]}
    for name, unit in COUNTS.items():
        values = [layer[name] for layer in worker["layers"] if name in layer]
        if unit == "ratio":  # averaged over the calls that report it, not per op
            out[name] = statistics.fmean(values) if values else 0.0
        else:
            out[name] = sum(values) / ops
    out["trace.overhead_pct"] = (
        (statistics.median(traced) / statistics.median(untraced) - 1) * 100 if traced and untraced else 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ltlplan" / "cli.py").is_file():
        print("error: run from the repository root; src/ltlplan/cli.py not found", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = [float(subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=root, check=True,
                                       capture_output=True, text=True, timeout=60).stdout)
                  for _ in range(SETUP_PROBES)]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), args.trace, str(workdir)],
            env=env, cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"error: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        worker = json.loads((workdir / "worker.json").read_text())
        outcomes, problems = judge_all(args.workload, args.seed, worker["records"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = worker["records"]
    for rep in worker["repeats"]:
        outcomes["repeated" if rep["identical"] else oracle.WRONG] += 1
        if not rep["identical"]:
            problems.append(f"op {rep['index']}: repeating it gave different output")
    attempted = len(records) + len(worker["repeats"])
    failed = sum(outcomes[o] for o in oracle.FAILURES)
    correct = outcomes[oracle.WRONG] == 0
    setups.append(worker["setup_s"])

    if args.trace == "1":
        metrics, units = per_layer(worker), PER_LAYER
    else:
        metrics, units = end_to_end([r["ms"] for r in records], outcomes, attempted, failed, worker,
                                    setups), END_TO_END

    for line in problems:
        print(f"FAILED {line}")
    times = [r["ms"] for r in records if not r["traced"]]
    _, pct = tail(times)
    beyond = "10 beyond it" if len(times) > 10 else "the maximum: too few ops for 10 beyond"
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f}); outcomes {dict(sorted(outcomes.items()))}")
    print(f"op_tail_ms is p{pct:.1f} of {len(times)} untraced ops ({beyond}); "
          f"planned_ratio base: {outcomes[oracle.PLANNED]} planned / {feasible_runs(outcomes)} grid-feasible runs")
    if worker["missing"]:
        print(f"missing layer functions (reported as 0): {', '.join(worker['missing'])}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
