"""Benchmark worker: one fresh, single-threaded process per workload run.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 benchmarks/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

Imports ``ltlplan.cli`` (timed: the worker's set-up), then acts as one
closed-loop client: it writes each op's input files, times one
``cli.main(argv)`` call with stdout and stderr captured, stores the output
and moves on.  Generation and file writes happen outside the timed span.
SECONDS fixes the number of rounds (see :func:`gen.rounds`), so two runs
with the same seed attempt the same ops, whatever the machine's speed; the
loop's wall time, less input generation, is the base of ops_per_s.
With TRACE=1, odd rounds run under the :class:`tracer.Tracer`; even rounds
after the first give the untraced times that the tracing overhead is
measured against.
Everything it records goes to ``WORKDIR/worker.json``; judging the
outputs is left to ``run.py``, so the oracles do not add to this
process's peak memory.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gen
from tracer import OP, Tracer, self_times

WALL_CAP_S = 100.0  # stop early, on a round boundary, if ops got this slow


def call_cli(main, argv: list[str]) -> tuple[int | None, str, str]:
    """One op: exit code (None on an exception), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def argv_for(op: gen.Op, workdir: Path) -> list[str]:
    argv = [op.command, "--map", str(workdir / op.map.name), "--mode", op.mode, "--ltl", op.ltl]
    if op.command == "check":
        argv += ["--trace", str(workdir / f"out-{op.run_index}.json")]
    return argv


def main() -> int:
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    seconds, trace, workdir = float(seconds), trace == "1", Path(workdir)

    begin = time.perf_counter()
    from ltlplan import cli
    setup_s = time.perf_counter() - begin

    tracer = Tracer() if trace else None
    ops = gen.WORKLOADS[workload](int(seed))
    per_round = gen.ROUND[workload]
    records, layer_metrics, written, code_of = [], [], set(), {}
    # The timed loop's wall time leaves out only input generation and writes,
    # which belong to no op; gc, output stores and bookkeeping count.
    generating, loop_start, done = 0.0, time.perf_counter(), 0
    total_ops = gen.rounds(workload, seconds) * per_round
    while done < total_ops and time.perf_counter() - loop_start < WALL_CAP_S:
        round_no = done // per_round
        traced = tracer is not None and round_no % 2 == 1
        for _ in range(per_round):
            t0 = time.perf_counter()
            op = next(ops)
            done += 1
            if op.map.name not in written:
                (workdir / op.map.name).write_text(op.map.text)
                written.add(op.map.name)
            generating += time.perf_counter() - t0
            if op.command == "check" and code_of.get(op.run_index) != 0:
                continue  # its run produced no trace; nothing to check
            argv = argv_for(op, workdir)
            gc.collect()  # each op starts on a clean heap, as a fresh CLI process would
            if traced:
                code, stdout, stderr = tracer.run_op(op.index, lambda: call_cli(cli.main, argv))
                root = next(s for s in reversed(tracer.spans) if s[0] == OP)
                ms = (root[2] - root[1]) * 1000.0
                layer_metrics.append(tracer.op_metrics())
            else:
                t0 = time.perf_counter()
                code, stdout, stderr = call_cli(cli.main, argv)
                ms = (time.perf_counter() - t0) * 1000.0
            code_of[op.index] = code
            (workdir / f"out-{op.index}.json").write_text(stdout)
            records.append({"index": op.index, "command": op.command, "round": round_no,
                            "ms": ms, "code": code, "traced": traced, "digest": digest(stdout),
                            "stderr": stderr if code not in (0, 1, 3) else ""})
    loop_s = time.perf_counter() - loop_start - generating

    # Determinism: repeat the first op of each command (untraced) and compare.
    firsts = {}
    for record in records:
        firsts.setdefault(record["command"], record)
    replay = gen.take(workload, int(seed), max(r["index"] for r in firsts.values()) + 1)
    repeats = []
    for record in firsts.values():
        code, stdout, _ = call_cli(cli.main, argv_for(replay[record["index"]], workdir))
        repeats.append({"index": record["index"],
                        "identical": code == record["code"] and digest(stdout) == record["digest"]})

    if tracer is not None:
        (workdir.parent / f"spans-{workload}-{seed}.json").write_text(json.dumps(tracer.spans))
    result = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "repeats": repeats,
        "layers": layer_metrics,
        "self_ms": self_times(tracer.spans) if tracer is not None else {},
        "missing": tracer.missing if tracer is not None else [],
    }
    (workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
