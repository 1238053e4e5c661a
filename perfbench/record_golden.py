"""Record the golden decisions that workloads.py compares against.

    python3 perfbench/record_golden.py

Runs one cycle of every workload that has golden decisions, once on marked
inputs and once on the unmarked originals, requires both to record the same
decisions (so the per-op markers cannot change what the engine decides), and
writes perfbench/golden.json.  Record only at a commit whose CLI output and
results are trusted; the benchmark reports every later difference as a wrong
verdict.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record(workload: str, marked: bool) -> dict:
    import workloads

    recorded: dict = {}
    workdir = HERE / "out" / f"golden-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(workload, 0, 0, workdir, golden={}, record=recorded, marked=marked)
        problems = []
        for op in workloads.BUILDERS[workload](ctx):
            problem = op.verify(op.call())
            if problem:
                problems.append(f"{op.key}: {problem}")
        for finish in ctx.finishers:
            problems.extend(finish())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        raise SystemExit("expected answers fail while recording:\n" + "\n".join(problems))
    return recorded


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
        return os.spawnve(os.P_WAIT, sys.executable, [sys.executable, __file__], env)
    golden = {}
    for workload in ("crywolf", "random-solve", "quotient"):
        with_markers, without = record(workload, True), record(workload, False)
        if with_markers != without:
            differing = sorted(k for k in with_markers if with_markers[k] != without.get(k))
            raise SystemExit(f"{workload}: markers change the decisions of {differing[:5]}")
        golden.update(with_markers)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} golden decisions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
