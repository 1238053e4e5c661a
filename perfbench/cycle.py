"""One benchmark cycle in a fresh process: set up, run every op once, report.

run.py starts this script once per cycle, so each process analyses one
cycle's inputs and nothing else: its peak RSS, its set-up time and its
`lru_cache` contents belong to that cycle alone.  It prints one JSON object.
With --setup-only it stops at the first op and reports only its set-up time.

    python3 perfbench/cycle.py --workload W --seed N --cycle K --trace 0|1 \
        --spawned-at MONOTONIC --workdir DIR [--spans STEM] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

REFERENCE_EVERY_S = 0.05  # op time between two samples of the reference kernel


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycle", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true", help="stop at the first op")
    args = parser.parse_args()
    if not __debug__:
        print("refusing to run with assertions off: -O changes what the engine checks", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(args.workload, args.seed, args.cycle, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        report = run_cycle(workloads, ctx, tracer, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer and args.spans:
        tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


def reference_s() -> float:
    """Time a fixed pure-Python kernel (tuples, strings, dicts, sets,
    frozensets, a sort: the objects the engine works with) that uses no
    pentaform code.  The host's speed drifts by up to a third within seconds, and
    the kernel's time moves with it; run.py divides the op times by it."""
    enabled = gc.isenabled()
    gc.disable()  # the kernel frees all it allocates; keep the engine's heap out of it
    t0 = time.perf_counter()
    rows = [(f"p{i % 3}", f"j{i % 97}", f"w{i:05d}", f"a{i % 4}", f"y{i * 7 % 1009:05d}") for i in range(600)]
    actions: dict[str, set] = {}
    for p, j, w, a, y in rows:
        actions.setdefault(j, set()).add(a)
    index = {(r[2], r[3]): frozenset(r) for r in rows}
    rows.sort(key=lambda r: (r[4], r[2]))
    reached = frozenset(r[4] for r in rows) | frozenset(index)
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    assert len(actions) == 97 and len(reached) > len(rows)
    return elapsed


def run_cycle(workloads, ctx, tracer, args) -> dict:
    ops, failures, mismatches = [], [], []
    reference = []  # reference kernel seconds, one sample per REFERENCE_EVERY_S of op time
    reference_after = []  # per op: index of the first reference sample taken after it
    since_reference = 0.0
    setup_s = None
    input_quintuples = 0
    slope_s = {}  # "kind/rung/function" -> inclusive seconds (traced cycles)
    for op in workloads.BUILDERS[args.workload](ctx):
        if setup_s is None:
            setup_s = time.monotonic() - args.spawned_at
            if args.setup_only:
                return {"setup_s": setup_s}
        scope = tracer.op(op.kind) if tracer else contextlib.nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with scope:
                result = op.call()
        except Exception as exc:  # an exception escaping the engine is a failed op
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        elapsed = time.perf_counter() - t0
        if error is None and op.cli and result[0] not in workloads.EXIT_CODES:
            error = f"undocumented exit code {result[0]}"
        status = "ok"
        if error is not None:
            status = "failed"
            failures.append(f"{op.key}: {error}")
        else:
            problem = op.verify(result)
            if problem:
                status = "wrong"
                mismatches.append(f"{op.key}: {problem}")
        input_quintuples += op.size
        ops.append([op.kind, op.rung, elapsed, status])
        reference_after.append(len(reference))
        since_reference += elapsed
        if since_reference >= REFERENCE_EVERY_S:
            reference.append(reference_s())
            since_reference = 0.0
        if tracer:
            for fn in ("core.check_axioms", "partition.subroots", "game.spe_check_direct"):
                if fn in tracer.op_total_s:
                    key = f"{op.kind}/{op.rung}/{fn}"
                    slope_s[key] = slope_s.get(key, 0.0) + tracer.op_total_s[fn]
    if since_reference or not reference:
        reference.append(reference_s())
    for finish in ctx.finishers:
        mismatches.extend(finish())
    report = {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": ctx.digest.hexdigest(),
        "ops": ops,
        "reference": reference,
        "reference_after": reference_after,
        "failures": failures,
        "mismatches": mismatches,
        "trace": None,
    }
    if tracer:
        report["trace"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "binding_calls": dict(tracer.binding_calls),
            "counters": dict(tracer.counters),
            "spans": len(tracer.start),
            "input_quintuples": input_quintuples,
            "slope_s": slope_s,
        }
    return report


if __name__ == "__main__":
    raise SystemExit(main())
