"""Collections and collector time over one whole benchmark cycle.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/gc_cycle.py --workload chains --seed 101

Builds and runs every op of one `perfbench` cycle in this process, in the
order `perfbench/cycle.py` runs them, and records each run of the cyclic
collector through `gc.callbacks`: its generation and its time, whether it
ran inside an op or between ops (while the next input is generated and the
last answer verified).  Prints one JSON object.  Run it from a checkout: it
imports that checkout's `perfbench` workloads and `src` package.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs = []  # (generation, seconds, inside an op)
    started, inside = [0.0], [False]

    def note(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            runs.append((info["generation"], time.perf_counter() - started[0], inside[0]))

    with tempfile.TemporaryDirectory() as workdir:
        ctx = workloads.Context(args.workload, args.seed, 0, Path(workdir))
        gc.callbacks.append(note)
        ops = workloads.BUILDERS[args.workload](ctx)
        for op in ops:
            inside[0] = True
            op.verify(op.call())
            inside[0] = False
        gc.callbacks.remove(note)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "collections": len(runs),
        "by_generation": [sum(g == k for g, _, _ in runs) for k in range(3)],
        "collector_ms": 1000 * sum(s for _, s, _ in runs),
        "in_ops_ms": 1000 * sum(s for _, s, op in runs if op),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
