"""Rows walked, deviation walks and answers of `solve_backward` over the
`random-solve` benchmark pool.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/scan_counts.py

Solves every game of the pool (`perfbench/workloads.py`: `RANDOM_POOL`
drawn with `RANDOM_SHAPE`) in this process and counts the rows that
`PieceScan.rows` yields, jumps included, and the deviation walks
(`game._best_deviation` calls).  The answers are hashed as the sha256 of
each result's `repr`, in pool order; the first 16 hex digits are printed.
Prints one JSON object.  `random_game` draws in set order, so the pool,
and with it every figure, depends on the hash seed: compare runs under
one `PYTHONHASHSEED`.  Run it from a checkout: it imports that checkout's
`perfbench` workloads and `src` package.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from pentaform import game, random_game, solve_backward

    counts = {"rows": 0, "deviation_walks": 0}
    rows, search = game.PieceScan.rows, game._best_deviation

    def counted_rows(self, profile, keys):
        step, sent = rows(self, profile, keys).send, None
        while True:
            try:
                row = step(sent)
            except StopIteration:
                return
            counts["rows"] += 1
            sent = yield row

    def counted_search(*args):
        counts["deviation_walks"] += 1
        return search(*args)

    game.PieceScan.rows = counted_rows
    game._best_deviation = counted_search
    answers = hashlib.sha256()
    for index in workloads.RANDOM_POOL:
        answers.update(repr(solve_backward(random_game(index, **workloads.RANDOM_SHAPE))).encode())
    print(json.dumps({**counts, "answers_sha256": answers.hexdigest()[:16]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
