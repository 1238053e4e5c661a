"""Rows walked, deviation walks and answers of `solve_backward` over the
`random-solve` benchmark pool, and the answers of three Nash-type checks.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/scan_counts.py

Solves every game of the pool (`perfbench/workloads.py`: `RANDOM_POOL`
drawn with `RANDOM_SHAPE`) in this process and counts the rows that
`PieceScan.rows` yields, jumps included, and the deviation walks
(`game._best_deviation` calls).  The answers are hashed as the sha256 of
each result's `repr`, in pool order; the first 16 hex digits are printed.
`checks_sha256` hashes the same way the verdicts, witnesses included, of
`nash_check`, `spe_check_direct` and `one_piece_unimprovable` on each pool
game under one strategy drawn from `random.Random(index)`; the checks run
before the counters are installed, so they add to neither count.
`forms_sha256` hashes the form layer through public accessors only, so it
does not depend on how a form stores its structure: for each pool form, a
1,000-node `conftest.chain_game` and the cry-wolf depth-3 unfolding, the
root, the sorted decision nodes, successors, situations and nodes, the
endnodes in their iteration order (`random_game` draws utilities in it),
each node's depth, each decision node's `children` in order, each
situation's sorted `information_set` and `action_set`, the sorted
subroots and each piece's sorted `piece_decision_nodes`.
Prints one JSON object.  `random_game` draws in set order, so the pool,
and with it every figure, depends on the hash seed: compare runs under
one `PYTHONHASHSEED`.  Run it from a checkout: it imports that checkout's
`perfbench` workloads and `src` package.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _form_layer(form) -> str:
    """The form's structure as read through its public accessors."""
    from pentaform.partition import piece_decision_nodes, subroots

    ts = sorted(subroots(form))
    return repr((form.root, sorted(form.decision_nodes), sorted(form.successors), sorted(form.situations),
                 sorted(form.nodes), list(form.endnodes),
                 [(x, form.depth(x)) for x in sorted(form.nodes)],
                 [(x, form.children(x)) for x in sorted(form.decision_nodes)],
                 [(j, sorted(form.information_set(j)), sorted(form.action_set(j))) for j in sorted(form.situations)],
                 ts, [sorted(piece_decision_nodes(form, t)) for t in ts]))


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from conftest import chain_game
    from pentaform import (game, instantiate, nash_check, one_piece_unimprovable, random_game, solve_backward,
                           spe_check_direct)
    from pentaform.fixtures import cry_wolf

    forms = hashlib.sha256()
    for index in workloads.RANDOM_POOL:
        forms.update(_form_layer(random_game(index, **workloads.RANDOM_SHAPE).form).encode())
    forms.update(_form_layer(chain_game(1000).form).encode())
    forms.update(_form_layer(instantiate(cry_wolf(), 3)).encode())

    checks = hashlib.sha256()
    for index in workloads.RANDOM_POOL:
        g = random_game(index, **workloads.RANDOM_SHAPE)
        rng = random.Random(index)
        s = {j: rng.choice(sorted(g.form.action_set(j))) for j in sorted(g.form.situations)}
        for check in (nash_check, spe_check_direct, one_piece_unimprovable):
            checks.update(repr(check(g, s)).encode())

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
    print(json.dumps({**counts, "answers_sha256": answers.hexdigest()[:16],
                      "checks_sha256": checks.hexdigest()[:16], "forms_sha256": forms.hexdigest()[:16]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
