"""Peak memory and wall time of unfolding a stationary system, and the wall
time of pricing an unfolding as a truncated game.

    PYTHONPATH=src python3 tests/unfold_memory.py

Runs `pentaform stationary fixtures/ann.system instantiate D` through
`cli.main`, for D = 1,000, 2,000 and 4,000, each in a fresh Python process,
and reads that process's peak resident set size from `ru_maxrss` (taken as
kilobytes, as Linux reports it) and the wall time of the `cli.main` call.
The command's stdout is discarded.  Then times `truncated_game` on
`fixtures/ann.system` at the same depths, with the continuation {c: {Ann:
0}}, and on `fixtures/crywolf.system` at depth 5, with the continuation
values of `fixtures/crywolf_calm.strategy`: each in its own fresh process,
so that the RSS figures measure the unfolding alone, as the best of
`REPEATS` calls.  Prints one JSON object: per depth, the command's exit
code, peak RSS in MB and wall time in seconds, and per system and depth,
the best `truncated_game` wall time in seconds.  Run it from a checkout: it
runs that checkout's fixtures, and each child imports the package found on
the `PYTHONPATH` it inherits.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEPTHS = (1000, 2000, 4000)
TRUNCATIONS = [("ann", depth) for depth in DEPTHS] + [("crywolf", 5)]
REPEATS = 3


def unfold(depth: int) -> dict:
    """Run the command once in this process; its exit code, peak RSS and time."""
    from pentaform import cli

    argv = ["stationary", str(ROOT / "fixtures" / "ann.system"), "instantiate", str(depth)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"exit": code, "peak_rss_mb": round(peak_mb, 1), "wall_s": round(wall, 3)}


def truncate(name: str, depth: int) -> dict:
    """The best wall time of `REPEATS` `truncated_game` calls in this process."""
    from pentaform.fileio import load_stationary_strategy, load_system
    from pentaform.stationary import continuation_values, truncated_game

    system = load_system(ROOT / "fixtures" / f"{name}.system")
    if name == "ann":
        continuation = {"c": {"Ann": 0}}
    else:
        calm = load_stationary_strategy(ROOT / "fixtures" / "crywolf_calm.strategy")
        continuation = continuation_values(system, calm)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        truncated_game(system, depth, continuation)
        best = min(best, time.perf_counter() - start)
    return {"wall_s": round(best, 4)}


def child(*args: str) -> dict:
    out = subprocess.run([sys.executable, __file__, *args], check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    if argv:  # a child: one unfolding, or one system's truncations at one depth
        print(json.dumps(unfold(int(argv[0])) if len(argv) == 1 else truncate(argv[0], int(argv[1]))))
        return 0
    rows = {depth: child(str(depth)) for depth in DEPTHS}
    truncations: dict[str, dict] = {}
    for name, depth in TRUNCATIONS:
        truncations.setdefault(name, {})[depth] = child(name, str(depth))
    print(json.dumps({"instantiate": rows, "truncated_game": truncations}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
