"""Peak memory and wall time of unfolding a stationary system through the CLI.

    PYTHONPATH=src python3 tests/unfold_memory.py

Runs `pentaform stationary fixtures/ann.system instantiate D` through
`cli.main`, for D = 1,000, 2,000 and 4,000, each in a fresh Python process,
and reads that process's peak resident set size from `ru_maxrss` (taken as
kilobytes, as Linux reports it) and the wall time of the `cli.main` call.
The command's stdout is discarded.  Prints one JSON object: per depth, the
exit code, the peak RSS in MB and the wall time in seconds.  Run it from a
checkout: it runs that checkout's fixture, and each child imports the
package found on the `PYTHONPATH` it inherits.
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


def main(argv: list[str]) -> int:
    if argv:  # a child: one depth
        print(json.dumps(unfold(int(argv[0]))))
        return 0
    rows = {}
    for depth in DEPTHS:
        child = subprocess.run([sys.executable, __file__, str(depth)], check=True, capture_output=True, text=True)
        rows[depth] = json.loads(child.stdout)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
