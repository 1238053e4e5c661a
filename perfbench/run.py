"""pentaform benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs whole cycles of workload W, each in a fresh process (cycle.py), one op
at a time in a closed loop, until S seconds have passed and at least
MIN_CYCLES cycles have run.  Every cycle of a workload runs the same ops on
inputs of the same shape, so whole cycles keep the op mix, and with it every
metric, independent of where the time ran out.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 untraced and traced cycles alternate and it
reports the per-layer metrics of the traced ones.  Times are scaled by a
reference kernel timed between ops, to cancel the host's drifting speed
(NOTES.md, "Host speed").  The last line of standard
output is one JSON object.  The exit code is 0 only when every completed op
gave the expected answer.  Workloads and their reasons: NOTES.md.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("chains", "crywolf", "random-solve", "quotient")
MIN_CYCLES = 3
SETUP_SAMPLES = 15  # set-up times per run; extra processes stop at the first op
HARD_LIMIT_S = 170.0
HASH_SEED = "0"  # random_game's draws follow set iteration order; pin it
LAYERS = ("core", "partition", "strategy", "game", "convergence", "stationary", "fileio", "cli")
SLOPES = (("core.check_axioms", "validate"), ("partition.subroots", "inspect"),
          ("game.spe_check_direct", "spe"))
CHAIN_RUNGS = (125, 177, 250, 354, 500, 707, 1000)  # steps of sqrt(2)
CRYWOLF_DEPTHS = (2, 3, 4, 5)
REFERENCE_NOMINAL_S = 0.002  # the reference kernel's time on the host that defines the scale


def crywolf_pieces(depth: int) -> int:
    """Pieces of a cry-wolf truncation: three continuing exits per day."""
    return (3 ** (depth + 1) - 1) // 2


class Failed(Exception):
    """A cycle process failed or ran out of time."""


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pentaform" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        return fail(f"no pentaform sources under {ROOT}; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "PENTAFORM_PROFILE_CAP", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(ROOT / "src")

    def spawn(k: int, traced: bool, remaining: float, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "cycle.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--cycle", str(k), "--trace", str(int(traced)),
               "--workdir", str(OUT / f"work-{os.getpid()}-{k}"),
               "--spans", str(OUT / f"trace-{args.workload}"), *extra]
        began = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(began)], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=max(remaining, 5.0))
        except subprocess.TimeoutExpired:
            raise Failed(f"cycle {k} did not finish within the time limit")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise Failed(f"cycle {k} exited with code {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["wall_s"] = time.monotonic() - began
        report["traced"] = traced
        return report

    reports = []
    k = 0
    try:
        while k < MIN_CYCLES or time.monotonic() - STARTED < args.seconds or (args.trace and k % 2):
            remaining = HARD_LIMIT_S - (time.monotonic() - STARTED)
            if reports and k >= MIN_CYCLES and reports[-1]["wall_s"] > remaining:
                break
            reports.append(spawn(k, bool(args.trace and k % 2), remaining))
            k += 1
        setups = [r for r in reports if not r["traced"]]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(k, False, HARD_LIMIT_S - (time.monotonic() - STARTED), "--setup-only"))
            k += 1
    except Failed as failure:
        return fail(str(failure), 1)

    problem = check_digests(args.workload, args.seed, reports)
    if problem:
        return fail(problem, 3)

    untraced = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    if not any(op[3] != "failed" for r in untraced for op in r["ops"]):
        return fail("every op failed; there is nothing to measure", 1)
    summary = end_to_end(untraced, setups)
    if args.trace:
        metrics = per_layer(args.workload, untraced, traced, summary["raw"])
    else:
        metrics = {name: summary[name] for name in
                   ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "completed_ratio",
                    "verdict_ok_ratio", "peak_rss_mb")}

    mismatches = [m for r in reports for m in r["mismatches"]]
    failures = sorted({f for r in reports for f in r["failures"]})
    print(f"workload {args.workload}  seed {args.seed}  cycles {len(reports)} "
          f"({len(traced)} traced)  PYTHONHASHSEED={HASH_SEED}  inputs {reports[0]['digest'][:16]}")
    print(f"host speed: reference kernel {summary['raw']['reference_ms']:.4f} ms "
          f"(nominal {1000 * REFERENCE_NOMINAL_S:g} ms); as measured: "
          f"ops_per_s {summary['raw']['ops_per_s']:.6g}, op_p50_ms {summary['raw']['op_p50_ms']:.6g}, "
          f"op_tail_ms {summary['raw']['op_tail_ms']:.6g}")
    print(f"op_tail_ms is p{summary['tail_pct']:g} over {summary['completed']} completed ops; "
          f"failed_ratio {summary['failed'] / summary['attempted']:.4f} "
          f"({summary['failed']}/{summary['attempted']}); wrong_verdicts {summary['wrong']}")
    for failure in failures:
        print(f"failed op: {failure}")
    for mismatch in mismatches[:20]:
        print(f"WRONG: {mismatch}")
    if args.trace:
        shares = {layer: metrics[f"layer.{layer}.share"][0] for layer in LAYERS}
        top = max(shares, key=shares.get)
        print(f"dominant layer: {top} ({shares[top]:.0%} of traced self time); top spans: "
              + ", ".join(f"{name} {share:.0%}" for name, share in top_spans(traced)))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": not mismatches,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


def check_digests(workload: str, seed: int, reports: list) -> str | None:
    """Record each cycle's input digest; refuse a run whose inputs differ from
    an earlier run of the same workload, seed and cycle in this checkout."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    for k, report in enumerate(reports):
        key = f"{workload}/{seed}/{k}"
        entry = {"digest": report["digest"], "PYTHONHASHSEED": HASH_SEED}
        if known.setdefault(key, entry) != entry:
            return (f"inputs of {key} differ from an earlier run ({known[key]['digest'][:16]} vs "
                    f"{entry['digest'][:16]}); runs with different inputs are not comparable")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return None


def end_to_end(untraced: list, setups: list) -> dict:
    attempted, scaled = [], []
    for r in untraced:
        for op, after in zip(r["ops"], r["reference_after"]):
            attempted.append(op)
            scaled.append((op[2] * REFERENCE_NOMINAL_S / local_reference(r["reference"], after), op[3]))
    completed = sorted(t for t, status in scaled if status != "failed")
    failed = sum(op[3] == "failed" for op in attempted)
    wrong = sum(op[3] == "wrong" for op in attempted)
    per_cycle = sum(op[3] != "failed" for op in untraced[0]["ops"])
    # The highest percentile with at least ten completed ops beyond it, taken
    # over the ops that MIN_CYCLES cycles complete, so it does not move with
    # the number of cycles that fit in the run.
    tail_pct = max(50.0, math.floor(1000 * (1 - 10 / max(MIN_CYCLES * per_cycle, 20))) / 10)
    measured = sorted(op[2] for op in attempted if op[3] != "failed")
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "ops_per_s": len(measured) / sum(op[2] for op in attempted),
        "op_p50_ms": 1000 * harrell_davis(measured, 0.5),
        "op_tail_ms": 1000 * harrell_davis(measured, tail_pct / 100),
        "reference_ms": 1000 * statistics.median(x for r in untraced for x in r["reference"]),
    }
    return {
        "attempted": len(attempted),
        "failed": failed,
        "wrong": wrong,
        "completed": len(completed),
        "tail_pct": tail_pct,
        "raw": raw,
        "setup_s": (raw["setup_s"], "s"),
        "ops_per_s": (len(completed) / sum(t for t, _ in scaled), "1/s"),
        "op_p50_ms": (1000 * harrell_davis(completed, 0.5), "ms"),
        "op_tail_ms": (1000 * harrell_davis(completed, tail_pct / 100), "ms"),
        "completed_ratio": (len(completed) / len(attempted), "ratio"),
        "verdict_ok_ratio": ((len(completed) - wrong) / len(completed), "ratio"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in untraced), "MB"),
    }


def local_reference(samples: list, after: int) -> float:
    """The reference kernel's time around an op: the median of the samples
    just before and after it.  The host's speed changes within a second or
    two, so an op is scaled by the speed at the time it ran."""
    return statistics.median(samples[max(after - 1, 0):after + 2])


def harrell_davis(ordered: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted values: the order
    statistics averaged with Beta(p(n+1), (1-p)(n+1)) weights.  A workload
    mixes a few op kinds of very different cost, so a single order statistic
    jumps from one kind to the next when host noise swaps two of them; this
    estimate moves smoothly instead."""
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = max(1, 2000 // n)  # midpoint-rule sub-intervals per order statistic
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def top_spans(traced: list, count: int = 5) -> list:
    selfs: dict[str, float] = {}
    for r in traced:
        for name, v in r["trace"]["self_s"].items():
            selfs[name] = selfs.get(name, 0.0) + v
    total = sum(selfs.values()) or 1.0
    return [(name, selfs[name] / total) for name in sorted(selfs, key=selfs.get, reverse=True)[:count]]


def _rung_x(rung: str) -> float:
    if rung.startswith("n"):
        return float(rung[1:])
    return 8.0 * crywolf_pieces(int(rung[1:]))  # quintuples of the cry-wolf truncation


def _loglog_slope(points: list) -> float:
    points = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def cycle_scale(report: dict) -> float:
    """Host-speed scale of a whole cycle, for times the tracer sums per cycle:
    the op-time-weighted mean of the scales end_to_end gives each op."""
    ops = [(op[2], local_reference(report["reference"], after))
           for op, after in zip(report["ops"], report["reference_after"])]
    total = sum(t for t, _ in ops)
    return sum(t * REFERENCE_NOMINAL_S / ref for t, ref in ops) / total if total else 1.0


def per_layer(workload: str, untraced: list, traced: list, raw: dict) -> dict:
    n = len(traced)
    selfs: dict[str, float] = {}
    for r in traced:
        for name, v in r["trace"]["self_s"].items():
            selfs[name] = selfs.get(name, 0.0) + v * cycle_scale(r) / n
    first = traced[0]["trace"]
    counters, calls, bcalls = first["counters"], first["calls"], first["binding_calls"]

    def s(*names):
        return (sum((selfs.get(x, 0.0) for x in names), 0.0), "s")

    def s_prefix(*prefixes):
        return (sum((v for x, v in selfs.items() if x.startswith(prefixes)), 0.0), "s")

    def count(value):
        return (value, "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    hits = sum(counters.get(f"partition.{c}.hits", 0) for c in ("subroots", "subform", "piece_partition"))
    misses = sum(counters.get(f"partition.{c}.misses", 0) for c in ("subroots", "subform", "piece_partition"))
    accepted = counters.get("game.is_pure_nash.accepted", 0) + counters.get("stationary.is_pure_nash.accepted", 0)
    slope_s: dict[str, float] = {}
    for r in traced:
        for key, v in r["trace"]["slope_s"].items():
            slope_s[key] = slope_s.get(key, 0.0) + v * cycle_scale(r) / n
    slopes = {}
    for fn, kind in SLOPES:
        points = [(_rung_x(key.split("/")[1]), v) for key, v in slope_s.items()
                  if key.startswith(f"{kind}/") and key.endswith(f"/{fn}") and key.split("/")[1]]
        slopes[fn] = (_loglog_slope(points), "slope")

    metrics = {
        "core.check_axioms.self_s": s("core.check_axioms"),
        "core.check_axioms.calls": count(calls.get("core.check_axioms", 0)),
        "core.check_axioms.slope": slopes["core.check_axioms"],
        "core.validate.self_s": s("core.validate"),
        "core.validate.quintuples": count(counters.get("core.validate.quintuples", 0)),
        "core.revalidation_ratio": ratio(counters.get("core.validate.quintuples", 0), first["input_quintuples"]),
        "partition.subroots.self_s": s("partition.subroots"),
        "partition.subroots.slope": slopes["partition.subroots"],
        "partition.subform.self_s": s("partition.subform"),
        "partition.subform.builds": count(counters.get("partition.subform.misses", 0)),
        "partition.piece_partition.self_s": s("partition.piece_partition"),
        "partition.cache_hits": count(hits),
        "partition.cache_misses": count(misses),
        "partition.cache_hit_ratio": ratio(hits, hits + misses),
        "strategy.validate_strategy.self_s": s("strategy.validate_strategy"),
        "strategy.trace.calls": count(calls.get("strategy.trace", 0)),
        "game.nash_check.self_s": s("game.nash_check"),
        "game.spe_check_direct.self_s": s("game.spe_check_direct"),
        "game.spe_check_direct.slope": slopes["game.spe_check_direct"],
        "game.one_piece_unimprovable.self_s": s("game.one_piece_unimprovable"),
        "game.piecewise_nash.self_s": s("game.piecewise_nash"),
        "game.solve_backward.self_s": s("game.solve_backward"),
        "game.profiles_enumerated": count(counters.get("game.profiles_enumerated", 0)),
        "game.is_pure_nash.calls": count(bcalls.get("game.is_pure_nash", 0)),
        "game.profile_accept_ratio": ratio(accepted, counters.get("game.profiles_enumerated", 0)),
        "convergence.conceivable.self_s": s("convergence.sup_conceivable", "convergence.inf_conceivable"),
        "stationary.conceivable_bounds.self_s": s("stationary.conceivable_bounds"),
        "stationary.policies": count(counters.get("stationary.policies", 0)),
        "stationary.continuation_values.calls": count(calls.get("stationary.continuation_values", 0)),
        "stationary.certify_spe.self_s": s("stationary.certify_spe"),
        "stationary.solve_stationary.self_s": s("stationary.solve_stationary"),
        "stationary.is_pure_nash.calls": count(bcalls.get("stationary.is_pure_nash", 0)),
        "stationary.instantiate.self_s": s("stationary.instantiate", "stationary.truncated_game",
                                           "stationary.induced_strategy"),
        "fileio.load.self_s": s_prefix("fileio.load_"),
        "fileio.save.self_s": s_prefix("fileio.save_", "fileio.dumps_"),
        "fileio.bytes": count(counters.get("fileio.bytes", 0)),
        "cli.main.self_s": s_prefix("cli."),
    }
    layer_self = {layer: s_prefix(f"{layer}.")[0] for layer in LAYERS + ("bench",)}
    total_self = sum(layer_self.values())
    for layer, v in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = (v, "s")
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = ratio(layer_self[layer], total_self)
    untraced_op = statistics.fmean(sum(op[2] for op in r["ops"]) * cycle_scale(r) for r in untraced)
    traced_op = statistics.fmean(sum(op[2] for op in r["ops"]) * cycle_scale(r) for r in traced)
    metrics["trace.overhead_ratio"] = ratio(traced_op, untraced_op)
    metrics["trace.layer_self_s"] = (total_self, "s")
    metrics["trace.untraced_op_s"] = (untraced_op, "s")
    metrics["trace.spans"] = count(first["spans"])
    # The untraced cycles' host speed and end-to-end op times as measured, before scaling.
    metrics["host.reference_ms"] = (raw["reference_ms"], "ms")
    metrics["measured.ops_per_s"] = (raw["ops_per_s"], "1/s")
    metrics["measured.op_p50_ms"] = (raw["op_p50_ms"], "ms")
    metrics["measured.op_tail_ms"] = (raw["op_tail_ms"], "ms")
    rung_s: dict[str, float] = {}
    for r in untraced:
        for kind, rung, elapsed, status in r["ops"]:
            if rung:
                rung_s[rung] = rung_s.get(rung, 0.0) + elapsed * cycle_scale(r) / len(untraced)
    for n_ in CHAIN_RUNGS:
        metrics[f"chains.n{n_}.s"] = (rung_s.get(f"n{n_}", 0.0) if workload == "chains" else 0.0, "s")
    for d in CRYWOLF_DEPTHS:
        metrics[f"crywolf.d{d}.s"] = (rung_s.get(f"d{d}", 0.0) if workload == "crywolf" else 0.0, "s")
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
