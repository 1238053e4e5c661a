"""Batch command-line surface.

Subcommands: validate, inspect, check, solve, stationary.  Output is
deterministic (byte-identical for identical inputs and flags).  Exit codes:
0 property holds / success, 1 property fails (witness printed), 2 input
error, 3 resource cap exceeded (a search would pass its configured cap, or
the interpreter ran out of recursion depth or memory; a one-line message goes
to stderr, never a traceback), 4 inconclusive.  Every command computes its
whole answer, and writes any output file, before the first line of stdout,
so exits 2 and 3 leave stdout empty.  A ValueError from a file's contents
names the file (`fileio._checked`), and so does an output file that cannot
be written (`fileio._write`).

`main` runs the command with the cyclic garbage collector paused and gives
the caller back its own setting on every way out.  A command's structures
(quintuple tuples, children, situation sets, profile dicts) are acyclic, so
reference counting frees them and memory stays bounded without the
collector, which would only walk them again and again;
`tests/test_cli.py` checks that the cyclic garbage a command leaves does not
grow with its input.  Library functions never touch the collector, whose
setting is process-wide and belongs to the host application.
"""

from __future__ import annotations

import argparse
import gc
import sys as _sys
from fractions import Fraction

from . import convergence, fileio, game as game_mod, stationary as stat_mod
from .core import ALL_AXIOMS, _diagnosed
from .numbers import render_scalar
from .partition import _partition, piece_owners
from .strategy import validate_strategy

_PALETTE = ("lightblue", "lightyellow", "lightpink", "lightgreen", "lavender",
            "mistyrose", "honeydew", "aliceblue")

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INCONCLUSIVE = 4


def _render(value) -> str:
    if isinstance(value, (Fraction, float)):
        return render_scalar(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return str(value)


def _print_witness(witness: dict) -> None:
    for key in sorted(witness):
        print(f"  {key}: {_render(witness[key])}")


def _print_profile_table(title: str, table) -> None:
    print(title)
    for key in sorted(table):
        print(f"  {key}: {_render(dict(table[key]))}")


def _verdict_exit(verdict) -> int:
    if verdict.holds:
        print("verdict: holds")
        return EXIT_HOLDS
    print("verdict: fails")
    if verdict.witness:
        _print_witness(verdict.witness)
    return EXIT_FAILS


# -- commands -----------------------------------------------------------------


def cmd_validate(args) -> int:
    form, found = _diagnosed(fileio.load_quintuples(args.path))
    violations = {v.axiom: v for v in found}
    print(f"validate {args.path}")
    print(f"quintuples: {len(form)}")
    for axiom in ALL_AXIOMS:
        if axiom in violations:
            print(f"[{axiom}] FAIL  {violations[axiom].witness}")
        else:
            print(f"[{axiom}] pass")
    if violations:
        return EXIT_FAILS
    print(f"root: {form.root!r}")
    return EXIT_HOLDS


def cmd_inspect(args) -> int:
    form = fileio.load_pentaform(args.path)
    pieces = _partition(form).nodes
    ts = sorted(pieces)
    sizes = {t: sum(len(form._children[x]) for x in pieces[t]) for t in ts}  # quintuples per piece
    if args.dot:
        fileio._write(args.dot, _dot(form))
    print(f"inspect {args.path}")
    print(f"root: {form.root!r}  nodes: {len(form.nodes)}  quintuples: {len(form)}")
    if args.subroots or not args.pieces:
        print(f"subroots ({len(ts)}): " + ", ".join(repr(t) for t in ts))
    if args.pieces:
        print("pieces:")
        for t in ts:
            print(f"  {t!r}: {sizes[t]} quintuples")
    print(f"piece partition covers {sum(sizes.values())}/{len(form)} quintuples in {len(ts)} pieces")
    if args.dot:
        print(f"wrote DOT diagram to {args.dot}")
    return EXIT_HOLDS


def _dot(form) -> str:
    """Each piece gets the next palette color in (depth, label) order.  A
    node takes the color of the piece that moves into it, so an exit takes
    the color of the piece it leaves; the root takes its own piece's."""
    ts = _partition(form).nodes
    owner = piece_owners(form)
    color_of = {t: _PALETTE[idx % len(_PALETTE)] for idx, t in enumerate(ts)}
    lines = ["digraph pentaform {", "  rankdir=TB;", '  node [style=filled, shape=ellipse];']
    for x in sorted(form.nodes):
        piece = form.root if x == form.root else owner[form.predecessor(x)]
        attrs = [f'fillcolor="{color_of[piece]}"']
        if x in ts:
            attrs.append("peripheries=2")
        if x in form.endnodes:
            attrs.append("shape=box")
        lines.append(f'  {_quoted(x)} [{", ".join(attrs)}];')
    for q in form.quintuples:
        lines.append(f'  {_quoted(q.decision_node)} -> {_quoted(q.successor)} '
                     f'[label={_quoted(f"{q.action} ({q.player})")}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quoted(label: str) -> str:
    """A DOT quoted string holding label: each backslash and double quote escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


# each --property, in the order `check --help` lists them, with its check of
# (game, strategy, values); the checks are looked up through game_mod when called
_PROPERTIES = {
    "nash": lambda g, s, v: game_mod.nash_check(g, s),
    "spe": lambda g, s, v: game_mod.spe_check_direct(g, s),
    "admissible": lambda g, s, v: game_mod.admissible(g, v),
    "persistent": lambda g, s, v: game_mod.persistent(g, s, v),
    "authentic": lambda g, s, v: game_mod.authentic(g, s, v),
    "piecewise-nash": lambda g, s, v: game_mod.piecewise_nash(g, s, v),
    "one-piece": lambda g, s, v: game_mod.one_piece_unimprovable(g, s),
}
_VALUE_PROPERTIES = {"admissible", "persistent", "authentic", "piecewise-nash"}


def cmd_check(args) -> int:
    prop = args.property
    # a value flag that the property would not read is refused, not ignored
    if prop not in _VALUE_PROPERTIES and (args.values or args.authentic_value):
        flag = "--values" if args.values else "--authentic-value"
        raise fileio.FileFormatError(f"property {prop!r} reads no value function, so it takes no {flag}")
    if args.values and args.authentic_value:
        raise fileio.FileFormatError(f"property {prop!r} takes --values FILE or --authentic-value, not both")
    g = fileio.load_game(args.game)
    s = fileio._checked(args.strategy, validate_strategy, g.form, fileio.load_strategy(args.strategy))
    values = None
    if prop in _VALUE_PROPERTIES:
        if args.values:
            values = fileio._checked(args.values, game_mod.check_value_function, g, fileio.load_values(args.values))
        elif args.authentic_value:
            values = game_mod.authentic_value(g, s)
        else:
            raise fileio.FileFormatError(
                f"property {prop!r} needs --values FILE or --authentic-value")
    verdict = _PROPERTIES[prop](g, s, values)
    print(f"check {args.game} {args.strategy} --property {prop}")
    if values is not None and not args.values:
        print("values: derived as the authentic value function of the strategy")
    return _verdict_exit(verdict)


def cmd_solve(args) -> int:
    result = game_mod.solve_backward(fileio.load_game(args.game))
    print(f"solve {args.game}")
    if isinstance(result, game_mod.NoPureEquilibrium):
        print(f"no pure equilibrium: the piece game at {result.subroot!r} has no pure Nash point")
        return EXIT_FAILS
    print("strategy:")
    for j in sorted(result.strategy):
        print(f"  {j}: {result.strategy[j]}")
    _print_profile_table("values:", result.values)
    return EXIT_HOLDS


def cmd_stationary(args) -> int:
    sys_ = fileio.load_system(args.system)
    if args.action == "instantiate":
        # a depth below 1 is the argument's fault; any other error is the file's
        form = (stat_mod.instantiate(sys_, args.depth) if args.depth < 1
                else fileio._checked(args.system, stat_mod.instantiate, sys_, args.depth))
        if args.out:
            fileio._write(args.out, fileio.dumps_pentaform(form))
        print(f"stationary {args.system} instantiate {args.depth}")
        print(f"quintuples: {len(form)}")
        ts = sorted(_partition(form).nodes)
        print(f"subroots ({len(ts)}): " + ", ".join(repr(t) for t in ts))
        if args.out:
            print(f"wrote pentaform to {args.out}")
        return EXIT_HOLDS
    if args.action == "convergence":
        verdicts = (("upper", convergence.upper_convergent(sys_)), ("lower", convergence.lower_convergent(sys_)))
        print(f"stationary {args.system} convergence")
        code = EXIT_HOLDS
        for name, verdict in verdicts:
            print(f"{name}: {verdict.status.upper()}")
            if verdict.certificate:
                print(f"  certificate: {verdict.certificate}")
            if verdict.witness:
                _print_witness(verdict.witness)
            if verdict.status == convergence.FAILS:
                code = EXIT_FAILS
            elif verdict.status == convergence.UNKNOWN and code == EXIT_HOLDS:
                code = EXIT_INCONCLUSIVE
        return code
    if args.action == "solve":
        result = stat_mod.solve_stationary(sys_)
        print(f"stationary {args.system} solve")
        if isinstance(result, stat_mod.StationarySolveFailure):
            if result.kind == "no-pure-equilibrium":
                print(f"failure: quotient piece game of class {result.class_id!r} has no pure Nash point")
                return EXIT_FAILS
            print("failure: value iteration did not stabilize")
            return EXIT_INCONCLUSIVE
        print("strategy:")
        for c in sorted(result.strategy):
            for j in sorted(result.strategy[c]):
                print(f"  {c}:{j}: {result.strategy[c][j]}")
        _print_profile_table("continuation values:", result.values)
        return EXIT_HOLDS
    # certify
    sigma = fileio._checked(args.strategy, stat_mod.validate_stationary_strategy, sys_,
                            fileio.load_stationary_strategy(args.strategy))
    cert = stat_mod.certify_spe(sys_, sigma)
    print(f"stationary {args.system} certify {args.strategy}")
    print(f"certificate: {cert.kind}")
    for name, verdict in (("upper", cert.upper), ("lower", cert.lower)):
        print(f"{name}-convergence: {verdict.status.upper()}")
    _print_profile_table("continuation values:", cert.continuation_values)
    if cert.route:
        print(f"route: {cert.route}")
    if cert.reason:
        print(f"reason: {cert.reason}")
    if cert.witness:
        _print_witness(cert.witness)
    if cert.kind == stat_mod.SPE_CERTIFIED:
        return EXIT_HOLDS
    if cert.kind == stat_mod.REFUTED:
        return EXIT_FAILS
    return EXIT_INCONCLUSIVE


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentaform",
        description="Analyze extensive-form games stored as quintuple relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the eight pentaform axioms of a file")
    p.add_argument("path")

    p = sub.add_parser("inspect", help="subroots, piece partition, optional DOT export")
    p.add_argument("path")
    p.add_argument("--subroots", action="store_true")
    p.add_argument("--pieces", action="store_true")
    p.add_argument("--dot", metavar="OUT")

    p = sub.add_parser("check", help="check an equilibrium/value property")
    p.add_argument("game")
    p.add_argument("strategy")
    p.add_argument("--property", required=True, choices=list(_PROPERTIES))
    p.add_argument("--values", metavar="FILE")
    p.add_argument("--authentic-value", action="store_true",
                   help="derive the value function from the strategy")

    p = sub.add_parser("solve", help="generalized backward induction")
    p.add_argument("game")

    p = sub.add_parser("stationary", help="analyze a generated infinite-horizon system")
    p.add_argument("system")
    stat_sub = p.add_subparsers(dest="action", required=True)
    c = stat_sub.add_parser("certify")
    c.add_argument("strategy")
    stat_sub.add_parser("solve")
    stat_sub.add_parser("convergence")
    c = stat_sub.add_parser("instantiate")
    c.add_argument("depth", type=int)
    c.add_argument("--out", metavar="FILE")

    return parser


_PARSER = build_parser()  # built once per process; see main for dispatch


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # the collector pauses for the command only; the module docstring says why
    collecting = gc.isenabled()
    gc.disable()
    try:
        # looked up by name at call time, so a replaced cmd_* function is the one called
        return globals()[f"cmd_{args.command}"](args)
    except game_mod.ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=_sys.stderr)
        return EXIT_RESOURCE
    except (RecursionError, MemoryError) as exc:
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"resource limit exceeded: {detail}", file=_sys.stderr)
        return EXIT_RESOURCE
    except (fileio.FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
