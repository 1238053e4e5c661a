"""The four benchmark workloads and the expected answer of every op.

A workload is a generator of `Op`s for one cycle.  Everything the generator
does between two ops (building inputs, writing files) is untimed; only
`Op.call` is timed.  Every op gets an input that equals no earlier input of
the process: the engine's `lru_cache`s key on equal `Pentaform`s, so a
repeated input would measure a cache hit instead of the work.  Inputs that
come from fixed structures (fixtures, truncations, pools) are therefore copied
with a per-op marker appended to every non-empty node label.  The marker
starts with "!", which sorts below every character the engine's labels use,
so a marked form sorts, and prints, exactly like the original once the marker
is removed from the output.

Expected answers never come from the code under test at run time:
  chains        analytic verdicts and backward-induction answers
  crywolf       acceptance criterion 8 (the calm strategy is an SPE at every
                depth) plus golden decisions
  random-solve  golden solve decisions, the backward-induction theorem, and
                the paper's equivalences for random strategies
  quotient      an independent exact oracle (chain values, one-shot
                deviations), criterion 4 verdicts and golden decisions
Golden decisions live in golden.json and were recorded once, at the commit
that added this benchmark, by record_golden.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pentaform
import pentaform.cli
from pentaform.core import Pentaform, Quintuple
from run import CHAIN_RUNGS, CRYWOLF_DEPTHS, crywolf_pieces

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

CHAIN_SPE_RUNGS = (125, 177, 250)  # spe and one-piece cost about n^2.6
RANDOM_POOL = range(200)      # random_game seeds; every cycle solves the whole pool
RANDOM_SHAPE = {"max_nodes": 60, "max_info_set": 6}
QUOTIENT_POOL = range(6)      # generated five-class systems, 5**5 exit policies each
CALM_CONTINUATION = {"Wolf": Fraction(5, 9), "Kid": Fraction(2, 9), "Town": Fraction(4, 9)}
EXIT_CODES = range(0, 5)   # the exit codes the CLI documents
PROSE = ("reason:", "route:", "  certificate:", "wrote ", "values: derived")


@dataclass
class Op:
    key: str                 # stable identity (golden lookups, reports)
    kind: str                # what the op does, e.g. "spe"
    rung: str                # ladder position ("n250", "d5") or ""
    size: int                # quintuples in the op's input
    call: Callable           # the timed part
    verify: Callable         # result -> mismatch text, or None when right
    cli: bool = False        # result is (exit code, stdout)


class Context:
    """Per-cycle state: seeded randomness, markers, files, digest, golden."""

    def __init__(self, workload: str, seed: int, cycle: int, workdir: Path,
                 golden: dict | None = None, record: dict | None = None, marked: bool = True):
        self.rng = random.Random(f"{workload}:{seed}:{cycle}")
        self.workdir = workdir
        self.digest = hashlib.sha256()
        self.golden = golden if golden is not None else json.loads(GOLDEN.read_text())
        self.record = record
        self.marked = marked
        self._next_tag = self.rng.randrange(36 ** 3 // 2)
        self.finishers: list[Callable[[], list[str]]] = []

    def tag(self) -> str:
        n = self._next_tag
        self._next_tag += 1
        digits = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        return "".join(digits[(n // 36 ** i) % 36] for i in (2, 1, 0))

    def marker(self) -> str:
        return "!" + self.tag() if self.marked else ""

    def write(self, name: str, obj) -> str:
        text = json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        self.digest.update(text.encode("utf-8"))
        return str(path)

    def note_input(self, obj) -> None:
        self.digest.update(json.dumps(obj, sort_keys=True, default=str).encode("utf-8"))

    def check_golden(self, key: str, decision) -> str | None:
        digest = hashlib.sha256(json.dumps(decision, sort_keys=True, default=str).encode()).hexdigest()
        if self.record is not None:
            self.record[key] = digest
            return None
        expected = self.golden.get(key)
        if expected is None:
            return f"no golden decision recorded for {key}"
        if digest != expected:
            return f"decision differs from golden: {json.dumps(decision, default=str)[:300]}"
        return None


# -- shared helpers ----------------------------------------------------------------


def cli_call(argv: list[str]) -> Callable:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pentaform.cli.main(argv)
        return code, out.getvalue()
    return call


def decision_lines(stdout: str, marker: str) -> list[str]:
    """Output lines that carry the decision: no header echo, no prose."""
    if marker:
        stdout = stdout.replace(marker, "")
    return [ln for ln in stdout.splitlines()[1:] if not ln.startswith(PROSE)]


def golden_cli(ctx: Context, key: str, marker: str, also: Callable | None = None) -> Callable:
    def verify(result):
        code, stdout = result
        lines = decision_lines(stdout, marker)
        if also is not None:
            problem = also(code, lines)
            if problem:
                return problem
        return ctx.check_golden(key, [code] + lines)
    return verify


def holds(code: int, lines: list[str]) -> str | None:
    if code != 0 or "verdict: holds" not in lines:
        return f"expected exit 0 and 'verdict: holds', got exit {code}: {lines[:3]}"
    return None


def mark(label: str, m: str) -> str:
    return label + m if label else label


def mark_quintuples(qs, m: str) -> list:
    return [[p, j, mark(w, m), a, mark(y, m)] for p, j, w, a, y in qs]


def mark_form(data: dict, m: str) -> dict:
    out = dict(data)
    out["quintuples"] = mark_quintuples(data["quintuples"], m)
    if "utilities" in data:
        out["utilities"] = {mark(y, m): prof for y, prof in data["utilities"].items()}
    return out


def mark_values(data: dict, m: str) -> dict:
    return {mark(t, m): prof for t, prof in data.items()}


def mark_system(data: dict, m: str) -> dict:
    out = dict(data)
    out["classes"] = {
        cid: {"template": mark_quintuples(spec["template"], m),
              "exits": {mark(y, m): e for y, e in spec["exits"].items()}}
        for cid, spec in data["classes"].items()
    }
    return out


def load_fixture(name: str):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


# -- chains: one-player in/out chains on a size ladder ------------------------------


def _chain(tag: str, n: int, player: str, outs: list[int], final: int) -> dict:
    quintuples, utilities = [], {}
    for k in range(n):
        w, j = f"{tag}w{k:04d}", f"{tag}s{k:04d}"
        nxt = f"{tag}w{k + 1:04d}" if k + 1 < n else f"{tag}y{n:04d}"
        quintuples.append([player, j, w, "in", nxt])
        quintuples.append([player, j, w, "out", f"{tag}x{k:04d}"])
        utilities[f"{tag}x{k:04d}"] = {player: str(outs[k])}
    utilities[f"{tag}y{n:04d}"] = {player: str(final)}
    return {"quintuples": quintuples, "stakeholders": [player], "utilities": utilities}


def _chain_backward(tag: str, n: int, player: str, outs: list[int], final: int) -> list[str]:
    """solve's answer: the first Nash profile of each two-action piece, in
    lexicographic order ("in" before "out"), priced by the value after it."""
    value, strategy, values = final, {}, {}
    for k in reversed(range(n)):
        choice = "in" if value >= outs[k] else "out"
        value = value if choice == "in" else outs[k]
        strategy[f"{tag}s{k:04d}"] = choice
        values[f"{tag}w{k:04d}"] = value
    lines = ["strategy:"] + [f"  {j}: {strategy[j]}" for j in sorted(strategy)]
    lines += ["values:"] + [f"  {t}: {{{player}: {values[t]}}}" for t in sorted(values)]
    return lines


def chains(ctx: Context):
    for n in CHAIN_RUNGS:
        kinds = ["validate", "inspect", "nash", "solve"]
        if n in CHAIN_SPE_RUNGS:
            kinds += ["spe", "one-piece"]
        for kind in kinds:
            tag = ctx.tag()
            rung = f"n{n}"
            if kind == "solve":
                outs = [ctx.rng.randint(-3, 3) for _ in range(n)]
                final = ctx.rng.randint(-3, 3)
                path = ctx.write(f"{tag}.game", _chain(tag, n, "Ann", outs, final))
                expected = _chain_backward(tag, n, "Ann", outs, final)

                def verify(result, expected=expected):
                    code, stdout = result
                    lines = decision_lines(stdout, "")
                    if code != 0 or lines != expected:
                        return f"solve differs from backward induction (exit {code})"
                    return None

                yield Op(f"chains/{rung}/solve", kind, rung, 2 * n, cli_call(["solve", path]), verify, True)
                continue
            # Bob-style payoffs: out pays a loss, the end pays 0, so always-in
            # is a subgame-perfect equilibrium.
            outs = [-ctx.rng.randint(1, 5) for _ in range(n)]
            game = _chain(tag, n, "Bob", outs, 0)
            root = f"{tag}w0000"
            if kind == "validate":
                path = ctx.write(f"{tag}.pentaform", {"quintuples": game["quintuples"]})

                def verify(result, n=n, root=root):
                    code, stdout = result
                    lines = decision_lines(stdout, "")
                    passes = [ln for ln in lines if ln.startswith("[") and ln.endswith("] pass")]
                    if code != 0 or len(passes) != 8 or f"quintuples: {2 * n}" not in lines \
                            or f"root: {root!r}" not in lines:
                        return f"validate: expected 8 passing axioms (exit {code})"
                    return None

                yield Op(f"chains/{rung}/validate", kind, rung, 2 * n, cli_call(["validate", path]), verify, True)
            elif kind == "inspect":
                path = ctx.write(f"{tag}.pentaform", {"quintuples": game["quintuples"]})

                def verify(result, n=n):
                    code, stdout = result
                    lines = decision_lines(stdout, "")
                    pieces = [ln for ln in lines if ln.endswith(": 2 quintuples")]
                    if code != 0 or len(pieces) != n or \
                            lines[-1] != f"piece partition covers {2 * n}/{2 * n} quintuples in {n} pieces":
                        return f"inspect: expected {n} two-quintuple pieces (exit {code})"
                    return None

                yield Op(f"chains/{rung}/inspect", kind, rung, 2 * n,
                         cli_call(["inspect", path, "--pieces"]), verify, True)
            else:
                path = ctx.write(f"{tag}.game", game)
                spath = ctx.write(f"{tag}.strategy", {f"{tag}s{k:04d}": "in" for k in range(n)})
                yield Op(f"chains/{rung}/{kind}", kind, rung, 2 * n,
                         cli_call(["check", path, spath, "--property", kind]),
                         lambda result: holds(result[0], decision_lines(result[1], "")), True)


# -- crywolf: README commands and cry-wolf truncations through the CLI -------------------


README = (
    # (name, argv template, files: placeholder -> (fixture, kind))
    ("validate-entry", ["validate", "{pf}"], {"pf": ("entry.pentaform", "form")}),
    ("inspect-depth1", ["inspect", "{pf}", "--subroots", "--pieces", "--dot", "{dot}"],
     {"pf": ("crywolf_depth1.pentaform", "form")}),
    ("check-entry-spe", ["check", "{g}", "{s}", "--property", "spe"],
     {"g": ("entry.game", "form"), "s": ("entry_spe.strategy", "plain")}),
    ("check-ann-authentic", ["check", "{g}", "{s}", "--property", "authentic", "--values", "{v}"],
     {"g": ("ann_trunc.game", "form"), "s": ("ann_trunc_in.strategy", "plain"),
      "v": ("ann_trunc_half.values", "values")}),
    ("solve-entry", ["solve", "{g}"], {"g": ("entry.game", "form")}),
    ("certify-crywolf", ["stationary", "{sys}", "certify", "{s}"],
     {"sys": ("crywolf.system", "system"), "s": ("crywolf_calm.strategy", "plain")}),
    ("convergence-ann", ["stationary", "{sys}", "convergence"], {"sys": ("ann.system", "system")}),
    ("solve-crywolf", ["stationary", "{sys}", "solve"], {"sys": ("crywolf.system", "system")}),
    ("instantiate-crywolf", ["stationary", "{sys}", "instantiate", "2", "--out", "{out}"],
     {"sys": ("crywolf.system", "system")}),
)

_MARKERS = {"form": mark_form, "values": mark_values, "system": mark_system, "plain": lambda d, m: d}


def crywolf(ctx: Context):
    for name, argv, files in README:
        tag, m = ctx.tag(), ctx.marker()
        paths = {"dot": str(ctx.workdir / f"{tag}.dot"), "out": str(ctx.workdir / f"{tag}.pentaform")}
        size = 0
        for slot, (fixture, kind) in files.items():
            data = _MARKERS[kind](load_fixture(fixture), m)
            size += len(data.get("quintuples", ()))
            paths[slot] = ctx.write(f"{tag}-{fixture}", data)
        yield Op(f"crywolf/readme/{name}", name, "", size,
                 cli_call([a.format(**paths) for a in argv]),
                 golden_cli(ctx, f"crywolf/readme/{name}", m), True)

    system = load_fixture("crywolf.system")
    calm = load_fixture("crywolf_calm.strategy")["classes"]
    wolf = pentaform.fileio.load_system(FIXTURES / "crywolf.system")
    for depth in CRYWOLF_DEPTHS:
        game = json.loads(pentaform.fileio.dumps_game(
            pentaform.truncated_game(wolf, depth, {"day": CALM_CONTINUATION})))
        strategy = pentaform.induced_strategy(wolf, calm, depth)
        rung, size = f"d{depth}", 8 * crywolf_pieces(depth)
        pieces_line = f"piece partition covers {size}/{size} quintuples in {crywolf_pieces(depth)} pieces"

        def counted(code, lines, depth=depth, size=size):
            if code != 0 or f"quintuples: {size}" not in lines:
                return f"expected exit 0 and {size} quintuples at depth {depth}, got exit {code}"
            return None

        def covered(code, lines, pieces_line=pieces_line):
            if code != 0 or pieces_line not in lines:
                return f"expected exit 0 and '{pieces_line}', got exit {code}"
            return None

        tag, m = ctx.tag(), ctx.marker()
        sys_path = ctx.write(f"{tag}.system", mark_system(system, m))
        out = str(ctx.workdir / f"{tag}-out.pentaform")
        yield Op(f"crywolf/{rung}/instantiate", "instantiate", rung, size,
                 cli_call(["stationary", sys_path, "instantiate", str(depth), "--out", out]),
                 golden_cli(ctx, f"crywolf/{rung}/instantiate", m, counted), True)
        for kind, argv, check in (
            ("validate", ["validate", "{pf}"], counted),
            ("inspect", ["inspect", "{pf}", "--pieces"], covered),
            ("nash", ["check", "{g}", "{s}", "--property", "nash"], holds),
            ("spe", ["check", "{g}", "{s}", "--property", "spe"], holds),
            ("one-piece", ["check", "{g}", "{s}", "--property", "one-piece"], holds),
            ("piecewise-nash", ["check", "{g}", "{s}", "--property", "piecewise-nash",
                                "--authentic-value"], holds),
            ("persistent", ["check", "{g}", "{s}", "--property", "persistent", "--authentic-value"], holds),
            ("solve", ["solve", "{g}"], None),
        ):
            tag, m = ctx.tag(), ctx.marker()
            marked = mark_form(game, m)
            paths = {}
            if "{pf}" in argv:
                paths["pf"] = ctx.write(f"{tag}.pentaform", {"quintuples": marked["quintuples"]})
            else:
                paths["g"] = ctx.write(f"{tag}.game", marked)
                paths["s"] = ctx.write(f"{tag}.strategy", strategy)
            yield Op(f"crywolf/{rung}/{kind}", kind, rung, size,
                     cli_call([a.format(**paths) for a in argv]),
                     golden_cli(ctx, f"crywolf/{rung}/{kind}", m, check), True)


# -- random-solve: the library path on a random_game pool ---------------------------------


def _library_game(spec: dict, m: str):
    form = Pentaform(Quintuple(*q) for q in mark_quintuples(spec["quintuples"], m))
    utilities = {mark(y, m): prof for y, prof in spec["utilities"].items()}
    return pentaform.Game(form, spec["stakeholders"], utilities)


def _unmark(d: dict, m: str) -> dict:
    return {k.replace(m, "") if m else k: v for k, v in d.items()}


def random_solve(ctx: Context):
    pool = []
    for index in RANDOM_POOL:
        g = pentaform.random_game(index, **RANDOM_SHAPE)
        pool.append((index, {
            "quintuples": [[q.player, q.situation, q.decision_node, q.action, q.successor]
                           for q in g.form.quintuples],
            "stakeholders": sorted(g.stakeholders),
            "utilities": {y: dict(p) for y, p in g.utilities.items()},
        }))
    ctx.rng.shuffle(pool)
    verdicts: dict[int, dict] = {}

    def equivalences() -> list[str]:
        problems = []
        for index, v in sorted(verdicts.items()):
            if len(v) < 5:
                continue  # an op failed; failures are counted separately
            if not v["persistent"]:
                problems.append(f"random-solve/{index}: authentic values are not persistent")
            if not (v["spe"] == v["one-piece"] == (v["persistent"] and v["piecewise-nash"])):
                problems.append(f"random-solve/{index}: spe, one-piece and persistent+piecewise-Nash disagree {v}")
            if v["spe"] and not v["nash"]:
                problems.append(f"random-solve/{index}: an SPE that is not Nash")
        return problems

    ctx.finishers.append(equivalences)

    for index, spec in pool:
        ctx.note_input(spec)
        size = len(spec["quintuples"])
        situations = sorted({q[1] for q in spec["quintuples"]})
        actions = {j: sorted({q[3] for q in spec["quintuples"] if q[1] == j}) for j in situations}
        s = {j: ctx.rng.choice(actions[j]) for j in situations}
        ctx.note_input(s)
        verdicts[index] = {}
        solved: list = []

        m = ctx.marker()
        game = _library_game(spec, m)

        def verify_solve(result, m=m, index=index, solved=solved):
            if isinstance(result, pentaform.NoPureEquilibrium):
                decision = {"no-pure-equilibrium": result.subroot.replace(m, "") if m else result.subroot}
            else:
                solved.append(result.strategy)
                values = {t: {k: str(x) for k, x in p.items()} for t, p in _unmark(result.values, m).items()}
                decision = {"strategy": result.strategy, "values": values}
            return ctx.check_golden(f"random-solve/{index}/solve", decision)

        yield Op(f"random-solve/{index}/solve", "solve", "", size,
                 lambda game=game: pentaform.solve_backward(game), verify_solve)

        if solved:
            game = _library_game(spec, ctx.marker())
            yield Op(f"random-solve/{index}/spe-solved", "spe-solved", "", size,
                     lambda game=game, s=solved[0]: pentaform.spe_check_direct(game, s),
                     lambda verdict: None if verdict.holds else "backward induction result is not an SPE")

        checks = (
            ("nash", lambda g, s=s: pentaform.nash_check(g, s)),
            ("spe", lambda g, s=s: pentaform.spe_check_direct(g, s)),
            ("one-piece", lambda g, s=s: pentaform.one_piece_unimprovable(g, s)),
            ("persistent", lambda g, s=s: pentaform.persistent(g, s, pentaform.authentic_value(g, s))),
            ("piecewise-nash", lambda g, s=s: pentaform.piecewise_nash(g, s, pentaform.authentic_value(g, s))),
        )
        for kind, fn in checks:
            game = _library_game(spec, ctx.marker())

            def verify(verdict, kind=kind, index=index):
                verdicts[index][kind] = verdict.holds
                return None

            yield Op(f"random-solve/{index}/{kind}", kind, "", size,
                     lambda fn=fn, game=game: fn(game), verify)


# -- quotient: stationary systems analysed on their class quotient ----------------------------


def _generated_system(index: int) -> dict:
    """Five classes, five exits each, two players, an information set per
    template; a ring of continue exits keeps every class reachable."""
    rng = random.Random(f"quotient-system:{index}")
    cids = [f"c{i}" for i in range(5)]
    players = ["p1", "p2"]
    template = [["p1", "", "", "a0", "1"], ["p1", "", "", "a1", "2"], ["p1", "", "", "a2", "5"],
                ["p2", "1+2", "1", "b0", "3"], ["p2", "1+2", "1", "b1", "4"],
                ["p2", "1+2", "2", "b0", "6"], ["p2", "1+2", "2", "b1", "7"]]
    classes = {}
    for ci, cid in enumerate(cids):
        ends = ["3", "4", "5", "6", "7"]
        ring = rng.choice(ends)
        exits = {}
        for y in ends:
            reward = {p: str(Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4]))) for p in players}
            if y == ring:
                exits[y] = {"class": cids[(ci + 1) % len(cids)], "reward": reward}
            elif rng.random() < 0.5:
                exits[y] = {"class": rng.choice(cids), "reward": reward}
            else:
                exits[y] = {"terminal": reward}
        classes[cid] = {"template": template, "exits": exits}
    beta = Fraction(rng.randint(1, 9), 10)
    return {"classes": classes, "initial": "c0", "model": {"kind": "discounted", "beta": str(beta)},
            "stakeholders": players}


def _library_system(data: dict, m: str):
    """Build a StationarySystem from file-format data (marked labels)."""
    data = mark_system(data, m)
    classes = {}
    for cid, spec in data["classes"].items():
        exits = {}
        for y, e in spec["exits"].items():
            if "terminal" in e:
                exits[y] = pentaform.Exit({k: Fraction(v) for k, v in e["terminal"].items()})
            else:
                exits[y] = pentaform.Exit({k: Fraction(v) for k, v in e["reward"].items()},
                                          next_class=e["class"])
        form = Pentaform(Quintuple(*q) for q in spec["template"])
        classes[cid] = pentaform.PieceClass(form, exits)
    model = data["model"]
    if model["kind"] == "discounted":
        model = pentaform.DiscountedAccumulation(Fraction(model["beta"]))
    else:
        model = pentaform.AbsoluteTerminal({tuple(c["classes"]): {k: Fraction(v) for k, v in c["utility"].items()}
                                            for c in model["cycles"]})
    return pentaform.StationarySystem(classes, data["initial"], model, data["stakeholders"])


class QuotientOracle:
    """Exact chain values and one-shot deviations of a discounted system,
    computed from the file-format data without the engine."""

    def __init__(self, data: dict):
        self.data = data
        self.beta = Fraction(data["model"]["beta"])
        self.players = sorted(data["stakeholders"])
        self.next = {}
        for cid, spec in data["classes"].items():
            for p, j, w, a, y in spec["template"]:
                self.next[(cid, w, a)] = y
        self.situation = {(cid, w): j for cid, spec in data["classes"].items()
                          for p, j, w, a, y in spec["template"]}
        self.owner = {(cid, j): p for cid, spec in data["classes"].items()
                      for p, j, w, a, y in spec["template"]}

    def exit_of(self, cid: str, choice: dict) -> str:
        x = ""
        while (cid, x) in self.situation:
            x = self.next[(cid, x, choice[self.situation[(cid, x)]])]
        return x

    def _exit(self, cid: str, y: str):
        e = self.data["classes"][cid]["exits"][y]
        if "terminal" in e:
            return {k: Fraction(v) for k, v in e["terminal"].items()}, None
        return {k: Fraction(v) for k, v in e["reward"].items()}, e["class"]

    def _discounted(self, rewards: list) -> dict:
        return {k: sum((self.beta ** i * r[k] for i, r in enumerate(rewards)), Fraction(0))
                for k in self.players}

    def values(self, sigma: dict) -> dict:
        """w_c: follow sigma's exits from c until a terminal exit or a class
        seen before; a closed cycle contributes its geometric series."""
        out = {}
        for start in self.data["classes"]:
            order, rewards, cid = [], [], start
            while cid is not None and cid not in order:
                order.append(cid)
                reward, cid = self._exit(cid, self.exit_of(cid, sigma[cid]))
                rewards.append(reward)
            total = self._discounted(rewards)
            if cid is not None:
                first = order.index(cid)
                head, cycle = self._discounted(rewards[:first]), self._discounted(rewards[first:])
                length = len(rewards) - first
                total = {k: head[k] + self.beta ** first * cycle[k] / (1 - self.beta ** length)
                         for k in self.players}
            out[start] = total
        return out

    def refuted(self, sigma: dict) -> bool:
        """A one-piece deviation improves on sigma under its own values."""
        w = self.values(sigma)

        def payoff(cid, y, k):
            reward, nxt = self._exit(cid, y)
            return reward[k] + (self.beta * w[nxt][k] if nxt is not None else 0)

        for cid, spec in self.data["classes"].items():
            base_exit = self.exit_of(cid, sigma[cid])
            for player in self.players:
                own = sorted({j for (c, j), p in self.owner.items() if c == cid and p == player})
                pools = [sorted({a for (c, w, a) in self.next if c == cid and self.situation[(c, w)] == j})
                         for j in own]
                for combo in itertools.product(*pools):
                    choice = dict(sigma[cid], **dict(zip(own, combo)))
                    if payoff(cid, self.exit_of(cid, choice), player) > payoff(cid, base_exit, player):
                        return True
        return False


def _template_choices(data: dict, cid: str) -> dict:
    spec = data["classes"][cid]["template"]
    out: dict[str, set] = {}
    for p, j, w, a, y in spec:
        out.setdefault(j, set()).add(a)
    return {j: sorted(a) for j, a in sorted(out.items())}


def _bounds_decision(table) -> list:
    return [[c, k, str(lo), str(hi)] for (c, k), (lo, hi) in sorted(table.items())]


def quotient(ctx: Context):
    convergence = {"ann": ("fails", "holds"), "bob": ("holds", "fails"), "eda": ("fails", "fails"),
                   "crywolf": ("holds", "holds")}
    systems = [(f"gen{index}", _generated_system(index)) for index in QUOTIENT_POOL]
    systems += [(name, load_fixture(f"{name}.system")) for name in convergence]
    for name, data in systems:
        ctx.note_input(data)
        discounted = data["model"]["kind"] == "discounted"
        key = f"quotient/{name}"

        def system():
            return _library_system(data, ctx.marker())

        def bounds(sys_):
            return {(c, k): pentaform.conceivable_bounds(sys_, c, k)
                    for c in sorted(sys_.classes) for k in sorted(sys_.stakeholders)}

        def verify_bounds(table, key=key):
            if any(lo > hi for lo, hi in table.values()):
                return "conceivable bounds with inf above sup"
            return ctx.check_golden(f"{key}/bounds", _bounds_decision(table))

        yield Op(f"{key}/bounds", "bounds", "", 0, lambda s=system(): bounds(s), verify_bounds)

        expected = convergence.get(name, ("holds", "holds"))
        for direction, fn in (("upper", "upper_convergent"), ("lower", "lower_convergent")):
            want = expected[0] if direction == "upper" else expected[1]
            yield Op(f"{key}/{direction}", f"{direction}-convergent", "", 0,
                     lambda s=system(), fn=fn: getattr(pentaform, fn)(s),
                     lambda v, want=want: None if v.status == want else f"expected {want}, got {v.status}")

        if not discounted:
            continue
        oracle = QuotientOracle(data)
        if name == "crywolf":
            sigma = load_fixture("crywolf_calm.strategy")["classes"]
        else:
            sigma = {c: {j: ctx.rng.choice(acts) for j, acts in _template_choices(data, c).items()}
                     for c in sorted(data["classes"])}
        ctx.note_input(sigma)
        truth = oracle.values(sigma)
        if name == "crywolf" and truth["day"] != CALM_CONTINUATION:
            raise RuntimeError("the oracle disagrees with acceptance criterion 3 on cry-wolf")

        def verify_values(w, truth=truth):
            got = {c: dict(p) for c, p in w.items()}
            return None if got == truth else f"continuation values differ from the exact oracle: {got}"

        yield Op(f"{key}/continuation", "continuation", "", 0,
                 lambda s=system(), sigma=sigma: pentaform.continuation_values(s, sigma), verify_values)

        solved: list = []

        def verify_solve(result, key=key, solved=solved):
            if isinstance(result, pentaform.StationarySolveFailure):
                decision = {"failure": result.kind, "class": result.class_id}
            else:
                solved.append(result.strategy)
                decision = {"strategy": result.strategy,
                            "values": {c: {k: str(x) for k, x in p.items()} for c, p in result.values.items()}}
            return ctx.check_golden(f"{key}/solve", decision)

        yield Op(f"{key}/solve", "solve", "", 0, lambda s=system(): pentaform.solve_stationary(s), verify_solve)

        base = solved[0] if solved else sigma
        perturbed = {c: dict(m) for c, m in base.items()}
        cid = ctx.rng.choice(sorted(perturbed))
        j = ctx.rng.choice(sorted(perturbed[cid]))
        others = [a for a in _template_choices(data, cid)[j] if a != perturbed[cid][j]]
        perturbed[cid][j] = ctx.rng.choice(others)
        ctx.note_input(perturbed)
        for kind, strategy in (("certify", base), ("certify-perturbed", perturbed)):
            want = "refuted" if oracle.refuted(strategy) else "spe-certified"

            def verify_cert(cert, want=want, must_certify=kind == "certify" and bool(solved)):
                if must_certify and want != "spe-certified":
                    return "the exact oracle refutes the strategy solve_stationary returned"
                return None if cert.kind == want else f"expected {want}, got {cert.kind}"

            yield Op(f"{key}/{kind}", kind, "", 0,
                     lambda s=system(), strategy=strategy: pentaform.certify_spe(s, strategy), verify_cert)


BUILDERS = {"chains": chains, "crywolf": crywolf, "random-solve": random_solve, "quotient": quotient}
