"""Byte-exact CLI output: every README command, every `check` property on the
fixture game/strategy pairs, the stationary actions on the fixture systems,
`certify` of the calm cry-wolf strategy and of the chain fixtures' always-in
and always-out strategies, `convergence` on the systems of `SYSTEMS`,
`validate` on one malformed quintuple set per axiom, and `solve` on the games
of `GAMES`, compared against recorded files.

Each command runs in-process through `cli.main` from a copy of the repository
root's `fixtures/` (so relative paths print as in the README), into which the
malformed sets of `MALFORMED` are written as `.pentaform` files, the systems
of `SYSTEMS` as `.system` files, the strategies of `STATIONARY_STRATEGIES`
as `.strategy` files and the games of `GAMES` as `.game` files.  A case's exit code and stdout are compared with
`tests/golden/<case>.out`, whose first line is `exit <code>`; a file written
through `--dot` or `--out` is compared with `tests/golden/<case>.<ext>`.

The README commands run a second time in one `python -O` subprocess, which
drops assertions, and must print the same.

After an intended output change, re-record with
`PYTHONPATH=src python tests/test_cli_golden.py --record` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pentaform.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

_README = [
    ("readme-validate", ["validate", "fixtures/entry.pentaform"]),
    ("readme-inspect", ["inspect", "fixtures/crywolf_depth1.pentaform", "--subroots", "--pieces",
                        "--dot", "out.dot"]),
    ("readme-check-spe", ["check", "fixtures/entry.game", "fixtures/entry_spe.strategy",
                          "--property", "spe"]),
    ("readme-check-authentic", ["check", "fixtures/ann_trunc.game", "fixtures/ann_trunc_in.strategy",
                                "--property", "authentic", "--values", "fixtures/ann_trunc_half.values"]),
    ("readme-solve", ["solve", "fixtures/entry.game"]),
    ("readme-certify", ["stationary", "fixtures/crywolf.system", "certify",
                        "fixtures/crywolf_calm.strategy"]),
    ("readme-convergence", ["stationary", "fixtures/ann.system", "convergence"]),
    ("readme-stationary-solve", ["stationary", "fixtures/crywolf.system", "solve"]),
    ("readme-instantiate", ["stationary", "fixtures/crywolf.system", "instantiate", "2",
                            "--out", "depth2.pentaform"]),
]

# (game, strategy, values) for every fixture game with its strategies
_PAIRS = [
    ("entry", "entry_spe", "entry"),
    ("entry", "entry_enter", "entry"),
    ("ann_trunc", "ann_trunc_in", "ann_trunc_half"),
    ("bob_trunc", "bob_trunc_out", "bob_trunc_minus1"),
]


def _check_cases():
    for game, strategy, values in _PAIRS:
        base = ["check", f"fixtures/{game}.game", f"fixtures/{strategy}.strategy", "--property"]
        for prop in ("nash", "spe", "one-piece"):
            yield f"check-{strategy}-{prop}", base + [prop]
        for prop in ("admissible", "persistent", "authentic", "piecewise-nash"):
            yield f"check-{strategy}-{prop}-values", base + [prop, "--values", f"fixtures/{values}.values"]
            yield f"check-{strategy}-{prop}-authentic", base + [prop, "--authentic-value"]


def _stationary_cases():
    for system in ("ann", "bob", "eda", "crywolf"):
        path = f"fixtures/{system}.system"
        yield f"stationary-{system}-convergence", ["stationary", path, "convergence"]
        yield f"stationary-{system}-solve", ["stationary", path, "solve"]
        for depth in (1, 2, 3):
            yield (f"stationary-{system}-instantiate{depth}",
                   ["stationary", path, "instantiate", str(depth), "--out", f"depth{depth}.pentaform"])
    yield "stationary-crywolf-certify", ["stationary", "fixtures/crywolf.system", "certify",
                                         "fixtures/crywolf_calm.strategy"]
    for system, strategy in (("ann", "chain_in"), ("ann", "chain_out"), ("bob", "chain_out"),
                             ("eda", "eda_in")):
        yield (f"stationary-{system}-certify-{strategy}",
               ["stationary", f"fixtures/{system}.system", "certify", f"fixtures/{strategy}.strategy"])
    for system in SYSTEMS:
        yield f"stationary-{system}-convergence", ["stationary", f"fixtures/{system}.system", "convergence"]


def _chain_class(player: str, next_class: str, out: str) -> dict:
    return {"template": [[player, "", "", "in", "i"], [player, "", "", "out", "x"]],
            "exits": {"i": {"class": next_class, "reward": {player: "0"}},
                      "x": {"terminal": {player: out}}}}


def _three_way_class() -> dict:
    return {"template": [["Joe", "", "", "stay_a", "p"], ["Joe", "", "", "stay_b", "q"],
                         ["Joe", "", "", "stop", "x"]],
            "exits": {"p": {"class": "A", "reward": {"Joe": "0"}},
                      "q": {"class": "B", "reward": {"Joe": "0"}},
                      "x": {"terminal": {"Joe": "0"}}}}


def _cycles(*cycles) -> list:
    return [{"classes": list(cyc), "utility": {"Joe": "0"}} for cyc in cycles]


# absolute-terminal systems beside the fixtures: one whose class graph has
# aperiodic infinite runs (convergence unknown), and a one-class loop that
# declares no cycle (rejected by the loader)
SYSTEMS = {
    "aperiodic": {"classes": {"A": _three_way_class(), "B": _three_way_class()}, "initial": "A",
                  "model": {"kind": "absolute-terminal", "cycles": _cycles(["A"], ["B"], ["A", "B"])},
                  "stakeholders": ["Joe"]},
    "undeclared": {"classes": {"c": _chain_class("Ann", "c", "1")}, "initial": "c",
                   "model": {"kind": "absolute-terminal", "cycles": []},
                   "stakeholders": ["Ann"]},
}

STATIONARY_STRATEGIES = {
    "chain_in": {"c": {"": "in"}},
    "chain_out": {"c": {"": "out"}},
    "eda_in": {"even": {"": "in"}, "odd": {"": "in"}},
}


# axiom → a quintuple set that violates exactly that axiom
MALFORMED = {
    "player-of-situation": [("A", "j", "w", "a", "y1"), ("B", "j", "w", "b", "y2")],
    "situation-of-node": [("A", "j", "w", "a", "y1"), ("A", "k", "w", "b", "y2")],
    "action-rectangle": [("A", "jr", "r", "x", "w1"), ("A", "jr", "r", "z", "w2"),
                         ("B", "j", "w1", "a", "y1"), ("B", "j", "w1", "b", "y2"),
                         ("B", "j", "w2", "a", "y3")],
    "successor-function": [("A", "j", "w", "a", "y1"), ("A", "j", "w", "a", "y2")],
    "predecessor-function": [("A", "jr", "r", "l", "w1"), ("A", "jr", "r", "m", "w2"),
                             ("B", "j1", "w1", "a", "y"), ("C", "j2", "w2", "a", "y")],
    "action-of-successor": [("A", "j", "w", "a", "y"), ("A", "j", "w", "b", "y")],
    "no-cycles": [("A", "j", "r", "a", "y"), ("A", "k", "u", "b", "v"), ("A", "m", "v", "c", "u")],
    "single-root": [("A", "j1", "r1", "a", "y1"), ("A", "j2", "r2", "a", "y2"),
                    ("A", "j3", "r3", "a", "y3"), ("A", "j4", "r4", "a", "y4")],
}


def _validate_cases():
    for name in MALFORMED:
        yield f"validate-{name}", ["validate", f"fixtures/{name}.pentaform"]


def _game(stakeholders, quintuples, utilities) -> dict:
    """A `.game` payload; each utility profile lists values in stakeholder order."""
    return {"quintuples": [list(q) for q in quintuples], "stakeholders": list(stakeholders),
            "utilities": {y: dict(zip(stakeholders, p)) for y, p in utilities.items()}}


# the depth-2 cry-wolf truncation at the calm strategy's continuation values,
# per endnode as (Kid, Town, Wolf); its quintuples are fixtures/crywolf_depth2.pentaform
CRYWOLF_DEPTH2_UTILITIES = {
    "4": ("5/9", "0", "-5/9"), "5": ("0", "0", "5/9"), "64": ("41/90", "0.2", "4/9"),
    "65": ("0.4", "0.2", "5/9"), "664": ("401/900", "0.22", "49/90"),
    "665": ("0.44", "0.22", "5/9"), "666": ("1999/4500", "1001/4500", "5/9"),
    "667": ("199/450", "101/450", "5/9"), "668": ("199/450", "101/450", "5/9"),
    "674": ("383/900", "0.24", "49/90"), "675": ("0.42", "0.24", "5/9"),
    "676": ("1909/4500", "1091/4500", "5/9"), "677": ("19/45", "11/45", "5/9"),
    "678": ("19/45", "11/45", "5/9"), "684": ("383/900", "0.24", "49/90"),
    "685": ("0.42", "0.24", "5/9"), "686": ("1909/4500", "1091/4500", "5/9"),
    "687": ("19/45", "11/45", "5/9"), "688": ("19/45", "11/45", "5/9"),
    "74": ("23/90", "0.4", "4/9"), "75": ("0.2", "0.4", "5/9"), "764": ("221/900", "0.42", "49/90"),
    "765": ("0.24", "0.42", "5/9"), "766": ("1099/4500", "1901/4500", "5/9"),
    "767": ("109/450", "191/450", "5/9"), "768": ("109/450", "191/450", "5/9"),
    "774": ("203/900", "0.44", "49/90"), "775": ("0.22", "0.44", "5/9"),
    "776": ("1009/4500", "1991/4500", "5/9"), "777": ("2/9", "4/9", "5/9"),
    "778": ("2/9", "4/9", "5/9"), "784": ("203/900", "0.44", "49/90"),
    "785": ("0.22", "0.44", "5/9"), "786": ("1009/4500", "1991/4500", "5/9"),
    "787": ("2/9", "4/9", "5/9"), "788": ("2/9", "4/9", "5/9"), "84": ("23/90", "0.4", "4/9"),
    "85": ("0.2", "0.4", "5/9"), "864": ("221/900", "0.42", "49/90"),
    "865": ("0.24", "0.42", "5/9"), "866": ("1099/4500", "1901/4500", "5/9"),
    "867": ("109/450", "191/450", "5/9"), "868": ("109/450", "191/450", "5/9"),
    "874": ("203/900", "0.44", "49/90"), "875": ("0.22", "0.44", "5/9"),
    "876": ("1009/4500", "1991/4500", "5/9"), "877": ("2/9", "4/9", "5/9"),
    "878": ("2/9", "4/9", "5/9"), "884": ("203/900", "0.44", "49/90"),
    "885": ("0.22", "0.44", "5/9"), "886": ("1009/4500", "1991/4500", "5/9"),
    "887": ("2/9", "4/9", "5/9"), "888": ("2/9", "4/9", "5/9"),
}

# games for `solve`, besides cry-wolf: matching pennies (no pure equilibrium)
# and three draws of random_game(seed, max_nodes=24, max_info_set=4), copied
# literally because the generator's draws depend on the hash seed
GAMES = {
    "matching_pennies": _game(
        ["A", "B"],
        [("A", "jA", "r", "h", "H"), ("A", "jA", "r", "t", "T"),
         ("B", "jB", "H", "h", "Hh"), ("B", "jB", "H", "t", "Ht"),
         ("B", "jB", "T", "h", "Th"), ("B", "jB", "T", "t", "Tt")],
        {"Hh": ("1", "-1"), "Ht": ("-1", "1"), "Th": ("-1", "1"), "Tt": ("1", "-1")}),
    "random38": _game(
        ["p1", "p2"],
        [("p1", "s00", "n08", "a1", "n17"), ("p1", "s00", "n15", "a1", "n20"),
         ("p1", "s01", "n01", "a1", "n02"), ("p1", "s01", "n12", "a1", "n22"),
         ("p2", "s02", "n18", "a1", "n21"), ("p1", "s03", "n07", "a1", "n08"),
         ("p1", "s03", "n07", "a2", "n23"), ("p1", "s04", "n02", "a1", "n03"),
         ("p1", "s04", "n02", "a2", "n06"), ("p1", "s04", "n02", "a3", "n13"),
         ("p1", "s04", "n09", "a1", "n11"), ("p1", "s04", "n09", "a2", "n14"),
         ("p1", "s04", "n09", "a3", "n19"), ("p2", "s05", "n05", "a1", "n07"),
         ("p2", "s05", "n05", "a2", "n09"), ("p2", "s05", "n05", "a3", "n15"),
         ("p2", "s05", "n10", "a1", "n12"), ("p2", "s05", "n10", "a2", "n16"),
         ("p2", "s05", "n10", "a3", "n18"), ("p2", "s06", "n00", "a1", "n01"),
         ("p2", "s06", "n00", "a2", "n04"), ("p2", "s06", "n00", "a3", "n05"),
         ("p2", "s06", "n00", "a4", "n10")],
        {"n03": ("4.5", "25/3"), "n04": ("10/3", "-19/3"), "n06": ("-10", "3.4"),
         "n11": ("-1/3", "5.5"), "n13": ("8.6", "-3.8"), "n14": ("4", "-8.4"),
         "n16": ("-1.75", "7.6"), "n17": ("-2.5", "23/3"), "n19": ("17/3", "-6"),
         "n20": ("-9.2", "2"), "n21": ("1.5", "-3"), "n22": ("1.2", "-6"), "n23": ("9", "-9")}),
    "random237": _game(
        ["p1", "p2", "p3"],
        [("p1", "s00", "n07", "a1", "n11"), ("p2", "s01", "n05", "a1", "n06"),
         ("p2", "s01", "n06", "a1", "n08"), ("p2", "s02", "n03", "a1", "n04"),
         ("p2", "s02", "n03", "a2", "n20"), ("p2", "s02", "n08", "a1", "n09"),
         ("p2", "s02", "n08", "a2", "n19"), ("p3", "s03", "n01", "a1", "n07"),
         ("p3", "s03", "n01", "a2", "n13"), ("p3", "s03", "n09", "a1", "n12"),
         ("p3", "s03", "n09", "a2", "n15"), ("p3", "s04", "n11", "a1", "n14"),
         ("p3", "s04", "n11", "a2", "n16"), ("p3", "s04", "n11", "a3", "n17"),
         ("p3", "s04", "n15", "a1", "n18"), ("p3", "s04", "n15", "a2", "n21"),
         ("p3", "s04", "n15", "a3", "n22"), ("p2", "s05", "n00", "a1", "n01"),
         ("p2", "s05", "n00", "a2", "n02"), ("p2", "s05", "n00", "a3", "n03"),
         ("p2", "s05", "n00", "a4", "n05"), ("p2", "s05", "n00", "a5", "n10")],
        {"n02": ("4", "5", "0.5"), "n04": ("6.5", "-4", "4"), "n10": ("6", "-8.8", "-2"),
         "n12": ("3", "-7", "-9.2"), "n13": ("-3.4", "-3.5", "-7"), "n14": ("-1", "6", "5.4"),
         "n16": ("2.5", "-6", "10"), "n17": ("5.6", "6", "6.5"), "n18": ("-3", "26/3", "-8"),
         "n19": ("0.6", "-7.6", "9"), "n20": ("7.75", "5.2", "5.3"), "n21": ("0.2", "-6", "-7.4"),
         "n22": ("-8", "-2.5", "9.8")}),
    "random310": _game(
        ["b1", "p1", "p2"],
        [("p2", "s00", "n01", "a1", "n05"), ("p2", "s01", "n03", "a1", "n13"),
         ("p2", "s01", "n07", "a1", "n10"), ("p2", "s01", "n10", "a1", "n18"),
         ("p2", "s02", "n11", "a1", "n12"), ("p2", "s03", "n00", "a1", "n01"),
         ("p2", "s03", "n00", "a2", "n02"), ("p1", "s04", "n04", "a1", "n07"),
         ("p1", "s04", "n04", "a2", "n17"), ("p1", "s04", "n09", "a1", "n15"),
         ("p1", "s04", "n09", "a2", "n16"), ("p2", "s05", "n06", "a1", "n11"),
         ("p2", "s05", "n06", "a2", "n19"), ("p2", "s06", "n05", "a1", "n08"),
         ("p2", "s06", "n05", "a2", "n09"), ("p2", "s06", "n05", "a3", "n20"),
         ("p2", "s07", "n02", "a1", "n03"), ("p2", "s07", "n02", "a2", "n04"),
         ("p2", "s07", "n02", "a3", "n06"), ("p2", "s07", "n02", "a4", "n14")],
        {"n08": ("19/3", "-4.6", "0"), "n12": ("-10", "-20/3", "9"), "n13": ("4", "-5.3", "6"),
         "n14": ("-6.25", "-4", "8.8"), "n15": ("6", "-9", "-4.8"), "n16": ("0.2", "4", "-8"),
         "n17": ("-7/3", "4.8", "9.5"), "n18": ("22/3", "-0.8", "9.6"),
         "n19": ("8.5", "-28/3", "1"), "n20": ("-2.8", "-8", "6.8")}),
}


def _solve_cases():
    for name in [*GAMES, "crywolf_depth2"]:
        yield f"solve-{name}", ["solve", f"fixtures/{name}.game"]


CASES = dict([*_README, *_check_cases(), *_stationary_cases(), *_validate_cases(), *_solve_cases()])


def _written_file(argv):
    for flag in ("--dot", "--out"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def _run(argv, workdir: Path):
    """Exit code, stdout and the text of the file the command wrote (or None)."""
    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(previous)
    written = _written_file(argv)
    text = (workdir / written).read_text(encoding="utf-8") if written else None
    return code, out.getvalue(), text


def _workdir(base: Path) -> Path:
    shutil.copytree(ROOT / "fixtures", base / "fixtures")
    for name, quintuples in MALFORMED.items():
        payload = {"quintuples": [list(q) for q in quintuples]}
        (base / "fixtures" / f"{name}.pentaform").write_text(json.dumps(payload), encoding="utf-8")
    for name, system in SYSTEMS.items():
        (base / "fixtures" / f"{name}.system").write_text(json.dumps(system), encoding="utf-8")
    for name, sigma in STATIONARY_STRATEGIES.items():
        (base / "fixtures" / f"{name}.strategy").write_text(json.dumps({"classes": sigma}),
                                                             encoding="utf-8")
    for name, payload in GAMES.items():
        (base / "fixtures" / f"{name}.game").write_text(json.dumps(payload), encoding="utf-8")
    wolf = json.loads((base / "fixtures" / "crywolf_depth2.pentaform").read_text(encoding="utf-8"))
    wolf_game = _game(["Kid", "Town", "Wolf"], wolf["quintuples"], CRYWOLF_DEPTH2_UTILITIES)
    (base / "fixtures" / "crywolf_depth2.game").write_text(json.dumps(wolf_game), encoding="utf-8")
    return base


def _golden_file(name, argv) -> Path:
    return GOLDEN / f"{name}{Path(_written_file(argv)).suffix}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return _workdir(tmp_path_factory.mktemp("cli-golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, workdir):
    argv = CASES[name]
    code, stdout, written = _run(argv, workdir)
    assert f"exit {code}\n{stdout}" == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if written is not None:
        assert written == _golden_file(name, argv).read_text(encoding="utf-8")


def test_undeclared_cycle_is_named_on_stderr(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert main(CASES["stationary-undeclared-convergence"]) == 2
    assert capsys.readouterr().err == ("error: fixtures/undeclared.system: absolute-terminal model must "
                                       "declare exactly the simple class cycles; missing [('c',)], unknown []\n")


def test_golden_instantiation_is_the_fixture():
    assert ((GOLDEN / "readme-instantiate.pentaform").read_text(encoding="utf-8")
            == (ROOT / "fixtures" / "crywolf_depth2.pentaform").read_text(encoding="utf-8"))


_OPTIMIZED_RUN = """
import json, sys
from pathlib import Path
import test_cli_golden as golden
work = golden._workdir(Path(sys.argv[1]))
print(json.dumps({"debug": __debug__,
                  "runs": {name: golden._run(argv, work) for name, argv in golden._README}}))
"""


def test_readme_commands_match_golden_under_optimize(tmp_path):
    """`python -O` drops assertions; the README commands must print the same."""
    path = os.pathsep.join([str(ROOT / "src"), str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_RUN, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["debug"] is False
    for name, argv in _README:
        code, stdout, written = report["runs"][name]
        assert f"exit {code}\n{stdout}" == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name
        if written is not None:
            assert written == _golden_file(name, argv).read_text(encoding="utf-8"), name


def _record() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = _workdir(Path(tmp))
        for name, argv in sorted(CASES.items()):
            code, stdout, written = _run(argv, work)
            (GOLDEN / f"{name}.out").write_text(f"exit {code}\n{stdout}", encoding="utf-8")
            if written is not None:
                _golden_file(name, argv).write_text(written, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_cli_golden.py --record")
    _record()
