"""Byte-exact CLI output: every README command, every `check` property on the
fixture game/strategy pairs, the stationary actions on the fixture systems,
`certify` of the calm cry-wolf strategy and of the chain fixtures' always-in
and always-out strategies, `convergence` on the systems of `SYSTEMS`, and
`validate` on one malformed quintuple set per axiom, compared against
recorded files.

Each command runs in-process through `cli.main` from a copy of the repository
root's `fixtures/` (so relative paths print as in the README), into which the
malformed sets of `MALFORMED` are written as `.pentaform` files, the systems
of `SYSTEMS` as `.system` files and the strategies of `STATIONARY_STRATEGIES`
as `.strategy` files.  A case's exit code and stdout are compared with
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


CASES = dict([*_README, *_check_cases(), *_stationary_cases(), *_validate_cases()])


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
