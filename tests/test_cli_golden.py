"""Byte-exact CLI output: every README command, every `check` property on the
fixture game/strategy pairs, the stationary actions on the fixture systems and
`certify` of the calm cry-wolf strategy, compared against recorded files.

Each command runs in-process through `cli.main` from a copy of the repository
root's `fixtures/` (so relative paths print as in the README).  A case's exit
code and stdout are compared with `tests/golden/<case>.out`, whose first line
is `exit <code>`; a file written through `--dot` or `--out` is compared with
`tests/golden/<case>.<ext>`.

After an intended output change, re-record with
`PYTHONPATH=src python tests/test_cli_golden.py --record` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
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


CASES = dict([*_README, *_check_cases(), *_stationary_cases()])


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


def test_golden_instantiation_is_the_fixture():
    assert ((GOLDEN / "readme-instantiate.pentaform").read_text(encoding="utf-8")
            == (ROOT / "fixtures" / "crywolf_depth2.pentaform").read_text(encoding="utf-8"))


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
