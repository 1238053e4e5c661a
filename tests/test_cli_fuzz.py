"""A seeded mutation fuzz of every fixture kind through `cli.main`.

Each fixture file below is mutated many times, one change per mutant: a key
or list entry dropped, a value of the wrong type put in, a string replaced by
"1/0", "inf" or "", a list entry duplicated, or one byte of the file text
replaced by any byte.  Every command that reads the
file then runs on each mutant, next to the unmutated files it needs.
Whatever the input, `main` returns an exit code in 0–4 and lets no exception
escape, and exit 2 leaves stdout empty.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest

from pentaform import cli

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
MUTANTS_PER_FILE = 60
WRONG_TYPES = (0, 1.5, True, None, [], {}, ["x"], {"x": "y"}, "x")
BAD_NUMBERS = ("1/0", "inf", "")
ANN_STRATEGY = {"classes": {"c": {"": "out"}}}

# each mutated fixture with the commands that read it; "{m}" is the mutant,
# "{ann}" a stationary strategy for ann.system, any other name a fixture file
COMMANDS = {
    "entry.pentaform": [["validate", "{m}"], ["inspect", "{m}", "--pieces"]],
    "crywolf_depth1.pentaform": [["validate", "{m}"], ["inspect", "{m}", "--subroots", "--pieces"]],
    "entry.game": [["validate", "{m}"], ["inspect", "{m}"], ["solve", "{m}"],
                   ["check", "{m}", "entry_spe.strategy", "--property", "spe"],
                   ["check", "{m}", "entry_spe.strategy", "--property", "admissible", "--values", "entry.values"]],
    "ann_trunc.game": [["solve", "{m}"], ["check", "{m}", "ann_trunc_in.strategy", "--property", "one-piece"]],
    "entry_spe.strategy": [["check", "entry.game", "{m}", "--property", "nash"],
                           ["check", "entry.game", "{m}", "--property", "persistent", "--authentic-value"]],
    "entry.values": [["check", "entry.game", "entry_spe.strategy", "--property", "authentic", "--values", "{m}"],
                     ["check", "entry.game", "entry_enter.strategy", "--property", "piecewise-nash", "--values", "{m}"]],
    "crywolf.system": [["stationary", "{m}", "convergence"], ["stationary", "{m}", "solve"],
                       ["stationary", "{m}", "instantiate", "2"],
                       ["stationary", "{m}", "certify", "crywolf_calm.strategy"]],
    "ann.system": [["stationary", "{m}", "convergence"], ["stationary", "{m}", "solve"],
                   ["stationary", "{m}", "instantiate", "3"], ["stationary", "{m}", "certify", "{ann}"]],
    "crywolf_calm.strategy": [["stationary", "crywolf.system", "certify", "{m}"]],
}


def _nodes(doc, path=()):
    """Every (path, value) of a JSON document, the document itself first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutant(doc, rng: random.Random) -> bytes:
    """The file text of doc with one change."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    lists = [value for _, value in nodes if isinstance(value, list) and value]
    kind = rng.choice(("drop", "wrong-type", "bad-number", "byte") + (("duplicate",) if lists else ()))
    if kind == "byte":
        text = bytearray(json.dumps(doc, indent=2).encode("utf-8"))
        text[rng.randrange(len(text))] = rng.randrange(256)
        return bytes(text)
    if kind == "duplicate":
        target = rng.choice(lists)
        target.insert(rng.randrange(len(target) + 1), copy.deepcopy(rng.choice(target)))
    elif kind == "drop":
        path, _ = rng.choice(nodes[1:])
        del _parent(doc, path)[path[-1]]
    else:
        if kind == "bad-number":
            path, _ = rng.choice([(path, value) for path, value in nodes if isinstance(value, str)])
            new = rng.choice(BAD_NUMBERS)
        else:
            path, _ = rng.choice(nodes)  # the whole document too
            new = rng.choice(WRONG_TYPES)
        if path:
            _parent(doc, path)[path[-1]] = new
        else:
            doc = new
    return json.dumps(doc, indent=2).encode("utf-8")


def _parent(doc, path: tuple):
    """The container that holds the value at a nonempty path."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _run(argv: list[str]) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr; any exception that escapes fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            pytest.fail(f"{argv}: {type(exc).__name__} escaped main: {exc}")
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fixture", sorted(COMMANDS))
def test_mutated_fixtures_end_in_a_documented_exit(fixture, tmp_path):
    rng = random.Random(f"fuzz:{fixture}")
    original = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    ann = tmp_path / "ann.strategy"
    ann.write_text(json.dumps(ANN_STRATEGY), encoding="utf-8")
    codes = set()
    for k in range(MUTANTS_PER_FILE):
        mutant = tmp_path / f"{k}-{fixture}"
        mutant.write_bytes(_mutant(original, rng))
        for template in COMMANDS[fixture]:
            argv = [str(mutant) if a == "{m}" else str(ann) if a == "{ann}"
                    else str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in template]
            code, stdout, stderr = _run(argv)
            assert 0 <= code <= 4, (argv, code)
            assert code != 2 or stdout == "", (argv, stdout)
            assert "Traceback" not in stderr, (argv, stderr)
            codes.add(code)
    assert 2 in codes
