"""The load path against its reference oracles.

A file's quintuple list goes to an indexed, validated form in one pass:
one type check over the whole list, one C-level sort, counts that decide
validity, and each distinct number text parsed once.  Every load here must
give what parsing each entry on its own, indexing with a sort of its own and
searching every axiom's witness give: the same structure (node-set
iteration order included), the same violations and the same error text.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from pentaform import Game, cli, fileio, numbers
from pentaform.core import ALL_AXIOMS, InvalidPentaform, Pentaform, Quintuple, check_axioms, validate

from conftest import (
    ReferencePentaform,
    assert_same_structure,
    reference_check_axioms,
    reference_diagnosed,
    reference_parse_profile,
    reference_parse_quintuples,
)
from test_cli_fuzz import COMMANDS, FIXTURES, MUTANTS_PER_FILE, _mutant
from test_differential import MUTATIONS, WOLF_TRUNCATIONS


_AXIOM_ORDER = {axiom: k for k, axiom in enumerate(ALL_AXIOMS)}


def _variants(rows: list, rng: random.Random) -> dict[str, list]:
    """The rows as written, shuffled, and shuffled with some repeated."""
    shuffled = rows[:]
    rng.shuffle(shuffled)
    repeated = shuffled + [list(r) for r in rng.sample(rows, min(len(rows), 5))]
    rng.shuffle(repeated)
    return {"canonical": rows, "shuffled": shuffled, "repeated": repeated}


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _validate_lines(path: Path) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["validate", str(path)])
    return out.getvalue().splitlines()


def _assert_game_loads_as_reference(g, tmp_path: Path, rng: random.Random) -> None:
    data = json.loads(fileio.dumps_game(g))
    for name, rows in _variants(data["quintuples"], rng).items():
        doc = {**data, "quintuples": rows}
        where = f"{tmp_path / name}.game"
        qs = reference_parse_quintuples(rows, f"{where}: quintuples")
        assert reference_diagnosed(qs) == check_axioms(qs) == []
        expected = ReferencePentaform(qs)
        utilities = {y: reference_parse_profile(p, f"{where}: utilities.{y}")
                     for y, p in data["utilities"].items()}

        loaded = fileio.load_game(_write(tmp_path / f"{name}.game", doc))
        assert_same_structure(loaded.form, expected)
        assert loaded.utilities == utilities
        assert list(loaded.utilities) == sorted(expected.endnodes)
        assert loaded == g

        path = _write(tmp_path / f"{name}.pentaform", {"quintuples": rows})
        assert fileio.load_quintuples(path) == qs
        assert all(type(q) is Quintuple for q in fileio.load_quintuples(path))
        assert_same_structure(fileio.load_pentaform(path), expected)
        assert _validate_lines(path)[1] == f"quintuples: {len(expected.quintuples)}"


def test_loads_match_reference_on_corpus(small_corpus, tmp_path):
    rng = random.Random(0)
    for g in small_corpus:
        _assert_game_loads_as_reference(g, tmp_path, rng)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_loads_match_reference_on_cry_wolf(depth, tmp_path):
    _assert_game_loads_as_reference(WOLF_TRUNCATIONS[depth - 1], tmp_path, random.Random(depth))


@pytest.mark.parametrize("mutate, axiom", MUTATIONS, ids=[m.__name__.strip("_") for m, _ in MUTATIONS])
def test_mutated_loads_match_reference(small_corpus, mutate, axiom, tmp_path):
    """Each axiom mutation, shuffled and with repeats: `load_pentaform`
    raises the reference violations or builds the reference structure, and
    `validate` prints them under the count of distinct quintuples."""
    rng = random.Random(mutate.__name__)
    reached = 0
    path = tmp_path / "mutant.pentaform"
    for g in small_corpus:
        rows = _variants([list(q) for q in mutate(list(g.form.quintuples), rng)], rng)["repeated"]
        _write(path, {"quintuples": rows})
        qs = reference_parse_quintuples(rows, f"{path}: quintuples")
        expected = reference_diagnosed(qs)
        assert expected == reference_check_axioms(qs)
        reached += any(v.axiom == axiom for v in expected)
        lines = _validate_lines(path)
        assert lines[1] == f"quintuples: {len(set(qs))}"
        assert [line for line in lines if "FAIL" in line] == [
            f"[{v.axiom}] FAIL  {v.witness}" for v in sorted(expected, key=lambda v: _AXIOM_ORDER[v.axiom])]
        if expected:
            with pytest.raises(InvalidPentaform) as raised:
                fileio.load_pentaform(path)
            assert raised.value.violations == tuple(expected)
        else:
            assert_same_structure(fileio.load_pentaform(path), ReferencePentaform(qs))
    if axiom is not None:
        assert reached > 0


def _reference_validate(q) -> Pentaform:
    qs = list(q)
    violations = reference_diagnosed(qs)
    if violations:
        raise InvalidPentaform(violations)
    return Pentaform(qs)


# each fuzzed fixture kind with its loader and the canonical text of what it loads
LOADERS = {
    ".pentaform": (fileio.load_pentaform, fileio.dumps_pentaform),
    ".game": (fileio.load_game, fileio.dumps_game),
    ".system": (fileio.load_system, fileio.dumps_system),
    ".values": (fileio.load_values, fileio.dumps_values),
}


def _outcome(load, dump, path) -> tuple[str, str]:
    try:
        return "loaded", dump(load(path))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("fixture", sorted(f for f in COMMANDS if Path(f).suffix in LOADERS))
def test_fuzzed_loads_match_reference(fixture, tmp_path, monkeypatch):
    """Every mutant of the CLI fuzz loads to the same text, or fails with
    the same error and message, as with the reference parsers and diagnosis
    and the library `Game(...)` constructor."""
    load, dump = LOADERS[Path(fixture).suffix]
    rng = random.Random(f"fuzz:{fixture}")
    original = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    paths = []
    for k in range(MUTANTS_PER_FILE):
        paths.append(tmp_path / f"{k}-{fixture}")
        paths[-1].write_bytes(_mutant(original, rng))
    outcomes = [_outcome(load, dump, path) for path in paths]
    monkeypatch.setattr(fileio, "_parse_quintuples", reference_parse_quintuples)
    monkeypatch.setattr(fileio, "_parse_profile", lambda data, where, numbers: reference_parse_profile(data, where))
    monkeypatch.setattr(fileio, "validate", _reference_validate)
    monkeypatch.setattr(Game, "_parsed", lambda form, stakeholders, utilities: Game(form, stakeholders, utilities))
    assert [_outcome(load, dump, path) for path in paths] == outcomes
    assert "FileFormatError" in {kind for kind, _ in outcomes}


def _constructor_diagnoses(qs) -> bool:
    """`Pentaform(qs)` raises `InvalidPentaform` with exactly the violations
    of `check_axioms` and the reference diagnosis, or builds the reference
    structure when there are none; whether it raised."""
    expected = reference_diagnosed(qs)
    if not expected:
        assert_same_structure(Pentaform(qs), ReferencePentaform(qs))
        return False
    with pytest.raises(InvalidPentaform) as raised:
        Pentaform(qs)
    assert raised.value.violations == tuple(check_axioms(qs)) == tuple(expected)
    return True


@pytest.mark.parametrize("fixture", sorted(f for f in COMMANDS if Path(f).suffix in (".pentaform", ".game", ".system")))
def test_constructor_raises_the_diagnosis_on_fuzzed_loads(fixture, tmp_path, monkeypatch):
    """Every quintuple set that a load of the CLI fuzz's mutants validates,
    a class template's too, goes through `Pentaform(...)` to the reference
    diagnosis: the same mutants as `test_fuzzed_loads_match_reference`."""
    load = LOADERS[Path(fixture).suffix][0]
    rng = random.Random(f"fuzz:{fixture}")
    original = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    validated = []

    def recorded(q):
        validated.append(list(q))
        return validate(validated[-1])

    monkeypatch.setattr(fileio, "validate", recorded)
    path = tmp_path / fixture
    for _ in range(MUTANTS_PER_FILE):
        path.write_bytes(_mutant(original, rng))
        with contextlib.suppress(ValueError):
            load(path)
    assert sum(map(_constructor_diagnoses, validated)) > 0


def test_each_number_text_is_parsed_once_per_load(tmp_path, monkeypatch):
    g = WOLF_TRUNCATIONS[3]
    path = tmp_path / "wolf.game"
    fileio.save_game(path, g)
    texts = [v for p in json.loads(path.read_text())["utilities"].values() for v in p.values()]
    parsed = []
    real = fileio.parse_scalar
    monkeypatch.setattr(fileio, "parse_scalar", lambda text: parsed.append(text) or real(text))
    assert fileio.load_game(path) == g
    assert sorted(parsed) == sorted(set(texts)) and len(parsed) < len(texts)
    assert fileio.load_game(path) == g
    assert len(parsed) == 2 * len(set(texts))  # nothing is kept between loads


def test_load_game_normalizes_no_number_twice(tmp_path, monkeypatch):
    """`load_game` keeps the profiles it parsed: no number goes through
    `as_scalar` again, while the library `Game(...)` normalizes every
    number of the same profiles."""
    g = WOLF_TRUNCATIONS[3]
    path = tmp_path / "wolf.game"
    fileio.save_game(path, g)
    normalized = []
    real = numbers.as_scalar
    monkeypatch.setattr(numbers, "as_scalar", lambda x: normalized.append(x) or real(x))
    loaded = fileio.load_game(path)
    assert loaded == g and normalized == []
    assert Game(loaded.form, loaded.stakeholders, loaded.utilities) == g
    assert len(normalized) == len(g.utilities) * len(g.stakeholders)


def test_validate_walks_a_valid_form_once(monkeypatch):
    walks = []
    real = Pentaform._depths
    monkeypatch.setattr(Pentaform, "_depths", lambda self, root: walks.append(root) or real(self, root))
    for g in WOLF_TRUNCATIONS:
        form = validate(reversed(g.form.quintuples))
        assert form == g.form and form._depth == g.form._depth
    assert len(walks) == len(WOLF_TRUNCATIONS)

