"""Canonical file formats: round trips and schema errors."""

from __future__ import annotations

import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from pentaform import fileio
from pentaform.fixtures import (
    ann_chain,
    bob_truncation,
    cry_wolf,
    cry_wolf_calm_strategy,
    eda_chain,
    entry_game,
    entry_spe_strategy,
    entry_values,
    _write_fixture_files,
)
from pentaform.numbers import INF, MAX_DIGITS, NEG_INF, format_scalar, parse_scalar, repeating_decimal, render_scalar

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


# -- numbers -------------------------------------------------------------------


def test_scalar_round_trip():
    for text in ("0", "-3", "0.55", "-0.5", "5/9", "-19/45", "inf", "-inf"):
        assert format_scalar(parse_scalar(text)) == text


def test_decimal_strings_parse_exactly():
    assert parse_scalar("0.4") == F(2, 5)
    assert parse_scalar("0.40") == F(2, 5)
    with pytest.raises(ValueError):
        parse_scalar("zzz")


def test_number_grammar_is_strict():
    assert parse_scalar("-12.50") == F(-25, 2)
    assert parse_scalar("-19/45") == F(-19, 45)
    assert parse_scalar("007") == 7
    assert parse_scalar("9" * MAX_DIGITS) == 10**MAX_DIGITS - 1
    for text in ("1e5", "1E5", "1_0", " 1", "1 ", "+1", ".5", "5.", "-", "", "1.5/2", "1/-2",
                 "--1", "1/0", "0x10", "nan", "Infinity", "١", "9" * (MAX_DIGITS + 1),
                 "1/" + "1" * (MAX_DIGITS + 1), "0." + "1" * MAX_DIGITS):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_formatted_numbers_stay_inside_the_grammar():
    rng = random.Random(0)
    for _ in range(500):
        x = F(rng.randint(-10**30, 10**30), rng.choice([1, 2, 3, 8, 10, 125, 7 * 10**9, 10**40]))
        text = format_scalar(x)
        assert parse_scalar(text) == x, text
    assert format_scalar(F(10**MAX_DIGITS - 1, 3)) == "3" * MAX_DIGITS


def test_repeating_decimal_rendering():
    assert repeating_decimal(F(5, 9)) == ".5̅"
    assert repeating_decimal(F(19, 45)) == ".42̅"
    assert repeating_decimal(F(11, 45)) == ".24̅"
    assert repeating_decimal(F(11, 20)) == ".55"
    assert repeating_decimal(F(-1)) == "-1"
    assert render_scalar(F(5, 9)) == "5/9 (= .5̅)"


def test_long_decimals_and_long_numbers_are_not_written_out():
    """An expansion of more than MAX_DIGITS digits after the point raises,
    and the report shows p/q alone; a terminating decimal of more than
    MAX_DIGITS digits is written p/q; a number whose denominator has more
    than MAX_DIGITS digits is reported as that fact."""
    at_limit, past_limit = F(1, 3 * 2 ** (MAX_DIGITS - 1)), F(1, 3 * 2**MAX_DIGITS)
    assert len(repeating_decimal(at_limit)) == 1 + MAX_DIGITS + 1  # the point, the digits, one overline
    for x in (past_limit, F(1, 1000000007)):
        with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
            repeating_decimal(x)
        assert render_scalar(x) == format_scalar(x) == f"1/{x.denominator}"
    tiny = F(1, 2**14000)  # a denominator of 4,215 digits, a decimal of 14,000
    assert format_scalar(tiny) == render_scalar(tiny) == f"1/{2**14000}"
    assert parse_scalar(format_scalar(tiny)) == tiny
    for x in (F(1, 10**MAX_DIGITS), F(-(10**MAX_DIGITS), 3)):
        assert render_scalar(x) == f"a number with more than {MAX_DIGITS} digits"


def test_over_long_numbers_are_not_written_to_files():
    """A number the loader could not read back is refused with the fact,
    not with the interpreter's integer conversion limit."""
    message = f"^cannot write a number with more than {MAX_DIGITS} digits$"
    for x in (F(1, 3 * 10**MAX_DIGITS), F(1, 10**MAX_DIGITS), F(10**MAX_DIGITS), F(-(10**MAX_DIGITS), 3)):
        with pytest.raises(ValueError, match=message):
            format_scalar(x)
        with pytest.raises(ValueError, match=message):
            fileio.dumps_values({"5": {"Ent": x, "Inc": F(1)}})
    assert format_scalar(F(10**MAX_DIGITS - 1)) == "9" * MAX_DIGITS


def test_repeating_decimal_renders_the_infinities():
    assert repeating_decimal(INF) == "inf"
    assert repeating_decimal(NEG_INF) == "-inf"


# -- round trips ----------------------------------------------------------------


def test_pentaform_round_trip(tmp_path):
    g = entry_game()
    path = tmp_path / "x.pentaform"
    fileio.save_pentaform(path, g.form)
    assert fileio.load_pentaform(path) == g.form
    assert path.read_text() == fileio.dumps_pentaform(g.form)


def test_quintuples_save_in_canonical_order_without_repeats():
    form = bob_truncation(3).form
    shuffled = list(form.quintuples) * 2
    random.Random(0).shuffle(shuffled)
    assert fileio.dumps_pentaform(shuffled) == fileio.dumps_pentaform(form)


def test_game_round_trip(tmp_path):
    for g in (entry_game(), bob_truncation(3)):
        path = tmp_path / "x.game"
        fileio.save_game(path, g)
        assert fileio.load_game(path) == g
        # canonical: re-saving the loaded game is byte-identical
        assert fileio.dumps_game(fileio.load_game(path)) == path.read_text()


def test_strategy_and_values_round_trip(tmp_path):
    spath = tmp_path / "x.strategy"
    fileio.save_strategy(spath, entry_spe_strategy())
    assert fileio.load_strategy(spath) == entry_spe_strategy()
    vpath = tmp_path / "x.values"
    fileio.save_values(vpath, entry_values())
    loaded = fileio.load_values(vpath)
    assert loaded == {t: {k: F(x) for k, x in p.items()} for t, p in entry_values().items()}


def test_every_save_names_a_file_it_cannot_write(tmp_path):
    missing = tmp_path / "no-such-dir"
    g = entry_game()
    saves = [
        (fileio.save_pentaform, g.form), (fileio.save_game, g),
        (fileio.save_strategy, entry_spe_strategy()), (fileio.save_values, entry_values()),
        (fileio.save_system, cry_wolf()), (fileio.save_stationary_strategy, {"c": {"j": "a"}}),
    ]
    for save, obj in saves:
        path = missing / "x.out"
        with pytest.raises(fileio.FileFormatError, match=f"^{re.escape(str(path))}: "):
            save(path, obj)
    assert not missing.exists()


def test_system_round_trip(tmp_path):
    for sys_ in (cry_wolf(), ann_chain(), eda_chain()):
        path = tmp_path / "x.system"
        fileio.save_system(path, sys_)
        loaded = fileio.load_system(path)
        assert fileio.dumps_system(loaded) == path.read_text()
        assert loaded.initial == sys_.initial
        assert set(loaded.classes) == set(sys_.classes)
        for c in sys_.classes:
            assert loaded.classes[c].template == sys_.classes[c].template
            assert loaded.classes[c].exits == sys_.classes[c].exits


def test_stationary_strategy_round_trip(tmp_path):
    path = tmp_path / "x.strategy"
    fileio.save_stationary_strategy(path, cry_wolf_calm_strategy())
    assert fileio.load_stationary_strategy(path) == cry_wolf_calm_strategy()


def test_shipped_fixture_files_match_builders(tmp_path):
    """`python -m pentaform.fixtures` writes every shipped fixture file byte for byte."""
    _write_fixture_files(tmp_path)
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == sorted(path.name for path in FIXTURES.iterdir()) and len(names) == 18
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


# -- schema errors -----------------------------------------------------------------


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "bad.pentaform"
    path.write_text('{"quintuples": [[1,2,3]]}')
    with pytest.raises(fileio.FileFormatError, match=r"quintuples\[0\]"):
        fileio.load_quintuples(path)
    path.write_text("not json {")
    with pytest.raises(fileio.FileFormatError, match="line 1"):
        fileio.load_quintuples(path)


def test_game_file_requires_keys(tmp_path):
    path = tmp_path / "bad.game"
    path.write_text('{"quintuples": []}')
    with pytest.raises(fileio.FileFormatError, match="stakeholders"):
        fileio.load_game(path)


def test_bad_number_reports_field(tmp_path):
    path = tmp_path / "bad.values"
    path.write_text('{"5": {"Ent": "one"}}')
    with pytest.raises(fileio.FileFormatError, match="Ent"):
        fileio.load_values(path)


def test_system_file_unknown_model(tmp_path):
    path = tmp_path / "bad.system"
    path.write_text('{"classes": {}, "initial": "c", "model": {"kind": "avg"}, "stakeholders": []}')
    with pytest.raises(fileio.FileFormatError, match="unknown model"):
        fileio.load_system(path)
