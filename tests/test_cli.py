"""Command-line surface: exit codes, determinism, DOT export."""

from __future__ import annotations

import gc
import json
import re
import time
from pathlib import Path

import pytest

from pentaform import Quintuple, cli, validate
from pentaform.cli import main
from pentaform.fileio import save_game, save_pentaform

from conftest import chain_game

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_passes_entry(capsys):
    code, out, _ = run(capsys, "validate", FIXTURES / "entry.pentaform")
    assert code == 0
    assert out.count("pass") == 8
    assert "root: '5'" in out


def test_validate_empty_file_fails_single_root(capsys, tmp_path):
    path = tmp_path / "empty.pentaform"
    path.write_text('{"quintuples": []}')
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "[Pr] FAIL" in out


def test_validate_depth2_truncation(capsys):
    code, out, _ = run(capsys, "validate", FIXTURES / "crywolf_depth2.pentaform")
    assert code == 0
    assert "root: ''" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.pentaform")
    assert code == 2
    assert "error" in err


def test_inspect_subroots_and_pieces(capsys):
    code, out, _ = run(capsys, "inspect", FIXTURES / "crywolf_depth1.pentaform",
                       "--subroots", "--pieces")
    assert code == 0
    assert "subroots (4): '', '6', '7', '8'" in out
    assert out.count("8 quintuples") == 4
    assert "covers 32/32" in out


def test_inspect_dot_export(capsys, tmp_path):
    dot = tmp_path / "entry.dot"
    code, out, _ = run(capsys, "inspect", FIXTURES / "entry.pentaform", "--dot", dot)
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert text.count("{") == text.count("}")
    assert '"5" -> "6"' in text
    assert "peripheries=2" in text  # subroots marked


def test_inspect_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    """Node ids, edge ends and edge labels that hold a double quote or a
    backslash are written as escaped DOT strings, which read back as the
    labels; nothing outside the quoted strings holds either character."""
    path, dot = tmp_path / "quoted.pentaform", tmp_path / "quoted.dot"
    save_pentaform(path, validate([Quintuple('P"1', "j", 'x"y', "a", "y\\"),
                                   Quintuple('P"1', "j", 'x"y', 'b\\"', "z")]))
    code, _, _ = run(capsys, "inspect", path, "--dot", dot)
    assert code == 0
    lines = dot.read_text().splitlines()
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    assert not [line for line in lines if re.search(r'["\\]', quoted.sub("", line))]
    strings = {re.sub(r"\\(.)", r"\1", s) for line in lines for s in quoted.findall(line)}
    assert {'x"y', "y\\", "z", 'a (P"1)', 'b\\" (P"1)'} <= strings
    assert '  "x\\"y" -> "y\\\\" [label="a (P\\"1)"];' in lines


def test_check_spe_holds(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "entry.game",
                       FIXTURES / "entry_spe.strategy", "--property", "spe")
    assert code == 0 and "verdict: holds" in out


def test_check_spe_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "entry.game",
                       FIXTURES / "entry_enter.strategy", "--property", "spe")
    assert code == 1
    assert "verdict: fails" in out and "player: Ent" in out


def test_check_authentic_fails_showing_true_value(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "ann_trunc.game",
                       FIXTURES / "ann_trunc_in.strategy", "--property", "authentic",
                       "--values", FIXTURES / "ann_trunc_half.values")
    assert code == 1
    assert "true_value: {Ann: 0}" in out


def test_check_piecewise_nash_bob_truncation(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "bob_trunc.game",
                       FIXTURES / "bob_trunc_out.strategy", "--property", "piecewise-nash",
                       "--values", FIXTURES / "bob_trunc_minus1.values")
    assert code == 0 and "verdict: holds" in out


def test_check_value_property_requires_values(capsys):
    code, _, err = run(capsys, "check", FIXTURES / "entry.game",
                       FIXTURES / "entry_spe.strategy", "--property", "persistent")
    assert code == 2 and "--values" in err


def test_check_authentic_value_flag(capsys):
    code, out, _ = run(capsys, "check", FIXTURES / "entry.game",
                       FIXTURES / "entry_spe.strategy", "--property", "persistent",
                       "--authentic-value")
    assert code == 0


def test_solve_entry(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "entry.game")
    assert code == 0
    assert "jE: e~" in out and "jI: f" in out
    assert "6: {Ent: -1, Inc: 3}" in out


def test_stationary_certify(capsys):
    code, out, _ = run(capsys, "stationary", FIXTURES / "crywolf.system",
                       "certify", FIXTURES / "crywolf_calm.strategy")
    assert code == 0
    assert "certificate: spe-certified" in out
    assert "5/9" in out


def test_stationary_convergence_exit_codes(capsys):
    code, out, _ = run(capsys, "stationary", FIXTURES / "ann.system", "convergence")
    assert code == 1
    assert "upper: FAILS" in out and "lower: HOLDS" in out
    code, out, _ = run(capsys, "stationary", FIXTURES / "crywolf.system", "convergence")
    assert code == 0


def test_stationary_convergence_holds_at_a_beta_of_69_digits(capsys, tmp_path):
    # β = 1/10^68: β^64 times the bound has more than 4,300 digits, which no
    # integer conversion to text takes; the certificate says so instead.
    data = json.loads((FIXTURES / "crywolf.system").read_text())
    data["model"]["beta"] = "1/1" + "0" * 68
    path = tmp_path / "crywolf.system"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "stationary", path, "convergence")
    assert (code, err) == (0, "")
    assert "upper: HOLDS" in out and "lower: HOLDS" in out
    assert "(at d = 64 the bound is a number with more than 4300 digits)" in out


def test_solve_states_a_repetend_too_long_to_print(capsys, tmp_path):
    # The repetend of 1/1000000007 runs to 10^9 digits; the report gives
    # the fraction alone instead of expanding it.
    data = json.loads((FIXTURES / "entry.game").read_text())
    data["utilities"] = {y: dict.fromkeys(u, "1/1000000007") for y, u in data["utilities"].items()}
    path = tmp_path / "long.game"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", path)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == (f"solve {path}\nstrategy:\n  jE: e\n  jI: f\nvalues:\n"
                   "  5: {Ent: 1/1000000007, Inc: 1/1000000007}\n"
                   "  6: {Ent: 1/1000000007, Inc: 1/1000000007}\n")


def test_certify_states_values_too_long_to_print(capsys, tmp_path):
    # At β = (10^2200 - 1)/10^2200 the values of a three-class ring have
    # denominators of more than 4,300 digits, which no integer conversion
    # to text takes; the table says so instead.
    template = [["p", "", "", "in", "i"], ["p", "", "", "out", "x"]]
    classes = {f"c{m}": {"exits": {"i": {"class": f"c{(m + 1) % 3}", "reward": {"p": str(m + 1)}},
                                   "x": {"terminal": {"p": "0"}}}, "template": template}
               for m in range(3)}
    beta = "9" * 2200 + "/1" + "0" * 2200
    system, strategy = tmp_path / "ring.system", tmp_path / "in.strategy"
    system.write_text(json.dumps({"classes": classes, "initial": "c0", "stakeholders": ["p"],
                                  "model": {"kind": "discounted", "beta": beta}}))
    strategy.write_text(json.dumps({"classes": {c: {"": "in"} for c in classes}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "stationary", system, "certify", strategy)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == (f"stationary {system} certify {strategy}\ncertificate: spe-certified\n"
                   "upper-convergence: HOLDS\nlower-convergence: HOLDS\ncontinuation values:\n"
                   + "".join(f"  c{m}: {{p: a number with more than 4300 digits}}\n" for m in range(3))
                   + "route: authentic values + piecewise-Nash under lower-convergence; "
                   "upper-convergence holds as well\n")


def test_stationary_solve(capsys):
    code, out, _ = run(capsys, "stationary", FIXTURES / "crywolf.system", "solve")
    assert code == 0
    assert "day:2+3: r~" in out
    assert "Kid: 2/9" in out


def test_stationary_instantiate(capsys, tmp_path):
    out_file = tmp_path / "depth1.pentaform"
    code, out, _ = run(capsys, "stationary", FIXTURES / "crywolf.system",
                       "instantiate", 1, "--out", out_file)
    assert code == 0
    assert "quintuples: 32" in out
    assert out_file.read_text() == (FIXTURES / "crywolf_depth1.pentaform").read_text()


def test_resource_cap_exit_code(capsys, tmp_path):
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from test_game import caterpillar_game
    from pentaform import fileio

    path = tmp_path / "big.game"
    fileio.save_game(path, caterpillar_game())
    code, _, err = run(capsys, "solve", path)
    assert code == 3
    assert "resource cap" in err


def test_resource_cap_env_override(capsys, monkeypatch):
    # PENTAFORM_PROFILE_CAP shrinks the exhaustive-search budget.
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", "1")
    code, _, err = run(capsys, "solve", FIXTURES / "entry.game")
    assert code == 3 and "resource cap" in err
    monkeypatch.delenv("PENTAFORM_PROFILE_CAP")
    code, _, _ = run(capsys, "solve", FIXTURES / "entry.game")
    assert code == 0


def test_solve_cap_exit_code(capsys, monkeypatch):
    # entry.game's deepest piece, at 6, has 2 profiles: the search meets the
    # cap before any stdout, so not even the header is printed.
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", "1")
    code, out, err = run(capsys, "solve", FIXTURES / "entry.game")
    assert code == cli.EXIT_RESOURCE == 3
    assert out == ""
    assert err == "resource cap exceeded: piece at '6' has 2 strategy profiles, more than the cap of 1\n"


def test_stationary_solve_cap_exit_code(capsys, monkeypatch, tmp_path):
    # gen5's classes share a template of 6 profiles; the first class to be
    # scanned, c0, meets the cap before any stdout, so not even the header is
    # printed, and the error names that class.
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from test_cli_golden import QUOTIENT_SYSTEMS

    path = tmp_path / "gen5.system"
    path.write_text(json.dumps(QUOTIENT_SYSTEMS["gen5"]), encoding="utf-8")
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", "5")
    code, out, err = run(capsys, "stationary", path, "solve")
    assert code == cli.EXIT_RESOURCE == 3
    assert out == ""
    assert err == "resource cap exceeded: class 'c0' has 6 strategy profiles, more than the cap of 5\n"


_CAP_ERRORS = {"9" * 5000: "PENTAFORM_PROFILE_CAP '99999999999999999999'… (5000 characters) "
                           "has more than 4300 digits"}


@pytest.mark.parametrize("raw", ["abc", "0", "-5", pytest.param("\u0663", id="arabic-indic-3"),
                                 pytest.param("9" * 5000, id="5000-digits")])
def test_bad_profile_cap_is_input_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", raw)
    code, out, err = run(capsys, "solve", FIXTURES / "entry.game")
    assert code == 2
    message = _CAP_ERRORS.get(raw, f"PENTAFORM_PROFILE_CAP must be a positive integer, not {raw!r}")
    assert err == f"error: {message}\n"


def test_instantiation_cap_exit_code(capsys):
    code, out, err = run(capsys, "stationary", FIXTURES / "crywolf.system", "instantiate", 30)
    assert code == 3 and out == ""
    assert err == ("resource cap exceeded: instantiation to depth 30 needs at least 2125760 "
                   "quintuples, more than the cap of 1000000\n")


def _ann_system():
    return json.loads((FIXTURES / "ann.system").read_text())


def _set(path, value):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set(["initial"], ["c"]), '"initial" must be a class id string'),
    (_set(["classes", "c", "exits", "i", "class"], ["c"]), 'classes.c.exits.i: "class" must be a class id string'),
    (_set(["stakeholders"], 5), '"stakeholders" must be a list of strings'),
    (_set(["model", "cycles", 0, "classes"], 5), 'model.cycles[0]: "classes" must be a list of class ids'),
    (_set(["model", "cycles", 0, "classes"], [["c"]]), 'model.cycles[0]: "classes" must be a list of class ids'),
    (_set(["model"], {"kind": "discounted", "beta": 0.5}), 'discounted model needs "beta" written as a string'),
    (_set(["classes", "c", "template"], [["Ann", "", ""]]), "classes.c.template[0]: expected a 5-element list"),
    (_set(["classes", "c", "template"], [["Ann", "", "", "in", ""]]), "classes.c.template: [Py]"),
], ids=["initial-list", "exit-class-list", "stakeholders-int", "cycle-classes-int",
        "cycle-classes-nested", "beta-float", "template-short", "template-cycle"])
def test_malformed_system_is_input_error(capsys, tmp_path, edit, message):
    data = _ann_system()
    edit(data)
    path = tmp_path / "bad.system"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "stationary", path, "convergence")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert message in err
    assert err.count("template") <= 1


def test_system_declaring_a_cycle_twice_is_input_error(capsys, tmp_path):
    # the file's second entry repeats the first's classes with another
    # utility; a load that kept one of them would answer by list order
    data = json.loads((FIXTURES / "eda.system").read_text())
    data["model"]["cycles"] = [{"classes": ["even", "odd"], "utility": {"Eda": u}} for u in ("0", "5")]
    path = tmp_path / "twice.system"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "stationary", path, "convergence")
    assert code == 2 and out == ""
    assert err == f"error: {path}: model.cycles[1]: cycle ['even', 'odd'] is declared twice\n"


def test_unknown_property_lists_the_choices_in_order(capsys):
    # argparse writes this text, and its line breaks and quoting differ
    # across Python versions: check only what pentaform decides
    with pytest.raises(SystemExit) as caught:
        main(["check", str(FIXTURES / "entry.game"), str(FIXTURES / "entry_spe.strategy"), "--property", "bogus"])
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.split("\npentaform check: error: argument --property: invalid choice: ")
    assert usage.startswith("usage: pentaform check ")
    assert "{" + ",".join(cli._PROPERTIES) + "}" in usage.split()
    named, choices = re.fullmatch(r"(\S+) \(choose from (.*)\)\n", error).groups()
    assert named == "'bogus'" and choices.replace("'", "").split(", ") == list(cli._PROPERTIES)


def test_readme_lists_the_check_properties_in_order():
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Properties for `check`: (.*?)\.", readme, re.DOTALL).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(cli._PROPERTIES)


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "inspect", FIXTURES / "crywolf_depth2.pentaform", "--pieces")
    _, second, _ = run(capsys, "inspect", FIXTURES / "crywolf_depth2.pentaform", "--pieces")
    assert first == second


@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"), MemoryError()])
def test_interpreter_limits_exit_without_traceback(capsys, monkeypatch, error):
    def exhausted(args):
        raise error

    monkeypatch.setattr(cli, "cmd_solve", exhausted)
    code, out, err = run(capsys, "solve", FIXTURES / "entry.game")
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit exceeded: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.fixture
def collector():
    """Sets the collector on or off for a test and gives back the setting it found."""
    found = gc.isenabled()

    def turn(on: bool) -> None:
        gc.enable() if on else gc.disable()

    yield turn
    turn(found)


@pytest.mark.parametrize("on", [True, False])
def test_main_gives_back_the_callers_collector_setting(capsys, monkeypatch, tmp_path, collector, on):
    empty = tmp_path / "empty.pentaform"
    empty.write_text('{"quintuples": []}')
    for argv, code in [(["validate", FIXTURES / "entry.pentaform"], 0), (["validate", empty], 1),
                       (["validate", "no/such/file.pentaform"], 2),
                       (["stationary", FIXTURES / "crywolf.system", "instantiate", 30], 3)]:
        collector(on)
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is on

    def escapes(args):
        raise KeyError("a fault of the program")

    monkeypatch.setattr(cli, "cmd_solve", escapes)
    collector(on)
    with pytest.raises(KeyError):
        main(["solve", str(FIXTURES / "entry.game")])
    assert gc.isenabled() is on


def test_solve_starts_no_collection(capsys, tmp_path, collector):
    path = tmp_path / "chain.game"
    save_game(path, chain_game(1000))
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    collector(True)
    gc.collect()  # no allocation count left over to start a collection before the command
    gc.callbacks.append(note)
    try:
        code = main(["solve", str(path)])
    finally:
        gc.callbacks.remove(note)
    assert code == 0
    assert started == []


def _garbage(capsys, *argv) -> int:
    """The unreachable objects in cycles that one command leaves, run from a
    collected heap with the collector off, as main runs every command."""
    gc.collect()
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return gc.collect()


def test_garbage_a_command_leaves_does_not_grow_with_its_input(capsys, tmp_path, collector):
    collector(False)
    small, large = tmp_path / "n125.game", tmp_path / "n1000.game"
    save_game(small, chain_game(125))
    save_game(large, chain_game(1000))
    _garbage(capsys, "solve", small)  # first use of each code path
    assert _garbage(capsys, "solve", large) <= _garbage(capsys, "solve", small)

    def instantiate(depth):
        return ["stationary", FIXTURES / "crywolf.system", "instantiate", depth, "--out", tmp_path / f"d{depth}"]

    _garbage(capsys, *instantiate(2))
    assert _garbage(capsys, *instantiate(5)) <= _garbage(capsys, *instantiate(2))
