"""Command-line surface: exit codes, determinism, DOT export."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pentaform import cli
from pentaform.cli import main

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
