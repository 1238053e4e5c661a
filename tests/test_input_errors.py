"""Documented input errors: each bad input raises ValueError with its cause
named, and a bad file given to the CLI exits 2 with empty stdout and the
file named on stderr."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pentaform import (
    DiscountedAccumulation,
    Exit,
    Game,
    PieceClass,
    Quintuple,
    StationarySystem,
    admissible,
    authentic,
    instantiate,
    nash_check,
    truncated_game,
    validate,
    value_at,
)
from pentaform.cli import main
from pentaform.fileio import save_system
from pentaform.fixtures import cry_wolf, cry_wolf_calm_strategy, entry_game, entry_spe_strategy, entry_values
from pentaform.game import check_value_function
from pentaform.numbers import as_scalar, make_profile
from pentaform.stationary import validate_stationary_strategy

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
G1 = entry_game()
WOLF = cry_wolf()
CALM = cry_wolf_calm_strategy()
DAY_VALUE = {"Wolf": 0, "Kid": 0, "Town": 0}
HALF = DiscountedAccumulation(Fraction(1, 2))


def _one_class_system(quintuples, exits, stakeholders=("p",), model=HALF) -> StationarySystem:
    return StationarySystem({"c": PieceClass(validate(quintuples), exits)}, "c", model, stakeholders)


def _chain_quintuples(root: str = "") -> list[Quintuple]:
    return [Quintuple("p", "j", root, "in", "i"), Quintuple("p", "j", root, "out", "x")]


def _chain_exits(next_class: str = "c") -> dict:
    return {"i": Exit({"p": 0}, next_class), "x": Exit({"p": 1})}


def _colliding_system() -> StationarySystem:
    """A class whose continue exit "x" prefixes its own labels: the piece at
    "x" relabels situation k, node m and endnode e to xk, xm and xe, which
    the root piece already uses for the same move."""
    qs = [Quintuple("p", "r", "", a, a) for a in ("x", "m", "n", "xm", "xn")]
    exits = {"x": Exit({"p": 0}, "c")}
    for prefix in ("", "x"):
        for node, ends in (("m", "ef"), ("n", "gh")):
            for action, end in zip("ab", ends):
                qs.append(Quintuple("p", prefix + "k", prefix + node, action, prefix + end))
                exits[prefix + end] = Exit({"p": 0})
    return _one_class_system(qs, exits)


def _situation_clash_system() -> StationarySystem:
    """Two pieces that make no common node but the same situation: class c's
    situation "xr" is where the piece of class d at exit "x" relabels its
    situation "r", which would merge the two information sets."""
    c = validate([Quintuple("P", "xr", "", "a", "x"), Quintuple("P", "xr", "", "b", "m"),
                  Quintuple("P", "xr", "m", "a", "y"), Quintuple("P", "xr", "m", "b", "z")])
    d = validate([Quintuple("P", "r", "", "a", "u"), Quintuple("P", "r", "", "b", "v")])
    return StationarySystem({
        "c": PieceClass(c, {"x": Exit({"P": 0}, "d"), "y": Exit({"P": 1}), "z": Exit({"P": 2})}),
        "d": PieceClass(d, {"u": Exit({"P": 0}), "v": Exit({"P": 1})}),
    }, "c", HALF, ["P"])


def _node_clash_system(c_quintuples, d_quintuples) -> StationarySystem:
    """Class c, whose exit "x" continues into class d, and d: two templates
    whose pieces make a common node under the relabelling of exit "x"."""
    c, d = validate(c_quintuples), validate(d_quintuples)
    return StationarySystem({
        "c": PieceClass(c, {y: Exit({"P": 0}, "d") if y == "x" else Exit({"P": 1}) for y in c.endnodes}),
        "d": PieceClass(d, {y: Exit({"P": 1}) for y in d.endnodes}),
    }, "c", HALF, ["P"])


def _decision_node_clash_system() -> StationarySystem:
    """Class c's decision node "xq" is where the piece of class d at exit "x"
    relabels its decision node "q", with other actions and situations."""
    return _node_clash_system(
        [Quintuple("P", "s", "", "u", "x"), Quintuple("P", "s", "", "v", "xq"),
         Quintuple("P", "s", "xq", "u", "xqu"), Quintuple("P", "s", "xq", "v", "xqv")],
        [Quintuple("P", "t", "", "h", "q"), Quintuple("P", "t", "", "i", "z"),
         Quintuple("P", "t", "q", "h", "qh"), Quintuple("P", "t", "q", "i", "qi")])


def _endnode_clash_system() -> StationarySystem:
    """Class c's endnode "xb" is where the piece of class d at exit "x"
    relabels its endnode "b"."""
    return _node_clash_system(
        [Quintuple("P", "s", "", "u", "x"), Quintuple("P", "s", "", "v", "a"),
         Quintuple("P", "s", "a", "u", "xb"), Quintuple("P", "s", "a", "v", "ac")],
        [Quintuple("P", "t", "", "g", "b"), Quintuple("P", "t", "", "h", "e")])


LIBRARY_ERRORS = {
    "profile-domain": (lambda: make_profile({"Ent": 0}, ["Ent", "Inc"]),
                       r"profile domain mismatch: missing \['Inc'\]"),
    "scalar-bool": (lambda: as_scalar(True), "booleans are not utility values"),
    "scalar-float": (lambda: as_scalar(0.5), "finite values must be exact"),
    "scalar-other": (lambda: as_scalar(None), "cannot interpret None"),
    "strategy-missing-class": (lambda: validate_stationary_strategy(WOLF, {}),
                               r"stationary strategy missing classes \['day'\]"),
    "strategy-unknown-class": (lambda: validate_stationary_strategy(WOLF, {**CALM, "night": {}}),
                               r"stationary strategy names unknown classes \['night'\]"),
    "values-missing-class": (lambda: authentic(WOLF, CALM, {}),
                             r"class values missing \['day'\]"),
    "values-unknown-class": (lambda: admissible(WOLF, {"day": DAY_VALUE, "night": DAY_VALUE}),
                             r"class values given for unknown classes \['night'\]"),
    "value-function-missing": (lambda: check_value_function(G1, {"5": entry_values()["5"]}),
                               r"value function missing subroots \['6'\]"),
    "value-function-extra": (lambda: check_value_function(G1, {**entry_values(), "7": {"Ent": 0, "Inc": 0}}),
                             r"value function defined at non-subroots \['7'\]"),
    "game-missing-endnode": (lambda: Game(G1.form, G1.stakeholders, {y: G1.utilities[y] for y in ("8", "9")}),
                             r"^utilities missing for endnodes \['7'\]$"),
    "game-non-endnode": (lambda: Game(G1.form, G1.stakeholders, {**G1.utilities, "6": {"Ent": 0, "Inc": 0}}),
                         r"utilities given for non-endnodes \['6'\]"),
    "strategy-unknown-situation": (lambda: nash_check(G1, {**entry_spe_strategy(), "jX": "e"}),
                                   r"unknown situations \['jX'\]"),
    "system-no-classes": (lambda: StationarySystem({}, "c", HALF, ["p"]),
                          "a stationary system needs at least one class"),
    "system-template-root": (lambda: _one_class_system(_chain_quintuples("r"), _chain_exits()),
                             "template root must be the empty label, got 'r'"),
    "system-player-not-stakeholder": (lambda: _one_class_system(_chain_quintuples(), _chain_exits(), ["q"]),
                                      r"players \['p'\] not stakeholders"),
    "system-unknown-next-class": (lambda: _one_class_system(_chain_quintuples(), _chain_exits("d")),
                                  "continues into unknown class 'd'"),
    "system-unknown-model": (lambda: _one_class_system(_chain_quintuples(), _chain_exits(), model=object()),
                             "unknown utility model"),
    "template-labels-collide": (lambda: instantiate(_colliding_system(), 1),
                                "template labels collide when concatenated"),
    "value-at-malformed-label": (lambda: value_at(WOLF, CALM, "69"),
                                 r"^malformed subroot label '69': no continue exit of class 'day' matches '9'$"),
    "continuation-missing-class": (lambda: truncated_game(WOLF, 1, {}), "continuation missing class 'day'"),
    "continuation-bad-profile": (lambda: truncated_game(WOLF, 1, {"day": {"Wolf": 0}}),
                                 r"^continuation for class 'day': profile domain mismatch: "
                                 r"missing \['Kid', 'Town'\], unexpected \[\]$"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_input_error_names_its_cause(case):
    call, message = LIBRARY_ERRORS[case]
    with pytest.raises(ValueError, match=message):
        call()


def _entry_game_data(**utilities) -> dict:
    data = json.loads((FIXTURES / "entry.game").read_text(encoding="utf-8"))
    data["utilities"].update(utilities)
    return data


def _bob_system_data(edit) -> dict:
    data = json.loads((FIXTURES / "bob.system").read_text(encoding="utf-8"))
    edit(data)
    return data


def _root_at_r(data: dict) -> None:
    for q in data["classes"]["c"]["template"]:
        q[2] = "r"  # each quintuple's decision node


CLI_ERRORS = {
    "game-missing-stakeholder": ("solve", "bad.game", _entry_game_data(**{"8": {"Ent": "-1"}}),
                                 r"profile domain mismatch: missing \['Inc'\]"),
    "game-non-endnode": ("solve", "bad.game", _entry_game_data(**{"6": {"Ent": "0", "Inc": "0"}}),
                         r"utilities given for non-endnodes \['6'\]"),
    "system-no-classes": ("stationary", "bad.system", _bob_system_data(lambda d: d.update(classes={})),
                          "needs at least one class"),
    "system-template-root": ("stationary", "bad.system", _bob_system_data(_root_at_r),
                             "template root must be the empty label"),
    "system-player-not-stakeholder": ("stationary", "bad.system",
                                      _bob_system_data(lambda d: d.update(stakeholders=["Ann"])),
                                      r"players \['Bob'\] not stakeholders"),
    "system-unknown-next-class": ("stationary", "bad.system",
                                  _bob_system_data(lambda d: d["classes"]["c"]["exits"]["i"].update({"class": "d"})),
                                  "continues into unknown class 'd'"),
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_input_error_exits_2_naming_the_file(case, tmp_path, capsys):
    command, name, data, message = CLI_ERRORS[case]
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [command, str(path)] + (["convergence"] if command == "stationary" else [])
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {path}: ")
    assert re.search(message, out.err), out.err


def test_template_label_collision_names_the_pieces_and_the_label():
    with pytest.raises(ValueError) as caught:
        instantiate(_colliding_system(), 1)
    assert str(caught.value) == (
        "template labels collide when concatenated: the piece of class 'c' at '' and the piece of "
        "class 'c' at 'x' both make move 'a' at node 'xm'; rename template nodes")


def test_cli_template_label_collision_names_the_file(tmp_path, capsys):
    path = tmp_path / "collide.system"
    save_system(path, _colliding_system())
    assert main(["stationary", str(path), "instantiate", "1"]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {path}: template labels collide when concatenated: the piece of class 'c' at '' and the "
        "piece of class 'c' at 'x' both make move 'a' at node 'xm'; rename template nodes\n"))
    # a depth below 1 is the argument's fault, not the file's
    assert main(["stationary", str(path), "instantiate", "0"]) == 2
    assert capsys.readouterr() == ("", "error: instantiation depth must be at least 1\n")


SITUATION_CLASH = ("template labels collide when concatenated: the piece of class 'c' at '' and the piece of "
                   "class 'd' at 'x' both make situation 'xr'; rename template situations")


def test_template_situation_clash_is_refused():
    with pytest.raises(ValueError) as caught:
        instantiate(_situation_clash_system(), 1)
    assert str(caught.value) == SITUATION_CLASH


def test_cli_template_situation_clash_names_the_file(tmp_path, capsys):
    path = tmp_path / "clash.system"
    save_system(path, _situation_clash_system())
    assert main(["stationary", str(path), "instantiate", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {SITUATION_CLASH}\n")


NODE_CLASHES = {
    "decision-node": (_decision_node_clash_system, "xq"),
    "endnode": (_endnode_clash_system, "xb"),
}


def _node_clash(node: str) -> str:
    return ("template labels collide when concatenated: the piece of class 'c' at '' and the piece of "
            f"class 'd' at 'x' both make node {node!r}; rename template nodes")


@pytest.mark.parametrize("case", sorted(NODE_CLASHES))
def test_template_node_clash_is_refused(case):
    system, node = NODE_CLASHES[case]
    with pytest.raises(ValueError) as caught:
        instantiate(system(), 1)
    assert str(caught.value) == _node_clash(node)


@pytest.mark.parametrize("case", sorted(NODE_CLASHES))
def test_cli_template_node_clash_names_the_file(case, tmp_path, capsys):
    system, node = NODE_CLASHES[case]
    path = tmp_path / "clash.system"
    save_system(path, system())
    assert main(["stationary", str(path), "instantiate", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {_node_clash(node)}\n")


def _write(tmp_path: Path, name: str, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# inputs that load but fail a later check: (argv built from tmp_path, the file
# named on stderr or None, the cause)
CHECKED_INPUTS = {
    "check-strategy-extra-situation": (
        lambda tmp: ["check", str(FIXTURES / "entry.game"),
                     _write(tmp, "extra.strategy", {**entry_spe_strategy(), "jX": "e"}), "--property", "nash"],
        "extra.strategy", r"invalid strategy: unknown situations \['jX'\]"),
    "check-values-of-another-game": (
        lambda tmp: ["check", str(FIXTURES / "entry.game"), str(FIXTURES / "entry_spe.strategy"),
                     "--property", "admissible", "--values", str(FIXTURES / "ann_trunc_half.values")],
        None, r"ann_trunc_half.values: value function missing subroots"),
    "check-persistent-without-values": (
        lambda tmp: ["check", str(FIXTURES / "entry.game"), str(FIXTURES / "entry_spe.strategy"),
                     "--property", "persistent"],
        None, "property 'persistent' needs --values FILE or --authentic-value"),
    "check-nash-with-values": (
        lambda tmp: ["check", str(FIXTURES / "entry.game"), str(FIXTURES / "entry_spe.strategy"),
                     "--property", "nash", "--values", str(tmp / "nonexistent.values")],
        None, "property 'nash' reads no value function, so it takes no --values"),
    "check-spe-with-authentic-value": (
        lambda tmp: ["check", str(FIXTURES / "entry.game"), str(FIXTURES / "entry_spe.strategy"),
                     "--property", "spe", "--authentic-value"],
        None, "property 'spe' reads no value function, so it takes no --authentic-value"),
    "check-values-and-authentic-value": (
        lambda tmp: ["check", str(FIXTURES / "entry.game"), str(FIXTURES / "entry_spe.strategy"),
                     "--property", "admissible", "--values", str(FIXTURES / "entry.values"), "--authentic-value"],
        None, "property 'admissible' takes --values FILE or --authentic-value, not both"),
    "certify-invalid-strategy": (
        lambda tmp: ["stationary", str(FIXTURES / "bob.system"), "certify",
                     _write(tmp, "sideways.strategy", {"classes": {"c": {"": "sideways"}}})],
        "sideways.strategy", "invalid strategy"),
    "solve-not-discounted": (
        lambda tmp: ["stationary", str(FIXTURES / "ann.system"), "solve"],
        None, "solve_stationary requires a discounted-accumulation model"),
}


@pytest.mark.parametrize("case", sorted(CHECKED_INPUTS))
def test_cli_checks_every_input_before_any_stdout(case, tmp_path, capsys):
    """An input that loads but fails a later check exits 2 with empty stdout;
    a file that fails its check is named on stderr."""
    argv, name, message = CHECKED_INPUTS[case]
    assert main(argv(tmp_path)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {tmp_path / name}: " if name else "error: ")
    assert re.search(message, out.err), out.err


def test_system_template_axiom_failure_is_named_exactly(tmp_path, capsys):
    data = _bob_system_data(lambda d: d["classes"]["c"].update(template=[["Bob", "", "", "in", ""]]))
    path = _write(tmp_path, "cycle.system", data)
    assert main(["stationary", path, "convergence"]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {path}: classes.c.template: [Py] predecessor walk from '' never leaves the successor set "
        "(cycle); [Pr] decision nodes that are not successors should be a singleton; found none\n"))


def _assert_unwritable(argv, path, capsys) -> None:
    """Exit 2, empty stdout, and one stderr line naming the output file."""
    assert main([str(a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {path}: ") and out.err.count("\n") == 1, out.err
    assert not path.parent.exists()


def test_inspect_unwritable_dot_file_exits_2_before_any_stdout(tmp_path, capsys):
    path = tmp_path / "missing" / "x.dot"
    _assert_unwritable(["inspect", FIXTURES / "entry.pentaform", "--dot", path], path, capsys)


def test_instantiate_unwritable_out_file_exits_2_before_any_stdout(tmp_path, capsys):
    path = tmp_path / "missing" / "x.pentaform"
    _assert_unwritable(["stationary", FIXTURES / "crywolf.system", "instantiate", 1, "--out", path], path, capsys)


def test_cli_invalid_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.pentaform"
    path.write_bytes(b'{"quintuples": [["\xff", "j", "w", "a", "y"]]}')
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n"
