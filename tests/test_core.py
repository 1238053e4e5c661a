"""Quintuple sets, the eight axioms, and the derived tree structure."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from pentaform import (
    InvalidPentaform,
    Quintuple,
    check_axioms,
    project,
    situation_slice,
    validate,
)
from pentaform.core import (
    AXIOM_ACTION_OF_SUCCESSOR,
    AXIOM_ACTION_RECTANGLE,
    AXIOM_NO_CYCLES,
    AXIOM_PLAYER_OF_SITUATION,
    AXIOM_PREDECESSOR_FUNCTION,
    AXIOM_SINGLE_ROOT,
    AXIOM_SITUATION_OF_NODE,
    AXIOM_SUCCESSOR_FUNCTION,
    Pentaform,
)
from pentaform.fixtures import cry_wolf, entry_game
from pentaform.game import solve_backward
from pentaform.partition import subroots
from pentaform.stationary import instantiate, solve_stationary

from conftest import assert_same_structure, brute_force_runs, enumerate_paths_from_root, reference_diagnosed

F1 = entry_game().form
F3_1 = instantiate(cry_wolf(), 1)
F3_2 = instantiate(cry_wolf(), 2)


def test_quintuple_is_the_tuple_of_its_five_fields():
    q = Quintuple("Ent", "jE", "5", "e", "6")
    fields = ("Ent", "jE", "5", "e", "6")
    assert q == fields and hash(q) == hash(fields) and tuple(q) == fields
    assert repr(q) == "Quintuple(player='Ent', situation='jE', decision_node='5', action='e', successor='6')"
    assert q < Quintuple("Ent", "jE", "5", "e~", "7") and q.key() == ("jE", "5", "e", "Ent", "6")
    with pytest.raises(AttributeError):
        q.player = "Inc"


def test_pentaform_repr_names_its_root_and_size():
    assert repr(F1) == "Pentaform(root='5', quintuples=4)"


def test_local_lookups_reject_unknown_labels():
    with pytest.raises(ValueError, match="^'7' is not a decision node$"):
        F1.situation_of("7")
    with pytest.raises(ValueError, match="^unknown situation 'jX'$"):
        F1.player_of("jX")
    with pytest.raises(ValueError, match="^unknown situation 'jX'$"):
        F1.action_set("jX")


def test_children_lists_a_nodes_moves_and_rejects_a_non_node():
    assert F1.children("5") == (("e", "6"), ("e~", "7"))
    assert F1.children("7") == ()  # an endnode has no moves
    with pytest.raises(ValueError, match="^unknown node 'zzz'$"):
        F1.children("zzz")
    with pytest.raises(ValueError, match="^unknown node 'zzz'$"):
        F1.depth("zzz")


# -- projections and slices ------------------------------------------------------


def test_project_decision_nodes():
    assert project(F1.quintuples, "W") == {"5", "6"}


def test_project_empty_set():
    assert project(frozenset(), "JI") == set()


def test_project_players_of_cry_wolf():
    assert project(F3_1.quintuples, "I") == {"Wolf", "Kid", "Town"}


def test_project_reorders_coordinates():
    pairs = project(F1.quintuples, "YW")
    assert ("6", "5") in pairs and ("8", "6") in pairs


def test_project_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        project(F1.quintuples, "Z")
    with pytest.raises(ValueError):
        project(F1.quintuples, "WW")
    with pytest.raises(ValueError):
        project(F1.quintuples, "")


def test_slice_of_town_situation_has_four_quintuples():
    sliced = situation_slice(F3_1.quintuples, "2+3")
    assert len(sliced) == 4
    assert project(sliced, "W") == {"2", "3"}
    assert project(sliced, "A") == {"r", "r~"}


def test_slice_of_entrant_situation():
    sliced = situation_slice(F1.quintuples, "jE")
    assert len(sliced) == 2
    assert project(sliced, "A") == {"e", "e~"}


def test_slice_unknown_situation_is_empty():
    assert situation_slice(F1.quintuples, "nope") == frozenset()


def test_slices_partition_the_quintuple_set():
    for form in (F1, F3_2):
        seen = set()
        for j in form.situations:
            part = situation_slice(form.quintuples, j)
            assert part
            assert seen.isdisjoint(part)
            seen |= part
        assert seen == set(form.quintuples)


# -- validation --------------------------------------------------------------------


def test_validate_entry_game():
    assert F1.root == "5"
    assert F1.endnodes == {"7", "8", "9"}


def test_validate_cry_wolf_truncations_root_is_empty_string():
    assert F3_1.root == ""
    assert F3_2.root == ""


def test_node_in_two_situations_violates_situation_axiom():
    bad = set(F1.quintuples) | {Quintuple("Ent", "jE2", "6", "g", "10")}
    axioms = {v.axiom for v in check_axioms(bad)}
    assert AXIOM_SITUATION_OF_NODE in axioms


def test_empty_set_violates_single_root():
    violations = check_axioms(frozenset())
    assert [v.axiom for v in violations] == [AXIOM_SINGLE_ROOT]
    with pytest.raises(InvalidPentaform):
        validate(frozenset())


def test_situation_with_two_players():
    bad = [Quintuple("a", "j", "r", "x", "1"), Quintuple("b", "j", "r", "y", "2")]
    assert AXIOM_PLAYER_OF_SITUATION in {v.axiom for v in check_axioms(bad)}


def test_action_rectangle_violation():
    bad = [
        Quintuple("p", "j", "r", "x", "1"),
        Quintuple("p", "j", "r", "y", "2"),
        Quintuple("p", "j", "1", "x", "3"),  # node 1 lacks action y
    ]
    assert AXIOM_ACTION_RECTANGLE in {v.axiom for v in check_axioms(bad)}


def test_pair_with_two_successors():
    bad = [Quintuple("p", "j", "r", "x", "1"), Quintuple("p", "j", "r", "x", "2")]
    axioms = {v.axiom for v in check_axioms(bad)}
    assert AXIOM_SUCCESSOR_FUNCTION in axioms
    assert AXIOM_ACTION_RECTANGLE not in axioms  # pairs still rectangular


def test_successor_with_two_predecessors():
    bad = [
        Quintuple("p", "j1", "r", "x", "1"),
        Quintuple("p", "j1", "r", "y", "2"),
        Quintuple("p", "j2", "1", "x", "3"),
        Quintuple("p", "j3", "2", "x", "3"),
    ]
    assert AXIOM_PREDECESSOR_FUNCTION in {v.axiom for v in check_axioms(bad)}


def test_successor_with_two_actions():
    bad = [
        Quintuple("p", "j1", "r", "x", "1"),
        Quintuple("p", "j1", "r", "y", "2"),
        Quintuple("p", "j2", "2", "z", "1"),
    ]
    axioms = {v.axiom for v in check_axioms(bad)}
    assert AXIOM_ACTION_OF_SUCCESSOR in axioms
    assert AXIOM_PREDECESSOR_FUNCTION in axioms


def test_cycle_violates_predecessor_walk():
    bad = [
        Quintuple("p", "j1", "a", "x", "b"),
        Quintuple("p", "j2", "b", "x", "a"),
    ]
    axioms = {v.axiom for v in check_axioms(bad)}
    assert AXIOM_NO_CYCLES in axioms
    assert AXIOM_SINGLE_ROOT in axioms  # no node escapes the successor set


def test_violation_report_collects_every_axiom():
    bad = set(F1.quintuples) | {Quintuple("Joe", "jE", "6", "g", "6")}
    report = check_axioms(bad)
    assert len({v.axiom for v in report}) == len(report)
    assert all(v.witness for v in report)


def test_situation_label_need_not_equal_its_information_set():
    # Situations are opaque; nothing forces the node-list labelling convention.
    form = validate([
        Quintuple("p", "weird", "r", "x", "1"),
        Quintuple("p", "weird", "r", "y", "2"),
    ])
    assert form.information_set("weird") == {"r"}


# -- derived structure ---------------------------------------------------------------


def test_root_examples():
    assert F1.root == "5"
    from pentaform import subform

    assert subform(F3_2, "7").root == "7"


def test_predecessor_examples():
    assert F3_1.predecessor("67") == "63"
    assert F1.predecessor("6") == "5"
    with pytest.raises(ValueError):
        F1.predecessor("5")  # the root is not a successor


def test_precedes_examples():
    assert F3_1.precedes("3", "62")
    assert all(F1.precedes(x, x) for x in F1.nodes)
    assert not F1.precedes("7", "8")
    assert not F1.precedes("5", "5", strict=True)
    with pytest.raises(ValueError):
        F1.precedes("nope", "5")


def test_weak_predecessors_examples():
    assert F3_2.weak_predecessors("64") == ("", "1", "3", "6", "62", "64")
    assert F1.weak_predecessors("5") == ("5",)
    assert F1.weak_predecessors("9") == ("5", "6", "9")


def test_run_closure_examples():
    assert F3_2.run_closure({"64"}) == ("", "1", "3", "6", "62", "64")
    assert F1.run_closure({"6"}) is None  # maximum is a decision node
    assert F1.run_closure({"5", "8"}) == ("5", "6", "8")
    assert F1.run_closure({"7", "8"}) is None  # not a chain
    with pytest.raises(ValueError):
        F1.run_closure(set())
    with pytest.raises(ValueError):
        F1.run_closure({"5", "zzz"})  # outside the node set
    with pytest.raises(ValueError):
        F1.weak_predecessors("zzz")


def test_runs_counts():
    assert len(F1.runs()) == 3
    # 33 nodes and 16 decision nodes leave 17 endnodes at depth 1.
    assert len(F3_1.runs()) == 17
    single = validate([Quintuple("p", "j", "r", "x", "1")])
    assert single.runs() == (("r", "1"),)


def test_runs_match_brute_force_enumeration():
    for form in (F1, F3_1, F3_2):
        assert set(form.runs()) == brute_force_runs(form)


def test_information_and_action_sets():
    assert F3_1.information_set("2+3") == {"2", "3"}
    assert F3_1.action_set("2+3") == {"r", "r~"}
    assert F1.information_set("jI") == {"6"}
    with pytest.raises(ValueError):
        F1.information_set("zzz")


# -- invariants on the random corpus ----------------------------------------------------


def test_corpus_invariants(small_corpus):
    for g in small_corpus:
        form = g.form
        # information sets partition the decision nodes
        seen = set()
        for j in form.situations:
            info = form.information_set(j)
            assert info and seen.isdisjoint(info)
            seen |= info
        assert seen == form.decision_nodes
        # the rectangle axiom, restated as a Cartesian-product check
        for j in form.situations:
            pairs = project(situation_slice(form.quintuples, j), "WA")
            assert pairs == {(w, a) for w in form.information_set(j)
                             for a in form.action_set(j)}
        # (w, a) -> y is a bijection onto the successors
        pairs = project(form.quintuples, "WAY")
        assert len(pairs) == len(form.successors)
        assert {y for _, _, y in pairs} == form.successors
        # weak predecessors are finite chains from the root
        for x in form.nodes:
            chain = form.weak_predecessors(x)
            assert chain[0] == form.root and chain[-1] == x
            assert all(form.precedes(chain[m], chain[m + 1], strict=True)
                       for m in range(len(chain) - 1))
        # runs are nonempty and at least two nodes long
        runs = form.runs()
        assert runs and all(len(z) >= 2 for z in runs)
        assert set(runs) == brute_force_runs(form)


def test_run_closure_agrees_with_path_enumeration(small_corpus):
    rng = random.Random(7)
    for g in small_corpus[:60]:
        form = g.form
        paths = enumerate_paths_from_root(form)
        run_sets = {frozenset(z) for z in brute_force_runs(form)}
        nodes = sorted(form.nodes)
        for _ in range(12):
            sample = frozenset(rng.sample(nodes, rng.randint(1, min(4, len(nodes)))))
            closure = frozenset().union(*(paths[x] for x in sample))
            got = form.run_closure(sample)
            if closure in run_sets:
                assert got is not None and frozenset(got) == closure
            else:
                assert got is None


# -- the one constructor ---------------------------------------------------------


def _assert_constructor_raises(qs, axioms) -> None:
    """`Pentaform(qs)` raises with exactly the violations that
    `check_axioms` and the reference diagnosis find, of the given axioms."""
    with pytest.raises(InvalidPentaform) as raised:
        Pentaform(qs)
    assert raised.value.violations == tuple(check_axioms(qs)) == tuple(reference_diagnosed(qs))
    assert {v.axiom for v in raised.value.violations} == set(axioms)


def test_constructor_rejects_a_move_with_two_successors():
    qs = [Quintuple("i", "j", "r", "x", "a"), Quintuple("i", "j", "r", "x", "b")]
    _assert_constructor_raises(qs, [AXIOM_SUCCESSOR_FUNCTION])


def test_constructor_rejects_the_empty_set():
    _assert_constructor_raises([], [AXIOM_SINGLE_ROOT])


def test_constructor_rejects_a_cycle_below_the_root(monkeypatch):
    # r → a → b → a: a walk down from r would go round the cycle forever, so
    # the depth walk must not start on a set that fails the counts
    def walk(self, root):
        raise AssertionError(f"the depth walk from {root!r} ran on a set that fails the counts")

    monkeypatch.setattr(Pentaform, "_depths", walk)
    qs = [Quintuple("i", "j0", "r", "x", "a"), Quintuple("i", "j1", "a", "x", "b"),
          Quintuple("i", "j2", "b", "x", "a")]
    _assert_constructor_raises(qs, [AXIOM_PREDECESSOR_FUNCTION, AXIOM_NO_CYCLES])


# -- pickling and copying --------------------------------------------------------


def _copies(obj) -> list:
    return [pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)]


def test_a_form_pickles_and_copies_as_its_quintuples():
    for form in (Pentaform(F1.quintuples), instantiate(cry_wolf(), 2)):
        assert form.__reduce__() == (Pentaform, (form.quintuples,))
        for copied in _copies(form):
            assert copied == form and copied is not form
            assert_same_structure(copied, form)
        subroots(form)  # fills the form's partition slot
        for copied in _copies(form):
            assert copied == form and subroots(copied) == subroots(form)


def test_a_solved_game_pickles_and_copies():
    g = entry_game()
    solution = solve_backward(g)
    for copied in _copies(g):
        assert copied == g and copied.form is not g.form
        assert solve_backward(copied) == solution


def test_a_stationary_system_pickles_and_copies():
    system = cry_wolf()
    solution = solve_stationary(system)
    for copied in _copies(system):
        assert solve_stationary(copied) == solution
        assert instantiate(copied, 2) == instantiate(system, 2)
