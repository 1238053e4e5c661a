"""Strategies, restrictions, outcomes, and subroot sequences."""

from __future__ import annotations

import random

import pytest

from pentaform import (
    outcome,
    piece_form,
    piece_outcome,
    player_situations,
    restrict,
    subform,
    subform_outcome,
    subroot_sequence,
    subroots,
    validate_strategy,
)
from pentaform.fixtures import (
    bob_truncation,
    cry_wolf,
    cry_wolf_calm_strategy,
    entry_game,
)
from pentaform.core import Quintuple, validate
from pentaform.stationary import induced_strategy, instantiate
from pentaform.strategy import restrict_to_opponents, restrict_to_player

from conftest import random_strategy

F1 = entry_game().form
WOLF = cry_wolf()
F3_2 = instantiate(WOLF, 2)
F3_3 = instantiate(WOLF, 3)
CALM_2 = induced_strategy(WOLF, cry_wolf_calm_strategy(), 2)
CALM_3 = induced_strategy(WOLF, cry_wolf_calm_strategy(), 3)


def test_validate_strategy_accepts_calm_play():
    s = validate_strategy(F3_2, CALM_2)
    assert s["2+3"] == "r~" and s["61"] == "c"


def test_validate_strategy_reports_missing_situation():
    with pytest.raises(ValueError, match="jI"):
        validate_strategy(F1, {"jE": "e"})


def test_validate_strategy_reports_infeasible_action():
    with pytest.raises(ValueError, match="infeasible"):
        validate_strategy(F1, {"jE": "f", "jI": "f"})


def test_player_situations_examples():
    kid = player_situations(F3_2, "Kid")
    assert {"1", "61", "71", "81"} <= kid
    assert all(j.endswith("1") for j in kid)
    assert player_situations(F1, "Ent") == {"jE"}
    one_player = validate([Quintuple("p", "j", "r", "x", "1"), Quintuple("p", "j", "r", "y", "2")])
    assert player_situations(one_player, "p") == one_player.situations
    with pytest.raises(ValueError):
        player_situations(F1, "nobody")


def test_restriction_identities():
    s = dict(CALM_2)
    s_town = restrict_to_player(F3_2, s, "Town")
    s_rest = restrict_to_opponents(F3_2, s, "Town")
    assert {**s_town, **s_rest} == s
    assert set(s_town).isdisjoint(s_rest)
    assert restrict(s, subform(F3_2, F3_2.root).situations) == s
    piece6 = restrict(s, piece_form(F3_2, "6").situations)
    assert set(piece6) == {"6", "61", "62+63"}


def test_restriction_compositions_commute():
    # Restricting to the subform (or piece) and then to a player equals
    # restricting to that player's subform (or piece) situations directly.
    s = dict(CALM_2)
    for t in ("", "6", "7"):
        for scope in (subform(F3_2, t).situations, piece_form(F3_2, t).situations):
            for i in sorted(F3_2.players):
                via_scope = restrict_to_player(F3_2, restrict(s, scope), i)
                direct = restrict(s, scope & player_situations(F3_2, i))
                assert via_scope == direct


def test_next_node_examples():
    assert F3_2.next_node("63", "r~") == "67"
    assert F1.next_node("5", "e") == "6"
    with pytest.raises(ValueError):
        F1.next_node("7", "e")  # endnode, not a decision node


def test_outcome_examples():
    assert outcome(F3_2, CALM_2)[:7] == ("", "1", "3", "7", "71", "73", "77")
    assert outcome(F1, {"jE": "e~", "jI": "f"}) == ("5", "7")
    single = validate([Quintuple("p", "j", "r", "x", "1")])
    assert outcome(single, {"j": "x"}) == ("r", "1")


def test_outcome_names_the_first_uncovered_situation_on_its_run():
    # jE alone covers the run that stays out (e~); entering (e) meets jI
    assert outcome(F1, {"jE": "e~"}) == ("5", "7")
    with pytest.raises(ValueError, match="strategy does not cover situation 'jI'"):
        outcome(F1, {"jE": "e"})


def naive_outcome(form, s):
    """Re-derives the situation of each node by scanning the raw quintuples."""
    quintuples = list(form.quintuples)
    x = form.root
    run = [x]
    while any(q.decision_node == x for q in quintuples):
        j = next(q.situation for q in quintuples if q.decision_node == x)
        a = s[j]
        x = next(q.successor for q in quintuples
                 if q.decision_node == run[-1] and q.action == a)
        run.append(x)
    return tuple(run)


def test_outcome_matches_naive_recomputation(small_corpus):
    rng = random.Random(3)
    for g in small_corpus[:50]:
        s = random_strategy(g.form, rng)
        assert outcome(g.form, s) == naive_outcome(g.form, s)
    assert outcome(F3_2, CALM_2) == naive_outcome(F3_2, CALM_2)


def test_outcome_is_a_run(small_corpus):
    rng = random.Random(4)
    for g in small_corpus[:50]:
        s = random_strategy(g.form, rng)
        assert outcome(g.form, s) in g.form.runs()


def test_subform_and_piece_outcomes():
    assert piece_outcome(F3_2, "6", restrict(CALM_2, piece_form(F3_2, "6").situations)) \
        == ("6", "61", "63", "67")
    assert subform_outcome(F3_2, F3_2.root, CALM_2) == outcome(F3_2, CALM_2)
    assert outcome(F3_2, CALM_2, "6") == subform_outcome(
        F3_2, "6", restrict(CALM_2, subform(F3_2, "6").situations))
    assert piece_outcome(F1, "5", {"jE": "e"}) == ("5", "6")
    with pytest.raises(ValueError, match="partial"):
        piece_outcome(F3_2, "6", {"6": "a~"})


def test_subroot_sequence_examples():
    assert subroot_sequence(F3_3, CALM_3, "") == ("", "7", "77", "777")
    assert subroot_sequence(F1, {"jE": "e", "jI": "f"}, "6") == ("6",)

    bob = bob_truncation(4)
    s_out = {j: "out" for j in bob.form.situations}
    assert subroot_sequence(bob.form, s_out, bob.form.root) == (bob.form.root,)


def test_subroot_sequences_increase_and_lie_on_the_run(small_corpus):
    rng = random.Random(5)
    for g in small_corpus[:50]:
        s = random_strategy(g.form, rng)
        for t0 in sorted(subroots(g.form)):
            seq = subroot_sequence(g.form, s, t0)
            for m in range(1, len(seq)):
                assert g.form.precedes(seq[m - 1], seq[m], strict=True)
            run = subform_outcome(g.form, t0, restrict(s, subform(g.form, t0).situations))
            full = g.form.weak_predecessors(run[-1])
            assert set(seq) <= set(full)


def test_decomposition_of_subform_outcomes(small_corpus):
    # Obeying s through the subform equals piecing together the piece outcome
    # and, when it exits to a subroot, the subform outcome from there.
    rng = random.Random(6)
    for g in small_corpus[:50]:
        s = random_strategy(g.form, rng)
        ts = subroots(g.form)
        for t in sorted(ts):
            whole = subform_outcome(g.form, t, restrict(s, subform(g.form, t).situations))
            full_run = g.form.weak_predecessors(whole[-1])
            piece_run = piece_outcome(g.form, t, restrict(s, piece_form(g.form, t).situations))
            last = piece_run[-1]
            if last in ts:
                nxt = subform_outcome(g.form, last, restrict(s, subform(g.form, last).situations))
                assert g.form.weak_predecessors(nxt[-1]) == full_run
            else:
                assert g.form.weak_predecessors(piece_run[-1]) == full_run
