"""Conceivable bounds and the convergence checkers."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from pentaform import (
    Quintuple,
    inf_conceivable,
    lower_convergent,
    sup_conceivable,
    upper_convergent,
    validate,
)
from pentaform.convergence import FAILS, HOLDS, UNKNOWN, ConvergenceVerdict
from pentaform.fixtures import (
    ann_chain,
    bob_chain,
    cry_wolf,
    cry_wolf_calm_strategy,
    eda_chain,
    entry_game,
)
from pentaform.stationary import (
    AbsoluteTerminal,
    Exit,
    PieceClass,
    StationarySystem,
    continuation_values,
    truncated_game,
)

G1 = entry_game()
WOLF = cry_wolf()


def test_sup_conceivable_entry():
    assert sup_conceivable(G1, "5", "Ent") == F(0)
    assert inf_conceivable(G1, "5", "Ent") == F(-1)
    for y in G1.form.endnodes:
        assert sup_conceivable(G1, y, "Inc") == inf_conceivable(G1, y, "Inc") \
            == G1.utilities[y]["Inc"]


def test_inf_conceivable_cry_wolf_truncation():
    trunc = truncated_game(WOLF, 2, continuation_values(WOLF, cry_wolf_calm_strategy()))
    assert inf_conceivable(trunc, "6", "Kid") <= F(2, 5)


def test_unknown_stakeholder_rejected():
    with pytest.raises(ValueError):
        sup_conceivable(G1, "5", "Wolf")


def test_a_convergence_verdict_is_true_only_when_it_holds():
    assert bool(upper_convergent(WOLF)) is True
    assert bool(lower_convergent(bob_chain())) is False
    assert bool(ConvergenceVerdict(UNKNOWN)) is False


def test_conceivable_monotone_along_runs(small_corpus):
    for g in small_corpus[:60]:
        for run in g.form.runs():
            for k in sorted(g.stakeholders):
                sups = [sup_conceivable(g, x, k) for x in run]
                infs = [inf_conceivable(g, x, k) for x in run]
                assert all(a >= b for a, b in zip(sups, sups[1:]))
                assert all(a <= b for a, b in zip(infs, infs[1:]))
                # one-sided bounds around the run's own utility
                u = g.utilities[run[-1]][k]
                assert all(s >= u for s in sups)
                assert all(i <= u for i in infs)
                # at the endnode both collapse to the run utility
                assert sups[-1] == infs[-1] == u


def test_finite_games_always_converge(small_corpus):
    for g in small_corpus[:30]:
        assert upper_convergent(g).status == HOLDS
        assert lower_convergent(g).status == HOLDS


def test_ann_upper_fails_lower_holds():
    ann = ann_chain()
    up = upper_convergent(ann)
    assert up.status == FAILS
    assert up.witness["gap"] == F(1)
    assert up.witness["stakeholder"] == "Ann"
    assert up.witness["run"]["cycle"] == ("c",)
    assert lower_convergent(ann).status == HOLDS


def test_bob_lower_fails_upper_holds():
    bob = bob_chain()
    lo = lower_convergent(bob)
    assert lo.status == FAILS
    assert lo.witness["gap"] == F(1)
    assert upper_convergent(bob).status == HOLDS


def test_eda_fails_both_directions():
    eda = eda_chain()
    assert upper_convergent(eda).status == FAILS
    assert lower_convergent(eda).status == FAILS
    assert upper_convergent(eda).witness["gap"] == F(1)
    assert lower_convergent(eda).witness["gap"] == F(1)


def test_cry_wolf_converges_with_discount_certificate():
    up = upper_convergent(WOLF)
    lo = lower_convergent(WOLF)
    assert up.status == HOLDS and lo.status == HOLDS
    assert "discounted" in up.certificate and "beta" in up.certificate


def test_verdicts_are_deterministic():
    assert upper_convergent(ann_chain()) == upper_convergent(ann_chain())
    assert lower_convergent(eda_chain()) == lower_convergent(eda_chain())


def _three_way_class(player: str, next_a: str, next_b: str) -> PieceClass:
    template = validate([
        Quintuple(player, "", "", "stay_a", "p"),
        Quintuple(player, "", "", "stay_b", "q"),
        Quintuple(player, "", "", "stop", "x"),
    ])
    return PieceClass(template, {
        "x": Exit({player: 0}),
        "p": Exit({player: 0}, next_class=next_a),
        "q": Exit({player: 0}, next_class=next_b),
    })


def test_aperiodic_systems_are_unknown():
    # Two overlapping cycles (a self-loop and a two-cycle) admit aperiodic
    # infinite runs whose utility the model cannot declare.
    sys_ = StationarySystem(
        {"A": _three_way_class("Joe", "A", "B"),
         "B": _three_way_class("Joe", "A", "B")},
        "A",
        AbsoluteTerminal({
            ("A",): {"Joe": 0}, ("B",): {"Joe": 0}, ("A", "B"): {"Joe": 0},
        }),
        ["Joe"])
    assert upper_convergent(sys_).status == UNKNOWN
    assert lower_convergent(sys_).status == UNKNOWN


def test_type_error_for_unsupported_objects():
    with pytest.raises(TypeError):
        upper_convergent(42)
