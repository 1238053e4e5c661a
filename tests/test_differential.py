"""The linear-time structure layer against its brute-force oracles, and deep
forms that must not exhaust the interpreter's recursion depth."""

from __future__ import annotations

import random

import pytest

from pentaform import (
    Game,
    Quintuple,
    check_axioms,
    nash_check,
    piece_partition,
    subroots,
    validate,
)
from pentaform.core import AXIOM_NO_CYCLES
from pentaform.fixtures import cry_wolf, cry_wolf_calm_strategy
from pentaform.stationary import continuation_values, truncated_game

from conftest import bounded_predecessor_walk, brute_force_subroots

WOLF = cry_wolf()
WOLF_TRUNCATIONS = [
    truncated_game(WOLF, depth, continuation_values(WOLF, cry_wolf_calm_strategy()))
    for depth in range(1, 5)
]


def _check_owners(form) -> None:
    """Each quintuple sits in the piece of the nearest subroot weakly before it."""
    ts = subroots(form)
    for t, piece in piece_partition(form).items():
        for q in piece.quintuples:
            nearest = next(x for x in reversed(form.weak_predecessors(q.decision_node)) if x in ts)
            assert nearest == t


def test_structure_matches_oracles_on_corpus(small_corpus):
    for g in small_corpus:
        assert subroots(g.form) == brute_force_subroots(g.form)
        assert bounded_predecessor_walk(g.form.quintuples) == []
        _check_owners(g.form)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_structure_matches_oracles_on_cry_wolf(depth):
    form = WOLF_TRUNCATIONS[depth - 1].form
    assert subroots(form) == brute_force_subroots(form)
    assert bounded_predecessor_walk(form.quintuples) == []
    _check_owners(form)


def _drop(qs: list, rng: random.Random) -> list:
    del qs[rng.randrange(len(qs))]
    return qs


def _redirect_to_ancestor(qs: list, rng: random.Random) -> list:
    """Point an edge back at a node weakly before its decision node: a cycle."""
    form = validate(qs)
    k = rng.randrange(len(qs))
    q = qs[k]
    back = rng.choice(form.weak_predecessors(q.decision_node))
    qs[k] = Quintuple(q.player, q.situation, q.decision_node, q.action, back)
    return qs


def _second_predecessor(qs: list, rng: random.Random) -> list:
    """Redirect one edge to another edge's successor: two predecessors."""
    k, m = rng.sample(range(len(qs)), 2)
    q = qs[k]
    qs[k] = Quintuple(q.player, q.situation, q.decision_node, q.action, qs[m].successor)
    return qs


@pytest.mark.parametrize("mutate", [_drop, _redirect_to_ancestor, _second_predecessor])
def test_axiom_diagnosis_matches_bounded_walk_on_mutations(small_corpus, mutate):
    rng = random.Random(mutate.__name__)
    cycles = 0
    for g in small_corpus:
        qs = mutate(list(g.form.quintuples), rng)
        violations = check_axioms(qs)
        found = [v for v in violations if v.axiom == AXIOM_NO_CYCLES]
        assert found == bounded_predecessor_walk(qs)
        cycles += bool(found)
        if not violations:
            form = validate(qs)
            assert subroots(form) == brute_force_subroots(form)
    if mutate is _redirect_to_ancestor:
        assert cycles > 0


def _chain(n: int) -> Game:
    """One-player in/out chain of n decision nodes: "out" pays -1, the end 0."""
    qs, utilities = [], {}
    for k in range(n):
        nxt = f"w{k + 1:05d}" if k + 1 < n else "end"
        qs.append(Quintuple("Bob", f"s{k:05d}", f"w{k:05d}", "in", nxt))
        qs.append(Quintuple("Bob", f"s{k:05d}", f"w{k:05d}", "out", f"x{k:05d}"))
        utilities[f"x{k:05d}"] = {"Bob": -1}
    utilities["end"] = {"Bob": 0}
    return Game(validate(qs), ["Bob"], utilities)


def test_deep_chain_needs_no_recursion():
    n = 5000
    g = _chain(n)
    assert len(subroots(g.form)) == n
    assert len(piece_partition(g.form)) == n
    always_in = {f"s{k:05d}": "in" for k in range(n)}
    assert nash_check(g, always_in).holds
    verdict = nash_check(g, {**always_in, "s04999": "out"})
    assert not verdict.holds and verdict.witness["deviation_endnode"] == "end"
