"""The linear-time structure layer against its brute-force oracles, subgame
checks searched in place against searches of built subform games, the class
graph test for aperiodic runs against its SCC definition, the stationary
unfolding and value code (one pricing rule per utility model) against the
per-model branches they replaced, and deep forms that must not exhaust the
interpreter's recursion depth."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pentaform import (
    DiscountedAccumulation,
    Exit,
    Game,
    PieceClass,
    Quintuple,
    StationarySystem,
    authentic_value,
    check_axioms,
    induced_strategy,
    nash_check,
    one_piece_unimprovable,
    piece_partition,
    random_game,
    spe_check_direct,
    subroots,
    validate,
)
from pentaform.core import AXIOM_NO_CYCLES
from pentaform.fixtures import ann_chain, bob_chain, cry_wolf, cry_wolf_calm_strategy, eda_chain
from pentaform.numbers import INF, NEG_INF
from pentaform.stationary import (
    AbsoluteTerminal,
    continuation_values,
    has_aperiodic_runs,
    instantiate,
    quotient_piece_game,
    simple_cycles,
    stationary_persistent,
    truncated_game,
    value_at,
)

from conftest import (
    bounded_predecessor_walk,
    brute_force_subroots,
    random_discounted_system,
    random_strategy,
    reference_continuation_values,
    reference_induced_strategy,
    reference_instantiate,
    reference_quotient_piece_game,
    reference_stationary_persistent,
    reference_truncated_game,
    reference_value_at,
    scc_has_aperiodic_runs,
    subform_authentic_value,
    subform_one_piece_unimprovable,
    subform_spe_check_direct,
)

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


def _assert_in_place_matches_subform_games(g: Game, s: dict) -> bool:
    """Same verdicts, witnesses and values; True when the SPE check fails."""
    spe = spe_check_direct(g, s)
    assert spe == subform_spe_check_direct(g, s)
    assert one_piece_unimprovable(g, s) == subform_one_piece_unimprovable(g, s)
    assert authentic_value(g, s) == subform_authentic_value(g, s)
    return not spe.holds


def test_subgame_checks_in_place_match_subform_games_on_corpus():
    failing = 0
    for seed in range(600):
        g = random_game(seed, max_nodes=40)
        rng = random.Random(seed)
        for _ in range(3):
            failing += _assert_in_place_matches_subform_games(g, random_strategy(g.form, rng))
    assert failing > 0


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_subgame_checks_in_place_match_subform_games_on_cry_wolf(depth):
    g = WOLF_TRUNCATIONS[depth - 1]
    calm = induced_strategy(WOLF, cry_wolf_calm_strategy(), depth)
    assert not _assert_in_place_matches_subform_games(g, calm)
    rng = random.Random(depth)
    failing = 0
    for j in rng.sample(sorted(g.form.situations), 7):
        other = sorted(g.form.action_set(j) - {calm[j]})
        failing += _assert_in_place_matches_subform_games(g, {**calm, j: rng.choice(other)})
    assert failing > 0


def _class_graph_system(graph: dict) -> StationarySystem:
    """A discounted system whose class graph is `graph`: each class is one
    decision with a continue edge per successor and one terminal exit."""
    classes = {}
    for c, successors in graph.items():
        qs = [Quintuple("p", "j", "", "t", "t")]
        exits = {"t": Exit({"p": 0})}
        for m, d in enumerate(sorted(successors)):
            qs.append(Quintuple("p", "j", "", f"e{m}", f"e{m}"))
            exits[f"e{m}"] = Exit({"p": 0}, d)
        classes[c] = PieceClass(validate(qs), exits)
    return StationarySystem(classes, "c0", DiscountedAccumulation(Fraction(1, 2)), ["p"])


def test_aperiodic_runs_match_scc_definition():
    rng = random.Random(0)
    aperiodic = 0
    for _ in range(3000):
        names = [f"c{k}" for k in range(rng.randint(1, 6))]
        edges = {c: {d for d in names if rng.random() < 0.3} for c in names}
        reach, stack = {"c0"}, ["c0"]
        while stack:
            for d in edges[stack.pop()] - reach:
                reach.add(d)
                stack.append(d)
        graph = {c: edges[c] for c in names if c in reach}
        sys_ = _class_graph_system(graph)
        assert sys_.continue_graph() == graph
        expected = scc_has_aperiodic_runs(graph)
        assert has_aperiodic_runs(sys_) is expected
        aperiodic += expected
    assert 0 < aperiodic < 3000


def _assert_priced(*profiles) -> None:
    """Every priced value is exact: a Fraction or one of the two infinities."""
    for profile in profiles:
        for x in profile.values():
            assert isinstance(x, Fraction) or x in (INF, NEG_INF), x


def _random_scalar(rng: random.Random, infinite: bool) -> object:
    draw = rng.random()
    if infinite and draw < 0.1:
        return INF if draw < 0.05 else NEG_INF
    return Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 7]))


def _random_class_values(sys_: StationarySystem, rng: random.Random) -> dict:
    infinite = not isinstance(sys_.model, DiscountedAccumulation)
    return {c: {k: _random_scalar(rng, infinite) for k in sorted(sys_.stakeholders)}
            for c in sorted(sys_.classes)}


def _random_stationary_strategy(sys_: StationarySystem, rng: random.Random) -> dict:
    return {c: random_strategy(sys_.classes[c].template, rng) for c in sorted(sys_.classes)}


def _assert_stationary_matches_reference(sys_: StationarySystem, depths, rng: random.Random) -> None:
    """The unfolding at each depth, value_at at every subroot, the quotient
    piece games and the persistence verdicts agree with the reference code."""
    sigma = _random_stationary_strategy(sys_, rng)
    w = continuation_values(sys_, sigma)
    assert w == reference_continuation_values(sys_, sigma)
    _assert_priced(*w.values())
    for values in (w, _random_class_values(sys_, rng)):
        for c in sorted(sys_.classes):
            game = quotient_piece_game(sys_, c, values)
            assert game == reference_quotient_piece_game(sys_, c, values)
        verdict = stationary_persistent(sys_, sigma, values)
        assert verdict == reference_stationary_persistent(sys_, sigma, values)
        if not verdict.holds:
            _assert_priced(verdict.witness["expected"])
    discounted = isinstance(sys_.model, DiscountedAccumulation)
    for depth in depths:
        continuation = _random_class_values(sys_, rng)
        form = instantiate(sys_, depth)
        assert form == reference_instantiate(sys_, depth)
        game = truncated_game(sys_, depth, continuation)
        assert game == reference_truncated_game(sys_, depth, continuation)
        assert induced_strategy(sys_, sigma, depth) == reference_induced_strategy(sys_, sigma, depth)
        if discounted:
            bounded = instantiate(sys_, depth, "bounded")
            expected = reference_instantiate(sys_, depth, "bounded")
            assert bounded.form == expected.form == form
            assert bounded.terminal_utilities == expected.terminal_utilities
            assert bounded.boundary == expected.boundary
            assert bounded.game(continuation) == expected.game(continuation) == game
            _assert_priced(*bounded.terminal_utilities.values())
            for b in bounded.boundary.values():
                _assert_priced(b.accrued, b.low, b.high)
        for t in sorted(subroots(form)):
            v = value_at(sys_, sigma, t)
            assert v == reference_value_at(sys_, sigma, t)
            _assert_priced(v)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_stationary_pricing_matches_reference_on_cry_wolf(depth):
    rng = random.Random(depth)
    _assert_stationary_matches_reference(WOLF, [depth], rng)
    calm = cry_wolf_calm_strategy()
    w = continuation_values(WOLF, calm)
    assert truncated_game(WOLF, depth, w) == reference_truncated_game(WOLF, depth, w) == WOLF_TRUNCATIONS[depth - 1]
    for t in sorted(subroots(WOLF_TRUNCATIONS[depth - 1].form)):
        assert value_at(WOLF, calm, t) == reference_value_at(WOLF, calm, t)


@pytest.mark.parametrize("system", [ann_chain, bob_chain, eda_chain])
def test_stationary_pricing_matches_reference_on_chains(system):
    sys_ = system()
    for seed in range(4):
        _assert_stationary_matches_reference(sys_, [1, 2, 3, 4], random.Random(seed))


def _absolute_twin(sys_: StationarySystem, rng: random.Random) -> StationarySystem:
    """The same classes under the absolute-terminal model, with a random
    utility (sometimes infinite) declared for every simple class cycle."""
    cycles = {cyc: {k: _random_scalar(rng, True) for k in sorted(sys_.stakeholders)}
              for cyc in simple_cycles(sys_.continue_graph())}
    return StationarySystem(sys_.classes, sys_.initial, AbsoluteTerminal(cycles), sys_.stakeholders)


def test_stationary_pricing_matches_reference_on_random_systems():
    systems = 0
    for seed in range(300):
        sys_ = random_discounted_system(seed)
        if sys_ is None:
            continue
        systems += 1
        rng = random.Random(seed)
        _assert_stationary_matches_reference(sys_, [1, 2, 3], rng)
        _assert_stationary_matches_reference(_absolute_twin(sys_, rng), [1, 2, 3], rng)
    assert systems >= 190


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
