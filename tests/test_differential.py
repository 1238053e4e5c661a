"""The linear-time structure layer against its brute-force oracles, the axiom
diagnosis and `validate` against the reference check and structure build
(on every axiom's mutations too), trusted subforms and pieces against the
reference axiom check, subgame checks searched in place against searches of
built subform games, the class graph test for aperiodic runs against its SCC
definition, the stationary unfolding and value code (one pricing rule per
utility model) against the per-model branches they replaced, the discounted
conceivable bounds (policy iteration) against the enumeration of every exit
policy, every model's bounds and convergence verdicts against the per-model
reference code, the values of every certified stationary SPE against the
authentic, persistent and admissible checks, both solvers' Nash-point
search (best responses shared between profiles) against the reference scans
that run a full Nash check on every profile, and deep forms that must not
exhaust the interpreter's recursion depth."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest

from pentaform import (
    DiscountedAccumulation,
    Exit,
    Game,
    InvalidPentaform,
    NoPureEquilibrium,
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
    solve_backward,
    spe_check_direct,
    subform,
    subroots,
    validate,
)
from pentaform import fileio, lower_convergent, stationary, upper_convergent
from pentaform.convergence import FAILS, HOLDS, UNKNOWN
from pentaform.core import (
    AXIOM_ACTION_OF_SUCCESSOR,
    AXIOM_ACTION_RECTANGLE,
    AXIOM_NO_CYCLES,
    AXIOM_PLAYER_OF_SITUATION,
    AXIOM_PREDECESSOR_FUNCTION,
    AXIOM_SINGLE_ROOT,
    AXIOM_SITUATION_OF_NODE,
    AXIOM_SUCCESSOR_FUNCTION,
)
from pentaform.fixtures import ann_chain, bob_chain, cry_wolf, cry_wolf_calm_strategy, eda_chain
from pentaform.numbers import INF, NEG_INF
from pentaform.stationary import (
    SPE_CERTIFIED,
    AbsoluteTerminal,
    certify_spe,
    conceivable_bounds,
    continuation_values,
    has_aperiodic_runs,
    instantiate,
    quotient_piece_game,
    simple_cycles,
    stationary_admissible,
    stationary_authentic,
    stationary_persistent,
    truncated_game,
    value_at,
)

from conftest import (
    ReferencePentaform,
    assert_same_structure,
    bounded_predecessor_walk,
    brute_force_subroots,
    random_discounted_system,
    random_ring_system,
    random_strategy,
    reference_absolute_bounds,
    reference_check_axioms,
    reference_continuation_values,
    reference_discounted_extremes,
    reference_induced_strategy,
    reference_instantiate,
    reference_quotient_piece_game,
    reference_solve_backward,
    reference_solve_stationary,
    reference_stationary_convergence,
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


def _random_class_graph(rng: random.Random) -> dict:
    """One to six classes with random edges, cut to the classes reachable from c0."""
    names = [f"c{k}" for k in range(rng.randint(1, 6))]
    edges = {c: {d for d in names if rng.random() < 0.3} for c in names}
    reach, stack = {"c0"}, ["c0"]
    while stack:
        for d in edges[stack.pop()] - reach:
            reach.add(d)
            stack.append(d)
    return {c: edges[c] for c in names if c in reach}


def test_aperiodic_runs_match_scc_definition():
    rng = random.Random(0)
    aperiodic = 0
    for _ in range(3000):
        graph = _random_class_graph(rng)
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


CHAIN_VALUES = stationary._chain_values


def _assert_bounds_match_enumeration(sys_: StationarySystem, monkeypatch) -> None:
    """Policy iteration's (inf, sup) for every class and stakeholder equals
    the min and max over the product of all exit policies.  Each of its runs
    (one per stakeholder and direction) evaluates no policy twice, so a
    look-ahead that breaks the improvement theorem fails the evaluation
    budget instead of cycling forever."""
    budget = 2 * len(sys_.stakeholders) * prod(len(cls.exits) for cls in sys_.classes.values())
    evaluations = 0

    def counted(*args):
        nonlocal evaluations
        evaluations += 1
        assert evaluations <= budget, "policy iteration evaluated a policy twice"
        return CHAIN_VALUES(*args)

    monkeypatch.setattr(stationary, "_chain_values", counted)
    expected = reference_discounted_extremes(sys_)
    for c in sorted(sys_.classes):
        for k in sorted(sys_.stakeholders):
            lo, hi = conceivable_bounds(sys_, c, k)
            assert (lo, hi) == expected[(c, k)], (c, k)
            assert isinstance(lo, Fraction) and isinstance(hi, Fraction)


def test_discounted_extremes_match_enumeration_on_random_systems(monkeypatch):
    systems = 0
    for seed in range(1500):
        sys_ = random_discounted_system(seed)
        if sys_ is not None:
            systems += 1
            _assert_bounds_match_enumeration(sys_, monkeypatch)
    assert systems >= 1000


def test_discounted_extremes_match_enumeration_on_ring_systems(monkeypatch):
    for seed in range(60):
        _assert_bounds_match_enumeration(random_ring_system(seed), monkeypatch)


def _discounted_twin(sys_: StationarySystem, beta: Fraction) -> StationarySystem:
    """The same classes under discounting by `beta`."""
    return StationarySystem(sys_.classes, sys_.initial, DiscountedAccumulation(beta), sys_.stakeholders)


def test_discounted_extremes_match_enumeration_on_fixtures(monkeypatch):
    _assert_bounds_match_enumeration(cry_wolf(), monkeypatch)
    for system in (ann_chain, bob_chain, eda_chain):
        for beta in (Fraction(1, 10), Fraction(1, 2), Fraction(19, 20)):
            _assert_bounds_match_enumeration(_discounted_twin(system(), beta), monkeypatch)


def _assert_bounds_and_convergence_match_reference(sys_: StationarySystem) -> dict:
    """Every conceivable bound, and both convergence verdicts (status,
    certificate and witness), agree with the reference code; returns the
    verdicts' statuses."""
    discounted = isinstance(sys_.model, DiscountedAccumulation)
    extremes = reference_discounted_extremes(sys_) if discounted else None
    for c in sorted(sys_.classes):
        for k in sorted(sys_.stakeholders):
            expected = extremes[(c, k)] if discounted else reference_absolute_bounds(sys_, c, k)
            assert conceivable_bounds(sys_, c, k) == expected, (c, k)
    up, lo = upper_convergent(sys_), lower_convergent(sys_)
    assert up == reference_stationary_convergence(sys_, "upper")
    assert lo == reference_stationary_convergence(sys_, "lower")
    return {up.status, lo.status}


def test_bounds_and_convergence_match_reference_on_random_systems():
    systems, statuses = 0, set()
    for seed in range(300):
        sys_ = random_discounted_system(seed)
        if sys_ is None:
            continue
        systems += 1
        _assert_bounds_and_convergence_match_reference(sys_)
        statuses |= _assert_bounds_and_convergence_match_reference(_absolute_twin(sys_, random.Random(seed)))
    assert systems >= 190
    # zero utilities everywhere: no lasso fails, so aperiodic class graphs are unknown
    rng = random.Random(1)
    for _ in range(300):
        sys_ = _class_graph_system(_random_class_graph(rng))
        zero = AbsoluteTerminal({cyc: {"p": 0} for cyc in simple_cycles(sys_.continue_graph())})
        statuses |= _assert_bounds_and_convergence_match_reference(
            StationarySystem(sys_.classes, sys_.initial, zero, sys_.stakeholders))
    assert statuses == {HOLDS, FAILS, UNKNOWN}


@pytest.mark.parametrize("system", [ann_chain, bob_chain, eda_chain, cry_wolf])
def test_bounds_and_convergence_match_reference_on_fixtures(system):
    _assert_bounds_and_convergence_match_reference(system())


def _stationary_strategies(sys_: StationarySystem) -> list[dict]:
    """Every stationary strategy of a small system."""
    slots = [(c, j) for c in sorted(sys_.classes) for j in sorted(sys_.classes[c].template.situations)]
    pools = [sorted(sys_.classes[c].template.action_set(j)) for c, j in slots]
    strategies = []
    for combo in product(*pools):
        sigma = {c: {} for c in sys_.classes}
        for (c, j), a in zip(slots, combo):
            sigma[c][j] = a
        strategies.append(sigma)
    return strategies


def _certified_values_hold(sys_: StationarySystem, strategies) -> int:
    """Each SPE_CERTIFIED certificate's continuation values are authentic,
    persistent and admissible; returns how many certificates were checked."""
    certified = 0
    for sigma in strategies:
        cert = certify_spe(sys_, sigma)
        if cert.kind == SPE_CERTIFIED:
            w = cert.continuation_values
            assert stationary_authentic(sys_, sigma, w).holds
            assert stationary_persistent(sys_, sigma, w).holds
            assert stationary_admissible(sys_, w).holds
            certified += 1
    return certified


def test_certified_values_hold_on_random_systems():
    certified = twins_certified = 0
    for seed in range(300):
        sys_ = random_discounted_system(seed)
        if sys_ is None:
            continue
        strategies = _stationary_strategies(sys_)
        certified += _certified_values_hold(sys_, strategies)
        twins_certified += _certified_values_hold(_absolute_twin(sys_, random.Random(seed)), strategies)
    assert certified > 0 and twins_certified > 0


def test_certified_values_hold_on_ring_systems():
    certified = twins_certified = 0
    for seed in range(30):
        sys_ = random_ring_system(seed, (3, 3))
        strategies = _stationary_strategies(sys_)
        certified += _certified_values_hold(sys_, strategies)
        twins_certified += _certified_values_hold(_absolute_twin(sys_, random.Random(seed)), strategies)
    assert certified > 0 and twins_certified > 0


@pytest.mark.parametrize("system", [ann_chain, bob_chain, eda_chain, cry_wolf])
def test_certified_values_hold_on_fixtures(system):
    sys_ = system()
    _certified_values_hold(sys_, _stationary_strategies(sys_))


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


def _second_player(qs: list, rng: random.Random) -> list:
    """Copy an edge under another player: a situation with two players."""
    q = rng.choice(qs)
    qs.append(Quintuple(q.player + "'", q.situation, q.decision_node, q.action, q.successor))
    return qs


def _second_situation(qs: list, rng: random.Random) -> list:
    """Copy an edge into another situation: a node in two situations."""
    q = rng.choice(qs)
    qs.append(Quintuple(q.player, q.situation + "'", q.decision_node, q.action, q.successor))
    return qs


def _missing_rectangle_action(qs: list, rng: random.Random) -> list:
    """Give one node of a situation with several nodes an action that the
    situation's other nodes lack."""
    nodes: dict[str, set[str]] = {}
    for q in qs:
        nodes.setdefault(q.situation, set()).add(q.decision_node)
    q = rng.choice([q for q in qs if len(nodes[q.situation]) > 1] or qs)
    qs.append(Quintuple(q.player, q.situation, q.decision_node, "extra", q.decision_node + "+"))
    return qs


def _second_successor(qs: list, rng: random.Random) -> list:
    """Lead a (node, action) pair to a second, fresh successor."""
    q = rng.choice(qs)
    qs.append(Quintuple(q.player, q.situation, q.decision_node, q.action, q.successor + "+"))
    return qs


def _second_action(qs: list, rng: random.Random) -> list:
    """Reach a successor by a second action from the same node."""
    q = rng.choice(qs)
    qs.append(Quintuple(q.player, q.situation, q.decision_node, q.action + "'", q.successor))
    return qs


def _no_root(qs: list, rng: random.Random) -> list:
    """Point an edge that ends at an endnode back at the root: every
    decision node becomes a successor."""
    form = validate(qs)
    k = rng.choice([k for k, q in enumerate(qs) if q.successor in form.endnodes])
    q = qs[k]
    qs[k] = Quintuple(q.player, q.situation, q.decision_node, q.action, form.root)
    return qs


def _two_faults(qs: list, rng: random.Random) -> list:
    """Two of the faults above at random edges, so the order in which the
    diagnosis meets them matters."""
    for fault in rng.sample([_second_player, _second_situation, _second_successor, _second_action], 2):
        qs = fault(qs, rng)
    return qs


# mutation → the axiom it must violate somewhere in the corpus (None: any)
MUTATIONS = [
    (_drop, None),
    (_redirect_to_ancestor, AXIOM_NO_CYCLES),
    (_second_predecessor, AXIOM_PREDECESSOR_FUNCTION),
    (_second_player, AXIOM_PLAYER_OF_SITUATION),
    (_second_situation, AXIOM_SITUATION_OF_NODE),
    (_missing_rectangle_action, AXIOM_ACTION_RECTANGLE),
    (_second_successor, AXIOM_SUCCESSOR_FUNCTION),
    (_second_action, AXIOM_ACTION_OF_SUCCESSOR),
    (_no_root, AXIOM_SINGLE_ROOT),
    (_two_faults, None),
]


@pytest.mark.parametrize("mutate, axiom", MUTATIONS, ids=[m.__name__.strip("_") for m, _ in MUTATIONS])
def test_axiom_diagnosis_matches_reference_on_mutations(small_corpus, mutate, axiom):
    """Full violation lists, witness text included, equal the reference check;
    `validate` raises exactly them, or builds the reference structure."""
    rng = random.Random(mutate.__name__)
    reached = 0
    for g in small_corpus:
        qs = mutate(list(g.form.quintuples), rng)
        rng.shuffle(qs)
        expected = reference_check_axioms(qs)
        assert check_axioms(qs) == expected
        reached += any(v.axiom == axiom for v in expected)
        if expected:
            with pytest.raises(InvalidPentaform) as raised:
                validate(qs)
            assert raised.value.violations == tuple(expected)
        else:
            assert_same_structure(validate(qs), ReferencePentaform(qs))
    if axiom is not None:
        assert reached > 0


def _assert_validate_matches_reference(form, rng: random.Random) -> None:
    qs = list(form.quintuples)
    rng.shuffle(qs)
    assert check_axioms(qs) == reference_check_axioms(qs) == []
    assert_same_structure(validate(qs), ReferencePentaform(qs))


def test_validate_matches_reference_structure_on_corpus(small_corpus):
    rng = random.Random(0)
    for g in small_corpus:
        _assert_validate_matches_reference(g.form, rng)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_validate_matches_reference_structure_on_cry_wolf(depth):
    _assert_validate_matches_reference(WOLF_TRUNCATIONS[depth - 1].form, random.Random(depth))


def _assert_trusted_parts_are_pentaforms(form) -> int:
    """Every subform and piece, built trusted, passes the reference axiom
    check and equals the validated form of its quintuples."""
    parts = piece_partition(form)
    for t in subroots(form):
        for part in (subform(form, t), parts[t]):
            assert reference_check_axioms(part.quintuples) == []
            assert_same_structure(part, validate(part.quintuples))
            assert_same_structure(part, ReferencePentaform(part.quintuples))
    return len(parts)


def test_trusted_pieces_and_subforms_are_pentaforms_on_corpus(small_corpus):
    assert sum(_assert_trusted_parts_are_pentaforms(g.form) for g in small_corpus) > len(small_corpus)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_trusted_pieces_and_subforms_are_pentaforms_on_cry_wolf(depth):
    assert _assert_trusted_parts_are_pentaforms(WOLF_TRUNCATIONS[depth - 1].form) > 1


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


# -- Nash-point search: best responses shared between profiles ----------------
# `solve_backward` and `solve_stationary` must return exactly what the
# reference solvers' one-full-Nash-check-per-profile scans return.


SOLVER_POOL = [random_game(seed, max_nodes=60, max_info_set=6) for seed in range(100)]


def _fixture_games(tmp_path) -> list[Game]:
    from test_cli_golden import GAMES, _workdir

    work = _workdir(tmp_path)
    names = sorted(p.name for p in (work / "fixtures").glob("*.game"))
    assert {f"{name}.game" for name in GAMES} | {"crywolf_depth2.game", "entry.game"} <= set(names)
    return [fileio.load_game(work / "fixtures" / name) for name in names]


def test_solve_backward_matches_reference_on_corpus():
    for seed in range(600):
        g = random_game(seed, max_nodes=40)
        assert solve_backward(g) == reference_solve_backward(g), seed


def test_solve_backward_matches_reference_on_solver_pool():
    for seed, g in enumerate(SOLVER_POOL):
        assert solve_backward(g) == reference_solve_backward(g), seed


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_solve_backward_matches_reference_on_cry_wolf(depth):
    g = WOLF_TRUNCATIONS[depth - 1]
    assert solve_backward(g) == reference_solve_backward(g)


def test_solve_backward_matches_reference_on_fixtures(tmp_path):
    games = _fixture_games(tmp_path)
    results = [solve_backward(g) for g in games]
    assert results == [reference_solve_backward(g) for g in games]
    assert any(isinstance(r, NoPureEquilibrium) for r in results)


def _matching_pennies_class(continue_on: str | None) -> PieceClass:
    """A simultaneous matching-pennies day between p1 and p2; the exit
    `continue_on`, if any, starts another day."""
    template = validate([
        Quintuple("p1", "", "", "h", "H"), Quintuple("p1", "", "", "t", "T"),
        Quintuple("p2", "j", "H", "h", "Hh"), Quintuple("p2", "j", "H", "t", "Ht"),
        Quintuple("p2", "j", "T", "h", "Th"), Quintuple("p2", "j", "T", "t", "Tt"),
    ])
    exits = {}
    for label in ("Hh", "Ht", "Th", "Tt"):
        sign = 1 if label[0] == label[1].upper() else -1
        exits[label] = Exit({"p1": sign, "p2": -sign},
                            next_class="day" if label == continue_on else None)
    return PieceClass(template, exits)


def _bimatrix_system(seed: int) -> StationarySystem | None:
    """Two to three classes, each a simultaneous move of p1 (2–3 actions) and
    p2 (2–3 actions, named like p1's) whose cells are random terminal or
    continue exits; None when the draw leaves a class unreachable."""
    rng = random.Random(seed)
    cids = [f"c{i}" for i in range(rng.randint(2, 3))]
    classes = {}
    for ci, cid in enumerate(cids):
        rows = [f"a{a}" for a in range(rng.randint(2, 3))]
        cols = [f"a{b}" for b in range(rng.randint(2, 3))]
        quintuples = [Quintuple("p1", "", "", r, r) for r in rows]
        quintuples += [Quintuple("p2", "j", r, k, r + k) for r in rows for k in cols]
        exits = {}
        for r in rows:
            for k in cols:
                reward = {p: Fraction(rng.randint(-9, 9), rng.choice([1, 2])) for p in ("p1", "p2")}
                cont = rng.random() < 0.5 or (r + k == rows[0] + cols[0] and ci == 0)
                exits[r + k] = Exit(reward, next_class=rng.choice(cids) if cont else None)
        classes[cid] = PieceClass(validate(quintuples), exits)
    try:
        return StationarySystem(classes, "c0",
                                DiscountedAccumulation(Fraction(rng.randint(1, 9), 10)), ["p1", "p2"])
    except ValueError:
        return None


def _assert_solve_stationary_matches_reference(sys_: StationarySystem) -> object:
    result = stationary.solve_stationary(sys_)
    assert result == reference_solve_stationary(sys_)
    return result


def test_solve_stationary_matches_reference_on_random_systems():
    systems = 0
    for seed in range(300):
        sys_ = random_discounted_system(seed)
        if sys_ is not None:
            systems += 1
            _assert_solve_stationary_matches_reference(sys_)
    assert systems >= 190


def test_solve_stationary_matches_reference_on_ring_systems():
    for seed in range(10):
        _assert_solve_stationary_matches_reference(random_ring_system(seed))
    for shape in ((3, 3), (4, 2), (2, 5)):
        for seed in range(3):
            _assert_solve_stationary_matches_reference(random_ring_system(seed, shape))


def test_solve_stationary_matches_reference_on_bimatrix_systems():
    kinds = set()
    for seed in range(40):
        sys_ = _bimatrix_system(seed)
        if sys_ is not None:
            result = _assert_solve_stationary_matches_reference(sys_)
            kinds.add(getattr(result, "kind", "solved"))
    assert kinds == {"solved", "no-pure-equilibrium", "no-convergence"}


@pytest.mark.parametrize("continue_on", [None, "Hh"])
def test_solve_stationary_matches_reference_on_matching_pennies(continue_on):
    sys_ = StationarySystem({"day": _matching_pennies_class(continue_on)}, "day",
                            DiscountedAccumulation(Fraction(1, 2)), ["p1", "p2"])
    result = _assert_solve_stationary_matches_reference(sys_)
    assert result == stationary.StationarySolveFailure("no-pure-equilibrium", "day")


def test_solve_stationary_matches_reference_on_cry_wolf():
    _assert_solve_stationary_matches_reference(WOLF)


# Counts every deviation search by patching `game._best_deviation`.  The pool
# is SOLVER_POOL's, drawn under a fixed hash seed in a subprocess: random_game
# draws its utilities in set order, so the pool, and with it the ratio of the
# two counts, changes with the interpreter's hash seed.
_SEARCH_COUNT = """
import json
from pentaform import game, random_game, solve_backward
from conftest import reference_solve_backward
search = game._best_deviation
keys = []
def counted(form, s, i, start, deviate_at, value_of_endnode):
    others = tuple(s[j] for j in sorted(form.situations) if form.player_of(j) != i)
    keys.append((index, form.root, i, others))
    return search(form, s, i, start, deviate_at, value_of_endnode)
game._best_deviation = counted
counts = {}
for name, solve in (("shared", solve_backward), ("reference", reference_solve_backward)):
    keys.clear()
    for index in range(100):
        solve(random_game(index, max_nodes=60, max_info_set=6))
    counts[name] = len(keys)
    counts[name + "_keys"] = len(set(keys))
print(json.dumps(counts))
"""


def test_solve_backward_searches_each_best_response_once():
    """No (game, piece root, player, s₋ᵢ) key is searched twice, and the
    reference scan runs at least four times as many searches."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run([sys.executable, "-c", _SEARCH_COUNT],
                          env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["shared"] == counts["shared_keys"] == counts["reference_keys"]
    assert 4 * counts["shared"] <= counts["reference"]
