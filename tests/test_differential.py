"""The linear-time structure layer against its brute-force oracles, the axiom
diagnosis and `validate` against the reference check and structure build
(on every axiom's mutations too), trusted subforms and pieces against the
reference axiom check, subgame and piece checks (each walk runs in place up
to the next subroot) against searches of built subform and piece games, with
the moves and form builds they make counted on deep chains, the class graph
test for aperiodic runs against its SCC definition, the stationary unfolding
and value code (one pricing rule per utility model) against the per-model
branches they replaced, the in-place piecewise-Nash scan of each class
template against `nash_check` on the reference quotient piece game (and
certification's game builds counted), the discounted conceivable bounds
(policy iteration) against the enumeration of every exit policy, every
model's bounds and convergence verdicts against the per-model reference
code, the values of every certified stationary SPE against the authentic,
persistent and admissible checks, the admissible and authentic checks'
verdicts and witnesses against run enumeration, subform traces and the reference bounds
and continuation values, both solvers' Nash-point search (best
responses shared between profiles) against the reference scans that run a
full Nash check on every profile and against the tuple-keyed memo (results
and peak memory), value iteration's deviation walks and game builds counted,
and deep forms that must not exhaust the interpreter's recursion depth."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
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
    admissible,
    authentic,
    authentic_value,
    check_axioms,
    classify_piece_endnodes,
    classify_piece_run,
    inf_conceivable,
    induced_strategy,
    nash_check,
    one_piece_unimprovable,
    persistent,
    piece_form,
    piece_outcome,
    piece_partition,
    piecewise_nash,
    random_game,
    solve_backward,
    spe_check_direct,
    subform,
    subform_outcome,
    subroot_sequence,
    subroots,
    sup_conceivable,
    validate,
)
from pentaform import cli, fileio, game, lower_convergent, stationary, upper_convergent
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
    Pentaform,
)
from pentaform.fixtures import ann_chain, bob_chain, cry_wolf, cry_wolf_calm_strategy, eda_chain
from pentaform.game import BackwardSolution, _reachable_exits, enumerate_piece_profiles, first_nash_point, piece_game
from pentaform.numbers import INF, NEG_INF
from pentaform.partition import _partition, piece_decision_nodes, piece_owners, subroots_sorted
from pentaform.stationary import (
    INCONCLUSIVE,
    REFUTED,
    SPE_CERTIFIED,
    AbsoluteTerminal,
    _ClassTable,
    certify_spe,
    conceivable_bounds,
    continuation_values,
    instantiate,
    simple_cycles,
    truncated_game,
    value_at,
)
from pentaform.strategy import TERMINATED, SubrootSequence, outcome

from conftest import (
    ReferencePentaform,
    assert_same_structure,
    bound_truncations,
    boundary_exit,
    bounded_predecessor_walk,
    brute_force_admissible,
    brute_force_runs,
    brute_force_subroots,
    is_absentminded,
    piece_form_classify_piece_run,
    piece_form_persistent,
    piece_form_piece_outcome,
    piece_form_subroot_sequence,
    piece_game_piecewise_nash,
    random_discounted_system,
    random_ring_system,
    random_strategy,
    reference_absolute_bounds,
    reference_check_axioms,
    reference_continuation_values,
    reference_discounted_extremes,
    reference_expand,
    reference_first_nash_point,
    reference_induced_strategy,
    reference_instantiate,
    reference_quotient_piece_game,
    reference_solve_backward,
    reference_solve_stationary,
    reference_stationary_admissible,
    reference_stationary_authentic,
    reference_stationary_convergence,
    reference_stationary_deviation_scan,
    reference_stationary_persistent,
    reference_stationary_piecewise_nash,
    reference_truncated_game,
    reference_value_at,
    scc_has_aperiodic_runs,
    subform_authentic,
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
    """Each quintuple sits in the piece of the nearest subroot weakly before
    it, and the partition kept on the form agrees: each owner is that
    subroot, each piece's decision nodes are its piece form's, and the
    subroots are kept in (depth, label) order and deepest first."""
    ts = subroots(form)
    nearest = {x: next(y for y in reversed(form.weak_predecessors(x)) if y in ts) for x in form.decision_nodes}
    for t, piece in piece_partition(form).items():
        assert piece_decision_nodes(form, t) == piece.decision_nodes
        for q in piece.quintuples:
            assert nearest[q.decision_node] == t
    assert dict(piece_owners(form)) == nearest
    part = _partition(form)
    assert part is _partition(form) and part.nodes.keys() == ts
    assert list(part.nodes) == subroots_sorted(form) == sorted(ts, key=lambda t: (form.depth(t), t))
    assert list(part.deepest_first) == sorted(ts, key=lambda t: (-form.depth(t), t))


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


def test_value_checks_sort_nothing_once_the_partition_is_kept(small_corpus, monkeypatch):
    """`persistent` and `piecewise_nash` on a game read the subroot order
    kept on the form: once it is filled, neither asks for a node's depth."""
    calls = Counter()
    depth = Pentaform.depth
    monkeypatch.setattr(Pentaform, "depth", lambda form, x: calls.update(["depth"]) or depth(form, x))
    for idx, g in enumerate(small_corpus + WOLF_TRUNCATIONS):
        s = random_strategy(g.form, random.Random(idx))
        v = authentic_value(g, s)
        calls.clear()
        assert persistent(g, s, v)
        piecewise_nash(g, s, v)
        assert calls["depth"] == 0, idx


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


def _result(call):
    """What call() returns, or the message of the ValueError it raises."""
    try:
        return "returns", call()
    except ValueError as exc:
        return "raises", str(exc)


def _assert_piece_walks_match_piece_forms(g: Game, s: dict, rng: random.Random) -> Counter:
    """`piece_outcome`, `subroot_sequence` and `classify_piece_run`, which
    walk the form in place, return and raise exactly what the piece-form
    oracles do: at every subroot and at one decision node that is not a
    subroot, under s and under a partial restriction of s, and for each
    piece's runs, their prefixes and a sample of other pieces' runs.
    Returns the kinds of results met."""
    form = g.form
    ts = sorted(subroots(form))
    starts = ts + sorted(form.decision_nodes - set(ts))[:1]
    runs = {t: piece_form(form, t).runs() for t in ts}
    others = sorted({z for zs in runs.values() for z in zs} | set(form.runs()))
    kinds = Counter()
    for t in starts:
        partial = {j: a for j, a in s.items() if rng.random() < 0.8}
        for r in (s, partial):
            got = _result(lambda: piece_outcome(form, t, r))
            assert got == _result(lambda: piece_form_piece_outcome(form, t, r))
            kinds["outcome", got[0]] += 1
            got = _result(lambda: subroot_sequence(form, r, t))
            assert got == _result(lambda: piece_form_subroot_sequence(form, r, t))
            kinds["sequence", got[0]] += 1
        own = runs.get(t, ())
        candidates = {(), *own, *(z[:-1] for z in own), *rng.sample(others, min(len(others), 8))}
        for z in sorted(candidates):
            got = _result(lambda: classify_piece_run(form, t, z))
            assert got == _result(lambda: piece_form_classify_piece_run(form, t, z))
            kinds["run", got[1].kind if got[0] == "returns" else "raises"] += 1
    return kinds


_PIECE_WALK_KINDS = {("outcome", "returns"), ("outcome", "raises"), ("sequence", "returns"),
                     ("sequence", "raises"), ("run", "exit-to-subroot"), ("run", "final-endnode"),
                     ("run", "raises")}


def test_piece_walks_in_place_match_piece_forms_on_corpus(small_corpus):
    kinds = Counter()
    for idx, g in enumerate(small_corpus):
        rng = random.Random(idx)
        kinds += _assert_piece_walks_match_piece_forms(g, random_strategy(g.form, rng), rng)
    assert set(kinds) == _PIECE_WALK_KINDS


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_piece_walks_in_place_match_piece_forms_on_cry_wolf(depth):
    g = WOLF_TRUNCATIONS[depth - 1]
    calm = induced_strategy(WOLF, cry_wolf_calm_strategy(), depth)
    kinds = _assert_piece_walks_match_piece_forms(g, calm, random.Random(depth))
    assert set(kinds) == _PIECE_WALK_KINDS


def _perturbed(values: dict, rng: random.Random) -> dict:
    """values with one stakeholder's value moved by ±1 at about a third of
    the subroots."""
    out = {}
    for t in sorted(values):
        profile = dict(values[t])
        if rng.random() < 1 / 3:
            k = rng.choice(sorted(profile))
            profile[k] += rng.choice((-1, 1))
        out[t] = profile
    return out


def _assert_piece_checks_match_piece_forms(g: Game, s: dict, rng: random.Random) -> set:
    """Same piecewise-Nash and persistence verdicts and witnesses as the
    built piece forms give, at the authentic values and at a perturbed copy;
    returns the (check, values) pairs that failed."""
    failed = set()
    authentic = authentic_value(g, s)
    for kind, values in (("authentic", authentic), ("perturbed", _perturbed(authentic, rng))):
        for name, check, reference in (("piecewise-nash", piecewise_nash, piece_game_piecewise_nash),
                                       ("persistent", persistent, piece_form_persistent)):
            verdict = check(g, s, values)
            assert verdict == reference(g, s, values)
            if not verdict.holds:
                failed.add((name, kind))
    return failed


def test_piece_checks_in_place_match_piece_forms_on_corpus():
    failed, absentminded = set(), 0
    for seed in range(600):
        g = random_game(seed, max_nodes=40)
        absentminded += is_absentminded(g.form)
        rng = random.Random(seed)
        for _ in range(2):
            failed |= _assert_piece_checks_match_piece_forms(g, random_strategy(g.form, rng), rng)
    assert failed == {("piecewise-nash", "authentic"), ("piecewise-nash", "perturbed"),
                      ("persistent", "perturbed")}
    assert absentminded > 0


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_piece_checks_in_place_match_piece_forms_on_cry_wolf(depth):
    g = WOLF_TRUNCATIONS[depth - 1]
    calm = induced_strategy(WOLF, cry_wolf_calm_strategy(), depth)
    rng = random.Random(depth)
    failed = _assert_piece_checks_match_piece_forms(g, calm, rng)
    assert ("piecewise-nash", "authentic") not in failed
    for j in rng.sample(sorted(g.form.situations), 7):
        other = sorted(g.form.action_set(j) - {calm[j]})
        failed |= _assert_piece_checks_match_piece_forms(g, {**calm, j: rng.choice(other)}, rng)
    assert ("persistent", "perturbed") in failed


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


def _zero_absolute_twin(sys_: StationarySystem) -> StationarySystem:
    """The same classes under the absolute-terminal model, with utility 0
    declared for every simple class cycle."""
    zero = AbsoluteTerminal({cyc: sys_.zero_profile() for cyc in simple_cycles(sys_.continue_graph())})
    return StationarySystem(sys_.classes, sys_.initial, zero, sys_.stakeholders)


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
        sys_ = _zero_absolute_twin(_class_graph_system(graph))
        assert sys_.continue_graph() == graph
        expected = scc_has_aperiodic_runs(graph)
        assert sys_.model.has_aperiodic_runs() is expected
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
    """The unfolding at each depth, value_at at every subroot and the
    persistence verdicts agree with the reference code, and the truncations
    at the conceivable bounds bracket every cut endnode as the reference's
    bounded instantiation does."""
    sigma = _random_stationary_strategy(sys_, rng)
    w = continuation_values(sys_, sigma)
    assert w == reference_continuation_values(sys_, sigma)
    _assert_priced(*w.values())
    for values in (w, _random_class_values(sys_, rng)):
        verdict = persistent(sys_, sigma, values)
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
        truncations = bound_truncations(sys_, depth)
        for g in truncations:
            assert g.form == form
            _assert_priced(*g.utilities.values())
        if discounted:
            expected = reference_instantiate(sys_, depth, "bounded")
            assert expected.game(continuation) == game
            assert set(form.endnodes) == set(expected.terminal_utilities) | set(expected.boundary)
            for node, utility in expected.terminal_utilities.items():
                assert all(g.utilities[node] == utility for g in truncations)
            assert {node: boundary_exit(sys_, node, truncations) for node in expected.boundary} == expected.boundary
        else:
            # every cut endnode carries exactly its class's bounds
            for node, class_id, _, _ in reference_expand(sys_, depth, with_accrued=False)[1]:
                bounds = {k: reference_absolute_bounds(sys_, class_id, k) for k in sys_.stakeholders}
                assert [g.utilities[node] for g in truncations[:2]] == [
                    {k: bound[side] for k, bound in bounds.items()} for side in (0, 1)]
        for t in sorted(subroots(form)):
            v = value_at(sys_, sigma, t)
            assert v == reference_value_at(sys_, sigma, t)
            _assert_priced(v)


def test_stationary_piecewise_nash_matches_reference(tmp_path):
    """The in-place scan of each class template gives the verdict and
    witness of `nash_check` on the reference quotient piece game, at the
    authentic values of random strategies and at those values perturbed in
    one class, on random, ring, bimatrix and fixture systems."""
    systems = [random_discounted_system(seed) for seed in range(80)]
    systems += [random_ring_system(seed) for seed in range(6)]
    systems += [_bimatrix_system(seed) for seed in range(30)]
    systems += [WOLF, ann_chain(), bob_chain(), eda_chain()]
    systems += [_quotient_system(name, tmp_path) for name in ("gen3", "gen5")]
    rng = random.Random(2107)
    verdicts = Counter()
    for sys_ in filter(None, systems):
        for _ in range(2):
            sigma = _random_stationary_strategy(sys_, rng)
            w = continuation_values(sys_, sigma)
            c = rng.choice(sorted(w))
            shifted = {**w, c: {k: x + rng.choice([-3, -1, 1, 3]) for k, x in w[c].items()}}
            for values in (w, shifted):
                verdict = piecewise_nash(sys_, sigma, values)
                assert verdict == reference_stationary_piecewise_nash(sys_, sigma, values)
                verdicts[verdict.holds] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


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
        statuses |= _assert_bounds_and_convergence_match_reference(
            _zero_absolute_twin(_class_graph_system(_random_class_graph(rng))))
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
            assert authentic(sys_, sigma, w).holds
            assert persistent(sys_, sigma, w).holds
            assert admissible(sys_, w).holds
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


def _deviation_refutations_match_reference(sys_: StationarySystem) -> int:
    """Where lower-convergence fails, under every stationary strategy that
    passes the piecewise-Nash scan, `certify_spe` refutes exactly when the
    reference enumeration finds an improving stationary deviation.  The
    witness's player is the first, in sorted order, who improves; its
    deviation, applied to σ, reproduces its utility, which is that player's
    best.  Returns how many such refutations were checked."""
    if lower_convergent(sys_).status != FAILS:
        return 0
    refuted = 0
    for sigma in _stationary_strategies(sys_):
        cert = certify_spe(sys_, sigma)
        if not piecewise_nash(sys_, sigma, cert.continuation_values).holds:
            continue
        base = cert.continuation_values[sys_.initial]
        improving = [(i, u) for i, _, u in reference_stationary_deviation_scan(sys_, sigma) if u > base[i]]
        if not improving:
            assert cert.kind == INCONCLUSIVE and cert.witness is None
            continue
        player = improving[0][0]
        witness = cert.witness
        assert cert.kind == REFUTED and witness["player"] == player
        assert witness["strategy_utility"] == base[player]
        assert witness["deviation_utility"] == max(u for i, u in improving if i == player)
        deviated = {c: dict(sigma[c]) for c in sigma}
        for slot, action in witness["deviation"].items():
            c, j = slot.split(":", 1)
            assert sigma[c][j] != action
            deviated[c][j] = action
        assert continuation_values(sys_, deviated)[sys_.initial][player] == witness["deviation_utility"]
        refuted += 1
    return refuted


def test_best_stationary_deviation_matches_enumeration():
    refuted = 0
    for seed in range(300):
        sys_ = random_discounted_system(seed)
        if sys_ is not None:
            refuted += _deviation_refutations_match_reference(_absolute_twin(sys_, random.Random(seed)))
    for seed in range(30):
        sys_ = random_ring_system(seed, (3, 3))
        refuted += _deviation_refutations_match_reference(_absolute_twin(sys_, random.Random(seed)))
    for system in (ann_chain, bob_chain, eda_chain, cry_wolf):
        refuted += _deviation_refutations_match_reference(system())
    assert refuted > 100


def _moved_at_one(values: dict, rng: random.Random) -> dict:
    """values with one stakeholder's value at one key moved by ±1 or ±25,
    or set to one of the two infinities."""
    out = {key: dict(profile) for key, profile in values.items()}
    key = rng.choice(sorted(out))
    k = rng.choice(sorted(out[key]))
    draw = rng.randrange(6)
    out[key][k] = (INF, NEG_INF)[draw - 4] if draw >= 4 else out[key][k] + (-1, 1, -25, 25)[draw]
    return out


def test_admissible_and_authentic_match_brute_force_on_corpus():
    """Verdicts and witnesses of both value checks agree with the run
    enumeration and the subform traces, at the authentic values of random
    strategies and with those values moved at one subroot."""
    verdicts = Counter()
    for seed in range(300):
        g = random_game(seed, max_nodes=20)
        rng = random.Random(seed)
        s = random_strategy(g.form, rng)
        w = authentic_value(g, s)
        for values in (w, _moved_at_one(w, rng)):
            verdict = admissible(g, values)
            assert verdict == brute_force_admissible(g, values)
            verdicts["admissible", verdict.holds] += 1
            verdict = authentic(g, s, values)
            assert verdict == subform_authentic(g, s, values)
            verdicts["authentic", verdict.holds] += 1
    assert all(verdicts[name, holds] > 50 for name in ("admissible", "authentic") for holds in (True, False))


def test_conceivable_bounds_match_runs_at_every_node(small_corpus):
    """inf_conceivable and sup_conceivable at every node and stakeholder are
    the least and the greatest utility over the runs through the node."""
    for g in [*small_corpus, *WOLF_TRUNCATIONS[:3]]:
        runs = brute_force_runs(g.form)
        for x in sorted(g.form.nodes):
            ends = [run[-1] for run in runs if x in run]
            for k in sorted(g.stakeholders):
                assert inf_conceivable(g, x, k) == min(g.utilities[y][k] for y in ends)
                assert sup_conceivable(g, x, k) == max(g.utilities[y][k] for y in ends)
    g = small_corpus[0]
    for bound in (inf_conceivable, sup_conceivable):
        with pytest.raises(ValueError, match=r"^unknown stakeholder 'nobody'$"):
            bound(g, g.form.root, "nobody")
        with pytest.raises(ValueError, match=r"^unknown node 'nowhere'$"):
            bound(g, "nowhere", min(g.stakeholders))
        with pytest.raises(ValueError, match=r"^unknown stakeholder 'nobody'$"):
            bound(g, "nowhere", "nobody")


def test_admissible_and_authentic_match_reference_on_stationary_systems():
    """Verdicts and witnesses of both value checks agree with the reference
    bounds and continuation values on random and ring systems, their
    absolute twins and the fixtures, at the authentic values of random
    strategies and with those values moved at one class."""
    systems = [random_discounted_system(seed) for seed in range(150)]
    systems = [sys_ for sys_ in systems if sys_ is not None]
    systems += [random_ring_system(seed, (3, 3)) for seed in range(20)]
    systems += [_absolute_twin(sys_, random.Random(n)) for n, sys_ in enumerate(systems)]
    systems += [system() for system in (ann_chain, bob_chain, eda_chain, cry_wolf)]
    rng = random.Random(1606)
    verdicts = Counter()
    for sys_ in systems:
        sigma = _random_stationary_strategy(sys_, rng)
        w = continuation_values(sys_, sigma)
        for values in (w, _moved_at_one(w, rng)):
            verdict = admissible(sys_, values)
            assert verdict == reference_stationary_admissible(sys_, values)
            verdicts["admissible", verdict.holds] += 1
            verdict = authentic(sys_, sigma, values)
            assert verdict == reference_stationary_authentic(sys_, sigma, values)
            verdicts["authentic", verdict.holds] += 1
    assert all(verdicts[name, holds] > 50 for name in ("admissible", "authentic") for holds in (True, False))


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


def _other_player_at_one_node(qs: list, rng: random.Random) -> list:
    """Move every edge at one node of a situation with several nodes to
    another player: only [Pi<-j] fails."""
    nodes: dict[str, set[str]] = {}
    for q in qs:
        nodes.setdefault(q.situation, set()).add(q.decision_node)
    w = rng.choice([q for q in qs if len(nodes[q.situation]) > 1] or qs).decision_node
    return [Quintuple(q.player + "'", q.situation, q.decision_node, q.action, q.successor)
            if q.decision_node == w else q for q in qs]


def _detached_cycle(qs: list, rng: random.Random) -> list:
    """Add two nodes that lead to each other, apart from the tree: each node
    keeps one predecessor and the root stays the one root, so only [Py]
    fails."""
    player = rng.choice(qs).player
    qs += [Quintuple(player, "c1", "c1", "a", "c2"), Quintuple(player, "c2", "c2", "a", "c1")]
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
    (_other_player_at_one_node, AXIOM_PLAYER_OF_SITUATION),
    (_detached_cycle, AXIOM_NO_CYCLES),
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


def _chain(n: int, player: str = "Bob") -> Game:
    """One-player in/out chain of n decision nodes: "out" pays -1, the end 0."""
    qs, utilities = [], {}
    for k in range(n):
        nxt = f"w{k + 1:05d}" if k + 1 < n else "end"
        qs.append(Quintuple(player, f"s{k:05d}", f"w{k:05d}", "in", nxt))
        qs.append(Quintuple(player, f"s{k:05d}", f"w{k:05d}", "out", f"x{k:05d}"))
        utilities[f"x{k:05d}"] = {player: -1}
    utilities["end"] = {player: 0}
    return Game(validate(qs), [player], utilities)


def test_deep_chain_needs_no_recursion():
    n = 5000
    g = _chain(n)
    assert len(subroots(g.form)) == n
    assert len(piece_partition(g.form)) == n
    always_in = {f"s{k:05d}": "in" for k in range(n)}
    assert nash_check(g, always_in).holds
    verdict = nash_check(g, {**always_in, "s04999": "out"})
    assert not verdict.holds and verdict.witness["deviation_endnode"] == "end"


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of the Pentaform method `name` from now on."""
    calls = []
    method = getattr(Pentaform, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(Pentaform, name, counted)
    return calls


@pytest.mark.parametrize("n", [500, 1000])
def test_spe_check_walks_each_piece_once_on_chains(n, monkeypatch):
    """The value recursion walks each one-node piece once per player, plus
    one conforming trace: at most 3n moves, where searching every subgame to
    the end of the chain takes 3n(n + 1)/2."""
    g = _chain(n)
    always_in = {f"s{k:05d}": "in" for k in range(n)}
    moves = _count_calls(monkeypatch, "next_node")
    assert spe_check_direct(g, always_in).holds
    assert len(moves) <= 3 * n


def test_subgame_checks_build_no_form(monkeypatch):
    """On a fresh form, no subgame or piece check builds a Pentaform:
    every walk runs in place up to the next subroot.  The player's name keeps
    the form unequal to every other test's, so no cached partition exists."""
    g = _chain(1000, "Fresh")
    s = {f"s{k:05d}": "in" for k in range(1000)}
    s["s00500"] = "out"
    builds = _count_calls(monkeypatch, "_grow")
    assert not spe_check_direct(g, s).holds
    assert not one_piece_unimprovable(g, s).holds
    v = authentic_value(g, s)
    assert not piecewise_nash(g, s, v).holds
    assert persistent(g, s, v).holds
    assert builds == []


def _count_games(monkeypatch) -> list:
    """Record every Game built from now on."""
    games = []
    build = Game.__init__

    def counted(self, *args):
        games.append(args)
        build(self, *args)

    monkeypatch.setattr(Game, "__init__", counted)
    return games


def test_solve_and_inspect_build_no_piece_form(tmp_path, monkeypatch, capsys):
    """On a fresh 1,000-node chain, backward induction and the CLI's piece
    listing build no piece form and no piece game: the library solver builds
    no form at all, and each command builds only the form (and game) it
    loads."""
    g = _chain(1000, "Solo")
    fileio.save_game(tmp_path / "chain.game", g)
    fileio.save_pentaform(tmp_path / "chain.pentaform", g.form)
    grows = _count_calls(monkeypatch, "_grow")
    games = _count_games(monkeypatch)
    assert solve_backward(g) == BackwardSolution({f"s{k:05d}": "in" for k in range(1000)},
                                                 {f"w{k:05d}": {"Solo": 0} for k in range(1000)})
    assert (len(grows), len(games)) == (0, 0)
    assert cli.main(["solve", str(tmp_path / "chain.game")]) == 0
    assert (len(grows), len(games)) == (1, 1)
    grows.clear()
    games.clear()
    dot = tmp_path / "chain.dot"
    assert cli.main(["inspect", str(tmp_path / "chain.pentaform"), "--pieces", "--dot", str(dot)]) == 0
    assert (len(grows), len(games)) == (1, 0)
    assert "piece partition covers 2000/2000 quintuples in 1000 pieces" in capsys.readouterr().out


def test_subroot_sequences_build_no_piece_form(monkeypatch):
    """A one-step sequence from the last subroot of a fresh 1,000-node chain
    builds no form (it built all 1,000 piece forms when each step traced a
    built piece form), and neither does the whole sequence from the root."""
    g = _chain(1000, "Tail")
    s = {f"s{k:05d}": "in" for k in range(1000)}
    grows = _count_calls(monkeypatch, "_grow")
    assert subroot_sequence(g.form, s, "w00999") == SubrootSequence(("w00999",), TERMINATED)
    assert len(subroot_sequence(g.form, s, "w00000").subroots) == 1000
    assert grows == []


def test_subform_outcome_and_piece_endnodes_build_no_form(monkeypatch):
    """On a fresh 1,000-node chain, the subform outcome at a subroot and the
    piece-endnode split walk the form in place: no form is built."""
    g = _chain(1000, "Walker")
    s = {f"s{k:05d}": "in" for k in range(1000)}
    grows = _count_calls(monkeypatch, "_grow")
    assert subform_outcome(g.form, "w00500", s)[-1] == outcome(g.form, s)[-1]
    report = classify_piece_endnodes(g.form)
    assert report.exits_to_subroots["w00998"] == {"w00999"}
    assert len(report.final_endnodes["w00999"]) == 2
    assert grows == []


# -- Nash-point search: best responses shared between profiles ----------------
# `solve_backward` and `solve_stationary` must return exactly what the
# reference solvers' one-full-Nash-check-per-profile scans return.


SOLVER_POOL = [random_game(seed, max_nodes=60, max_info_set=6) for seed in range(100)]


def _fixture_games(tmp_path) -> list[Game]:
    from test_cli_golden import GAMES, _workdir

    work = _workdir(tmp_path)
    # the number-*.game files hold texts outside the number grammar and do not load
    names = sorted(p.name for p in (work / "fixtures").glob("*.game") if not p.name.startswith("number-"))
    assert {f"{name}.game" for name in GAMES} | {"crywolf_depth2.game", "entry.game"} <= set(names)
    return [fileio.load_game(work / "fixtures" / name) for name in names]


def _backward_piece_games(g: Game):
    """The piece games that solve_backward scans, deepest subroot first,
    priced by the reference solver's values."""
    solution = reference_solve_backward(g)
    values = solution.values if isinstance(solution, BackwardSolution) else {}
    for t in sorted(subroots(g.form), key=lambda t: (-g.form.depth(t), t)):
        yield piece_game(g, values, t)
        if t not in values:
            return


def _walked_first_nash_point(pg: Game, profiles) -> dict | None:
    """The profile of `first_nash_point`'s row on pg's rows, each reach set
    one deviation walk, as `solve_backward` scans a piece."""
    form = pg.form
    row = first_nash_point(form, form.situations, ((p, outcome(form, p)[-1]) for p in profiles),
                           pg.utilities, lambda i, key, profile: _reachable_exits(form, profile, i))
    return None if row is None else row[0]


def _assert_same_first_nash_point(pg: Game, largest_first: bool = False) -> None:
    def profiles():
        return enumerate_piece_profiles(pg.form, pg.form.situations, pg.form.root, largest_first)

    expected = reference_first_nash_point(pg, profiles())
    assert _walked_first_nash_point(pg, profiles()) == expected
    if largest_first:  # a quotient piece game, scanned from its class table as the sweeps do
        table = _ClassTable(pg.form)
        for _ in range(2):  # the second scan reads the rows and reach sets the first one stored
            row = first_nash_point(pg.form, pg.form.situations, table.rows(), pg.utilities, table.reach)
            assert (None if row is None else row[0]) == expected


def test_first_nash_point_matches_reference_on_solver_pools():
    for g in [*SOLVER_POOL, *WOLF_TRUNCATIONS[:3]]:
        for pg in _backward_piece_games(g):
            _assert_same_first_nash_point(pg)
    rng = random.Random(0)
    for seed in range(300):
        sys_ = random_discounted_system(seed)
        if sys_ is None:
            continue
        for w in ({c: sys_.zero_profile() for c in sys_.classes},
                  continuation_values(sys_, _random_stationary_strategy(sys_, rng))):
            for c in sorted(sys_.classes):
                _assert_same_first_nash_point(reference_quotient_piece_game(sys_, c, w), largest_first=True)


def _pennies_piece(m: int) -> Game:
    """One piece, three players: P1 (the first, binary situation) and P2 (one
    information set) play matching pennies, then P3, who is indifferent, walks
    a chain of m binary information sets that each span the four pennies
    outcomes.  4·2^m profiles, and none is a pure Nash point."""
    qs = [Quintuple("P1", "j1", "r", "h", "H"), Quintuple("P1", "j1", "r", "t", "T")]
    utilities = {}
    for a in "HT":
        for b in "ht":
            qs.append(Quintuple("P2", "j2", a, b, a + b))
            sign = 1 if (a == "H") == (b == "h") else -1
            pay = {"P1": sign, "P2": -sign, "P3": 0}
            for k in range(m):
                x = a + b + "." * k
                qs.append(Quintuple("P3", f"k{k:02d}", x, "go", x + "."))
                qs.append(Quintuple("P3", f"k{k:02d}", x, "stop", x + "x"))
                utilities[x + "x"] = pay
            utilities[a + b + "." * m] = pay
    return Game(validate(qs), ["P1", "P2", "P3"], utilities)


def _collision_piece() -> Game:
    """One piece: P1 picks l or r at the root, then P2 moves twice without
    seeing it (situations b and c span both branches).  P1's best deviation
    value differs between s₋₁ = (x, y) and (y, x), so a memo key that does
    not tell them apart accepts (l, y, x), which is not Nash; the first
    Nash point is (l, y, y)."""
    u1 = {"lxx": 0, "lxy": 0, "lyx": 1, "lyy": 1, "rxx": 1, "rxy": 0, "ryx": 2, "ryy": 0}
    qs = [Quintuple("P1", "a", "o", "l", "l"), Quintuple("P1", "a", "o", "r", "r")]
    for h in ("l", "r"):
        for b in "xy":
            qs.append(Quintuple("P2", "b", h, b, h + b))
            for c in "xy":
                qs.append(Quintuple("P2", "c", h + b, c, h + b + c))
    utilities = {y: {"P1": u1[y], "P2": int(y[0] == "l" and y[1] == "y")} for y in u1}
    return Game(validate(qs), ["P1", "P2"], utilities)


def test_first_nash_point_keys_tell_every_choice_of_the_others_apart():
    pg = _collision_piece()
    assert subroots(pg.form) == {"o"}
    profiles = list(enumerate_piece_profiles(pg.form, pg.form.situations, "o"))
    expected = {"a": "l", "b": "y", "c": "y"}
    assert reference_first_nash_point(pg, profiles) == expected
    assert _walked_first_nash_point(pg, profiles) == expected
    assert solve_backward(pg) == BackwardSolution(expected, {"o": {"P1": 1, "P2": 1}})


def test_first_nash_point_memo_is_at_most_half_the_tuple_keyed_one():
    """P1 owns only the binary first situation, so the scan keeps a best
    response for each of the other players' 2^11 choices.  A tuple-keyed
    memo in `first_nash_point` fails this at every chain length from 6 to
    14, so 10 is enough."""
    pg = _pennies_piece(10)
    assert subroots(pg.form) == {"r"}
    assert prod(len(pg.form.action_set(j)) for j in pg.form.situations) == 2**12
    peaks = []
    for search in (_walked_first_nash_point, reference_first_nash_point):
        tracemalloc.start()
        try:
            assert search(pg, enumerate_piece_profiles(pg.form, pg.form.situations, pg.form.root)) is None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 2 * peaks[0] <= peaks[1], peaks


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


def _kind(result) -> str:
    return getattr(result, "kind", "solved")


def test_solve_stationary_matches_reference_on_random_systems():
    # every outcome the corpus reaches is asserted, so no branch of the
    # differential can drop out unnoticed
    kinds = Counter()
    for seed in range(300):
        sys_ = random_discounted_system(seed)
        if sys_ is not None:
            kinds[_kind(_assert_solve_stationary_matches_reference(sys_))] += 1
    assert kinds == {"solved": 196, "no-convergence": 1}


def test_solve_stationary_matches_reference_on_ring_systems():
    for seed in range(10):
        _assert_solve_stationary_matches_reference(random_ring_system(seed))
    for shape in ((3, 3), (4, 2), (2, 5)):
        for seed in range(3):
            _assert_solve_stationary_matches_reference(random_ring_system(seed, shape))


def test_solve_stationary_matches_reference_on_bimatrix_systems():
    kinds = Counter()
    for seed in range(40):
        sys_ = _bimatrix_system(seed)
        if sys_ is not None:
            kinds[_kind(_assert_solve_stationary_matches_reference(sys_))] += 1
    assert kinds == {"solved": 14, "no-pure-equilibrium": 18, "no-convergence": 1}


@pytest.mark.parametrize("continue_on", [None, "Hh"])
def test_solve_stationary_matches_reference_on_matching_pennies(continue_on):
    sys_ = StationarySystem({"day": _matching_pennies_class(continue_on)}, "day",
                            DiscountedAccumulation(Fraction(1, 2)), ["p1", "p2"])
    result = _assert_solve_stationary_matches_reference(sys_)
    assert result == stationary.StationarySolveFailure("no-pure-equilibrium", "day")


def test_solve_stationary_matches_reference_on_cry_wolf():
    _assert_solve_stationary_matches_reference(WOLF)


# Counts every deviation search by patching `game._best_deviation`, keyed by
# (game, walk start, player, s₋ᵢ over the piece's situations): the solver
# walks each piece of the whole form from its subroot with a profile over the
# piece's situations, and the reference walks the built piece form from its
# root, which is the same subroot.  The pool is SOLVER_POOL's, drawn under a
# fixed hash seed in a subprocess: random_game draws its utilities in set
# order, so the pool, and with it the ratio of the two counts, changes with
# the interpreter's hash seed.
_SEARCH_COUNT = """
import json
from pentaform import game, random_game, solve_backward
from conftest import reference_solve_backward
search = game._best_deviation
keys = []
def counted(form, s, i, start, value_of_endnode, *through):
    others = tuple((j, s[j]) for j in sorted(s) if form.player_of(j) != i)
    keys.append((index, start, i, others))
    return search(form, s, i, start, value_of_endnode, *through)
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
    """No (game, walk start, player, s₋ᵢ) key is searched twice, and the
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


def _quotient_system(name: str, tmp_path: Path) -> StationarySystem:
    from test_cli_golden import QUOTIENT_SYSTEMS

    path = tmp_path / f"{name}.system"
    path.write_text(json.dumps(QUOTIENT_SYSTEMS[name]), encoding="utf-8")
    return fileio.load_system(path)


def test_value_iteration_stops_at_a_repeated_sweep_state(tmp_path, monkeypatch):
    """gen5's sweeps fall into a four-sweep cycle that can never settle, so
    value iteration gives its "no-convergence" once the repeated state is
    seen, within 16 sweeps instead of all SOLVE_MAX_SWEEPS = 500.  A sweep
    scans each class's rows once."""
    sys_ = _quotient_system("gen5", tmp_path)
    rows = _ClassTable.rows
    scans = []

    def counted(self):
        scans.append(self)
        return rows(self)

    monkeypatch.setattr(_ClassTable, "rows", counted)
    result = stationary.solve_stationary(sys_)
    assert result == stationary.StationarySolveFailure("no-convergence", None)
    assert len(scans) % len(sys_.classes) == 0
    assert len(scans) // len(sys_.classes) <= 16 < stationary.SOLVE_MAX_SWEEPS


@pytest.mark.parametrize("name", ["gen5", "crywolf"])
def test_solve_stationary_walks_each_deviation_once_and_builds_no_game(name, tmp_path, monkeypatch):
    """Value iteration scans each class's table: a deviation walk per
    distinct (class, player, s₋ᵢ), however many sweeps run, and no game.
    gen5 runs all 500 sweeps (the scan that built a game per class and
    sweep made 6,501 walks and 2,500 games there); cry-wolf stabilizes and
    passes the exact check, which reads the reach sets already walked."""
    sys_ = WOLF if name == "crywolf" else _quotient_system(name, tmp_path)
    class_of = {id(cls.template): c for c, cls in sys_.classes.items()}
    search = game._best_deviation
    keys = []

    def counted(form, s, i, start, value_of_endnode, *through):
        others = tuple(s[j] for j in sorted(form.situations) if form.player_of(j) != i)
        keys.append((class_of[id(form)], i, others))
        return search(form, s, i, start, value_of_endnode, *through)

    games = 0
    build = Game.__init__

    def built(self, *args):
        nonlocal games
        games += 1
        build(self, *args)

    monkeypatch.setattr(game, "_best_deviation", counted)
    monkeypatch.setattr(stationary, "_best_deviation", counted)
    monkeypatch.setattr(Game, "__init__", built)
    result = stationary.solve_stationary(sys_)
    monkeypatch.undo()
    assert result == reference_solve_stationary(sys_)
    assert _kind(result) == ("no-convergence" if name == "gen5" else "solved")
    assert games == 0
    assert 0 < len(keys) == len(set(keys))


def test_certify_spe_builds_no_game(tmp_path, monkeypatch):
    """Certification scans each class template in place: no game is built on
    cry-wolf or on a generated five-class system (a game per class and
    check before)."""
    gen5 = _quotient_system("gen5", tmp_path)
    first = {c: {j: min(cls.template.action_set(j)) for j in cls.template.situations}
             for c, cls in gen5.classes.items()}
    games = _count_games(monkeypatch)
    assert certify_spe(WOLF, cry_wolf_calm_strategy()).kind == SPE_CERTIFIED
    assert certify_spe(gen5, first).kind == stationary.REFUTED
    assert len(gen5.classes) == 5
    assert games == []
