"""The linear-time structure layer against its brute-force oracles, the axiom
diagnosis and `validate` against the reference check and structure build
(on every axiom's mutations too), trusted subforms and pieces against the
reference axiom check, subgame and piece checks (each walk runs in place up
to the next subroot) against searches of built subform and piece games, with
the moves and form builds they make counted on deep chains, the class graph
test for aperiodic runs against its SCC definition, the continue-label
prefix check against the rule over every pair, the stationary unfolding
and value code (one pricing rule per utility model) against the per-model
branches they replaced, the in-place piecewise-Nash scan of each class
template against `nash_check` on the reference quotient piece game (and
certification's game builds counted), the discounted conceivable bounds
(policy iteration) against the enumeration of every exit policy, every
model's bounds and convergence verdicts against the per-model reference
code, the values of every certified stationary SPE against the authentic,
persistent and admissible checks, the admissible and authentic checks'
verdicts and witnesses against run enumeration, subform traces and the reference bounds
and continuation values, both solvers' Nash-point search (the incremental
scan, with best endnodes shared between profiles) against the reference
scans that run a full Nash check on every profile, on tie-heavy and
absentminded corpora and past the profile cap, and against the tuple-keyed
memo (results and peak memory), the scan's run walks and deviation walks
counted, value iteration's deviation walks and game builds counted, its
integer sweeps against the `Fraction` reference on hard arithmetic (sweep
counts compared) with the `Fraction`s a solve makes and its reads of the
profile cap counted, policy iteration's integer rounds against the
`Fraction`-priced reference on hard arithmetic (round counts compared) with
the `Fraction`s a bounds call makes counted, and deep forms that must not
exhaust the interpreter's recursion depth."""

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
from pentaform.game import BackwardSolution, PieceScan, _reachable_exits, first_nash_point, piece_game
from pentaform.numbers import INF, NEG_INF
from pentaform.partition import _partition, piece_decision_nodes, piece_owners
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
from pentaform.strategy import outcome

from conftest import (
    ReferencePentaform,
    chain_game,
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
    reference_prefix_clash,
    reference_absolute_bounds,
    reference_best_deviation,
    reference_check_axioms,
    reference_conceivable_bounds,
    reference_continuation_values,
    reference_discounted_extremes,
    reference_expand,
    reference_first_nash_point,
    reference_piece_profiles,
    reference_induced_strategy,
    reference_policy_iteration,
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
    zero_profile,
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
    assert list(part.nodes) == sorted(ts, key=lambda t: (form.depth(t), t))
    assert list(part.deepest_first) == sorted(ts, key=lambda t: (-form.depth(t), t))


def _check_structure(form) -> None:
    """The subroots and owners match their oracles on form, as built and as
    rebuilt fresh by the trusted constructor and by `validate`, and each
    build's construction walk leaves a decision-node preorder
    (`_preorder`): each decision node once, the root first, and every
    decision node's subtree one contiguous block, which `_partition` reads.
    Each decision node's stored (action, successor) pairs list exactly its
    situation's actions in sorted order, the order in which the deviation
    walk branches along them."""
    assert bounded_predecessor_walk(form.quintuples) == []
    for built in (form, Pentaform(form.quintuples), validate(form.quintuples)):
        assert subroots(built) == brute_force_subroots(built)
        _check_owners(built)
        order = built._preorder
        assert sorted(order) == sorted(built.decision_nodes) and order[0] == built.root
        pos = {x: i for i, x in enumerate(order)}
        for w in order:
            below = {x for x in built.subtree_nodes(w) if x in built.decision_nodes}
            assert set(order[pos[w]:pos[w] + len(below)]) == below
            assert [a for a, _ in built._children[w]] == sorted(built.action_set(built.situation_of(w)))


def test_structure_matches_oracles_on_corpus(small_corpus):
    for g in small_corpus:
        _check_structure(g.form)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_structure_matches_oracles_on_cry_wolf(depth):
    _check_structure(WOLF_TRUNCATIONS[depth - 1].form)


def test_structure_matches_oracles_on_the_solve_pool_shape():
    """Forms of the random-solve pool's shape, up to 60 nodes with
    information sets of up to 6 (the small corpus stops at 12 and 3), and
    cry-wolf unfolded to depth 3."""
    for i in range(200):
        _check_structure(random_game(i, max_nodes=60, max_info_set=6).form)
    _check_structure(instantiate(cry_wolf(), 3))


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
    zero = AbsoluteTerminal({cyc: zero_profile(sys_) for cyc in simple_cycles(sys_.continue_graph())})
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
    """The continuation values, the unfolding at each depth, value_at at
    every subroot and the persistence verdicts agree with the reference code, and the truncations
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


def test_prefix_check_matches_pairwise_reference_on_random_labels():
    """The class check compares neighbouring continue labels only; it names
    the pair that comparing every pair names, with terminal labels between."""
    rng = random.Random(2607)
    clashes = 0
    for _ in range(400):
        labels = sorted({"".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                         for _ in range(rng.randint(1, 6))})
        continues = [y for y in labels if rng.random() < 0.7]
        template = validate([Quintuple("p", "j", "", f"m{n}", y) for n, y in enumerate(labels)])
        cls = PieceClass(template, {y: Exit({"p": 0}, next_class="c" if y in continues else None)
                                    for y in labels})
        expected = reference_prefix_clash(continues)
        if expected is None:
            assert StationarySystem({"c": cls}, "c", DiscountedAccumulation(Fraction(1, 2)), ["p"]).classes
            continue
        clashes += 1
        with pytest.raises(ValueError) as caught:
            StationarySystem({"c": cls}, "c", DiscountedAccumulation(Fraction(1, 2)), ["p"])
        a, b = expected
        assert str(caught.value) == f"class 'c': continue labels {a!r} and {b!r} are not prefix-free"
    assert 50 < clashes < 350


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


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_discounted_truncation_prices_infinite_continuations(depth):
    # the random class values are finite under discounting; here β^level
    # scales an infinite cut value and leaves it infinite
    continuation = {"day": {"Wolf": INF, "Kid": NEG_INF, "Town": Fraction(1, 3)}}
    game = truncated_game(WOLF, depth, continuation)
    assert game == reference_truncated_game(WOLF, depth, continuation)
    _assert_priced(*game.utilities.values())


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


CHAIN_VALUES = stationary._integer_chain_values


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

    monkeypatch.setattr(stationary, "_integer_chain_values", counted)
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


def test_absolute_bounds_match_reference_on_random_class_graphs():
    """Random class graphs, often of several strongly connected components,
    with terminal rewards and cycle utilities drawn for two stakeholders
    independently, some infinite, so the two rank the ends differently:
    every class's bounds are the reference's (min, max) over its reachable
    ends.  A graph has several components exactly when some class cannot
    reach c0."""
    rng = random.Random(3)
    split = ranked_apart = 0

    def draw() -> dict:
        return {k: _random_scalar(rng, True) for k in ("p", "q")}

    for _ in range(500):
        graph = _random_class_graph(rng)
        classes = {c: PieceClass(cls.template, {y: Exit({"p": 0, "q": 0}, e.next_class) if e.next_class
                                                else Exit(draw()) for y, e in cls.exits.items()})
                   for c, cls in _class_graph_system(graph).classes.items()}
        cycles = {cyc: draw() for cyc in simple_cycles(graph)}
        sys_ = StationarySystem(classes, "c0", AbsoluteTerminal(cycles), ["p", "q"])
        for c in sorted(sys_.classes):
            for k in ("p", "q"):
                assert conceivable_bounds(sys_, c, k) == reference_absolute_bounds(sys_, c, k), (c, k)
        split += any("c0" not in sys_.reachable_from(c) for c in sys_.classes)
        ends = [e.reward for cls in classes.values() for e in cls.exits.values() if e.is_terminal]
        ends += list(cycles.values())
        order = {k: sorted(range(len(ends)), key=lambda i: ends[i][k]) for k in ("p", "q")}
        ranked_apart += order["p"] != order["q"]
    assert split > 100
    assert ranked_apart > 200


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


def test_conceivable_bounds_table_matches_per_call_walks(small_corpus):
    """The bounds a game reads from its table are, at every node and
    stakeholder, the ones a fresh walk of the node's subtree finds, the
    same numbers of the same types, and a bad stakeholder or node raises
    the same error, the stakeholder checked first: on the small corpus, on
    chains and on the cry-wolf truncations."""
    games = [*small_corpus, *(chain_game(n) for n in (1, 2, 50, 300)), *WOLF_TRUNCATIONS[:3]]
    for g in games:
        for x in sorted(g.form.nodes):
            for k in sorted(g.stakeholders):
                assert repr(g._conceivable_bounds(x, k)) == repr(reference_conceivable_bounds(g, x, k))
    g = games[0]
    for x, k in ((g.form.root, "nobody"), ("nowhere", min(g.stakeholders)), ("nowhere", "nobody")):
        assert _result(lambda: g._conceivable_bounds(x, k)) == _result(lambda: reference_conceivable_bounds(g, x, k))


def test_admissible_walks_the_form_once_on_a_chain(monkeypatch):
    """`admissible` on a 2,000-node chain fills the game's bounds table in
    one walk of the form, where a walk of each subroot's subtree made 2,000
    walks and took time quadratic in the chain."""
    g = chain_game(2000, "Once")
    values = authentic_value(g, {f"s{k:05d}": "in" for k in range(2000)})
    walks = _count_calls(monkeypatch, "subtree_nodes")
    assert admissible(g, values).holds
    assert len(walks) <= 1


def test_engine_walks_no_subtree_on_a_fresh_chain(tmp_path, monkeypatch, capsys):
    """On a fresh 2,000-node chain, the partition, the solver, the subgame
    checks, the bounds table and the CLI's piece listing each read the
    preorder that the form's construction walk recorded: none walks a
    subtree again."""
    g = chain_game(2000, "Unwalked")
    s = {f"s{k:05d}": "in" for k in range(2000)}
    values = authentic_value(g, s)
    fileio.save_pentaform(tmp_path / "chain.pentaform", g.form)
    walks = _count_calls(monkeypatch, "subtree_nodes")
    assert len(_partition(g.form).nodes) == 2000
    assert isinstance(solve_backward(g), BackwardSolution)
    assert spe_check_direct(g, s).holds and one_piece_unimprovable(g, s).holds
    assert admissible(g, values).holds
    assert cli.main(["inspect", str(tmp_path / "chain.pentaform"), "--pieces"]) == 0
    assert "in 2000 pieces" in capsys.readouterr().out
    assert walks == []


def _deviation(result: tuple) -> tuple:
    """A deviation walk's value, its choices with their key order, and the node it reaches."""
    value, choices, end = result
    return repr(value), list(choices.items()), end


def test_best_deviation_matches_the_reference_walk(small_corpus):
    """The deviation walk, which reads the form's tables and branches along
    each node's stored pairs, returns what the reference walk returns, which
    calls the checked accessors and sorts each action set: the best value,
    the choices in the same key order, and the node reached.  Every player
    walks under a random strategy, with every node priced at random (ties
    included), from every subroot over the whole form, and over each piece
    in place against the walk of its explicit piece form: on the random
    corpus, at least 100 absentminded games and the class templates of the
    fixture systems."""
    absentminded = [g for g in (random_game(seed, max_nodes=20) for seed in range(400)) if is_absentminded(g.form)]
    assert len(absentminded) >= 100, len(absentminded)
    forms = [g.form for g in (*small_corpus, *absentminded)]
    forms += [cls.template for system in (ann_chain, bob_chain, eda_chain, cry_wolf)
              for _, cls in sorted(system().classes.items())]
    rng = random.Random(3838)
    improved = walks = 0
    for form in forms:
        s = random_strategy(form, rng)
        worth = {y: Fraction(rng.randint(-2, 2)) for y in sorted(form.nodes)}.__getitem__
        part = _partition(form)
        for t, through in part.nodes.items():
            piece = piece_form(form, t)
            for i in sorted(form.players):
                whole = game._best_deviation(form, s, i, t, worth, form.decision_nodes)
                assert _deviation(whole) == _deviation(
                    reference_best_deviation(form, s, i, t, form.situations, worth))
                inside = game._best_deviation(form, s, i, t, worth, through)
                assert _deviation(inside) == _deviation(
                    reference_best_deviation(piece, s, i, t, piece.situations, worth))
                improved += whole[0] > worth(outcome(form, s, t)[-1])
                walks += 2
    assert improved > 100 and walks > 1000, (improved, walks)


def _refuse_checked_accessors(monkeypatch) -> None:
    """Make the checked accessors of every Pentaform raise from now on."""
    def refuse(self, *args):
        raise AssertionError(f"a walk called a checked accessor with {args!r}")

    for name in ("situation_of", "player_of", "action_set", "next_node"):
        monkeypatch.setattr(Pentaform, name, refuse)


def test_walks_call_no_checked_accessor(monkeypatch):
    """Every walk reads the form's own tables.  With `situation_of`,
    `player_of`, `action_set` and `next_node` made to raise, the solver, the
    Nash-type checks, the authentic values and the value checks give the
    same answers on a fresh pool-shaped random game and a fresh 2,000-node
    chain, and so do `certify_spe` and `solve_stationary` on the cry-wolf
    fixture system."""
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    calm = fileio.load_stationary_strategy(fixtures / "crywolf_calm.strategy")
    half_in = {f"s{k:05d}": "in" if k != 500 else "out" for k in range(2000)}

    def fresh() -> tuple:
        g = random_game(23, max_nodes=60, max_info_set=6)
        return ((g, random_strategy(g.form, random.Random(23))), (chain_game(2000, "Tabled"), half_in),
                fileio.load_system(fixtures / "crywolf.system"))

    def answers(games, wolf) -> str:
        out = []
        for g, s in games:
            values = authentic_value(g, s)
            out += [solve_backward(g), nash_check(g, s), spe_check_direct(g, s), one_piece_unimprovable(g, s),
                    values, persistent(g, s, values), piecewise_nash(g, s, values)]
        out += [certify_spe(wolf, calm), stationary.solve_stationary(wolf)]
        return repr(out)

    *expected_games, expected_wolf = fresh()
    *games, wolf = fresh()
    expected = answers(expected_games, expected_wolf)
    _refuse_checked_accessors(monkeypatch)
    assert answers(games, wolf) == expected


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


def test_deep_chain_needs_no_recursion():
    n = 5000
    g = chain_game(n)
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


class _CountedReads(dict):
    """A form's table that counts the reads made by subscript."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)


@pytest.mark.parametrize("n", [500, 1000])
def test_spe_check_walks_each_piece_once_on_chains(n):
    """The value recursion walks each one-node piece once per player, plus
    one conforming trace.  Every walk reads the situation of each decision
    node it enters from the form's table, so the check reads it at most 2n
    times, where searching every subgame to the end of the chain reads it
    n(n + 1) times."""
    g = chain_game(n)
    always_in = {f"s{k:05d}": "in" for k in range(n)}
    _partition(g.form)  # the partition's own sweeps read the table too
    entered = g.form._situation_of = _CountedReads(g.form._situation_of)
    assert spe_check_direct(g, always_in).holds
    assert 0 < entered.reads <= 2 * n


def test_subgame_checks_build_no_form(monkeypatch):
    """On a fresh form, no subgame or piece check builds a Pentaform:
    every walk runs in place up to the next subroot.  The player's name keeps
    the form unequal to every other test's, so no cached partition exists."""
    g = chain_game(1000, "Fresh")
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
    """Record every Game built from now on, by the library constructor or
    by the file loader's (both fill the game with `Game._fill`)."""
    games = []
    build = Game._fill

    def counted(self, *args):
        games.append(args)
        build(self, *args)

    monkeypatch.setattr(Game, "_fill", counted)
    return games


def test_solve_and_inspect_build_no_piece_form(tmp_path, monkeypatch, capsys):
    """On a fresh 1,000-node chain, backward induction and the CLI's piece
    listing build no piece form and no piece game: the library solver builds
    no form at all, and each command builds only the form (and game) it
    loads."""
    g = chain_game(1000, "Solo")
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
    g = chain_game(1000, "Tail")
    s = {f"s{k:05d}": "in" for k in range(1000)}
    grows = _count_calls(monkeypatch, "_grow")
    assert subroot_sequence(g.form, s, "w00999") == ("w00999",)
    assert len(subroot_sequence(g.form, s, "w00000")) == 1000
    assert grows == []


def test_subform_outcome_and_piece_endnodes_build_no_form(monkeypatch):
    """On a fresh 1,000-node chain, the subform outcome at a subroot and the
    piece-endnode split walk the form in place: no form is built."""
    g = chain_game(1000, "Walker")
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


def _backward_piece_games(g: Game, values: dict | None = None):
    """The piece games that solve_backward scans, deepest subroot first,
    priced by `values`, by default the reference solver's values."""
    if values is None:
        solution = reference_solve_backward(g)
        values = solution.values if isinstance(solution, BackwardSolution) else {}
    for t in sorted(subroots(g.form), key=lambda t: (-g.form.depth(t), t)):
        yield piece_game(g, values, t)
        if t not in values:
            return


def _walked_first_nash_point(pg: Game, largest_first: bool = False) -> dict | None:
    """The profile of `first_nash_point`'s row on pg's one piece, each reach
    set one deviation walk, as `solve_backward` scans a piece."""
    form = pg.form
    row = first_nash_point(PieceScan(form, form.root, form.decision_nodes, largest_first=largest_first),
                           pg.utilities)
    return None if row is None else row[0]


def _assert_same_first_nash_point(pg: Game, largest_first: bool = False) -> None:
    expected = reference_first_nash_point(
        pg, reference_piece_profiles(pg.form, pg.form.situations, pg.form.root, largest_first))
    assert _walked_first_nash_point(pg, largest_first) == expected
    if largest_first:  # a quotient piece game, read from its class table as the sweeps read it
        table = _ClassTable("c", pg.form)
        for _ in range(2):  # the second sweep reads the rows and reach sets the first one stored
            r = table.first_nash_row(pg.utilities)
            assert (None if r is None else table.profiles[r]) == expected


def test_first_nash_point_matches_reference_on_solver_pools():
    for g in [*SOLVER_POOL, *WOLF_TRUNCATIONS[:3]]:
        for pg in _backward_piece_games(g):
            _assert_same_first_nash_point(pg)
    rng = random.Random(0)
    for seed in range(300):
        sys_ = random_discounted_system(seed)
        if sys_ is None:
            continue
        for w in ({c: zero_profile(sys_) for c in sys_.classes},
                  continuation_values(sys_, _random_stationary_strategy(sys_, rng))):
            for c in sorted(sys_.classes):
                _assert_same_first_nash_point(reference_quotient_piece_game(sys_, c, w), largest_first=True)


def _pennies_piece(m: int, p1_situation: str = "j1", p2_situation: str = "j2") -> Game:
    """One piece, three players: P1 (the binary situation at the root) and P2
    (one information set) play matching pennies, then P3, who is
    indifferent, walks a chain of m binary information sets k00, k01, …
    that each span the four pennies outcomes.  4·2^m profiles, and none is a
    pure Nash point."""
    qs = [Quintuple("P1", p1_situation, "r", "h", "H"), Quintuple("P1", p1_situation, "r", "t", "T")]
    utilities = {}
    for a in "HT":
        for b in "ht":
            qs.append(Quintuple("P2", p2_situation, a, b, a + b))
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
    profiles = list(reference_piece_profiles(pg.form, pg.form.situations, "o"))
    expected = {"a": "l", "b": "y", "c": "y"}
    assert reference_first_nash_point(pg, profiles) == expected
    assert _walked_first_nash_point(pg) == expected
    assert solve_backward(pg) == BackwardSolution(expected, {"o": {"P1": 1, "P2": 1}})


def _scan_peaks(pg: Game) -> list[int]:
    """Peak traced memory of the scan and of the tuple-keyed reference on pg's
    one piece, which has no pure Nash point."""
    peaks = []
    for search in (lambda: _walked_first_nash_point(pg),
                   lambda: reference_first_nash_point(
                       pg, reference_piece_profiles(pg.form, pg.form.situations, pg.form.root))):
        tracemalloc.start()
        try:
            assert search() is None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_first_nash_point_memo_is_at_most_half_the_tuple_keyed_one():
    """P1 owns only the binary first situation, so the scan keeps P1's best
    endnodes for each of the other players' 2^11 choices, one shared set
    per distinct set.  A tuple-keyed memo in `first_nash_point` fails this
    at every chain length from 6 to 14, and a memo that keeps one set per
    key fails it too, so 10 is enough."""
    pg = _pennies_piece(10)
    assert subroots(pg.form) == {"r"}
    assert prod(len(pg.form.action_set(j)) for j in pg.form.situations) == 2**12
    peaks = _scan_peaks(pg)
    assert 2 * peaks[0] <= peaks[1], peaks


def test_scan_memo_is_bounded_for_every_player_but_the_first_sorted():
    """With P3's chain sorted first, then P2's and P1's situations, P1 and P2
    each meet 2^11 keys.  Each key recurs only before a digit sorted ahead of
    all of its player's digits turns, so the scan drops them there and keeps
    a few.  A memo that keeps every key peaks at over a third of the
    tuple-keyed one here."""
    pg = _pennies_piece(10, p1_situation="z1", p2_situation="y2")
    assert sorted(pg.form.situations)[-2:] == ["y2", "z1"]
    peaks = _scan_peaks(pg)
    assert 8 * peaks[0] <= peaks[1], peaks


def _absentminded_piece() -> Game:
    """One piece whose situation z, P1's, repeats along a run: at the root z
    stops ("rs") or continues to m, where z is met again and must continue
    again, so "ms" is reached by no profile.  Then P2's a ends the run
    ("kr") or hands it to P1's y.  P1 owns the two fastest digits, y and z,
    and (a, y, z) = (r, u, c) is the first Nash point."""
    qs = [Quintuple("P1", "z", "r", "c", "m"), Quintuple("P1", "z", "r", "s", "rs"),
          Quintuple("P1", "z", "m", "c", "k"), Quintuple("P1", "z", "m", "s", "ms"),
          Quintuple("P2", "a", "k", "l", "kl"), Quintuple("P2", "a", "k", "r", "kr"),
          Quintuple("P1", "y", "kl", "u", "klu"), Quintuple("P1", "y", "kl", "v", "klv")]
    u1 = {"rs": 1, "ms": 3, "kr": 2, "klu": 0, "klv": 2}
    u2 = {"rs": 0, "ms": 0, "kr": 1, "klu": 1, "klv": 0}
    return Game(validate(qs), ["P1", "P2"], {y: {"P1": u1[y], "P2": u2[y]} for y in u1})


def _scan_games() -> list[Game]:
    return [_collision_piece(), _pennies_piece(3), _pennies_piece(2, "z1", "y2"), _absentminded_piece(),
            *SOLVER_POOL[:20]]


def _scan_pieces() -> list[Game]:
    return [pg for g in _scan_games() for pg in _backward_piece_games(g)]


class _RecordedScan(PieceScan):
    """A scan of form's one piece that records each deviation walk as
    (player, the others' choices)."""

    def __init__(self, form):
        super().__init__(form, form.root, form.decision_nodes)
        self.deviations = []

    def reach(self, i, profile):
        self.deviations.append((i, tuple(a for j, a in profile.items() if self.form.player_of(j) != i)))
        return super().reach(i, profile)


def test_scan_rows_end_where_the_runs_do_and_deviations_are_walked_once():
    """`rows`, iterated without feedback, yields each profile's endnode in
    scan order, and `nash_rows` walks each player's deviations once per
    choice of the other players; its rows are checked by
    `test_nash_rows_jump_only_past_rows_that_are_not_nash`."""
    for pg in _scan_pieces():
        form = pg.form
        profiles = list(reference_piece_profiles(form, form.situations, form.root))
        scan = PieceScan(form, form.root, form.decision_nodes)
        profile, keys = dict(scan.first_profile), dict.fromkeys(scan.players, 0)
        assert [end for end, _ in scan.rows(profile, keys)] == [outcome(form, p)[-1] for p in profiles]
        scan = _RecordedScan(form)
        list(scan.nash_rows(pg.utilities))
        assert len(set(scan.deviations)) == len(scan.deviations)  # no memo entry was dropped too soon


def _reference_rows(form, largest_first: bool):
    """Each profile of form's one piece in scan order, with the endnode its
    run reaches, each player's key (the index of the other players' choices
    in a mixed radix over their situations with more than one action, the
    first sorted least significant) and the first such situation, of all
    players, whose action differs from the profile before (-1 at the
    first)."""
    digits = [j for j in sorted(form.situations) if len(form.action_set(j)) > 1]
    pools = {j: sorted(form.action_set(j), reverse=largest_first) for j in digits}
    before = None
    for profile in reference_piece_profiles(form, form.situations, form.root, largest_first):
        keys = {}
        for i in sorted(form.players):
            keys[i], place = 0, 1
            for j in digits:
                if form.player_of(j) != i:
                    keys[i] += pools[j].index(profile[j]) * place
                    place *= len(pools[j])
        turned = -1 if before is None else next(m for m, j in enumerate(digits) if profile[j] != before[j])
        yield profile, outcome(form, profile)[-1], keys, turned
        before = profile


def test_scan_rows_step_profile_and_keys_as_the_reference_orders_them(tmp_path):
    """`PieceScan.rows` steps the caller's profile and keys through every
    row in the reference's order, each with its endnode, each player's key
    and the digit that turned: on the scan pieces and on the class templates
    of gen0–gen5 and cry-wolf, actions smallest and largest first.  The
    scan pieces drawn from SOLVER_POOL change with the hash seed, so a
    three-player piece of 2^11 rows, drawn from no pool, keeps the
    multi-player rows above the floor under every seed."""
    forms = {pg.form for pg in _scan_pieces()} | {_pennies_piece(9, "z1", "y2").form}
    for sys_ in [_generated_system(index, tmp_path) for index in range(6)] + [WOLF]:
        forms |= {cls.template for cls in sys_.classes.values()}
    rows = multi = 0
    for form in sorted(forms, key=lambda form: sorted(form.quintuples)):
        for largest_first in (False, True):
            scan = PieceScan(form, form.root, form.decision_nodes, largest_first=largest_first)
            profile, keys = dict(scan.first_profile), dict.fromkeys(scan.players, 0)
            walked = [(dict(profile), end, dict(keys), turned) for end, turned in scan.rows(profile, keys)]
            assert walked == list(_reference_rows(form, largest_first))
            rows += len(walked)
            multi += len(walked) * (len(scan.players) > 1)
    assert rows > 25000 and multi > 25000, (rows, multi)


def _priced_scan_forms(tmp_path) -> list[Game]:
    """The scan pieces and the class templates of gen0–gen5 and cry-wolf,
    each priced three ways.  The utilities: a piece's exits at the values
    of obeying every situation's smallest action, a template's exits at
    their rewards.  Tie-heavy prices in {0, 1}.  The values the solvers
    find: the reference solver's, which `solve_backward` matches, for a
    piece, and the continuation values of `solve_stationary`'s answer for a
    template (where it finds one)."""
    rng = random.Random(30)
    priced = []
    for g in _scan_games():
        smallest = {j: min(g.form.action_set(j)) for j in g.form.situations}
        priced += _backward_piece_games(g, authentic_value(g, smallest))
        priced += _backward_piece_games(g)
    for sys_ in [_generated_system(index, tmp_path) for index in range(6)] + [WOLF]:
        solved = stationary.solve_stationary(sys_)
        found = [solved.values] if _kind(solved) == "solved" else []
        for w in [{c: zero_profile(sys_) for c in sys_.classes}, *found]:
            priced += [reference_quotient_piece_game(sys_, c, w) for c in sorted(sys_.classes)]
    forms = {pg.form: pg.stakeholders for pg in priced}
    priced += [Game(form, stakeholders, {y: {k: rng.choice((0, 1)) for k in sorted(stakeholders)}
                                         for y in sorted(form.endnodes)})
               for form, stakeholders in forms.items()]
    return priced


def test_nash_rows_jump_only_past_rows_that_are_not_nash(tmp_path):
    """`nash_rows`, which jumps past rows that fail their tail owner's best
    set, yields exactly the reference's Nash rows, in order: every profile
    in scan order that `nash_check` passes, with its endnode, on each priced
    scan form, actions smallest and largest first.  The jumps leave out
    rows."""
    rows = walked = 0
    for pg in _priced_scan_forms(tmp_path):
        form = pg.form
        nash = {tuple(sorted(p.items())) for p in reference_piece_profiles(form, form.situations, form.root)
                if nash_check(pg, p).holds}
        for largest_first in (False, True):
            profiles = list(reference_piece_profiles(form, form.situations, form.root, largest_first))
            expected = [(p, outcome(form, p)[-1]) for p in profiles if tuple(sorted(p.items())) in nash]
            scan = _CountedScan(form, form.root, form.decision_nodes, largest_first=largest_first)
            assert list(scan.nash_rows(pg.utilities)) == expected
            rows += len(profiles)
            walked += scan.walked
    assert walked < rows, (walked, rows)


class _CountedScan(PieceScan):
    """A scan that counts the rows `rows` yields, jumps included."""

    walked = 0

    def rows(self, profile, keys):
        rows, sent = super().rows(profile, keys), None
        while True:
            try:
                row = rows.send(sent)
            except StopIteration:
                return
            self.walked += 1
            sent = yield row


def _tie_heavy(g: Game, rng: random.Random) -> Game:
    """g with every utility drawn from {0, 1, 2}."""
    return Game(g.form, g.stakeholders,
                {y: {k: rng.choice((0, 1, 2)) for k in sorted(g.stakeholders)} for y in sorted(g.form.endnodes)})


def test_solve_backward_matches_reference_on_tie_heavy_corpus():
    """Utilities from {0, 1, 2}, so a player's best endnodes against the
    others' choices are often several."""
    rng = random.Random(0)
    tied = 0
    for seed in range(400):
        g = _tie_heavy(random_game(seed, max_nodes=30, max_info_set=4), rng)
        assert solve_backward(g) == reference_solve_backward(g), seed
        form = g.form
        t = _partition(form).deepest_first[0]  # its exits are all final endnodes
        s = {j: min(form.action_set(j)) for j in form.situations}
        for i in sorted(form.players):
            ends = _reachable_exits(form, s, i, t, _partition(form).nodes[t])
            best = max(g.utilities[y][i] for y in ends)
            tied += sum(g.utilities[y][i] == best for y in ends) > 1
    assert tied >= 50, tied


def test_solve_backward_matches_reference_on_absentminded_pieces():
    """Pieces where one situation is met twice on one run."""
    games = [g for g in (random_game(seed, max_nodes=20) for seed in range(400)) if is_absentminded(g.form)]
    assert len(games) >= 150, len(games)
    for g in games:
        assert solve_backward(g) == reference_solve_backward(g)


def test_solve_backward_meets_the_cap_as_the_reference_does(monkeypatch, tmp_path, capsys):
    """A piece above PENTAFORM_PROFILE_CAP gives the reference's message,
    before any row is scanned, and `solve` exits 3 with it."""
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", "12")
    capped = []
    for seed in range(200):
        g = random_game(seed, max_nodes=40)
        results = []
        for solve in (solve_backward, reference_solve_backward):
            try:
                results.append(solve(g))
            except game.ResourceCapError as error:
                results.append(str(error))
        assert results[0] == results[1], seed
        if isinstance(results[0], str):
            capped.append((g, results[0]))
    assert len(capped) >= 10, len(capped)
    g, message = capped[0]
    fileio.save_game(tmp_path / "capped.game", g)
    assert cli.main(["solve", str(tmp_path / "capped.game")]) == cli.EXIT_RESOURCE == 3
    assert capsys.readouterr() == ("", f"resource cap exceeded: {message}\n")


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


# Value iteration sweeps in integers over one common denominator; these
# systems make that arithmetic hard: β with large terms (997/1000, 1/999),
# rewards whose denominators mix 3, 7 and 10^20, exact price ties between
# exits, the sweeps going on from exact values, a repeated sweep state and
# all SOLVE_MAX_SWEEPS sweeps at q = 1000.  Besides the answer, the sweep
# count must be the reference's: each scans every class once (the solver's
# `_ClassTable.first_nash_row`, the reference's `reference_piece_profiles`) up to
# the answer, except that the reference, which has no repeat test, always
# runs all sweeps before "no-convergence".

_HARD_REWARDS = [Fraction(1, 3), Fraction(1, 7), Fraction(-1, 7), 1 - Fraction(1, 10**20), Fraction(0),
                 Fraction(1), Fraction(-2, 3)]
_HARD_BETAS = [Fraction(997, 1000), Fraction(1, 999), Fraction(2, 3)]
_BIMATRIX_TEMPLATE = validate([
    Quintuple("p1", "", "", "a0", "1"), Quintuple("p1", "", "", "a1", "2"),
    Quintuple("p2", "1+2", "1", "b0", "3"), Quintuple("p2", "1+2", "1", "b1", "4"),
    Quintuple("p2", "1+2", "2", "b0", "6"), Quintuple("p2", "1+2", "2", "b1", "7"),
])
_CHOICE_TEMPLATE = validate([Quintuple("p1", "", "", a, y) for a, y in (("a0", "3"), ("a1", "4"), ("a2", "5"))])


def _hard_arithmetic_system(seed: int) -> StationarySystem:
    """Two classes, each a 2×2 simultaneous move or a three-way choice of p1,
    with rewards drawn from `_HARD_REWARDS` (so equal prices are common) and
    β from `_HARD_BETAS`; one continue exit of c0 enters c1."""
    rng = random.Random(f"hard-arithmetic:{seed}")
    cids = ["c0", "c1"]
    classes = {}
    for ci, cid in enumerate(cids):
        template = rng.choice([_BIMATRIX_TEMPLATE, _CHOICE_TEMPLATE])
        ends = sorted(template.endnodes)
        ring = rng.choice(ends) if ci == 0 else None
        exits = {}
        for y in ends:
            reward = {p: rng.choice(_HARD_REWARDS) for p in ("p1", "p2")}
            if y == ring:
                exits[y] = Exit(reward, next_class="c1")
            elif rng.random() < 0.25:
                exits[y] = Exit(reward, next_class=rng.choice(cids))
            else:
                exits[y] = Exit(reward)
        classes[cid] = PieceClass(template, exits)
    return StationarySystem(classes, "c0", DiscountedAccumulation(rng.choice(_HARD_BETAS)), ["p1", "p2"])


def _assert_same_solve_and_sweeps(sys_: StationarySystem, monkeypatch) -> tuple[object, int]:
    """The solve equals the reference's, and so does its number of class
    scans unless the answer is "no-convergence"; returns the answer and the
    solver's sweep count."""
    import conftest

    counts = Counter()
    first_nash_row, profiles = _ClassTable.first_nash_row, conftest.reference_piece_profiles

    def solver_scan(self, prices):
        counts["solver"] += 1
        return first_nash_row(self, prices)

    def reference_scan(*args, **kwargs):
        counts["reference"] += 1
        return profiles(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(_ClassTable, "first_nash_row", solver_scan)
        patch.setattr(conftest, "reference_piece_profiles", reference_scan)
        result = stationary.solve_stationary(sys_)
        assert result == reference_solve_stationary(sys_)
    if _kind(result) == "no-convergence":
        assert counts["reference"] == len(sys_.classes) * stationary.SOLVE_MAX_SWEEPS
    else:
        assert counts["solver"] == counts["reference"]
    return result, -(-counts["solver"] // len(sys_.classes))


def test_solve_stationary_matches_reference_on_hard_arithmetic(monkeypatch):
    # every outcome the corpus reaches is asserted; equal prices are common
    # (19 of the 40 systems meet a tie in some best-response set)
    kinds = Counter()
    for seed in range(40):
        sys_ = _hard_arithmetic_system(seed)
        result, sweeps = _assert_same_solve_and_sweeps(sys_, monkeypatch)
        kinds[_kind(result), str(sys_.model.beta)] += 1
        if _kind(result) == "no-convergence":  # a σ-cycle at β = 997/1000: its denominators reach 1000^500
            assert sweeps == stationary.SOLVE_MAX_SWEEPS
    assert kinds == {("solved", "2/3"): 15, ("solved", "1/999"): 10, ("solved", "997/1000"): 8,
                     ("no-convergence", "997/1000"): 3, ("no-pure-equilibrium", "2/3"): 2,
                     ("no-pure-equilibrium", "1/999"): 1, ("no-pure-equilibrium", "997/1000"): 1}


def _one_choice_class(exits: dict[str, Exit], player: str = "P") -> PieceClass:
    """`player` picks one exit of `exits`, whose labels are also the actions."""
    return PieceClass(validate([Quintuple(player, "", "", y, y) for y in exits]), exits)


def test_solve_stationary_matches_reference_on_hard_arithmetic_cases(monkeypatch):
    # an exact tie: at β = 2/3, continuing into B (worth 1/2) pays exactly
    # the 1/3 of stopping, and the largest action, "stop", wins it; when
    # stopping pays 10^-20 less, continuing wins
    for stop, choice in ((Fraction(1, 3), "stop"), (Fraction(1, 3) - Fraction(1, 10**20), "go")):
        sys_ = StationarySystem({
            "A": _one_choice_class({"go": Exit({"P": 0}, next_class="B"), "stop": Exit({"P": stop})}),
            "B": _one_choice_class({"x": Exit({"P": Fraction(1, 2)})}),
        }, "A", DiscountedAccumulation(Fraction(2, 3)), ["P"])
        result, _ = _assert_same_solve_and_sweeps(sys_, monkeypatch)
        assert result.strategy["A"] == {"": choice}
    # the sweeps settle on "stop" before B's value reaches 2, so the exact
    # check fails and the sweeps go on from the exact values
    sys_ = StationarySystem({
        "A": _one_choice_class({"go": Exit({"P": 0}, next_class="B"), "stop": Exit({"P": 1 - Fraction(1, 10**20)})}),
        "B": _one_choice_class({"go": Exit({"P": 1}, next_class="B")}),
    }, "A", DiscountedAccumulation(Fraction(1, 2)), ["P"])
    result, _ = _assert_same_solve_and_sweeps(sys_, monkeypatch)
    assert result.strategy["A"] == {"": "go"}
    # a cycle at β = 997/1000 whose value gains 0.3% a sweep never settles
    # within all the sweeps
    sys_ = StationarySystem({
        "A": _one_choice_class({"go": Exit({"P": Fraction(1, 3)}, next_class="A"),
                                "stop": Exit({"P": Fraction(1, 7)})}),
    }, "A", DiscountedAccumulation(Fraction(997, 1000)), ["P"])
    result, sweeps = _assert_same_solve_and_sweeps(sys_, monkeypatch)
    assert _kind(result) == "no-convergence" and sweeps == stationary.SOLVE_MAX_SWEEPS
    # p1 continues from A into B while B stops, and p2 continues from B into
    # A while A continues, which makes p1 stop: the exact values cycle, and
    # Brent's test meets the repeated state after 8 sweeps
    sys_ = StationarySystem({
        "A": _one_choice_class({"go": Exit({"p1": 0, "p2": 8}, next_class="B"),
                                "stop": Exit({"p1": 1, "p2": 0})}, "p1"),
        "B": _one_choice_class({"go": Exit({"p1": 0, "p2": 0}, next_class="A"),
                                "stop": Exit({"p1": 4, "p2": 1})}, "p2"),
    }, "A", DiscountedAccumulation(Fraction(1, 2)), ["p1", "p2"])
    result, sweeps = _assert_same_solve_and_sweeps(sys_, monkeypatch)
    assert _kind(result) == "no-convergence" and sweeps == 8


# Counts every deviation search by patching `game._best_deviation`, keyed by
# (game, walk start, player, s₋ᵢ over the piece's situations): the solver
# walks each piece of the whole form from its subroot with a profile over the
# piece's situations, and the reference walks the built piece form from its
# root, which is the same subroot.  Counts the rows each solver walks too: the
# rows `PieceScan.rows` yields, and the profiles the reference enumerates.
# The pool is SOLVER_POOL's, drawn under a fixed hash seed in a subprocess:
# random_game draws its utilities in set order, so the pool, and with it the
# ratio of the two counts, changes with the interpreter's hash seed.
_SEARCH_COUNT = """
import json
import conftest
from pentaform import game, random_game, solve_backward
search, rows, profiles = game._best_deviation, game.PieceScan.rows, conftest.reference_piece_profiles
keys = []
walked = []
def counted(form, s, i, start, value_of_endnode, *through):
    others = tuple((j, s[j]) for j in sorted(s) if form.player_of(j) != i)
    keys.append((index, start, i, others))
    return search(form, s, i, start, value_of_endnode, *through)
def counted_rows(self, profile, keys):
    step, sent = rows(self, profile, keys).send, None
    while True:
        try:
            row = step(sent)
        except StopIteration:
            return
        walked[-1] += 1
        sent = yield row
def counted_profiles(*args, **kwargs):
    for profile in profiles(*args, **kwargs):
        walked[-1] += 1
        yield profile
game._best_deviation = counted
game.PieceScan.rows = counted_rows
conftest.reference_piece_profiles = counted_profiles
counts = {}
found = {}
for name, solve in (("shared", solve_backward), ("reference", conftest.reference_solve_backward)):
    keys.clear()
    walked.clear()
    for index in range(100):
        walked.append(0)
        solve(random_game(index, max_nodes=60, max_info_set=6))
    counts[name] = len(keys)
    counts[name + "_rows"] = list(walked)
    found[name] = set(keys)
counts["shared_keys"] = len(found["shared"])
counts["keys_in_reference"] = found["shared"] <= found["reference"]
print(json.dumps(counts))
"""


def test_solve_backward_searches_each_best_response_once():
    """No (game, walk start, player, s₋ᵢ) key is searched twice, each is one
    the reference searches, and the reference runs at least four times as
    many searches.  No game walks more rows than the reference enumerates
    profiles, and the pool walks at most half as many."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run([sys.executable, "-c", _SEARCH_COUNT],
                          env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["shared"] == counts["shared_keys"] and counts["keys_in_reference"]
    assert 4 * counts["shared"] <= counts["reference"]
    shared, reference = counts["shared_rows"], counts["reference_rows"]
    assert all(mine <= theirs for mine, theirs in zip(shared, reference)), (shared, reference)
    assert 2 * sum(shared) <= sum(reference), (sum(shared), sum(reference))


def _quotient_system(name: str, tmp_path: Path) -> StationarySystem:
    from test_cli_golden import QUOTIENT_SYSTEMS

    path = tmp_path / f"{name}.system"
    path.write_text(json.dumps(QUOTIENT_SYSTEMS[name]), encoding="utf-8")
    return fileio.load_system(path)


def test_value_iteration_stops_at_a_repeated_sweep_state(tmp_path, monkeypatch):
    """gen5's sweeps fall into a four-sweep cycle that can never settle, so
    value iteration gives its "no-convergence" once the repeated state is
    seen, within 16 sweeps instead of all SOLVE_MAX_SWEEPS = 500.  A sweep
    scans each class's table once."""
    sys_ = _quotient_system("gen5", tmp_path)
    first_nash_row = _ClassTable.first_nash_row
    scans = []

    def counted(self, prices):
        scans.append(self)
        return first_nash_row(self, prices)

    monkeypatch.setattr(_ClassTable, "first_nash_row", counted)
    result = stationary.solve_stationary(sys_)
    assert result == stationary.StationarySolveFailure("no-convergence", None)
    assert len(scans) % len(sys_.classes) == 0
    assert len(scans) // len(sys_.classes) <= 16 < stationary.SOLVE_MAX_SWEEPS


# the exits of the benchmark's generated system gen2 (β = 7/10), copied
# literally as `test_cli_golden.QUOTIENT_SYSTEMS` copies gen3 and gen5:
# value iteration runs 89 sweeps on it
GEN2_EXITS = {
    "c0": {"3": ("c3", "11", "-6"), "4": ("c0", "11", "11/2"), "5": ("c2", "-1", "-7"),
           "6": ("c4", "7/2", "1"), "7": ("c1", "-12", "-10")},
    "c1": {"3": (None, "16", "-11"), "4": ("c4", "15", "9"), "5": (None, "13/2", "1"),
           "6": ("c3", "0", "14"), "7": ("c2", "-2", "7")},
    "c2": {"3": ("c2", "9/2", "-16"), "4": ("c3", "5/2", "6"), "5": ("c3", "13", "5/2"),
           "6": ("c2", "1/2", "11"), "7": ("c4", "-8", "-13")},
    "c3": {"3": ("c4", "5/2", "19/4"), "4": (None, "6", "19/4"), "5": (None, "-10", "-6"),
           "6": ("c4", "1", "-2"), "7": ("c1", "15", "0")},
    "c4": {"3": ("c3", "-9", "5/2"), "4": (None, "-7/4", "9"), "5": ("c0", "4", "-17/2"),
           "6": ("c3", "6", "17/4"), "7": ("c0", "-19/2", "7/2")},
}


def _count_fractions(monkeypatch) -> list[int]:
    """Count every `Fraction` made from here on: through the constructor,
    and through the private constructor that arithmetic uses from Python
    3.12 on."""
    made = [0]
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, *args):
            made[0] += 1
            return coprime.__func__(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return made


def _benchmark_system(name: str, tmp_path: Path) -> StationarySystem:
    """A `quotient` benchmark system by name: gen2 (from `GEN2_EXITS`), one
    of `test_cli_golden.QUOTIENT_SYSTEMS`, or cry-wolf."""
    if name == "crywolf":
        return WOLF
    if name != "gen2":
        return _quotient_system(name, tmp_path)
    from test_cli_golden import _quotient_system as system_data

    path = tmp_path / "gen2.system"
    path.write_text(json.dumps(system_data("7/10", GEN2_EXITS)), encoding="utf-8")
    return fileio.load_system(path)


@pytest.mark.parametrize("name", ["gen2", "gen5", "crywolf"])
def test_solve_stationary_makes_fractions_per_exit_not_per_sweep(name, tmp_path, monkeypatch):
    """The sweeps and the exact check run in integers, so the `Fraction`s
    one solve makes (the answer's) number at most three per class, exit and
    stakeholder, however many sweeps run.  Sweeping in `Fraction`s made
    8,986 on gen2 (89 sweeps), 626 on gen5 (12) and 359 on cry-wolf (14);
    the exact check in `Fraction`s made 36 on gen2 and 14 on cry-wolf."""
    sys_ = _benchmark_system(name, tmp_path)
    first_nash_row = _ClassTable.first_nash_row
    scans = []

    def counted(self, prices):
        scans.append(self)
        return first_nash_row(self, prices)

    monkeypatch.setattr(_ClassTable, "first_nash_row", counted)
    made = _count_fractions(monkeypatch)
    result = stationary.solve_stationary(sys_)
    monkeypatch.undo()
    exits = sum(len(cls.exits) for cls in sys_.classes.values())
    assert made[0] <= 3 * exits * len(sys_.stakeholders)
    assert len(scans) // len(sys_.classes) == {"gen2": 89, "gen5": 12, "crywolf": 14}[name]
    assert result == reference_solve_stationary(sys_)


@pytest.mark.parametrize("name", ["gen2", "gen5", "crywolf"])
def test_continuation_values_make_one_fraction_per_class_and_stakeholder(name, tmp_path, monkeypatch):
    """A discounted σ is evaluated in integers, so `continuation_values`
    makes one `Fraction` per class and stakeholder: the answer's.  The σ
    that takes every situation's smallest action, and the one that takes
    its largest, made 32 and 12 on gen2, 0 and 22 on gen5 and 0 and 14 on
    cry-wolf when σ's chains were evaluated in `Fraction`s."""
    sys_ = _benchmark_system(name, tmp_path)
    for pick in (min, max):
        sigma = {c: {j: pick(cls.template.action_set(j)) for j in cls.template.situations}
                 for c, cls in sys_.classes.items()}
        made = _count_fractions(monkeypatch)
        values = continuation_values(sys_, sigma)
        monkeypatch.undo()
        assert made[0] <= len(sys_.classes) * len(sys_.stakeholders)
        assert values == reference_continuation_values(sys_, sigma)


def test_backward_solve_reads_the_profile_cap_once(monkeypatch):
    """One `solve_backward` reads the cap once and hands it to every
    piece's scan, where each scan read it: 1,000 reads on a 1,000-node
    chain."""
    g = chain_game(1000, "Capped")
    cap, reads = game.profile_cap, []

    def counted():
        reads.append(None)
        return cap()

    monkeypatch.setattr(game, "profile_cap", counted)
    assert solve_backward(g) == reference_solve_backward(g)
    assert len(reads) == 1


def test_value_iteration_reads_the_profile_cap_once_per_class(tmp_path, monkeypatch):
    """Each class table reads the cap once, when the solve makes it, and
    not on every sweep's scan, which read it 445 times on gen2 (89 sweeps
    of five classes)."""
    sys_ = _benchmark_system("gen2", tmp_path)
    cap, reads = game.profile_cap, []

    def counted():
        reads.append(None)
        return cap()

    monkeypatch.setattr(game, "profile_cap", counted)
    result = stationary.solve_stationary(sys_)
    assert 0 < len(reads) <= len(sys_.classes)
    assert result == reference_solve_stationary(sys_)


def _generated_exits(index: int) -> tuple[str, dict]:
    """β and the exits of the benchmark's generated system gen<index>, drawn
    as `perfbench/workloads.py` draws them and written as `GEN2_EXITS` is."""
    rng = random.Random(f"quotient-system:{index}")
    cids = [f"c{i}" for i in range(5)]
    classes = {}
    for ci, cid in enumerate(cids):
        ring = rng.choice("34567")
        exits = {}
        for y in "34567":
            p1, p2 = (str(Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4]))) for _ in "12")
            nxt = cids[(ci + 1) % len(cids)] if y == ring else rng.choice(cids) if rng.random() < 0.5 else None
            exits[y] = (nxt, p1, p2)
        classes[cid] = exits
    return str(Fraction(rng.randint(1, 9), 10)), classes


def _generated_system(index: int, tmp_path: Path) -> StationarySystem:
    from test_cli_golden import _quotient_system as system_data

    path = tmp_path / f"gen{index}.system"
    path.write_text(json.dumps(system_data(*_generated_exits(index))), encoding="utf-8")
    return fileio.load_system(path)


def test_class_table_sweeps_match_the_piece_scan(tmp_path, monkeypatch):
    """On every sweep, the row a class table returns is the first Nash row
    of a fresh `PieceScan` of the template under the same prices, and the
    exact check's verdict is the Nash check's: on the hard-arithmetic
    systems, the benchmark's gen0–gen5 and cry-wolf, and the random
    discounted and ring systems of seeds 0–399."""
    from test_cli_golden import QUOTIENT_SYSTEMS, _quotient_system as system_data

    assert _generated_exits(2) == ("7/10", GEN2_EXITS)
    for name in ("gen3", "gen5"):
        assert system_data(*_generated_exits(int(name[3:]))) == QUOTIENT_SYSTEMS[name]
    first_nash_row, is_nash = _ClassTable.first_nash_row, _ClassTable.is_nash
    calls = Counter()
    scans = {}  # a scan keeps nothing between calls, so one per table serves every sweep

    def checked_sweep(self, prices):
        calls["sweeps"] += 1
        r = first_nash_row(self, prices)
        if self not in scans:
            scans[self] = PieceScan(self.form, "", self.form.decision_nodes, largest_first=True)
        row = first_nash_point(scans[self], prices)
        assert (None if r is None else (self.profiles[r], self.ends[r])) == row
        return r

    def checked_check(self, r, prices, best=None):
        verdict = is_nash(self, r, prices, best)
        if best is None:  # the exact check; a sweep's row tests pass the sweep's best sets
            calls["checks"] += 1
            assert verdict is (game._nash_witness(self.form, self.profiles[r], "", prices,
                                                  self.form.decision_nodes) is None)
        return verdict

    monkeypatch.setattr(_ClassTable, "first_nash_row", checked_sweep)
    monkeypatch.setattr(_ClassTable, "is_nash", checked_check)
    systems = [_hard_arithmetic_system(seed) for seed in range(40)]
    systems += [_generated_system(index, tmp_path) for index in range(6)] + [WOLF]
    for seed in range(400):
        systems += [random_discounted_system(seed), random_ring_system(seed)]
    kinds = Counter(_kind(stationary.solve_stationary(sys_)) for sys_ in systems if sys_ is not None)
    assert sum(kinds.values()) == 40 + 7 + 669
    assert kinds.keys() == {"solved", "no-pure-equilibrium", "no-convergence"}
    assert calls["sweeps"] > calls["checks"] > 0


def _wide_class() -> PieceClass:
    """P's class of 3^10 profiles: at the root P continues ("c", paying 1)
    or enters one of two nine-situation ladders, x and y, whose rungs
    share a situation, so no rung is a subroot; every other exit stops,
    paying 0."""
    qs = [Quintuple("P", "r", "", "c", "c"), Quintuple("P", "r", "", "a", "x1"), Quintuple("P", "r", "", "b", "y1")]
    for m in range(1, 10):
        for side in "xy":
            node = f"{side}{m}"
            qs += [Quintuple("P", f"s{m}", node, "a", f"{side}{m + 1}" if m < 9 else f"{node}a"),
                   Quintuple("P", f"s{m}", node, "b", f"{node}b"), Quintuple("P", f"s{m}", node, "c", f"{node}c")]
    template = validate(qs)
    return PieceClass(template, {y: Exit({"P": 1}, next_class="k") if y == "c" else Exit({"P": 0})
                                 for y in template.endnodes})


def test_class_table_holds_only_the_rows_its_sweeps_reach(monkeypatch):
    """The first row of the wide class, continuing, is Nash on every sweep,
    so the solve ends with its table holding that one row of 3^10.  Under a
    smaller cap the first sweep raises before any row is walked."""
    sys_ = StationarySystem({"k": _wide_class()}, "k", DiscountedAccumulation(Fraction(1, 2)), ["P"])
    first_nash_row, tables = _ClassTable.first_nash_row, []

    def recorded(self, prices):
        tables.append(self)
        return first_nash_row(self, prices)

    monkeypatch.setattr(_ClassTable, "first_nash_row", recorded)
    result = stationary.solve_stationary(sys_)
    assert tables[0].count == 3**10
    assert result.strategy == {"k": dict.fromkeys(sys_.classes["k"].template.situations, "c")}
    assert result.values == {"k": {"P": 2}}
    assert len(tables) > 2 and len(set(tables)) == 1
    assert len(tables[0].profiles) == len(tables[0].ends) == len(tables[0].keys) == 1
    tables.clear()
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", str(3**10 - 1))
    with pytest.raises(game.ResourceCapError, match="59049 strategy profiles"):
        stationary.solve_stationary(sys_)
    assert tables[0].profiles == tables[0].ends == []


# Policy iteration, behind the discounted conceivable bounds, prices in
# integers over one common denominator as the sweeps do; these systems make
# that arithmetic hard (β with large terms, rewards whose denominators mix
# 3, 7 and 10^20), and their exits often tie exactly, a terminal exit
# against a continue exit among them.  Each run's values and its number of
# rounds must be the `Fraction`-priced reference's: a tie broken otherwise
# changes the rounds, not the values.

_HARD_BOUND_REWARDS = [Fraction(1, 3), Fraction(1, 7), Fraction(-1, 7), 1 - Fraction(1, 10**20), Fraction(0),
                       Fraction(-2, 3)]


def _hard_bounds_system(seed: int) -> StationarySystem:
    """One to three classes in a ring, each P's choice among its ring exit
    and one to three exits that stop or continue into any class, with P's
    and Q's rewards from `_HARD_BOUND_REWARDS` and β from `_HARD_BETAS`."""
    rng = random.Random(f"hard-bounds:{seed}")
    cids = [f"c{i}" for i in range(rng.randint(1, 3))]

    def reward():
        return {k: rng.choice(_HARD_BOUND_REWARDS) for k in ("P", "Q")}

    classes = {}
    for i, cid in enumerate(cids):
        exits = {"a": Exit(reward(), next_class=cids[(i + 1) % len(cids)])}
        for y in "bcd"[:rng.randint(1, 3)]:
            exits[y] = Exit(reward(), next_class=rng.choice([None, *cids]))
        classes[cid] = _one_choice_class(exits)
    return StationarySystem(classes, "c0", DiscountedAccumulation(rng.choice(_HARD_BETAS)), ["P", "Q"])


def _assert_bounds_match_policy_reference(sys_: StationarySystem, monkeypatch) -> int:
    """Each policy iteration (per stakeholder and direction) ends with the
    reference's values after as many rounds, and every bound is the
    enumeration's; returns the reference's terminal-against-continue ties."""
    chain_values, rounds, ties = stationary._integer_chain_values, [], 0

    def counted(*args):
        rounds.append(None)
        return chain_values(*args)

    with monkeypatch.context() as patch:
        patch.setattr(stationary, "_integer_chain_values", counted)
        for k in sorted(sys_.stakeholders):
            for sign in (1, -1):
                rounds.clear()
                values = stationary._optimal_values(sys_, k, sign)
                expected, expected_rounds, tied = reference_policy_iteration(sys_, k, sign)
                assert (values, len(rounds)) == (expected, expected_rounds), (k, sign)
                ties += tied
    extremes = reference_discounted_extremes(sys_)
    for c in sorted(sys_.classes):
        for k in sorted(sys_.stakeholders):
            assert conceivable_bounds(sys_, c, k) == extremes[c, k], (c, k)
    return ties


def test_bounds_match_reference_on_hard_arithmetic(monkeypatch):
    systems, tied = Counter(), Counter()
    for seed in range(60):
        sys_ = _hard_bounds_system(seed)
        beta = str(sys_.model.beta)
        systems[beta] += 1
        tied[beta] += _assert_bounds_match_policy_reference(sys_, monkeypatch) > 0
    # every β is drawn, and at every β some system meets a terminal exit and
    # a continue exit that both pay the most
    assert systems.keys() == tied.keys() == {str(beta) for beta in _HARD_BETAS}


def test_bounds_match_reference_on_hard_arithmetic_cases(monkeypatch):
    # at β = 2/3, continuing into B (worth 1/2) pays exactly the 1/3 of
    # stopping, in both directions, whichever exit has the smaller label
    # and so starts; when stopping pays 10^-20 less, the tie is gone
    for go, stop in (("go", "stop"), ("b_go", "a_stop")):
        for below in (Fraction(0), Fraction(1, 10**20)):
            sys_ = StationarySystem({
                "A": _one_choice_class({go: Exit({"P": 0}, next_class="B"),
                                        stop: Exit({"P": Fraction(1, 3) - below})}),
                "B": _one_choice_class({"x": Exit({"P": Fraction(1, 2)})}),
            }, "A", DiscountedAccumulation(Fraction(2, 3)), ["P"])
            assert _assert_bounds_match_policy_reference(sys_, monkeypatch) == (2 if below == 0 else 0)
    # a self-loop at β = 997/1000 against stopping: the loop's value
    # (1/3)/(3/1000) = 1000/9 has a denominator that neither the reward nor
    # β has
    sys_ = StationarySystem({
        "A": _one_choice_class({"go": Exit({"P": Fraction(1, 3)}, next_class="A"),
                                "stop": Exit({"P": 1 - Fraction(1, 10**20)})}),
    }, "A", DiscountedAccumulation(Fraction(997, 1000)), ["P"])
    _assert_bounds_match_policy_reference(sys_, monkeypatch)
    assert conceivable_bounds(sys_, "A", "P") == (1 - Fraction(1, 10**20), Fraction(1000, 9))


@pytest.mark.parametrize("name", ["gen2", "gen5", "crywolf"])
def test_bounds_make_fractions_per_evaluation_not_per_exit(name, tmp_path, monkeypatch):
    """Policy iteration prices and evaluates in integers, so one bounds call
    makes at most one `Fraction` per class, stakeholder and direction: each
    answer, however many rounds (`_integer_chain_values` calls) run.
    Pricing in `Fraction`s made 1,221 on gen2 (15 rounds), 877 on gen5 (15)
    and 105 on cry-wolf (9); evaluating in `Fraction`s made 246 on gen2."""
    sys_ = _benchmark_system(name, tmp_path)
    chain_values, rounds = stationary._integer_chain_values, []

    def counted(*args):
        rounds.append(None)
        return chain_values(*args)

    monkeypatch.setattr(stationary, "_integer_chain_values", counted)
    made = _count_fractions(monkeypatch)
    table = sys_.model.bounds(sys_)
    monkeypatch.undo()
    assert made[0] <= len(sys_.classes) * len(sys_.stakeholders) * 2
    assert len(rounds) == {"gen2": 15, "gen5": 15, "crywolf": 9}[name]
    extremes = reference_discounted_extremes(sys_)
    assert table == {c: {k: extremes[c, k] for k in sorted(sys_.stakeholders)} for c in sorted(sys_.classes)}


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
    build = Game._fill

    def built(self, *args):
        nonlocal games
        games += 1
        build(self, *args)

    monkeypatch.setattr(game, "_best_deviation", counted)
    monkeypatch.setattr(stationary, "_best_deviation", counted)
    monkeypatch.setattr(Game, "_fill", built)
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
