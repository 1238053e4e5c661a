"""Acceptance suite: one test per criterion, printed as a pass/fail line.

The random-game criteria share a fixed-seed corpus of 500 games (at most 12
nodes and 3 players each).  All numeric comparisons are exact rational
equality unless a tolerance is stated.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from itertools import product

import pytest

from pentaform import (
    admissible,
    authentic,
    authentic_value,
    certify_spe,
    check_axioms,
    nash_check,
    classify_piece_endnodes,
    classify_piece_run,
    continuation_values,
    inf_conceivable,
    instantiate,
    lower_convergent,
    one_piece_unimprovable,
    persistent,
    piece_form,
    piece_game,
    piece_partition,
    piecewise_nash,
    random_game,
    situation_slice,
    solve_backward,
    spe_check_direct,
    subform,
    subroots,
    sup_conceivable,
    upper_convergent,
    validate,
)
from pentaform.convergence import FAILS, HOLDS
from pentaform.fixtures import (
    always_in,
    always_out,
    ann_chain,
    ann_truncation,
    bob_chain,
    bob_truncation,
    constant_values,
    cry_wolf,
    cry_wolf_calm_strategy,
    entry_game,
    eda_chain,
)
from pentaform.game import NoPureEquilibrium
from pentaform.partition import EXIT_TO_SUBROOT, FINAL_ENDNODE
from pentaform.stationary import (
    REFUTED,
    SPE_CERTIFIED,
    induced_strategy,
    truncated_game,
    value_at,
)
from pentaform.strategy import outcome, restrict

from conftest import random_strategy

WOLF = cry_wolf()
CALM = cry_wolf_calm_strategy()


def report(number: int, description: str) -> None:
    print(f"criterion {number}: PASS  {description}")


@pytest.fixture(scope="module")
def corpus():
    games = [random_game(seed) for seed in range(500)]
    bundles = []
    for idx, g in enumerate(games):
        rng = random.Random(90_000 + idx)
        strategies = [random_strategy(g.form, rng) for _ in range(3)]
        solved = solve_backward(g)
        if not isinstance(solved, NoPureEquilibrium):
            strategies.append(solved.strategy)
        bundles.append((g, strategies))
    return bundles


def test_criterion_1_entry_game_backward_induction():
    g = entry_game()
    start = time.perf_counter()
    result = solve_backward(g)
    elapsed = time.perf_counter() - start
    assert result.strategy == {"jE": "e~", "jI": "f"}
    assert result.values["6"] == {"Ent": F(-1), "Inc": F(3)}
    assert result.values["5"]["Ent"] == F(0)
    assert elapsed < 0.010
    report(1, f"entry game solved exactly in {elapsed * 1000:.2f} ms")


def test_criterion_2_cry_wolf_structure():
    start = time.perf_counter()
    depth1 = instantiate(WOLF, 1)
    assert len(depth1) == 32
    assert subroots(depth1) == {"", "6", "7", "8"}
    parts = piece_partition(depth1)
    assert [len(p) for _, p in parts.items()] == [8, 8, 8, 8]
    for depth in (2, 3):
        form = instantiate(WOLF, depth)  # instantiate itself validates
        assert check_axioms(form.quintuples) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"depth-1 structure exact; depths 2-3 satisfy all eight axioms ({elapsed:.2f} s)")


def test_criterion_3_cry_wolf_certification():
    start = time.perf_counter()
    cert = certify_spe(WOLF, CALM)
    elapsed = time.perf_counter() - start
    assert cert.kind == SPE_CERTIFIED
    assert cert.continuation_values["day"] == {
        "Wolf": F(5, 9), "Kid": F(2, 9), "Town": F(4, 9),
    }
    assert value_at(WOLF, CALM, "6") == {
        "Wolf": F(5, 9), "Kid": F(19, 45), "Town": F(11, 45),
    }
    assert elapsed < 1.0
    report(3, f"calm strategy certified with exact values ({elapsed * 1000:.1f} ms)")


def test_criterion_4_convergence_verdicts():
    eda, ann, bob = eda_chain(), ann_chain(), bob_chain()
    assert upper_convergent(eda).status == FAILS
    assert lower_convergent(eda).status == FAILS
    ann_up, ann_lo = upper_convergent(ann), lower_convergent(ann)
    assert ann_up.status == FAILS and ann_lo.status == HOLDS
    bob_up, bob_lo = upper_convergent(bob), lower_convergent(bob)
    assert bob_lo.status == FAILS and bob_up.status == HOLDS
    wolf_up, wolf_lo = upper_convergent(WOLF), lower_convergent(WOLF)
    assert wolf_up.status == HOLDS and wolf_lo.status == HOLDS
    assert "discounted" in wolf_up.certificate and "discounted" in wolf_lo.certificate
    assert ann_up.witness["gap"] == F(1) and bob_lo.witness["gap"] == F(1)
    # deterministic witnesses
    assert upper_convergent(ann_chain()).witness == ann_up.witness
    assert lower_convergent(bob_chain()).witness == bob_lo.witness
    report(4, "Eda fails both, Ann fails upper only, Bob fails lower only (gaps 1), "
              "cry-wolf holds with a discount certificate")


def test_criterion_5_value_function_patterns():
    ann, bob = ann_chain(), bob_chain()
    for alpha in (F(3, 10), F(1)):
        v = {"c": {"Ann": alpha}}
        assert admissible(ann, v).holds
        assert persistent(ann, always_in(ann), v).holds
        verdict = authentic(ann, always_in(ann), v)
        assert not verdict.holds and verdict.witness["true_value"] == {"Ann": F(0)}
    for beta in (F(-1), F(-2, 5)):
        v = {"c": {"Bob": beta}}
        assert admissible(bob, v).holds
        assert persistent(bob, always_in(bob), v).holds
        verdict = authentic(bob, always_in(bob), v)
        assert not verdict.holds and verdict.witness["true_value"] == {"Bob": F(0)}
    # The concealment pattern: authentic and piecewise-Nash, yet not subgame
    # perfect, because lower-convergence fails.
    v_minus1 = {"c": {"Bob": -1}}
    assert authentic(bob, always_out(bob), v_minus1).holds
    assert piecewise_nash(bob, always_out(bob), v_minus1).holds
    cert = certify_spe(bob, always_out(bob))
    assert cert.kind == REFUTED
    assert cert.witness["deviation_utility"] == F(0)
    assert cert.witness["strategy_utility"] == F(-1)
    # depth-8 truncation reproductions, where the pattern transfers
    ann_tr = ann_truncation(8)
    s_in = {j: "in" for j in ann_tr.form.situations}
    for alpha in (F(3, 10), F(1)):
        v = constant_values(ann_tr, {"Ann": alpha})
        assert admissible(ann_tr, v).holds
        verdict = authentic(ann_tr, s_in, v)
        assert not verdict.holds and verdict.witness["true_value"] == {"Ann": F(0)}
    bob_tr = bob_truncation(8)
    s_out = {j: "out" for j in bob_tr.form.situations}
    v_tr = constant_values(bob_tr, {"Bob": -1})
    assert authentic(bob_tr, s_out, v_tr).holds
    assert piecewise_nash(bob_tr, s_out, v_tr).holds
    report(5, "always-in value patterns (admissible+persistent, not authentic) and the "
              "authentic+piecewise-Nash strategy refuted by the always-in deviation 0 > -1")


def _value_candidates(g, s, rng):
    av = authentic_value(g, s)
    yield av
    ts = sorted(av)
    bumped = {t: dict(p) for t, p in av.items()}
    t = rng.choice(ts)
    k = rng.choice(sorted(g.stakeholders))
    bumped[t][k] = bumped[t][k] + F(1, 3)
    yield bumped
    yield {t: {k: F(rng.randint(-10, 10)) for k in g.stakeholders} for t in ts}


def test_criterion_6_finite_game_theorem_suite(corpus):
    start = time.perf_counter()
    checked_c10 = 0
    for idx, (g, strategies) in enumerate(corpus):
        rng = random.Random(50_000 + idx)
        for s in strategies:
            spe = spe_check_direct(g, s).holds
            if spe:  # subgame perfection implies Nash (the root is a subroot)
                assert nash_check(g, s).holds
            av = authentic_value(g, s)
            # (a)/(e) the authentic value function is persistent and
            # admissible, and persistence <=> authenticity on finite games
            assert authentic(g, s, av).holds
            assert persistent(g, s, av).holds
            assert admissible(g, av).holds
            for v in _value_candidates(g, s, rng):
                per = persistent(g, s, v).holds
                aut = authentic(g, s, v).holds
                assert per == aut
                if per:
                    assert admissible(g, v).holds
                # (b) persistence + piecewise-Nash <=> SPE
                if per and piecewise_nash(g, s, v).holds:
                    assert spe
                # (c) authenticity + piecewise-Nash <=> SPE
                if aut and piecewise_nash(g, s, v).holds:
                    assert spe
            pw_authentic = piecewise_nash(g, s, av).holds
            if spe:
                assert pw_authentic  # forward halves of (b) and (c)
            # (d) one-piece unimprovability <=> subgame perfection
            assert one_piece_unimprovable(g, s).holds == spe
            # (e) bridging identity on a sampled piece deviation: deviating
            # inside a piece and conforming afterwards is priced exactly by
            # the piece game at the authentic values
            ts = sorted(subroots(g.form))
            t = ts[idx % len(ts)]
            piece = piece_form(g.form, t)
            sigma_piece = {j: rng.choice(sorted(piece.action_set(j)))
                           for j in sorted(piece.situations)}
            pg = piece_game(g, av, t)
            rhs = pg.utilities[outcome(pg.form, sigma_piece)[-1]]
            sub = subform(g.form, t)
            merged = dict(restrict(s, sub.situations))
            merged.update(sigma_piece)
            lhs = g.utilities[outcome(sub, merged)[-1]]
            assert lhs == rhs
            checked_c10 += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"500-game theorem suite, zero counterexamples "
              f"({checked_c10} bridging identities, {elapsed:.1f} s)")


def test_criterion_7_structural_invariant_suite(corpus):
    start = time.perf_counter()
    for idx, (g, strategies) in enumerate(corpus):
        form = g.form
        ts = subroots(form)
        parts = piece_partition(form)
        # pieces partition the quintuples, situations, decision nodes,
        # and successors
        for attr in ("quintuples", "situations", "decision_nodes", "successors"):
            seen = set()
            for _, piece in parts.items():
                got = set(getattr(piece, attr))
                assert got and seen.isdisjoint(got)
                seen |= got
            assert seen == set(getattr(form, attr))
        # endnode tiling (asserted internally) and per-piece facts
        classify_piece_endnodes(form)
        for t, piece in parts.items():
            assert piece.decision_nodes & ts == {t}      # only subroot: its own
            assert t not in piece.successors             # a piece never re-enters its root
            rebuilt = set()
            for j in piece.situations:                   # slice-union reconstruction
                rebuilt |= set(situation_slice(form.quintuples, j))
            assert rebuilt == set(piece.quintuples)
            for run in piece.runs():                     # piece-run trichotomy
                cls = classify_piece_run(form, t, run)
                assert cls.kind == (EXIT_TO_SUBROOT if run[-1] in ts else FINAL_ENDNODE)
        # runs exist and have at least two nodes
        runs = form.runs()
        assert runs and all(len(z) >= 2 for z in runs)
        # weak predecessors form the root path, linearly ordered
        for x in form.nodes:
            chain = form.weak_predecessors(x)
            assert chain[0] == form.root and chain[-1] == x
        # run closures are classified exactly
        for run in runs:
            assert form.run_closure({run[-1]}) == run
            assert form.run_closure({run[0]}) is None or len(run) == 1
        # outcome decomposition across piece exits under sampled strategies
        for s in strategies[:2]:
            for t in sorted(ts):
                sub = subform(form, t)
                whole_end = outcome(sub, s)[-1]
                piece_run = outcome(parts[t], s)
                if piece_run[-1] in ts:
                    nxt = subform(form, piece_run[-1])
                    assert outcome(nxt, s)[-1] == whole_end
                else:
                    assert piece_run[-1] == whole_end
        # conceivable bounds shrink monotonically onto each run's utility
        for run in runs:
            for k in sorted(g.stakeholders):
                u = g.utilities[run[-1]][k]
                sups = [sup_conceivable(g, x, k) for x in run]
                infs = [inf_conceivable(g, x, k) for x in run]
                assert all(a >= b for a, b in zip(sups, sups[1:]))
                assert all(a <= b for a, b in zip(infs, infs[1:]))
                assert sups[-1] == u and infs[-1] == u
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"structural invariants hold on all 500 games ({elapsed:.1f} s)")


def test_criterion_8_truncation_consistency():
    start = time.perf_counter()
    w = continuation_values(WOLF, CALM)
    for depth in (1, 2, 3):
        g = truncated_game(WOLF, depth, w)
        induced = induced_strategy(WOLF, CALM, depth)
        assert spe_check_direct(g, induced).holds
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, f"certified strategy is an exact SPE of the depth-1..3 truncations ({elapsed:.2f} s)")
