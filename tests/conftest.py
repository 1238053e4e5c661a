"""Shared helpers: seeded random corpora and independent brute-force oracles."""

from __future__ import annotations

import random
from itertools import product

import pytest

from pentaform import (
    Game,
    Verdict,
    outcome,
    piece_form,
    player_situations,
    random_game,
    restrict,
    subform,
    subroots_sorted,
    utility_of_run,
    validate_strategy,
)
from pentaform.core import AXIOM_NO_CYCLES, AxiomViolation, Pentaform
from pentaform.game import _best_deviation, _nash_witness
from pentaform.stationary import simple_cycles


def random_strategy(form: Pentaform, rng: random.Random) -> dict:
    return {j: rng.choice(sorted(form.action_set(j))) for j in sorted(form.situations)}


def enumerate_paths_from_root(form: Pentaform) -> dict[str, tuple[str, ...]]:
    """Root-to-node paths by plain DFS over the edge relation (no use of the
    predecessor machinery); the independent oracle for path/run questions."""
    edges: dict[str, list[str]] = {}
    for q in form.quintuples:
        edges.setdefault(q.decision_node, []).append(q.successor)
    paths = {form.root: (form.root,)}
    stack = [form.root]
    while stack:
        x = stack.pop()
        for y in sorted(edges.get(x, ())):
            paths[y] = paths[x] + (y,)
            stack.append(y)
    return paths


def brute_force_runs(form: Pentaform) -> set[tuple[str, ...]]:
    paths = enumerate_paths_from_root(form)
    return {paths[y] for y in form.endnodes}


def brute_force_nash(g: Game, s: dict, cap: int = 50_000) -> bool | None:
    """Literal product enumeration of every player's strategy space; None when
    the space is too large to enumerate."""
    base = utility_of_run(g, outcome(g.form, s))
    for i in sorted(g.form.players):
        sits = sorted(player_situations(g.form, i))
        pools = [sorted(g.form.action_set(j)) for j in sits]
        count = 1
        for pool in pools:
            count *= len(pool)
        if count > cap:
            return None
        for combo in product(*pools):
            alt = dict(s)
            alt.update(zip(sits, combo))
            u = utility_of_run(g, outcome(g.form, alt))
            if u[i] > base[i]:
                return False
    return True


def brute_force_subroots(form: Pentaform) -> frozenset:
    """Subroots by definition, one DFS per decision node: w qualifies when the
    situations met weakly after w occur at no other decision node."""
    result = set()
    for w in form.decision_nodes:
        inside = {x for x in form.subtree_nodes(w) if x in form.decision_nodes}
        inside_situations = {form.situation_of(x) for x in inside}
        outside_situations = {form.situation_of(x) for x in form.decision_nodes if x not in inside}
        if inside_situations.isdisjoint(outside_situations):
            result.add(w)
    return frozenset(result)


def bounded_predecessor_walk(quintuples) -> list[AxiomViolation]:
    """The [Py] diagnosis by walking at most |X| steps from every successor
    (smallest predecessor first where [Pw<-y] fails), stopping at the first
    successor whose walk never leaves the successor set."""
    qs = set(quintuples)
    preds: dict[str, set[str]] = {}
    for q in qs:
        preds.setdefault(q.successor, set()).add(q.decision_node)
    successors = set(preds)
    bound = len({q.decision_node for q in qs} | successors)
    pred_choice = {y: min(ws) for y, ws in preds.items()}
    for y in sorted(successors):
        x = y
        for _ in range(bound):
            x = pred_choice[x]
            if x not in successors:
                break
        else:
            return [AxiomViolation(
                AXIOM_NO_CYCLES, f"predecessor walk from {y!r} never leaves the successor set (cycle)")]
    return []


def _subgame(g: Game, t: str) -> Game:
    sub = subform(g.form, t)
    return Game(sub, g.stakeholders, {y: g.utilities[y] for y in sub.endnodes})


def subform_spe_check_direct(g: Game, s: dict) -> Verdict:
    """Subgame perfection with a subform Game built and searched at every
    subroot; the reference for the in-place `spe_check_direct`."""
    s = validate_strategy(g.form, s)
    for t in subroots_sorted(g.form):
        sub_game = _subgame(g, t)
        witness = _nash_witness(sub_game, restrict(s, sub_game.form.situations), sub_game.form.root)
        if witness is not None:
            witness["subroot"] = t
            return Verdict(False, witness)
    return Verdict(True)


def subform_one_piece_unimprovable(g: Game, s: dict) -> Verdict:
    """One-piece unimprovability searched inside the subform at each subroot."""
    s = validate_strategy(g.form, s)
    for t in subroots_sorted(g.form):
        sub = subform(g.form, t)
        piece = piece_form(g.form, t)
        base = g.utilities[outcome(sub, s)[-1]]
        for i in sorted(piece.players):
            deviate_at = frozenset(j for j in piece.situations if piece.player_of(j) == i)
            best, assign, endnode = _best_deviation(sub, s, i, sub.root, deviate_at,
                                                    lambda y, i=i: g.utilities[y][i])
            if best > base[i]:
                return Verdict(False, {
                    "subroot": t, "player": i, "deviation": assign,
                    "strategy_utility": base[i], "deviation_utility": best,
                    "deviation_endnode": endnode,
                })
    return Verdict(True)


def subform_authentic_value(g: Game, s: dict) -> dict:
    """The authentic value function traced on the subform at each subroot."""
    s = validate_strategy(g.form, s)
    return {t: dict(g.utilities[outcome(subform(g.form, t), s)[-1]]) for t in subroots_sorted(g.form)}


def scc_has_aperiodic_runs(graph: dict) -> bool:
    """Some strongly connected component of the class graph holds two distinct
    simple cycles; components by pairwise reachability, O(n²)."""
    reach: dict[str, set[str]] = {}
    for c in graph:
        seen = {c}
        stack = [c]
        while stack:
            for nxt in graph.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[c] = seen
    cycles = simple_cycles(graph)
    for c in graph:
        comp = {d for d in graph if d in reach[c] and c in reach[d]}
        if sum(1 for cyc in cycles if set(cyc) <= comp) >= 2:
            return True
    return False


@pytest.fixture(scope="session")
def small_corpus() -> list[Game]:
    return [random_game(seed) for seed in range(120)]


@pytest.fixture(scope="session")
def corpus_strategies(small_corpus) -> list[tuple[Game, dict]]:
    pairs = []
    for idx, g in enumerate(small_corpus):
        rng = random.Random(10_000 + idx)
        for _ in range(2):
            pairs.append((g, random_strategy(g.form, rng)))
    return pairs
