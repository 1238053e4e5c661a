"""Shared helpers: seeded random corpora and independent brute-force oracles."""

from __future__ import annotations

import random
from itertools import product

import pytest

from pentaform import Game, outcome, player_situations, random_game, utility_of_run
from pentaform.core import AXIOM_NO_CYCLES, AxiomViolation, Pentaform


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
