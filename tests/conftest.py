"""Shared helpers: seeded random corpora and independent brute-force oracles."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from pentaform import (
    Game,
    Verdict,
    nash_check,
    outcome,
    piece_form,
    player_situations,
    random_game,
    restrict,
    subform,
    subroots,
    subroots_sorted,
    utility_of_run,
    validate_strategy,
)
from pentaform.convergence import DEFAULT_DEPTH, FAILS, HOLDS, UNKNOWN, ConvergenceVerdict
from pentaform.core import (
    AXIOM_ACTION_OF_SUCCESSOR,
    AXIOM_ACTION_RECTANGLE,
    AXIOM_NO_CYCLES,
    AXIOM_PLAYER_OF_SITUATION,
    AXIOM_PREDECESSOR_FUNCTION,
    AXIOM_SINGLE_ROOT,
    AXIOM_SITUATION_OF_NODE,
    AXIOM_SUCCESSOR_FUNCTION,
    AxiomViolation,
    Pentaform,
    Quintuple,
    validate,
)
from pentaform.game import (
    BackwardSolution,
    NoPureEquilibrium,
    enumerate_piece_profiles,
    piece_game,
)
from pentaform.fileio import FileFormatError
from pentaform.numbers import make_profile, parse_scalar
from pentaform.partition import EXIT_TO_SUBROOT, FINAL_ENDNODE, PieceRunClass
from pentaform.stationary import (
    SOLVE_MAX_SWEEPS,
    SOLVE_TOL,
    DiscountedAccumulation,
    Exit,
    PieceClass,
    StationarySolution,
    StationarySolveFailure,
    StationarySystem,
    canonical_cycle,
    conceivable_bounds,
    continuation_values,
    parse_subroot_label,
    simple_cycles,
    truncated_game,
    validate_stationary_strategy,
)
from pentaform.strategy import TERMINATED, SubrootSequence


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


# -- structure reference oracles: the axiom check and the structure build as
# they stood when each sorted and indexed the quintuples itself -----------------


def reference_check_axioms(q) -> list[AxiomViolation]:
    """All eight axioms in one sweep of their own maps, first value kept."""
    quintuples = sorted(set(q), key=Quintuple.key)
    violations: list[AxiomViolation] = []

    def seen(axiom: str) -> bool:
        return any(v.axiom == axiom for v in violations)

    player_of: dict[str, str] = {}
    situation_of: dict[str, str] = {}
    succ_of: dict[tuple[str, str], str] = {}
    preds: dict[str, set[str]] = {}
    action_of: dict[str, str] = {}
    pairs_by_situation: dict[str, set[tuple[str, str]]] = {}

    for t in quintuples:
        prev = player_of.setdefault(t.situation, t.player)
        if prev != t.player and not seen(AXIOM_PLAYER_OF_SITUATION):
            violations.append(AxiomViolation(
                AXIOM_PLAYER_OF_SITUATION,
                f"situation {t.situation!r} is assigned players {prev!r} and {t.player!r}"))
        prev = situation_of.setdefault(t.decision_node, t.situation)
        if prev != t.situation and not seen(AXIOM_SITUATION_OF_NODE):
            violations.append(AxiomViolation(
                AXIOM_SITUATION_OF_NODE,
                f"decision node {t.decision_node!r} lies in situations {prev!r} and {t.situation!r}"))
        prev = succ_of.setdefault((t.decision_node, t.action), t.successor)
        if prev != t.successor and not seen(AXIOM_SUCCESSOR_FUNCTION):
            violations.append(AxiomViolation(
                AXIOM_SUCCESSOR_FUNCTION,
                f"pair ({t.decision_node!r}, {t.action!r}) leads to both {prev!r} and {t.successor!r}"))
        preds.setdefault(t.successor, set()).add(t.decision_node)
        prev = action_of.setdefault(t.successor, t.action)
        if prev != t.action and not seen(AXIOM_ACTION_OF_SUCCESSOR):
            violations.append(AxiomViolation(
                AXIOM_ACTION_OF_SUCCESSOR,
                f"successor {t.successor!r} is reached by actions {prev!r} and {t.action!r}"))
        pairs_by_situation.setdefault(t.situation, set()).add((t.decision_node, t.action))

    for y in sorted(preds):
        ws = preds[y]
        if len(ws) > 1:
            violations.append(AxiomViolation(
                AXIOM_PREDECESSOR_FUNCTION,
                f"successor {y!r} has two predecessors {sorted(ws)[0]!r} and {sorted(ws)[1]!r}"))
            break

    for j in sorted(pairs_by_situation):
        pairs = pairs_by_situation[j]
        nodes = {w for w, _ in pairs}
        acts = {a for _, a in pairs}
        if len(pairs) != len(nodes) * len(acts):
            w, a = sorted((w, a) for w in nodes for a in acts if (w, a) not in pairs)[0]
            violations.append(AxiomViolation(
                AXIOM_ACTION_RECTANGLE,
                f"situation {j!r}: node {w!r} lacks action {a!r} present elsewhere in the situation"))
            break

    decision_nodes = {t.decision_node for t in quintuples}
    successors = set(preds)

    pred_choice = {y: min(ws) for y, ws in preds.items()}
    escapes: dict[str, bool] = {}
    for y in sorted(successors):
        path: dict[str, None] = {}
        x = y
        while x in successors and x not in escapes and x not in path:
            path[x] = None
            x = pred_choice[x]
        result = escapes[x] if x in escapes else x not in successors
        for z in path:
            escapes[z] = result
        if not escapes[y]:
            violations.append(AxiomViolation(
                AXIOM_NO_CYCLES,
                f"predecessor walk from {y!r} never leaves the successor set (cycle)"))
            break

    roots = decision_nodes - successors
    if len(roots) != 1:
        shown = ", ".join(repr(r) for r in sorted(roots)[:3]) if roots else "none"
        violations.append(AxiomViolation(
            AXIOM_SINGLE_ROOT,
            f"decision nodes that are not successors should be a singleton; found {shown}"))

    return violations


class ReferencePentaform:
    """The derived structure built from its own sort of the quintuples, with
    the same attribute names as `Pentaform`."""

    FIELDS = (
        "quintuples", "players", "situations", "decision_nodes", "actions",
        "successors", "nodes", "endnodes", "root",
        "_pred", "_children", "_situation_of", "_player_of",
        "_info_sets", "_action_sets", "_next", "_depth",
    )

    def __init__(self, quintuples):
        qs = tuple(sorted(set(quintuples), key=Quintuple.key))
        self.quintuples = qs
        self.players = frozenset(t.player for t in qs)
        self.situations = frozenset(t.situation for t in qs)
        self.decision_nodes = frozenset(t.decision_node for t in qs)
        self.actions = frozenset(t.action for t in qs)
        self.successors = frozenset(t.successor for t in qs)
        self.nodes = self.decision_nodes | self.successors
        self.endnodes = self.successors - self.decision_nodes
        (self.root,) = self.decision_nodes - self.successors

        self._pred = {t.successor: t.decision_node for t in qs}
        self._next = {(t.decision_node, t.action): t.successor for t in qs}
        self._situation_of = {t.decision_node: t.situation for t in qs}
        self._player_of = {t.situation: t.player for t in qs}
        children: dict[str, list[tuple[str, str]]] = {}
        info: dict[str, set[str]] = {}
        acts: dict[str, set[str]] = {}
        for t in qs:
            children.setdefault(t.decision_node, []).append((t.action, t.successor))
            info.setdefault(t.situation, set()).add(t.decision_node)
            acts.setdefault(t.situation, set()).add(t.action)
        self._children = {w: tuple(sorted(cs)) for w, cs in children.items()}
        self._info_sets = {j: frozenset(v) for j, v in info.items()}
        self._action_sets = {j: frozenset(v) for j, v in acts.items()}

        depth = {self.root: 0}
        stack = [self.root]
        while stack:
            w = stack.pop()
            for _, y in self._children.get(w, ()):
                depth[y] = depth[w] + 1
                if y in self.decision_nodes:
                    stack.append(y)
        self._depth = depth


def assert_same_structure(form: Pentaform, expected) -> None:
    """Every derived field of `form` equals the reference structure's, and
    every node set iterates in the same order (random_game draws its
    utilities in endnode iteration order)."""
    for name in ReferencePentaform.FIELDS:
        value = getattr(form, name)
        assert value == getattr(expected, name), name
        if isinstance(value, frozenset):
            assert list(value) == list(getattr(expected, name)), name


# -- load-path reference oracles: each file's lists parsed entry by entry, and
# every axiom diagnosed by the full witness search, as before loads went
# straight into the index -----------------------------------------------------


def reference_parse_quintuples(data, where: str) -> list[Quintuple]:
    """A file's quintuple list, each entry checked on its own."""
    if not isinstance(data, list):
        raise FileFormatError(f"{where}: expected a list of quintuples")
    out = []
    for idx, entry in enumerate(data):
        spot = f"{where}[{idx}]"
        if not (isinstance(entry, list) and len(entry) == 5):
            raise FileFormatError(f"{spot}: expected a 5-element list")
        if not all(isinstance(x, str) for x in entry):
            raise FileFormatError(f"{spot}: all five components must be strings")
        out.append(Quintuple(*entry))
    return out


def reference_parse_profile(data, where: str) -> dict:
    """A profile object, each number text parsed where it stands."""
    if not isinstance(data, dict):
        raise FileFormatError(f"{where}: expected an object of stakeholder -> number")
    out = {}
    for k, v in data.items():
        if not isinstance(v, str):
            raise FileFormatError(f"{where}.{k}: numbers are written as strings")
        try:
            out[k] = parse_scalar(v)
        except ValueError as exc:
            raise FileFormatError(f"{where}.{k}: {exc}") from exc
    return out


def reference_diagnosed(q) -> list[AxiomViolation]:
    """Every violated axiom, each with one witness, found by the witness
    search on every input: maps that keep the first value met in canonical
    order, one sweep for the functional axioms, the first situation whose
    pairs miss its rectangle, and a reach walk along each successor's
    smallest predecessor for [Py]."""
    qs = sorted(set(q), key=Quintuple.key)
    first = qs[::-1]
    player_of = {t.situation: t.player for t in first}
    situation_of = {t.decision_node: t.situation for t in first}
    next_of = {(t.decision_node, t.action): t.successor for t in first}
    pred = {t.successor: t.decision_node for t in first}
    pred_action = {t.successor: t.action for t in first}
    children: dict[str, list[str]] = {}
    info: dict[str, set[str]] = {}
    acts: dict[str, set[str]] = {}
    for t in qs:
        children.setdefault(t.decision_node, []).append(t.successor)
        info.setdefault(t.situation, set()).add(t.decision_node)
        acts.setdefault(t.situation, set()).add(t.action)

    found: dict[str, str] = {}
    extra_preds: dict[str, set[str]] = {}
    pairs_by_situation: dict[str, set[tuple[str, str]]] = {}
    for t in qs:
        prev = player_of[t.situation]
        if prev != t.player and AXIOM_PLAYER_OF_SITUATION not in found:
            found[AXIOM_PLAYER_OF_SITUATION] = (
                f"situation {t.situation!r} is assigned players {prev!r} and {t.player!r}")
        prev = situation_of[t.decision_node]
        if prev != t.situation and AXIOM_SITUATION_OF_NODE not in found:
            found[AXIOM_SITUATION_OF_NODE] = (
                f"decision node {t.decision_node!r} lies in situations {prev!r} and {t.situation!r}")
        prev = next_of[(t.decision_node, t.action)]
        if prev != t.successor and AXIOM_SUCCESSOR_FUNCTION not in found:
            found[AXIOM_SUCCESSOR_FUNCTION] = (
                f"pair ({t.decision_node!r}, {t.action!r}) leads to both {prev!r} and {t.successor!r}")
        prev = pred[t.successor]
        if prev != t.decision_node:
            extra_preds.setdefault(t.successor, {prev}).add(t.decision_node)
        prev = pred_action[t.successor]
        if prev != t.action and AXIOM_ACTION_OF_SUCCESSOR not in found:
            found[AXIOM_ACTION_OF_SUCCESSOR] = (
                f"successor {t.successor!r} is reached by actions {prev!r} and {t.action!r}")
        pairs_by_situation.setdefault(t.situation, set()).add((t.decision_node, t.action))
    violations = [AxiomViolation(axiom, witness) for axiom, witness in found.items()]

    if extra_preds:
        y = min(extra_preds)
        w1, w2 = sorted(extra_preds[y])[:2]
        violations.append(AxiomViolation(
            AXIOM_PREDECESSOR_FUNCTION, f"successor {y!r} has two predecessors {w1!r} and {w2!r}"))

    for j, pairs in sorted(pairs_by_situation.items()):
        nodes, actions = info[j], acts[j]
        if len(pairs) != len(nodes) * len(actions):
            w, a = sorted((w, a) for w in nodes for a in actions if (w, a) not in pairs)[0]
            violations.append(AxiomViolation(
                AXIOM_ACTION_RECTANGLE,
                f"situation {j!r}: node {w!r} lacks action {a!r} present elsewhere in the situation"))
            break

    pred_choice = {**pred, **{y: min(ws) for y, ws in extra_preds.items()}}
    roots = situation_of.keys() - pred.keys()
    reached, stack = set(roots), list(roots)
    while stack:
        w = stack.pop()
        for y in children.get(w, ()):
            if pred_choice[y] == w and y not in reached:
                reached.add(y)
                stack.append(y)
    cycling = pred.keys() - reached
    if cycling:
        violations.append(AxiomViolation(
            AXIOM_NO_CYCLES, f"predecessor walk from {min(cycling)!r} never leaves the successor set (cycle)"))

    if len(roots) != 1:
        shown = ", ".join(repr(r) for r in sorted(roots)[:3]) if roots else "none"
        violations.append(AxiomViolation(
            AXIOM_SINGLE_ROOT,
            f"decision nodes that are not successors should be a singleton; found {shown}"))
    return violations


def reference_best_deviation(form: Pentaform, s: dict, i: str, start: str,
                             deviate_at: frozenset, value_of_endnode) -> tuple:
    """Exact maximum of value_of_endnode over player i's deviations from
    start that branch only at i's situations in `deviate_at`, the first time
    each is reached; every other move follows s.  Explores actions in sorted
    order and keeps the first maximum, with its choices and endnode."""
    best: tuple = (None, None, None)
    assign: dict = {}
    stack: list[list] = []  # [node, situation, sorted actions, index]
    x = start
    while True:
        while x in form.decision_nodes:
            j = form.situation_of(x)
            if j in deviate_at and form.player_of(j) == i:
                if j not in assign:
                    actions = sorted(form.action_set(j))
                    stack.append([x, j, actions, 0])
                    assign[j] = actions[0]
                x = form.next_node(x, assign[j])
            else:
                x = form.next_node(x, s[j])
        v = value_of_endnode(x)
        if best[0] is None or v > best[0]:
            best = (v, dict(assign), x)
        while stack:
            frame = stack[-1]
            frame[3] += 1
            if frame[3] < len(frame[2]):
                assign[frame[1]] = frame[2][frame[3]]
                x = form.next_node(frame[0], assign[frame[1]])
                break
            del assign[frame[1]]
            stack.pop()
        else:
            return best


def reference_nash_witness(g: Game, s: dict, start: str) -> dict | None:
    """First profitable unilateral deviation from start in canonical order."""
    base_end = outcome(g.form, s, start)[-1]
    base = g.utilities[base_end]
    for i in sorted(g.form.players):
        best, assign, endnode = reference_best_deviation(g.form, s, i, start, g.form.situations,
                                                         lambda y, i=i: g.utilities[y][i])
        if best > base[i]:
            return {
                "player": i,
                "deviation": assign,
                "strategy_utility": base[i],
                "deviation_utility": best,
                "strategy_endnode": base_end,
                "deviation_endnode": endnode,
            }
    return None


def _subgame(g: Game, t: str) -> Game:
    sub = subform(g.form, t)
    return Game(sub, g.stakeholders, {y: g.utilities[y] for y in sub.endnodes})


def subform_spe_check_direct(g: Game, s: dict) -> Verdict:
    """Subgame perfection with a subform Game built and searched at every
    subroot; the reference for the in-place `spe_check_direct`."""
    s = validate_strategy(g.form, s)
    for t in subroots_sorted(g.form):
        sub_game = _subgame(g, t)
        witness = reference_nash_witness(sub_game, restrict(s, sub_game.form.situations), sub_game.form.root)
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
            best, assign, endnode = reference_best_deviation(sub, s, i, sub.root, deviate_at,
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


def piece_game_piecewise_nash(g: Game, s: dict, values: dict) -> Verdict:
    """Piecewise Nashness with the piece game at each subroot built and
    searched; the reference for the in-place `piecewise_nash`."""
    s = validate_strategy(g.form, s)
    for t in subroots_sorted(g.form):
        pg = piece_game(g, values, t)
        witness = reference_nash_witness(pg, restrict(s, pg.form.situations), pg.form.root)
        if witness is not None:
            witness["subroot"] = t
            return Verdict(False, witness)
    return Verdict(True)


def piece_form_persistent(g: Game, s: dict, values: dict) -> Verdict:
    """Persistence with each piece run traced on the built piece form; the
    reference for the in-place `persistent`."""
    s = validate_strategy(g.form, s)
    v = {t: make_profile(p, g.stakeholders) for t, p in values.items()}
    for t in subroots_sorted(g.form):
        last = outcome(piece_form(g.form, t), s)[-1]
        expected = v[last] if last in v else g.utilities[last]
        if v[t] != expected:
            return Verdict(False, {"subroot": t, "value": dict(v[t]),
                                   "expected": dict(expected), "via": last})
    return Verdict(True)


def _oracle_subroot_order(form: Pentaform) -> list[str]:
    """The subroots by definition, in (depth, label) order, depth read off
    the root-to-node paths of a plain DFS."""
    paths = enumerate_paths_from_root(form)
    return sorted(brute_force_subroots(form), key=lambda t: (len(paths[t]), t))


def brute_force_admissible(g: Game, values: dict) -> Verdict:
    """Admissibility by definition: each value lies between the least and the
    greatest utility over the runs through its subroot, every run listed."""
    runs = brute_force_runs(g.form)
    v = {t: make_profile(p, g.stakeholders) for t, p in values.items()}
    for t in _oracle_subroot_order(g.form):
        ends = [run[-1] for run in runs if t in run]
        for k in sorted(g.stakeholders):
            lo = min(g.utilities[y][k] for y in ends)
            hi = max(g.utilities[y][k] for y in ends)
            if not lo <= v[t][k] <= hi:
                return Verdict(False, {"subroot": t, "stakeholder": k, "value": v[t][k],
                                       "inf_conceivable": lo, "sup_conceivable": hi})
    return Verdict(True)


def subform_authentic(g: Game, s: dict, values: dict) -> Verdict:
    """Authenticity against the values traced on the subform at each subroot."""
    truth = subform_authentic_value(g, s)
    v = {t: make_profile(p, g.stakeholders) for t, p in values.items()}
    for t in _oracle_subroot_order(g.form):
        if v[t] != truth[t]:
            return Verdict(False, {"subroot": t, "value": dict(v[t]), "true_value": dict(truth[t])})
    return Verdict(True)


# -- piece-form walks: each builds the piece form and traces it, as
# `piece_outcome`, `subroot_sequence` and `classify_piece_run` did before they
# walked the form in place ----------------------------------------------------


def piece_form_piece_outcome(p: Pentaform, t: str, restriction: dict) -> tuple:
    piece = piece_form(p, t)
    missing = sorted(piece.situations - set(restriction))
    if missing:
        raise ValueError(f"restriction is partial on the piece: missing {missing}")
    return outcome(piece, restriction)


def piece_form_subroot_sequence(p: Pentaform, s: dict, t0: str) -> SubrootSequence:
    ts = subroots(p)
    if t0 not in ts:
        raise ValueError(f"{t0!r} is not a subroot")
    seq = [t0]
    while True:
        run = piece_form_piece_outcome(p, seq[-1], restrict(s, piece_form(p, seq[-1]).situations))
        if run[-1] not in ts:
            return SubrootSequence(tuple(seq), TERMINATED)
        seq.append(run[-1])


def piece_form_classify_piece_run(p: Pentaform, t: str, n) -> PieceRunClass:
    piece = piece_form(p, t)
    nt = tuple(n)
    if not piece.is_run(nt):
        raise ValueError(f"{nt!r} is not a run of the piece at {t!r}")
    if nt[-1] in subroots(p):
        return PieceRunClass(EXIT_TO_SUBROOT, subroot=nt[-1])
    return PieceRunClass(FINAL_ENDNODE, completed_run=p.weak_predecessors(nt[-1]))


def is_absentminded(form: Pentaform) -> bool:
    """Some root-to-endnode path meets one situation at two decision nodes."""
    for y in form.endnodes:
        path = form.weak_predecessors(y)[:-1]
        if len({form.situation_of(w) for w in path}) < len(path):
            return True
    return False


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
    cycles = list(simple_cycles(graph))
    for c in graph:
        comp = {d for d in graph if d in reach[c] and c in reach[d]}
        if sum(1 for cyc in cycles if set(cyc) <= comp) >= 2:
            return True
    return False


def random_discounted_system(seed: int) -> StationarySystem | None:
    """One to three one-decision classes with two or three exits each and
    random rewards; None when the draw leaves a class unreachable."""
    rng = random.Random(seed)
    cids = [f"c{i}" for i in range(rng.randint(1, 3))]
    players = [f"p{i}" for i in range(1, rng.randint(1, 2) + 1)]
    classes = {}
    for ci, cid in enumerate(cids):
        quintuples, exits = [], {}
        player = rng.choice(players)
        has_continue = False
        n_actions = rng.randint(2, 3)
        for a in range(n_actions):
            local = f"e{a}"
            quintuples.append(Quintuple(player, "", "", f"a{a}", local))
            reward = {p: Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4])) for p in players}
            if rng.random() < 0.5 or (a == n_actions - 1 and not has_continue and ci == 0):
                exits[local] = Exit(reward, next_class=rng.choice(cids))
                has_continue = True
            else:
                exits[local] = Exit(reward)
        classes[cid] = PieceClass(validate(quintuples), exits)
    try:
        return StationarySystem(classes, "c0",
                                DiscountedAccumulation(Fraction(rng.randint(1, 9), 10)), players)
    except ValueError:
        return None  # drew unreachable classes


def random_ring_system(seed: int, shape: tuple[int, int] | None = None) -> StationarySystem:
    """Two stakeholders; each class is one decision whose exits are a
    continue into the next class of a ring (so every class is reachable),
    random continue exits (self-loops among them) and terminal exits.

    `shape` = (classes, exits per class) fixes the size; by default it draws
    3–6 classes with 2–5 exits each, trimmed to at most 5**5 exit policies.
    β is drawn up to 19/20."""
    rng = random.Random(seed)
    if shape is None:
        sizes = [rng.randint(2, 5) for _ in range(rng.randint(3, 6))]
        while prod(sizes) > 5**5:
            sizes[sizes.index(max(sizes))] -= 1
    else:
        sizes = [shape[1]] * shape[0]
    cids = [f"c{i}" for i in range(len(sizes))]
    players = ["p1", "p2"]
    classes = {}
    for ci, (cid, size) in enumerate(zip(cids, sizes)):
        labels = [f"e{a}" for a in range(size)]
        ring = rng.choice(labels)
        player = rng.choice(players)
        exits = {}
        for label in labels:
            reward = {p: Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4])) for p in players}
            draw = rng.random()
            if label == ring:
                exits[label] = Exit(reward, next_class=cids[(ci + 1) % len(cids)])
            elif draw < 0.2:
                exits[label] = Exit(reward, next_class=cid)
            elif draw < 0.5:
                exits[label] = Exit(reward, next_class=rng.choice(cids))
            else:
                exits[label] = Exit(reward)
        template = validate([Quintuple(player, "", "", f"a{a}", label) for a, label in enumerate(labels)])
        classes[cid] = PieceClass(template, exits)
    beta = Fraction(rng.randint(1, 19), 20)
    return StationarySystem(classes, "c0", DiscountedAccumulation(beta), players)


# -- stationary reference oracles: the unfolding and the value code written
# with one branch per utility model, as they stood before each model held its
# own pricing rule -------------------------------------------------------------


def _reference_sigma_exit(sys, sigma, cid) -> Exit:
    cls = sys.classes[cid]
    return cls.exits[outcome(cls.template, sigma[cid])[-1]]


def reference_chain_values(sys, exit_of) -> dict:
    discounted = isinstance(sys.model, DiscountedAccumulation)
    beta = sys.model.beta if discounted else None
    w: dict = {}

    def step(e, nxt):
        if discounted:
            return {k: e.reward[k] + beta * nxt[k] for k in nxt}
        return dict(nxt)

    for start in sorted(sys.classes):
        if start in w:
            continue
        path: list = []
        pos: dict = {}
        cur = start
        while cur not in w and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            e = exit_of[cur]
            if e.is_terminal:
                w[cur] = dict(e.reward)
                break
            cur = e.next_class
        if path[-1] not in w and cur in pos:
            cyc = path[pos[cur]:]
            if discounted:
                total = sys.zero_profile()
                for m, d in enumerate(cyc):
                    r = exit_of[d].reward
                    total = {k: total[k] + beta**m * r[k] for k in total}
                denom = 1 - beta ** len(cyc)
                w[cyc[0]] = {k: total[k] / denom for k in total}
                for m in range(len(cyc) - 1, 0, -1):
                    nxt = w[cyc[0]] if m == len(cyc) - 1 else w[cyc[m + 1]]
                    w[cyc[m]] = step(exit_of[cyc[m]], nxt)
            else:
                profile = sys.model.cycle_utilities[canonical_cycle(tuple(cyc))]
                for d in cyc:
                    w[d] = dict(profile)
        for d in reversed(path):
            if d in w:
                continue
            e = exit_of[d]
            w[d] = step(e, w[e.next_class])
    return w


def reference_continuation_values(sys, sigma) -> dict:
    sigma = validate_stationary_strategy(sys, sigma)
    return reference_chain_values(sys, {c: _reference_sigma_exit(sys, sigma, c) for c in sys.classes})


def reference_discounted_extremes(sys) -> dict:
    """Per class and stakeholder, (min, max) of the chain values over every
    exit policy, enumerated as a product."""
    class_ids = sorted(sys.classes)
    table: dict = {}
    for choice in product(*(list(sys.classes[c].exits.values()) for c in class_ids)):
        values = reference_chain_values(sys, dict(zip(class_ids, choice)))
        for c in class_ids:
            for k, v in values[c].items():
                lo, hi = table.get((c, k), (v, v))
                table[(c, k)] = (min(lo, v), max(hi, v))
    return table


@dataclass(frozen=True)
class _ReferencePiece:
    prefix: str
    class_id: str
    level: int
    accrued: tuple  # sorted (stakeholder, Fraction) pairs


def reference_expand(sys, depth: int, with_accrued: bool):
    if depth < 1:
        raise ValueError("instantiation depth must be at least 1")
    beta = sys.model.beta if with_accrued else None
    zero = tuple(sorted(sys.zero_profile().items()))
    pieces = [_ReferencePiece("", sys.initial, 0, zero)]
    boundary = []
    frontier = pieces[:]
    for _ in range(depth):
        nxt = []
        for inst in frontier:
            cls = sys.classes[inst.class_id]
            for label in sorted(cls.exits):
                e = cls.exits[label]
                if e.is_terminal:
                    continue
                if with_accrued:
                    acc = dict(inst.accrued)
                    step = beta ** inst.level
                    accrued = tuple(sorted((k, acc[k] + step * e.reward[k]) for k in acc))
                else:
                    accrued = zero
                nxt.append(_ReferencePiece(inst.prefix + label, e.next_class, inst.level + 1, accrued))
        pieces.extend(nxt)
        frontier = nxt
    for inst in frontier:
        cls = sys.classes[inst.class_id]
        for label in sorted(cls.exits):
            e = cls.exits[label]
            if not e.is_terminal:
                boundary.append((inst.prefix + label, e.next_class, inst, label))
    return pieces, boundary


def _reference_situation(prefix: str, local: str) -> str:
    return "+".join(prefix + part for part in local.split("+"))


def reference_piece_form(sys, pieces) -> Pentaform:
    return validate([
        Quintuple(q.player, _reference_situation(inst.prefix, q.situation),
                  inst.prefix + q.decision_node, q.action, inst.prefix + q.successor)
        for inst in pieces for q in sys.classes[inst.class_id].template.quintuples
    ])


@dataclass(frozen=True)
class BoundaryExit:
    """A cut endnode of a discounted unfolding with its exact value bracket."""

    node: str
    class_id: str
    accrued: dict  # discounted rewards earned strictly before entering the class
    level: int     # class-path length of the boundary subroot
    low: dict
    high: dict


@dataclass(frozen=True)
class ReferenceBoundedInstantiation:
    form: Pentaform
    stakeholders: frozenset
    beta: Fraction
    terminal_utilities: dict
    boundary: dict

    def game(self, continuation) -> Game:
        utilities = {y: dict(p) for y, p in self.terminal_utilities.items()}
        for node, b in self.boundary.items():
            if b.class_id not in continuation:
                raise ValueError(f"continuation missing class {b.class_id!r}")
            w = make_profile(continuation[b.class_id], self.stakeholders)
            factor = self.beta ** b.level
            utilities[node] = {k: b.accrued[k] + factor * w[k] for k in b.accrued}
        return Game(self.form, self.stakeholders, utilities)


def reference_instantiate(sys, depth: int, mode: str = "structural"):
    if mode == "structural":
        pieces, _ = reference_expand(sys, depth, with_accrued=False)
        return reference_piece_form(sys, pieces)
    beta = sys.model.beta
    pieces, boundary_exits = reference_expand(sys, depth, with_accrued=True)
    form = reference_piece_form(sys, pieces)
    terminal_utilities = {}
    for inst in pieces:
        acc = dict(inst.accrued)
        step = beta ** inst.level
        for label, e in sys.classes[inst.class_id].exits.items():
            if e.is_terminal:
                terminal_utilities[inst.prefix + label] = {k: acc[k] + step * e.reward[k] for k in acc}
    extremes = reference_discounted_extremes(sys)
    boundary = {}
    for node, class_id, inst, label in boundary_exits:
        e = sys.classes[inst.class_id].exits[label]
        acc = dict(inst.accrued)
        step = beta ** inst.level
        accrued = {k: acc[k] + step * e.reward[k] for k in acc}
        level = inst.level + 1
        lo, hi = {}, {}
        for k in sorted(sys.stakeholders):
            b_lo, b_hi = extremes[(class_id, k)]
            lo[k] = accrued[k] + beta ** level * b_lo
            hi[k] = accrued[k] + beta ** level * b_hi
        boundary[node] = BoundaryExit(node, class_id, accrued, level, lo, hi)
    return ReferenceBoundedInstantiation(form, sys.stakeholders, beta, terminal_utilities, boundary)


def bound_truncations(sys, depth: int) -> tuple[Game, Game, Game]:
    """`truncated_game` at each class's lower conceivable bounds, at its upper
    bounds and at zero profiles: every cut endnode's bracket and the rewards
    accrued before it."""
    def at(value):
        return truncated_game(sys, depth, {c: {k: value(c, k) for k in sys.stakeholders} for c in sys.classes})

    return (at(lambda c, k: conceivable_bounds(sys, c, k)[0]), at(lambda c, k: conceivable_bounds(sys, c, k)[1]),
            at(lambda c, k: 0))


def boundary_exit(sys, node: str, truncations) -> BoundaryExit:
    """Cut endnode `node` as the reference's bounded instantiation records it,
    read off the three `bound_truncations` and `parse_subroot_label`."""
    low, high, accrued = (g.utilities[node] for g in truncations)
    exits, class_id = parse_subroot_label(sys, node)
    return BoundaryExit(node, class_id, accrued, len(exits), low, high)


def reference_truncated_game(sys, depth: int, continuation) -> Game:
    if isinstance(sys.model, DiscountedAccumulation):
        return reference_instantiate(sys, depth, "bounded").game(continuation)
    pieces, boundary_exits = reference_expand(sys, depth, with_accrued=False)
    form = reference_piece_form(sys, pieces)
    utilities = {}
    for inst in pieces:
        for label, e in sys.classes[inst.class_id].exits.items():
            if e.is_terminal:
                utilities[inst.prefix + label] = dict(e.reward)
    for node, class_id, _inst, _label in boundary_exits:
        if class_id not in continuation:
            raise ValueError(f"continuation missing class {class_id!r}")
        utilities[node] = make_profile(continuation[class_id], sys.stakeholders)
    return Game(form, sys.stakeholders, utilities)


def reference_induced_strategy(sys, sigma, depth: int) -> dict:
    sigma = validate_stationary_strategy(sys, sigma)
    pieces, _ = reference_expand(sys, depth, with_accrued=False)
    return {_reference_situation(inst.prefix, j): a
            for inst in pieces for j, a in sigma[inst.class_id].items()}


def reference_value_at(sys, sigma, label: str) -> dict:
    exits, cid = parse_subroot_label(sys, label)
    w = reference_continuation_values(sys, sigma)
    if not isinstance(sys.model, DiscountedAccumulation):
        return dict(w[cid])
    beta = sys.model.beta
    total = sys.zero_profile()
    for m, e in enumerate(exits):
        total = {k: total[k] + beta**m * e.reward[k] for k in total}
    factor = beta ** len(exits)
    return {k: total[k] + factor * w[cid][k] for k in total}


def reference_quotient_piece_game(sys, cid: str, continuation) -> Game:
    cls = sys.classes[cid]
    discounted = isinstance(sys.model, DiscountedAccumulation)
    beta = sys.model.beta if discounted else None
    utils = {}
    for label, e in cls.exits.items():
        if e.is_terminal:
            utils[label] = dict(e.reward)
        else:
            w = make_profile(continuation[e.next_class], sys.stakeholders)
            if discounted:
                utils[label] = {k: e.reward[k] + beta * w[k] for k in w}
            else:
                utils[label] = dict(w)
    return Game(cls.template, sys.stakeholders, utils)


def reference_stationary_persistent(sys, sigma, values) -> Verdict:
    sigma = validate_stationary_strategy(sys, sigma)
    v = {c: make_profile(values[c], sys.stakeholders) for c in sorted(values)}
    discounted = isinstance(sys.model, DiscountedAccumulation)
    beta = sys.model.beta if discounted else None
    for c in sorted(sys.classes):
        e = _reference_sigma_exit(sys, sigma, c)
        if e.is_terminal:
            expected = dict(e.reward)
        elif discounted:
            expected = {k: e.reward[k] + beta * v[e.next_class][k] for k in v[e.next_class]}
        else:
            expected = dict(v[e.next_class])
        if v[c] != expected:
            return Verdict(False, {"class": c, "value": dict(v[c]), "expected": expected})
    return Verdict(True)


def reference_stationary_piecewise_nash(sys, sigma, values) -> Verdict:
    """One `nash_check` per class on the reference quotient piece game, as the
    check ran before it searched each template in place."""
    sigma = validate_stationary_strategy(sys, sigma)
    v = {c: make_profile(values[c], sys.stakeholders) for c in sorted(values)}
    for c in sorted(sys.classes):
        verdict = nash_check(reference_quotient_piece_game(sys, c, v), sigma[c])
        if not verdict.holds:
            return Verdict(False, {**verdict.witness, "class": c})
    return Verdict(True)


def reference_stationary_admissible(sys, values) -> Verdict:
    """Each class value inside the reference bounds: every exit policy
    enumerated under discounting, the reachable ends otherwise."""
    v = {c: make_profile(values[c], sys.stakeholders) for c in sorted(values)}
    if isinstance(sys.model, DiscountedAccumulation):
        extremes = reference_discounted_extremes(sys)
    else:
        extremes = {(c, k): reference_absolute_bounds(sys, c, k) for c in sys.classes for k in sys.stakeholders}
    for c in sorted(sys.classes):
        for k in sorted(sys.stakeholders):
            lo, hi = extremes[(c, k)]
            if not lo <= v[c][k] <= hi:
                return Verdict(False, {"class": c, "stakeholder": k, "value": v[c][k],
                                       "inf_conceivable": lo, "sup_conceivable": hi})
    return Verdict(True)


def reference_stationary_authentic(sys, sigma, values) -> Verdict:
    """Each class value against the reference continuation values."""
    truth = reference_continuation_values(sys, sigma)
    v = {c: make_profile(values[c], sys.stakeholders) for c in sorted(values)}
    for c in sorted(sys.classes):
        if v[c] != truth[c]:
            return Verdict(False, {"class": c, "value": dict(v[c]), "true_value": dict(truth[c])})
    return Verdict(True)


# -- reference conceivable bounds and convergence: the absolute-terminal
# candidate rule and the convergence verdicts as they stood before each model
# owned its bounds and convergence --------------------------------------------


def reference_absolute_bounds(sys, cid: str, k: str) -> tuple:
    """(min, max) of k's utility over the reachable terminal exits and the
    declared utilities of reachable cycles, recomputed per call."""
    reach = sys.reachable_from(cid)
    candidates = []
    for d in sorted(reach):
        for label in sorted(sys.classes[d].exits):
            e = sys.classes[d].exits[label]
            if e.is_terminal:
                candidates.append(dict(e.reward))
    for cyc, prof in sorted(sys.model.cycle_utilities.items()):
        if cyc[0] in reach:
            candidates.append(dict(prof))
    values = [prof[k] for prof in candidates]
    return min(values), max(values)


def reference_stationary_deviation_scan(sys, sigma):
    """Every stationary unilateral deviation, as (player, deviation, root
    utility): each player's stationary choice profiles enumerated as a
    product, σ's own skipped, each priced by `continuation_values`.  The
    deviation maps "class:situation" to the action wherever it differs from
    σ.  This is the enumeration `certify_spe` ran before it walked the class
    graph, without its cap and its stop at the first improvement."""
    sigma = validate_stationary_strategy(sys, sigma)
    for i in sorted({p for cls in sys.classes.values() for p in cls.template.players}):
        slots = [(c, j) for c in sorted(sys.classes)
                 for j in sorted(sys.classes[c].template.situations)
                 if sys.classes[c].template.player_of(j) == i]
        pools = [sorted(sys.classes[c].template.action_set(j)) for c, j in slots]
        for combo in product(*pools):
            if all(sigma[c][j] == a for (c, j), a in zip(slots, combo)):
                continue
            alt = {c: dict(sigma[c]) for c in sigma}
            for (c, j), a in zip(slots, combo):
                alt[c][j] = a
            deviation = {f"{c}:{j}": a for (c, j), a in zip(slots, combo) if sigma[c][j] != a}
            yield i, deviation, continuation_values(sys, alt)[sys.initial][i]


def reference_stationary_convergence(sys, direction: str) -> ConvergenceVerdict:
    """One branch per utility model; lassos enumerated from the class graph
    and every class on a cycle checked against its own bound."""
    depth = DEFAULT_DEPTH
    if isinstance(sys.model, DiscountedAccumulation):
        beta = sys.model.beta
        rewards = [x for cls in sys.classes.values() for e in cls.exits.values() for x in e.reward.values()]
        bound_const = 2 * max(abs(x) for x in rewards) / (1 - beta)
        return ConvergenceVerdict(HOLDS, certificate=(
            f"discounted accumulation with bounded rewards: the conceivable "
            f"{'increment' if direction == 'upper' else 'decrement'} after d pieces is at most "
            f"beta^d * {bound_const} with beta = {beta}, which vanishes "
            f"(at d = {depth} the bound is {beta**depth * bound_const})"))
    for cyc in simple_cycles(sys.continue_graph()):
        run_utility = sys.model.cycle_utilities[cyc]
        for k in sorted(sys.stakeholders):
            limits = []
            for c in cyc:
                lo, hi = reference_absolute_bounds(sys, c, k)
                limits.append(hi if direction == "upper" else lo)
            assert len(set(limits)) == 1, "conceivable bound must be constant along a cycle"
            limit = limits[0]
            gap = limit - run_utility[k] if direction == "upper" else run_utility[k] - limit
            if gap > 0:
                return ConvergenceVerdict(FAILS, witness={
                    "run": {"prefix": (), "cycle": cyc},
                    "stakeholder": k,
                    "gap": gap,
                    "limit": limit,
                    "run_utility": run_utility[k],
                })
    if scc_has_aperiodic_runs(sys.continue_graph()):
        return ConvergenceVerdict(
            UNKNOWN,
            certificate="every declared lasso converges, but aperiodic infinite runs exist whose "
                        "utility the model does not define (a class lies on two declared cycles)")
    return ConvergenceVerdict(HOLDS, certificate=(
        "every infinite run settles into a declared class cycle and its conceivable "
        f"{'increments' if direction == 'upper' else 'decrements'} vanish on the quotient"))


# -- reference solvers: one full Nash check per enumerated piece profile, as
# both solvers scanned before best responses were shared between profiles ----


def reference_first_nash_point(pg: Game, profiles) -> dict | None:
    """The first Nash point of `profiles`, with best deviation values memoized
    under (player, the other players' choices as a tuple of actions)."""
    form = pg.form
    players = sorted(form.players)
    sits = sorted(form.situations)
    others = {i: [j for j in sits if form.player_of(j) != i] for i in players}
    best: dict = {}
    for profile in profiles:
        base = pg.utilities[outcome(form, profile)[-1]]
        for i in players:
            key = (i, tuple(profile[j] for j in others[i]))
            if key not in best:
                best[key] = reference_best_deviation(form, profile, i, form.root, form.situations,
                                                     lambda y, i=i: pg.utilities[y][i])[0]
            if best[key] > base[i]:
                break
        else:
            return profile
    return None


def reference_solve_backward(g: Game) -> BackwardSolution | NoPureEquilibrium:
    values: dict = {}
    chosen: dict = {}
    order = sorted(subroots_sorted(g.form), key=lambda t: (-g.form.depth(t), t))
    for t in order:
        pg = piece_game(g, values, t)
        for profile in enumerate_piece_profiles(pg.form, pg.form.situations, t):
            if nash_check(pg, profile).holds:
                values[t] = dict(pg.utilities[outcome(pg.form, profile)[-1]])
                chosen.update(profile)
                break
        else:
            return NoPureEquilibrium(t)
    return BackwardSolution(chosen, values)


def reference_solve_stationary(sys) -> StationarySolution | StationarySolveFailure:
    if not isinstance(sys.model, DiscountedAccumulation):
        raise ValueError("solve_stationary requires a discounted-accumulation model")
    w = {c: sys.zero_profile() for c in sys.classes}
    sigma_prev: dict | None = None
    for _ in range(SOLVE_MAX_SWEEPS):
        new_w: dict = {}
        new_sigma: dict = {}
        for c in sorted(sys.classes):
            qg = reference_quotient_piece_game(sys, c, w)
            chosen = None
            for profile in enumerate_piece_profiles(qg.form, qg.form.situations, qg.form.root,
                                                   largest_first=True):
                if nash_check(qg, profile).holds:
                    chosen = profile
                    break
            if chosen is None:
                return StationarySolveFailure("no-pure-equilibrium", c)
            new_sigma[c] = chosen
            new_w[c] = dict(qg.utilities[outcome(qg.form, chosen)[-1]])
        delta = max(abs(new_w[c][k] - w[c][k]) for c in new_w for k in new_w[c])
        stable = sigma_prev == new_sigma
        w, sigma_prev = new_w, new_sigma
        if delta < SOLVE_TOL and stable:
            exact = continuation_values(sys, new_sigma)
            if all(nash_check(reference_quotient_piece_game(sys, c, exact), new_sigma[c]).holds
                   for c in sorted(sys.classes)):
                return StationarySolution(new_sigma, exact)
            w = exact
    return StationarySolveFailure("no-convergence", None)


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
