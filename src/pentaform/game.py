"""Games over pentaforms and the equilibrium/value-function checkers.

A game attaches a stakeholder set K ⊇ I and a utility profile at every final
endnode (the utility of a finite run is the profile at its endnode).  Value
functions map subroots to profiles of extended reals.  The checkers follow
the definitions exactly:

  nash_check          no player has a profitable unilateral deviation
  spe_check_direct    the restriction of s is Nash in every subgame
  admissible          each value lies between the inf and sup of utilities
                      over runs through the subroot
  persistent          each value equals the value at the next on-path
                      subroot, or the on-path run utility if none
  authentic           each value equals the utility of obeying s after the
                      subroot
  piecewise_nash      s restricted to each piece is Nash in the piece game
                      whose exits are priced by the value function
  one_piece_unimprovable   no profitable deviation confined to one piece

Deviation searches are exact: a backtracking walk branches only at the
deviating player's situations actually reached, which maximizes over the
player's full strategy space without materializing it.  No situation straddles
a subroot, so the subgame at t is searched in place: every walk for it starts
at t in the whole form and never leaves the subform weakly after t.

The solvers look for the first pure Nash point of a piece game among its
enumerated profiles (`first_nash_point`).  A player's best deviation value
depends only on the other players' choices, so it is searched once per
(player, others' choices) and shared by every profile that agrees on them.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

from .core import Pentaform, Quintuple, validate
from .numbers import Profile, Scalar, make_profile, profiles_equal
from .partition import piece_form, subroots, subroots_sorted
from .strategy import outcome, validate_strategy

PROFILE_CAP = 10**6  # refuse exhaustive piece enumerations beyond this


def profile_cap() -> int:
    """The exhaustive-search cap; PENTAFORM_PROFILE_CAP overrides the default
    with a positive integer (anything else raises ValueError)."""
    raw = os.environ.get("PENTAFORM_PROFILE_CAP")
    if not raw:
        return PROFILE_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"PENTAFORM_PROFILE_CAP must be a positive integer, not {raw!r}")
    return int(raw)


class ResourceCapError(RuntimeError):
    """An exhaustive search would exceed the configured cap."""


class Game:
    """A pentaform plus stakeholders and endnode utilities (I ⊆ K)."""

    def __init__(self, form: Pentaform, stakeholders: Iterable[str],
                 utilities: Mapping[str, Mapping[str, object]]):
        self.form = form
        self.stakeholders = frozenset(str(k) for k in stakeholders)
        if not form.players <= self.stakeholders:
            raise ValueError(f"players {sorted(form.players - self.stakeholders)} missing from stakeholders")
        missing = sorted(form.endnodes - set(utilities))
        if missing:
            raise ValueError(f"utilities missing for endnodes {missing}")
        extra = sorted(set(utilities) - form.endnodes)
        if extra:
            raise ValueError(f"utilities given for non-endnodes {extra}")
        self.utilities: dict[str, Profile] = {
            y: make_profile(utilities[y], self.stakeholders) for y in sorted(form.endnodes)
        }

    @property
    def bystanders(self) -> frozenset:
        return self.stakeholders - self.form.players

    def __eq__(self, other) -> bool:
        return (isinstance(other, Game) and self.form == other.form
                and self.stakeholders == other.stakeholders
                and self.utilities == other.utilities)

    def __repr__(self) -> str:
        return f"Game(root={self.form.root!r}, endnodes={len(self.utilities)}, stakeholders={sorted(self.stakeholders)})"


@dataclass(frozen=True)
class Verdict:
    """A property check result; a failing verdict carries a re-checkable witness."""

    holds: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class BackwardSolution:
    strategy: dict
    values: dict


@dataclass(frozen=True)
class NoPureEquilibrium:
    """First-class negative result: some piece game has no pure Nash point."""

    subroot: str


def utility_of_run(g: Game, z) -> Profile:
    """The profile attached to the run's endnode."""
    zt = tuple(z)
    if not g.form.is_run(zt):
        raise ValueError(f"{zt!r} is not a run of the game form")
    return dict(g.utilities[zt[-1]])


def check_value_function(g: Game, values: Mapping[str, Mapping[str, object]]) -> dict[str, Profile]:
    """Normalize a value function and require its domain to be exactly T."""
    ts = subroots(g.form)
    missing = sorted(ts - set(values))
    if missing:
        raise ValueError(f"value function missing subroots {missing}")
    extra = sorted(set(values) - ts)
    if extra:
        raise ValueError(f"value function defined at non-subroots {extra}")
    return {t: make_profile(values[t], g.stakeholders) for t in sorted(values)}


# -- deviation search ---------------------------------------------------------


def _best_deviation(form: Pentaform, s: Mapping[str, str], i: str, start: str,
                    deviate_at: frozenset, value_of_endnode) -> tuple[Scalar, dict, str]:
    """Exact maximum of value_of_endnode over player i's deviations from start.

    Branches at i's situations in `deviate_at` the first time each is reached
    and keeps the choice fixed afterwards (so absentminded repeats stay
    consistent); every other move follows s.  Returns the best value, the
    branch choices achieving it, and the endnode reached.  Deterministic:
    actions are explored in sorted order and the first maximum is kept.
    """
    best: tuple = (None, None, None)
    assign: dict[str, str] = {}
    # One frame per open branch point: [node, situation, sorted actions, index].
    # An explicit stack keeps the Python call depth fixed however deep the form.
    stack: list[list] = []
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


def _nash_witness(g: Game, s: Mapping[str, str], start: str) -> dict | None:
    """First profitable unilateral deviation from start in canonical order."""
    base_end = outcome(g.form, s, start)[-1]
    base = g.utilities[base_end]
    for i in sorted(g.form.players):
        best, assign, endnode = _best_deviation(g.form, s, i, start, g.form.situations,
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


def nash_check(g: Game, s: Mapping[str, str]) -> Verdict:
    """Nash equilibrium: weak inequality, so ties never produce witnesses.

    Bystanders take no decisions and are ignored.
    """
    s = validate_strategy(g.form, s)
    witness = _nash_witness(g, s, g.form.root)
    return Verdict(witness is None, witness)


def spe_check_direct(g: Game, s: Mapping[str, str]) -> Verdict:
    """Subgame perfection by definition: Nash in the subgame at every subroot."""
    s = validate_strategy(g.form, s)
    for t in subroots_sorted(g.form):
        witness = _nash_witness(g, s, t)
        if witness is not None:
            witness["subroot"] = t
            return Verdict(False, witness)
    return Verdict(True)


# -- value-function properties ------------------------------------------------


def admissible(g: Game, values: Mapping[str, Mapping[str, object]]) -> Verdict:
    """Each value between the inf and sup of utilities over runs through t."""
    from .convergence import inf_conceivable, sup_conceivable

    v = check_value_function(g, values)
    for t in subroots_sorted(g.form):
        for k in sorted(g.stakeholders):
            lo = inf_conceivable(g, t, k)
            hi = sup_conceivable(g, t, k)
            if not (lo <= v[t][k] <= hi):
                return Verdict(False, {
                    "subroot": t, "stakeholder": k, "value": v[t][k],
                    "inf_conceivable": lo, "sup_conceivable": hi,
                })
    return Verdict(True)


def persistent(g: Game, s: Mapping[str, str], values: Mapping[str, Mapping[str, object]]) -> Verdict:
    """v(t) equals v at the next on-path subroot, or the completed run utility."""
    s = validate_strategy(g.form, s)
    v = check_value_function(g, values)
    ts = subroots(g.form)
    for t in subroots_sorted(g.form):
        last = outcome(piece_form(g.form, t), s)[-1]
        expected = v[last] if last in ts else g.utilities[last]
        if not profiles_equal(v[t], expected):
            return Verdict(False, {
                "subroot": t,
                "value": dict(v[t]),
                "expected": dict(expected),
                "via": last,
            })
    return Verdict(True)


def authentic_value(g: Game, s: Mapping[str, str]) -> dict[str, Profile]:
    """The value function v(t) = utility of obeying s after t, for every t."""
    s = validate_strategy(g.form, s)
    out = {}
    for t in subroots_sorted(g.form):
        out[t] = dict(g.utilities[outcome(g.form, s, t)[-1]])
    return out


def authentic(g: Game, s: Mapping[str, str], values: Mapping[str, Mapping[str, object]]) -> Verdict:
    """v equals the authentic value function pointwise."""
    v = check_value_function(g, values)
    truth = authentic_value(g, s)
    for t in subroots_sorted(g.form):
        if not profiles_equal(v[t], truth[t]):
            return Verdict(False, {"subroot": t, "value": dict(v[t]), "true_value": dict(truth[t])})
    return Verdict(True)


# -- piece games ---------------------------------------------------------------


def piece_game(g: Game, values: Mapping[str, Mapping[str, object]], t: str) -> Game:
    """The piece form at t with exits priced by the value function.

    Piece endnodes that are subroots get their value profiles; final endnodes
    keep their run utilities.  Stakeholders carry through, so players absent
    from the piece become bystanders whose values still matter.
    """
    piece = piece_form(g.form, t)
    ts = subroots(g.form)
    utils = {}
    for y in sorted(piece.endnodes):
        if y in ts:
            if y not in values:
                raise ValueError(f"value function missing exit subroot {y!r}")
            utils[y] = make_profile(values[y], g.stakeholders)
        else:
            utils[y] = g.utilities[y]
    return Game(piece, g.stakeholders, utils)


def piecewise_nash(g: Game, s: Mapping[str, str], values: Mapping[str, Mapping[str, object]]) -> Verdict:
    """s restricted to each piece is Nash in the piece game at t and v."""
    s = validate_strategy(g.form, s)
    v = check_value_function(g, values)
    for t in subroots_sorted(g.form):
        pg = piece_game(g, v, t)
        witness = _nash_witness(pg, s, pg.form.root)
        if witness is not None:
            witness["subroot"] = t
            return Verdict(False, witness)
    return Verdict(True)


def one_piece_unimprovable(g: Game, s: Mapping[str, str]) -> Verdict:
    """No player gains by deviating inside one piece and conforming after."""
    s = validate_strategy(g.form, s)
    for t in subroots_sorted(g.form):
        piece = piece_form(g.form, t)
        base = g.utilities[outcome(g.form, s, t)[-1]]
        for i in sorted(piece.players):
            best, assign, endnode = _best_deviation(g.form, s, i, t, piece.situations,
                                                    lambda y, i=i: g.utilities[y][i])
            if best > base[i]:
                return Verdict(False, {
                    "subroot": t, "player": i, "deviation": assign,
                    "strategy_utility": base[i], "deviation_utility": best,
                    "deviation_endnode": endnode,
                })
    return Verdict(True)


# -- solver ---------------------------------------------------------------------


def enumerate_piece_profiles(piece: Pentaform, largest_first: bool = False):
    """All piece strategy profiles in lexicographic order over sorted situations."""
    cap = profile_cap()
    sits = sorted(piece.situations)
    count = 1
    for j in sits:
        count *= len(piece.action_set(j))
    if count > cap:
        raise ResourceCapError(
            f"piece at {piece.root!r} has {count} strategy profiles, more than the cap of {cap}")
    pools = [sorted(piece.action_set(j), reverse=largest_first) for j in sits]
    for combo in product(*pools):
        yield dict(zip(sits, combo))


def is_pure_nash(pg: Game, profile: Mapping[str, str]) -> bool:
    return _nash_witness(pg, profile, pg.form.root) is None


def first_nash_point(pg: Game, profiles: Iterable[Mapping[str, str]]) -> Mapping[str, str] | None:
    """The first profile in `profiles` that is a pure Nash point of pg, or None.

    Player i's best deviation value B_i(s₋ᵢ) depends only on the choices at
    the situations i does not own, so it is searched once per (i, s₋ᵢ) and
    shared by every later profile that agrees there; a profile is Nash exactly
    when no player's B_i beats their utility at its outcome.  The memo lives
    for one call and holds at most one entry per player and profile.
    """
    form = pg.form
    players = sorted(form.players)
    sits = sorted(form.situations)
    others = {i: [j for j in sits if form.player_of(j) != i] for i in players}
    best: dict[tuple, Scalar] = {}
    for profile in profiles:
        base = pg.utilities[outcome(form, profile)[-1]]
        for i in players:
            key = (i, tuple(profile[j] for j in others[i]))
            if key not in best:
                best[key] = _best_deviation(form, profile, i, form.root, form.situations,
                                            lambda y, i=i: pg.utilities[y][i])[0]
            if best[key] > base[i]:
                break
        else:
            return profile
    return None


def solve_backward(g: Game) -> BackwardSolution | NoPureEquilibrium:
    """Generalized backward induction over the piece partition.

    Processes subroots deepest-first; at each one, enumerates the piece
    strategy profiles of the piece game priced by the values found so far and
    keeps the lexicographically smallest pure Nash point, with best responses
    shared between profiles (`first_nash_point`).  On success the result
    satisfies persistence and piecewise-Nashness, hence subgame perfection in
    finite games.
    """
    values: dict[str, Profile] = {}
    chosen: dict[str, str] = {}
    order = sorted(subroots_sorted(g.form), key=lambda t: (-g.form.depth(t), t))
    for t in order:
        pg = piece_game(g, values, t)
        profile = first_nash_point(pg, enumerate_piece_profiles(pg.form))
        if profile is None:
            return NoPureEquilibrium(t)
        values[t] = dict(pg.utilities[outcome(pg.form, profile)[-1]])
        chosen.update(profile)
    return BackwardSolution(chosen, values)


# -- random instances ------------------------------------------------------------


def random_game(seed: int, max_nodes: int = 12, max_players: int = 3,
                max_info_set: int = 3) -> Game:
    """A small random game valid by construction.

    Grows a random out-tree, groups same-out-degree decision nodes into
    information sets (equal action sets keep the rectangle axiom), assigns a
    random player per situation, and draws rational utilities in [-10, 10].
    Occasionally adds a pure bystander so K ⊋ I gets exercised.
    """
    rng = random.Random(seed)
    n = rng.randint(4, max(4, max_nodes))
    parents = {k: rng.randrange(k) for k in range(1, n)}
    children: dict[int, list[int]] = {}
    for k, pa in parents.items():
        children.setdefault(pa, []).append(k)

    label = {k: f"n{k:02d}" for k in range(n)}
    by_degree: dict[int, list[int]] = {}
    for w, cs in children.items():
        by_degree.setdefault(len(cs), []).append(w)

    situation_of: dict[int, str] = {}
    action_lists: dict[str, list[str]] = {}
    situations: list[str] = []
    for degree in sorted(by_degree):
        ws = sorted(by_degree[degree])
        rng.shuffle(ws)
        while ws:
            size = rng.randint(1, min(max_info_set, len(ws)))
            group, ws = ws[:size], ws[size:]
            j = f"s{len(situations):02d}"
            situations.append(j)
            for w in group:
                situation_of[w] = j
            action_lists[j] = [f"a{m+1}" for m in range(degree)]

    num_players = rng.randint(1, max_players)
    player_of = {j: f"p{rng.randint(1, num_players)}" for j in situations}

    quintuples = []
    for w, cs in children.items():
        j = situation_of[w]
        for a, c in zip(action_lists[j], sorted(cs)):
            quintuples.append(Quintuple(player_of[j], j, label[w], a, label[c]))

    form = validate(quintuples)
    stakeholders = set(form.players)
    if rng.random() < 0.25:
        stakeholders.add("b1")
    utilities = {
        y: {k: _random_rational(rng) for k in stakeholders}
        for y in form.endnodes
    }
    return Game(form, stakeholders, utilities)


def _random_rational(rng: random.Random) -> Fraction:
    den = rng.choice([1, 2, 3, 4, 5, 10])
    return Fraction(rng.randint(-10 * den, 10 * den), den)
