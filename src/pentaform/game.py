"""Games over pentaforms and the equilibrium/value-function checkers.

A game attaches a stakeholder set K ⊇ I and a utility profile at every final
endnode (the utility of a finite run is the profile at its endnode).  Value
functions map subroots to profiles of extended reals.  The checkers follow
the definitions exactly.  The value checks and `check_value_function` take a
Game or a StationarySystem, whose values live on its classes, and read what
differs between the two from the object's own members: the witness key, the
value domain, the strategy check, the pieces with their exit prices, the
conceivable bounds and the authentic values.

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
  one_piece_unimprovable   no profitable deviation confined to one piece:
                      piecewise_nash at the authentic value function, which
                      the value recursion finds one piece at a time

Deviation searches are exact: a backtracking walk branches only at the
deviating player's situations actually reached, which maximizes over the
player's full strategy space without materializing it.  Every subgame check
walks each piece in place on its own decision nodes, from a subroot t up to
the next subroot or a final endnode (`_piece_walks`), and builds no piece
form.  The piece checks price each exit by the value function, or by the
authentic values, which the value recursion finds one piece at a time.  No
situation straddles a subroot, so `spe_check_direct` is the same recursion
over each player's best deviation value: the exits of the piece at t are
priced by the values already found at them, deepest subroot first, and each
piece is searched once per player.

`solve_backward` is the same in-place recursion: at each subroot, deepest
first, it enumerates the profiles over the situations of the piece's
decision nodes, and prices the piece's exits by the values already found.
It builds no piece form and no piece game; `piece_game` stays as the API's
(and the tests') explicit piece game.

Both solvers find the first pure Nash row, a profile over a piece's
situations paired with the endnode it reaches, with one scan
(`first_nash_point`), and `enumerate_piece_profiles` is the one enumerator
of those profiles, counted against the cap first.  The endnodes a player
can reach by deviating depend only on the other players' choices, so a scan
asks for them once per (player, others' choices), and the player's best
deviation value is the best price among them.  One deviation walk lists
them (`_reachable_exits`): `solve_backward` walks the piece at each
subroot, and `solve_stationary` keeps each class's reach sets for the whole
solve.  Both read the chosen endnode, and so the value, from the row.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import AbstractSet, Iterable, Mapping

from .convergence import HOLDS, ConvergenceVerdict
from .core import Pentaform, Quintuple, validate
from .numbers import Profile, Scalar, make_profile
from .partition import _partition, piece_form, subroots_sorted
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
        _require_domain(form.endnodes, utilities, "utilities missing for endnodes",
                        "utilities given for non-endnodes")
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

    # what the value checks (`admissible` and the rest) read of a game
    witness_key = "subroot"

    def _value_domain(self) -> tuple[list[str], str, str]:
        return subroots_sorted(self.form), "value function missing subroots", "value function defined at non-subroots"

    def _valid_strategy(self, s: Mapping[str, str]) -> dict[str, str]:
        return validate_strategy(self.form, s)

    def _pieces(self, s: Mapping[str, str], v: Mapping[str, Profile]):
        """Each subroot t's piece as (t, form, s, t, the nodes its walk moves on, utilities and v)."""
        prices = {**self.utilities, **v}
        for t, through in _piece_walks(self.form):
            yield t, self.form, s, t, through, prices

    def _conceivable_bounds(self, x: str, k: str) -> tuple[Scalar, Scalar]:
        """(min, max) of stakeholder k's utility over the runs through x, from one walk of x's subtree."""
        if k not in self.stakeholders:
            raise ValueError(f"unknown stakeholder {k!r}")
        ends = [self.utilities[y][k] for y in self.form.subtree_nodes(x) if y in self.form.endnodes]
        return min(ends), max(ends)

    def _authentic_values(self, s: Mapping[str, str]) -> dict[str, Profile]:
        return authentic_value(self, s)

    def _convergence(self, direction: str) -> ConvergenceVerdict:
        """Both directions hold: the last node of any run pins its tail down exactly."""
        return ConvergenceVerdict(HOLDS, certificate="finite game: all runs end at endnodes")


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


def check_value_function(obj, values: Mapping[str, Mapping[str, object]]) -> dict[str, Profile]:
    """Normalize a value function of a Game or a StationarySystem, in the
    order of its domain, which must be exactly the subroots or the classes."""
    order, missing, extra = obj._value_domain()
    _require_domain(order, values, missing, extra)
    profiles = {t: make_profile(values[t], obj.stakeholders) for t in sorted(values)}
    return {t: profiles[t] for t in order}


def _require_domain(domain: Iterable[str], given: Mapping, missing: str, extra: str) -> None:
    """Raise ValueError naming the keys that `given` lacks, else those it adds."""
    for text, names in ((missing, set(domain) - set(given)), (extra, set(given) - set(domain))):
        if names:
            raise ValueError(f"{text} {sorted(names)}")


# -- deviation search ---------------------------------------------------------


def _best_deviation(form: Pentaform, s: Mapping[str, str], i: str, start: str, value_of_endnode,
                    through: AbstractSet[str] | None = None) -> tuple[Scalar, dict, str]:
    """Exact maximum of value_of_endnode over player i's deviations from start.

    Branches at i's situations the first time each is reached and keeps the
    choice fixed afterwards (so absentminded repeats stay consistent); every
    other move follows s.  The walk moves on the decision nodes in `through`
    (all of form's by default) and stops at any other node, which it prices.
    Returns the best value, the branch choices achieving it, and the node
    reached.  Deterministic: actions are explored in sorted order and the
    first maximum is kept.
    """
    if through is None:
        through = form.decision_nodes
    best: tuple = (None, None, None)
    assign: dict[str, str] = {}
    # One frame per open branch point: [node, situation, sorted actions, index].
    # An explicit stack keeps the Python call depth fixed however deep the form.
    stack: list[list] = []
    x = start
    while True:
        while x in through:
            j = form.situation_of(x)
            if form.player_of(j) == i:
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


def _reachable_exits(form: Pentaform, s: Mapping[str, str], i: str, start: str | None = None,
                     through: AbstractSet[str] | None = None) -> set[str]:
    """The nodes where player i's deviations from start (form's root by
    default) stop against s, walking on the decision nodes in `through`:
    one deviation walk."""
    ends: set[str] = set()
    _best_deviation(form, s, i, form.root if start is None else start, lambda y: ends.add(y) or 0, through)
    return ends


def _nash_witness(form: Pentaform, s: Mapping[str, str], start: str, prices: Mapping,
                  through: AbstractSet[str] | None = None) -> dict | None:
    """First profitable unilateral deviation from start in canonical order,
    walking on the decision nodes in `through` (all of form's by default),
    with each node y where a walk stops worth the profile prices[y]."""
    base_end = outcome(form, s, start, through)[-1]
    base = prices[base_end]
    for i in sorted(form.players):
        best, assign, endnode = _best_deviation(form, s, i, start, lambda y, i=i: prices[y][i],
                                                through)
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


def _piece_walks(form: Pentaform, deepest_first: bool = False):
    """Each subroot t in (depth, label) order, or in (−depth, label) order
    (deepest first), with the decision nodes of the piece at t, which a walk
    of the piece moves on: a walk from t stops at the next subroot or at a
    final endnode, and no piece form is built."""
    part = _partition(form)
    return ((t, part.nodes[t]) for t in (part.deepest_first if deepest_first else part.nodes))


def _piece_nash(obj, s, v) -> Verdict:
    """Nash in every piece of a Game or StationarySystem under the valid
    strategy s, the exits priced by the values v, else the first witness in
    the order of v's domain, keyed by its subroot or class."""
    for key, form, s_piece, start, through, prices in obj._pieces(s, v):
        witness = _nash_witness(form, s_piece, start, prices, through)
        if witness is not None:
            witness[obj.witness_key] = key
            return Verdict(False, witness)
    return Verdict(True)


def nash_check(g: Game, s: Mapping[str, str]) -> Verdict:
    """Nash equilibrium: weak inequality, so ties never produce witnesses.

    Bystanders take no decisions and are ignored.
    """
    s = validate_strategy(g.form, s)
    witness = _nash_witness(g.form, s, g.form.root, g.utilities)
    return Verdict(witness is None, witness)


def spe_check_direct(g: Game, s: Mapping[str, str]) -> Verdict:
    """Subgame perfection by definition: Nash in the subgame at every subroot.

    Player i's best deviation value B_i(t) in the subgame at t comes from a
    value recursion, deepest subroot first: search the piece at t with each
    exit t′ priced by B_i(t′).  No situation straddles a subroot, so i's
    choices in the piece and below each exit are independent, and the first
    maximum is the one a search of the whole subgame finds first.  The
    witness is the first (t, i) in (depth, label) and player order whose
    B_i(t) beats i's utility at the end of s's run from t.
    """
    form = g.form
    s = validate_strategy(form, s)
    end = _conforming_ends(form, s)
    players = sorted(form.players)
    # player → subroot → (B_i(t), i's choices in the piece at t, the piece exit)
    best: dict[str, dict[str, tuple]] = {i: {} for i in players}
    for t, through in _piece_walks(form, deepest_first=True):
        for i in players:
            deeper = best[i]
            deeper[t] = _best_deviation(
                form, s, i, t,
                lambda y, i=i, deeper=deeper: deeper[y][0] if y in deeper else g.utilities[y][i],
                through)
    for t in subroots_sorted(form):
        base = g.utilities[end[t]]
        for i in players:
            value, choices, y = best[i][t]
            if value > base[i]:
                deviation = dict(choices)
                while y in best[i]:  # follow the best exits down to a final endnode
                    _, choices, y = best[i][y]
                    deviation.update(choices)
                return Verdict(False, {
                    "player": i,
                    "deviation": deviation,
                    "strategy_utility": base[i],
                    "deviation_utility": value,
                    "strategy_endnode": end[t],
                    "deviation_endnode": y,
                    "subroot": t,
                })
    return Verdict(True)


# -- value-function properties ------------------------------------------------


def admissible(obj, values: Mapping[str, Mapping[str, object]]) -> Verdict:
    """Each value between the inf and sup of utilities over the runs through
    its subroot, or from a fresh piece of its class."""
    v = check_value_function(obj, values)
    for t, vt in v.items():
        for k in sorted(obj.stakeholders):
            lo, hi = obj._conceivable_bounds(t, k)
            if not (lo <= vt[k] <= hi):
                return Verdict(False, {
                    obj.witness_key: t, "stakeholder": k, "value": vt[k],
                    "inf_conceivable": lo, "sup_conceivable": hi,
                })
    return Verdict(True)


def persistent(obj, s, values: Mapping[str, Mapping[str, object]]) -> Verdict:
    """Each value equals the price of the exit that obeying s leaves its piece
    by: the value at the next on-path subroot or the completed run utility,
    or a class's σ-exit priced against the class values."""
    s = obj._valid_strategy(s)
    v = check_value_function(obj, values)
    for t, form, s_piece, start, through, prices in obj._pieces(s, v):
        last = outcome(form, s_piece, start, through)[-1]
        if v[t] != prices[last]:
            via = {"via": last} if isinstance(obj, Game) else {}  # a class exit is a template label
            return Verdict(False, {obj.witness_key: t, "value": dict(v[t]), "expected": dict(prices[last]), **via})
    return Verdict(True)


def _conforming_ends(form: Pentaform, s: Mapping[str, str]) -> dict[str, str]:
    """The endnode reached by obeying s from each subroot and endnode: the
    value recursion, one trace per piece, deepest subroot first."""
    end = {y: y for y in form.endnodes}
    for t, through in _piece_walks(form, deepest_first=True):
        end[t] = end[outcome(form, s, t, through)[-1]]
    return end


def authentic_value(g: Game, s: Mapping[str, str]) -> dict[str, Profile]:
    """The value function v(t) = utility of obeying s after t, for every t."""
    end = _conforming_ends(g.form, validate_strategy(g.form, s))
    return {t: dict(g.utilities[end[t]]) for t in subroots_sorted(g.form)}


def authentic(obj, s, values: Mapping[str, Mapping[str, object]]) -> Verdict:
    """v equals the authentic value function pointwise (the continuation
    values, for a stationary system)."""
    v = check_value_function(obj, values)
    truth = obj._authentic_values(s)
    for t, vt in v.items():
        if vt != truth[t]:
            return Verdict(False, {obj.witness_key: t, "value": dict(vt), "true_value": dict(truth[t])})
    return Verdict(True)


# -- piece games ---------------------------------------------------------------


def piece_game(g: Game, values: Mapping[str, Mapping[str, object]], t: str) -> Game:
    """The piece form at t with exits priced by the value function.

    Piece endnodes that are subroots get their value profiles; final endnodes
    keep their run utilities.  Stakeholders carry through, so players absent
    from the piece become bystanders whose values still matter.
    """
    piece = piece_form(g.form, t)
    ts = _partition(g.form).nodes
    utils = {}
    for y in sorted(piece.endnodes):
        if y in ts:
            if y not in values:
                raise ValueError(f"value function missing exit subroot {y!r}")
            utils[y] = make_profile(values[y], g.stakeholders)
        else:
            utils[y] = g.utilities[y]
    return Game(piece, g.stakeholders, utils)


def piecewise_nash(obj, s, values: Mapping[str, Mapping[str, object]]) -> Verdict:
    """s restricted to each piece is Nash in the piece game whose exits are
    priced by v.  A stationary system's pieces are its class templates: each
    concrete piece's utilities are a positive affine image of its class's
    exit prices, which preserves best responses."""
    return _piece_nash(obj, obj._valid_strategy(s), check_value_function(obj, values))


def one_piece_unimprovable(g: Game, s: Mapping[str, str]) -> Verdict:
    """No player gains by deviating inside one piece and conforming after:
    the piece game at t whose exits are priced by the authentic values."""
    s = validate_strategy(g.form, s)
    end = _conforming_ends(g.form, s)
    verdict = _piece_nash(g, s, {t: g.utilities[end[t]] for t in _partition(g.form).nodes})
    if not verdict:
        del verdict.witness["strategy_endnode"]
        verdict.witness["deviation_endnode"] = end[verdict.witness["deviation_endnode"]]
    return verdict


# -- solver ---------------------------------------------------------------------


def enumerate_piece_profiles(form: Pentaform, situations: AbstractSet[str], t: str,
                             largest_first: bool = False):
    """All strategy profiles of the piece at t, whose situations of `form`
    are `situations`, in lexicographic order over the sorted situations.
    The profiles are counted against the cap before the first is made."""
    cap = profile_cap()
    sits = sorted(situations)
    count = 1
    for j in sits:
        count *= len(form.action_set(j))
    if count > cap:
        raise ResourceCapError(
            f"piece at {t!r} has {count} strategy profiles, more than the cap of {cap}")
    pools = [sorted(form.action_set(j), reverse=largest_first) for j in sits]
    for combo in product(*pools):
        yield dict(zip(sits, combo))


def first_nash_point(form: Pentaform, situations: AbstractSet[str],
                     rows: Iterable[tuple[Mapping[str, str], str]],
                     prices: Mapping[str, Mapping[str, Scalar]], reach
                     ) -> tuple[Mapping[str, str], str] | None:
    """The first row that is a pure Nash point, or None.

    Each row (profile, endnode) pairs a profile of a piece of `form`, over
    the piece's `situations`, with the endnode its walk of the piece
    reaches, and an endnode y pays prices[y].  The players are the owners of
    those situations.  reach(i, key, profile) gives the endnodes player i
    can reach by deviating from profile, and i's best deviation value B_i is
    the best price among them.  Both depend only on the choices at the
    situations i does not own, so reach is asked once per (i, s₋ᵢ) and B_i
    is shared by every later row that agrees there; key is the mixed-radix
    index of s₋ᵢ over the other players' sorted situations.  A row is Nash
    exactly when no player's B_i beats their price at its endnode.  The memo
    lives for one call and holds one dict per player.
    """
    sits = sorted(situations)
    players = sorted({form.player_of(j) for j in sits})
    # per player: each other player's situation with its actions' place values
    places: dict[str, list[tuple[str, dict]]] = {}
    for i in players:
        radix = 1
        places[i] = []
        for j in sits:
            if form.player_of(j) != i:
                actions = sorted(form.action_set(j))
                places[i].append((j, {a: k * radix for k, a in enumerate(actions)}))
                radix *= len(actions)
    best: dict[str, dict[int, Scalar]] = {i: {} for i in players}
    for row in rows:
        profile, end = row
        base = prices[end]
        for i in players:
            memo = best[i]
            key = sum(place[profile[j]] for j, place in places[i])
            if key not in memo:
                memo[key] = max(prices[y][i] for y in reach(i, key, profile))
            if memo[key] > base[i]:
                break
        else:
            return row
    return None


def solve_backward(g: Game) -> BackwardSolution | NoPureEquilibrium:
    """Generalized backward induction over the piece partition, in place.

    Processes subroots in (−depth, label) order.  At each subroot t it
    enumerates the profiles over the situations of the piece's decision
    nodes, traces each to the piece's exit, and keeps the
    lexicographically smallest pure Nash row of the piece game whose final
    endnodes pay their utilities and whose exits pay the values found so far
    (`first_nash_point`; each reach set is one deviation walk of the piece
    from t).  The value at t is the price of the row's endnode.  No piece
    form and no piece game is built.  On success the result satisfies
    persistence and piecewise-Nashness, hence subgame perfection in finite
    games.
    """
    form = g.form
    prices: dict[str, Profile] = dict(g.utilities)  # final endnodes, then each solved subroot
    values: dict[str, Profile] = {}
    chosen: dict[str, str] = {}
    for t, through in _piece_walks(form, deepest_first=True):
        situations = {form.situation_of(x) for x in through}
        rows = ((profile, outcome(form, profile, t, through)[-1])
                for profile in enumerate_piece_profiles(form, situations, t))
        row = first_nash_point(form, situations, rows, prices,
                               lambda i, key, profile: _reachable_exits(form, profile, i, t, through))
        if row is None:
            return NoPureEquilibrium(t)
        profile, end = row
        values[t] = prices[t] = dict(prices[end])
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
