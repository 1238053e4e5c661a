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
player's full strategy space without materializing it.  The walk reads the
form's own tables, bound once per call, and calls no checked accessor; at a
branch point it takes the node's stored (action, successor) pairs, which
are in action order, so backtracking needs no sort.  Every subgame check
walks each piece in place on its own decision nodes (`_partition(form).nodes`)
from a subroot t up to the next subroot or a final endnode.  The piece checks
price each exit by the value function, or by the authentic values, which the
value recursion finds one piece at a time.  No situation straddles a subroot,
so `spe_check_direct` is the same recursion over each player's best deviation
value, deepest subroot first.

`solve_backward` is the same in-place recursion: at each subroot, deepest
first, it takes the piece's first pure Nash row from one scan (`PieceScan`:
an odometer over the piece's profiles, each row's run walked whole from the
subroot), its exits priced by the values already found;
`solve_stationary` reads the class templates' rows from the same scan, and
both test a row by one rule (`_best_ends`).  The finite scan jumps past rows
that must fail the same best set as the row before them (the rule is in
`PieceScan.nash_rows`).
`piece_game` is the explicit piece game of the API and the tests.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import AbstractSet, Iterable, Iterator, Mapping

from .convergence import HOLDS, ConvergenceVerdict
from .core import Pentaform, Quintuple, validate
from .numbers import MAX_DIGITS, Profile, Scalar, _shown, checked_profile, make_profile
from .partition import _partition, piece_form
from .strategy import outcome, validate_strategy

PROFILE_CAP = 10**6  # refuse exhaustive piece enumerations beyond this


def profile_cap() -> int:
    """The exhaustive-search cap; PENTAFORM_PROFILE_CAP overrides the default
    with a positive integer of at most MAX_DIGITS ASCII digits, as in the file
    number grammar (anything else raises ValueError naming the variable)."""
    raw = os.environ.get("PENTAFORM_PROFILE_CAP")
    if not raw:
        return PROFILE_CAP
    digits = raw.strip()
    if not (digits.isascii() and digits.isdigit()) or not digits.strip("0"):
        raise ValueError(f"PENTAFORM_PROFILE_CAP must be a positive integer, not {_shown(raw)}")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"PENTAFORM_PROFILE_CAP {_shown(raw)} has more than {MAX_DIGITS} digits")
    return int(digits)


class ResourceCapError(RuntimeError):
    """An exhaustive search would exceed the configured cap."""


class Game:
    """A pentaform plus stakeholders and endnode utilities (I ⊆ K)."""

    def __init__(self, form: Pentaform, stakeholders: Iterable[str],
                 utilities: Mapping[str, Mapping[str, object]]):
        self._fill(form, frozenset(str(k) for k in stakeholders), utilities, make_profile)

    @classmethod
    def _parsed(cls, form: Pentaform, stakeholders: Iterable[str],
                utilities: Mapping[str, Profile]) -> Game:
        """The game of profiles whose numbers the file loader has already
        parsed into canonical scalars: each profile is kept as given once its
        domain is checked, with no second parse and no copy."""
        game = cls.__new__(cls)
        game._fill(form, frozenset(stakeholders), utilities, checked_profile)
        return game

    def _fill(self, form: Pentaform, stakeholders: frozenset, utilities: Mapping, normalize) -> None:
        self.form = form
        self.stakeholders = stakeholders
        self._extremes = None  # every node's conceivable bounds, filled on first use
        if not form.players <= stakeholders:
            raise ValueError(f"players {sorted(form.players - stakeholders)} missing from stakeholders")
        _require_domain(form.endnodes, utilities, "utilities missing for endnodes",
                        "utilities given for non-endnodes")
        self.utilities: dict[str, Profile] = {
            y: normalize(utilities[y], stakeholders) for y in sorted(form.endnodes)
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
        return list(_partition(self.form).nodes), "value function missing subroots", "value function defined at non-subroots"

    def _valid_strategy(self, s: Mapping[str, str]) -> dict[str, str]:
        return validate_strategy(self.form, s)

    def _pieces(self, s: Mapping[str, str], v: Mapping[str, Profile]):
        """Each subroot t's piece as (t, form, s, t, the nodes its walk moves on, utilities and v)."""
        prices = {**self.utilities, **v}
        for t, through in _partition(self.form).nodes.items():
            yield t, self.form, s, t, through, prices

    def _conceivable_bounds(self, x: str, k: str) -> tuple[Scalar, Scalar]:
        """(min, max) of stakeholder k's utility over the runs through x: one
        entry of a table of every node's bounds, filled once per game: the
        endnodes first, then one pass over the form's decision-node preorder
        in reverse, each decision node after its children."""
        if k not in self.stakeholders:
            raise ValueError(f"unknown stakeholder {k!r}")
        self.form._require_node(x)
        if self._extremes is None:
            ks, children = self.stakeholders, self.form._children
            table = self._extremes = {y: {h: (u[h],) * 2 for h in ks} for y, u in self.utilities.items()}
            for y in reversed(self.form._preorder):
                below = [table[z] for _, z in children[y]]
                table[y] = {h: (min(b[h][0] for b in below), max(b[h][1] for b in below)) for h in ks}
        return self._extremes[x][k]

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
                    through: AbstractSet[str]) -> tuple[Scalar, dict, str]:
    """Exact maximum of value_of_endnode over player i's deviations from start.

    Branches at i's situations the first time each is reached and keeps the
    choice fixed afterwards (so absentminded repeats stay consistent); every
    other move follows s.  The walk moves on the decision nodes in `through`
    and stops at any other node, which it prices.  Returns the best value,
    the branch choices achieving it, and the node reached.  Deterministic:
    actions are explored in sorted order and the first maximum is kept.

    The walk reads the form's own tables, with no checked accessor: s is a
    valid strategy and every node it moves on is a decision node.  At a new
    branch point it takes the node's stored (action, successor) pairs,
    which a valid form keeps in action order, so trying the next action is
    one step along them; a repeat of a situation already assigned moves by
    `_next`.
    """
    situation_of, player_of, next_node, children = form._situation_of, form._player_of, form._next, form._children
    best: tuple = (None, None, None)
    assign: dict[str, str] = {}
    # One frame per open branch point: [situation, the node's pairs, index].
    # An explicit stack keeps the Python call depth fixed however deep the form.
    stack: list[list] = []
    x = start
    while True:
        while x in through:
            j = situation_of[x]
            if player_of[j] != i:
                x = next_node[x, s[j]]
            elif j in assign:
                x = next_node[x, assign[j]]
            else:
                pairs = children[x]
                stack.append([j, pairs, 0])
                assign[j], x = pairs[0]
        v = value_of_endnode(x)
        if best[0] is None or v > best[0]:
            best = (v, dict(assign), x)
        while stack:
            frame = stack[-1]
            frame[2] += 1
            if frame[2] < len(frame[1]):
                assign[frame[0]], x = frame[1][frame[2]]
                break
            del assign[frame[0]]
            stack.pop()
        else:
            return best


def _reachable_exits(form: Pentaform, s: Mapping[str, str], i: str, start: str,
                     through: AbstractSet[str]) -> set[str]:
    """The nodes where player i's deviations from start stop against s,
    walking on the decision nodes in `through`: one deviation walk."""
    ends: set[str] = set()
    _best_deviation(form, s, i, start, lambda y: ends.add(y) or 0, through)
    return ends


def _deviation_witness(i: str, deviation: dict, base: Scalar, value: Scalar, base_end: str, end: str) -> dict:
    """Player i's profitable deviation: its choices, what obeying s and the
    deviation pay i, and the nodes where each stops."""
    return {"player": i, "deviation": deviation, "strategy_utility": base, "deviation_utility": value,
            "strategy_endnode": base_end, "deviation_endnode": end}


def _best_ends(ends: Iterable[str], i: str, prices: Mapping[str, Mapping[str, Scalar]]) -> frozenset:
    """The nodes among `ends` that pay player i the most, y paying prices[y]:
    a row is a pure Nash point exactly when its endnode lies in every
    player's best set over the endnodes that player reaches by deviating."""
    best, top = [], None
    for y in ends:
        price = prices[y][i]
        if top is None or price > top:
            best, top = [y], price
        elif price == top:
            best.append(y)
    return frozenset(best)


def _nash_witness(form: Pentaform, s: Mapping[str, str], start: str, prices: Mapping,
                  through: AbstractSet[str]) -> dict | None:
    """First profitable unilateral deviation from start in canonical order,
    walking on the decision nodes in `through`, with each node y where a
    walk stops worth the profile prices[y]."""
    base_end = outcome(form, s, start, through)[-1]
    base = prices[base_end]
    for i in sorted(form.players):
        best, assign, endnode = _best_deviation(form, s, i, start, lambda y, i=i: prices[y][i],
                                                through)
        if best > base[i]:
            return _deviation_witness(i, assign, base[i], best, base_end, endnode)
    return None


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
    witness = _nash_witness(g.form, s, g.form.root, g.utilities, g.form.decision_nodes)
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
    part = _partition(form)
    # player → subroot → (B_i(t), i's choices in the piece at t, the piece exit)
    best: dict[str, dict[str, tuple]] = {i: {} for i in players}
    for t in part.deepest_first:
        for i in players:
            deeper = best[i]
            deeper[t] = _best_deviation(
                form, s, i, t,
                lambda y, i=i, deeper=deeper: deeper[y][0] if y in deeper else g.utilities[y][i],
                part.nodes[t])
    for t in part.nodes:
        base = g.utilities[end[t]]
        for i in players:
            value, choices, y = best[i][t]
            if value > base[i]:
                deviation = dict(choices)
                while y in best[i]:  # follow the best exits down to a final endnode
                    _, choices, y = best[i][y]
                    deviation.update(choices)
                return Verdict(False, {**_deviation_witness(i, deviation, base[i], value, end[t], y), "subroot": t})
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
    part = _partition(form)
    for t in part.deepest_first:
        end[t] = end[outcome(form, s, t, part.nodes[t])[-1]]
    return end


def authentic_value(g: Game, s: Mapping[str, str]) -> dict[str, Profile]:
    """The value function v(t) = utility of obeying s after t, for every t."""
    end = _conforming_ends(g.form, validate_strategy(g.form, s))
    return {t: dict(g.utilities[end[t]]) for t in _partition(g.form).nodes}


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


class PieceScan:
    """The scan of one piece's pure strategy profiles for Nash rows: the
    profiles over the situations of the decision nodes in `through` (the
    piece's, or all of a class template's), in lexicographic order over the
    sorted situations (each one's actions in sorted order, or largest
    first), each paired with the endnode that its walk of the piece from t
    reaches, moving on those nodes.  `rows` steps through them and
    `nash_rows` keeps the Nash ones, jumping past rows that cannot be Nash
    (the rule is in `nash_rows`).  The cap is `cap`, which `solve_backward`
    reads once for all its pieces, or else `profile_cap()` read when the
    scan is made; `where` names the piece in the cap error.  The scan reads
    the form's own tables, never a checked accessor.
    """

    def __init__(self, form: Pentaform, t: str, through: AbstractSet[str], largest_first: bool = False,
                 cap: int | None = None):
        self.form = form
        self.t = t
        self.where = f"piece at {t!r}"
        self.through = through
        situation_of, player_of, action_sets = form._situation_of, form._player_of, form._action_sets
        situations = {situation_of[x] for x in through}
        self.cap = profile_cap() if cap is None else cap
        self.first_profile: dict[str, str] = {}
        self.digits: list[tuple[str, list[str]]] = []  # each situation with more than one action
        self.digit_of: dict[str, int] = {}  # and its place in `digits`
        owners: list[str] = []  # and its player
        for j in sorted(situations):
            pool = sorted(action_sets[j], reverse=largest_first)
            self.first_profile[j] = pool[0]
            if len(pool) > 1:
                self.digit_of[j] = len(self.digits)
                self.digits.append((j, pool))
                owners.append(player_of[j])
        self.count = prod(len(pool) for _, pool in self.digits)
        self.players = sorted({player_of[j] for j in self.first_profile})
        # per digit: each other player's place value there, and the players
        # who own no digit up to it
        radix = dict.fromkeys(self.players, 1)
        owned: set[str] = set()
        self.places: list[list[tuple[str, int]]] = []
        self.expiring: list[list[str]] = []
        for (_, pool), owner in zip(self.digits, owners):
            self.places.append([(i, radix[i]) for i in self.players if i != owner])
            for i in self.players:
                if i != owner:
                    radix[i] *= len(pool)
            owned.add(owner)
            self.expiring.append([i for i in self.players if i not in owned])
        # the player who owns the fastest digits, and the first of them: the
        # block of rows `nash_rows` may jump through (`_jump`)
        self.tail = len(self.digits)
        while self.tail and owners[self.tail - 1] == owners[-1]:
            self.tail -= 1
        self.tail_owner = owners[-1] if owners else None
        self._paths: dict[str, tuple] = {}  # endnode paths, each found on the first jump that needs it

    def reach(self, i: str, profile: Mapping[str, str]) -> AbstractSet[str]:
        """The endnodes player i can reach by deviating from profile: one
        deviation walk of the piece."""
        return _reachable_exits(self.form, profile, i, self.t, self.through)

    def check_cap(self) -> None:
        """Raise ResourceCapError when the piece has more profiles than the cap."""
        if self.count > self.cap:
            raise ResourceCapError(
                f"{self.where} has {self.count} strategy profiles, more than the cap of {self.cap}")

    def rows(self, profile: dict[str, str], keys: dict[str, int]) -> Iterator[tuple[str, int]]:
        """Step `profile` and `keys` through the rows in scan order, in place,
        yielding each row's endnode and the first digit that changed to reach
        it (-1 for the first row).  The caller owns both and starts them at
        `first_profile` and a key of 0 per player.  Sent a best set of
        `tail_owner` after a row that set fails, the odometer jumps instead
        of stepping (`_jump`; the rule is in `nash_rows`).

        The profiles are a mixed-radix odometer whose digits are the
        situations with more than one action (`digits`), the last turning
        fastest, so a step changes O(1) digits amortized.  Each row's run is
        walked whole from t to its endnode.  keys[i] is the mixed-radix index
        of s₋ᵢ over the other players' digits, the first least significant,
        moved by each changed digit's place value (`places`)."""
        through, situation_of, next_node = self.through, self.form._situation_of, self.form._next
        digits, places = self.digits, self.places
        index = [0] * len(digits)
        tops = [len(pool) - 1 for _, pool in digits]
        last = len(digits) - 1
        k = -1
        while True:
            x = self.t
            while x in through:
                x = next_node[x, profile[situation_of[x]]]
            best = yield x, k
            k, goal = last, None  # goal: every digit's index after a jump
            if best is not None:
                k, goal = self._jump(index, tops, best)
            if goal is None:
                # the last digit from k down below its top turns; every later digit goes back to 0
                while k >= 0 and index[k] == tops[k]:
                    k -= 1
            if k < 0:
                return
            for m in range(k, last + 1):
                old = index[m]
                new = index[m] = goal[m] if goal else old + 1 if m == k else 0
                j, pool = digits[m]
                profile[j] = pool[new]
                for i, place in places[m]:
                    keys[i] += (new - old) * place

    def _jump(self, index: list[int], tops: list[int], best: AbstractSet[str]) -> tuple[int, list[int] | None]:
        """Where the odometer at `index` goes when its row's endnode is not in
        `best`, a best set of `tail_owner`: the first digit that changes and
        every digit's new index, at the next row that can reach some y in
        `best`; else the digit before `tail` and None, for a step from there
        past the block of rows that share the digits before `tail`."""
        tail = self.tail
        target = None
        for y in best:
            before, along = self._paths.get(y) or self._path(y)
            for m, a in before:
                if index[m] != a:
                    break
            else:
                # the first tail digit where this row leaves y's path; there
                # is one, for the row's run ends elsewhere
                f = tail
                while along[f] < 0 or along[f] == index[f]:
                    f += 1
                k = f
                if along[f] < index[f]:  # a digit that y's path leaves free must turn before f
                    k -= 1
                    while k >= tail and (along[k] >= 0 or index[k] == tops[k]):
                        k -= 1
                    if k < tail:
                        continue
                goal = index[:k]
                goal.append(along[k] if along[k] >= 0 else index[k] + 1)
                goal.extend(a if a >= 0 else 0 for a in along[k + 1:])
                if target is None or goal < target[1]:
                    target = k, goal
        return target or (tail - 1, None)

    def _path(self, y: str) -> tuple[list[tuple[int, int]], list[int]]:
        """The digits that endnode y's path from t fixes: (digit, action
        index) pairs before `tail`, and per digit the action index from
        `tail` on, -1 where the path leaves it free and before `tail`.  y is
        one that a walk of the piece reaches, so its path takes one action
        at each situation it meets."""
        pred, situation_of, children = self.form._pred, self.form._situation_of, self.form._children
        before: list[tuple[int, int]] = []
        along = [-1] * len(self.digits)
        x = y
        while x != self.t:
            w = pred[x]
            m = self.digit_of.get(situation_of[w])
            if m is not None:
                n = self.digits[m][1].index(next(a for a, z in children[w] if z == x))
                if m < self.tail:
                    before.append((m, n))
                else:
                    along[m] = n
            x = w
        path = self._paths[y] = before, along
        return path

    def nash_rows(self, prices: Mapping[str, Mapping[str, Scalar]]) -> Iterator[tuple[dict, str]]:
        """Each pure Nash row (a copy of its profile, its endnode) in scan
        order, an endnode y paying prices[y].  The profiles are counted
        against the cap before the first row is scanned.

        The endnodes player i can reach by deviating depend only on s₋ᵢ, and
        so does i's best set among them (`_best_ends`); the scan keeps that
        set per (i, key), one object per distinct set, and a row is Nash
        when its endnode lies in every player's set.  Once a digit
        sorted before all of i's digits turns, no earlier key of i can
        recur, and i's sets are dropped (`expiring`).  The scan only
        compares prices, so any exact numbers that order as the values do
        serve as prices.

        The jump rule.  Say row r fails the test of `tail_owner`, the player
        i who owns the fastest digits, those from `tail` on: r's endnode is
        not in i's best set B.  Every row that differs from r only in those
        digits has i's key, so B, and passes i's test only if its run ends
        at some y in B, which needs y's path from t to take r's actions at
        every digit before `tail`.  So `rows` is sent B and jumps to the next
        row in scan order whose digits follow some such y's path (`_jump`,
        reading each y's (digit, action index) pairs from `_path`), or past
        the block of rows that share r's digits before `tail` when no y
        qualifies.  Every row skipped fails i's test, so the Nash rows and
        their order are those of a plain step; only the rows walked and the
        deviation walks are fewer.  This is conflict-directed backjumping
        (Gaschnig 1979) on the odometer."""
        self.check_cap()
        players, expiring, tail_owner = self.players, self.expiring, self.tail_owner
        profile, keys = dict(self.first_profile), dict.fromkeys(players, 0)
        memo: dict[str, dict[int, frozenset]] = {i: {} for i in players}
        interned: dict[frozenset, frozenset] = {}
        step = self.rows(profile, keys).send
        jump = None
        while True:
            try:
                x, turned = step(jump)
            except StopIteration:
                return
            jump = None
            if turned >= 0:
                for i in expiring[turned]:
                    memo[i].clear()
            for i in players:
                best = memo[i].get(keys[i])
                if best is None:
                    found = _best_ends(self.reach(i, profile), i, prices)
                    best = memo[i][keys[i]] = interned.setdefault(found, found)
                if x not in best:
                    if i == tail_owner:
                        jump = best
                    break
            else:
                yield dict(profile), x


def first_nash_point(scan: PieceScan, prices: Mapping[str, Mapping[str, Scalar]]) -> tuple[dict, str] | None:
    """The first pure Nash row of the piece that `scan` walks, a profile over
    its situations with the endnode it reaches, when an endnode y pays
    prices[y]; None when the piece has none.  The profiles are counted
    against the cap before any row is scanned."""
    return next(scan.nash_rows(prices), None)


def solve_backward(g: Game) -> BackwardSolution | NoPureEquilibrium:
    """Generalized backward induction over the piece partition, in place.

    Processes subroots in (−depth, label) order.  At each subroot t it
    scans the profiles over the situations of the piece's decision nodes,
    each with the piece exit its run reaches, and keeps the
    lexicographically smallest pure Nash row of the piece game whose final
    endnodes pay their utilities and whose exits pay the values found so far
    (`first_nash_point` over a `PieceScan` of the piece; each reach set is
    one deviation walk of the piece from t).  The value at t is the price of
    the row's endnode.  On success the result satisfies persistence and
    piecewise-Nashness, hence subgame perfection in finite games.
    """
    form = g.form
    prices: dict[str, Profile] = dict(g.utilities)  # final endnodes, then each solved subroot
    values: dict[str, Profile] = {}
    chosen: dict[str, str] = {}
    part = _partition(form)
    cap = profile_cap()
    for t in part.deepest_first:
        row = first_nash_point(PieceScan(form, t, part.nodes[t], cap=cap), prices)
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
