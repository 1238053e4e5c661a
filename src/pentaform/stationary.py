"""Finitely generated infinite-horizon games and their quotient analysis.

A stationary system is a finite set of piece-class templates with exit rules:
each template endnode either ends the game with a terminal profile or
continues into a fresh copy of some class.  Unfolding from the initial class
generates an infinite pentaform whose subroots are exactly the class paths;
node labels concatenate exit labels, so the piece at path p of class c uses
labels p ⊕ (local label).

Two utility models are supported.  DiscountedAccumulation sums per-visit
rewards with a factor β ∈ (0,1) (terminal profiles are the final summand,
taken at the day they occur).  AbsoluteTerminal takes terminal profiles
as-is and requires an explicit utility profile for every simple class cycle;
infinite runs that settle into a cycle get that profile, and systems whose
class graph admits aperiodic infinite runs are only partially specified.

Each model holds one pricing rule, `step(reward, w)`: the value of a continue
exit with that reward into a piece worth w (r + β·w, or w as-is), plus the
value of circling a class cycle forever.  Everything else prices by folding
`step`: a class value steps back from the class its exit enters, a piece
game's continue exits step to the next class value, and an endnode of an
unfolding folds `step` over the continue exits on its class path.

Each model also owns every other decision that depends on it: `validated`
(β and finite rewards, or exactly the simple class cycles declared),
`bounds` (the conceivable bounds of every class, by policy iteration or over
the reachable terminal exits and cycles) and `convergence` (a geometric
certificate, or a lasso-by-lasso decision).  The functions below call these
hooks; only bounded instantiation and `solve_stationary`, which support
discounting alone, still test the model's type.

Everything infinite is analyzed on the finite class quotient: continuation
values solve w_c = step(r(σ-exit), w_next) exactly, and the utility of any
concrete subgame is a positive affine image of the quotient, so one Nash scan
per class settles piecewise-Nashness for all infinitely many pieces at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping

from .convergence import DEFAULT_DEPTH, FAILS, HOLDS, UNKNOWN, ConvergenceVerdict, lower_convergent, upper_convergent
from .core import Pentaform, Quintuple, validate
from .game import (
    Game,
    ResourceCapError,
    Verdict,
    enumerate_piece_profiles,
    first_nash_point,
    is_pure_nash,
    nash_check,
    profile_cap,
)
from .numbers import Profile, Scalar, is_finite, make_profile, profiles_equal
from .partition import subroots
from .strategy import INFINITE_DETECTED, TERMINATED, SubrootSequence, outcome, validate_strategy


@dataclass(frozen=True)
class Exit:
    """What happens at one template endnode: stop with a profile, or continue
    into `next_class` (the reward is the terminal profile, or the per-visit
    reward of the continue edge)."""

    reward: Mapping[str, Scalar]
    next_class: str | None = None

    @property
    def is_terminal(self) -> bool:
        return self.next_class is None


@dataclass(frozen=True)
class PieceClass:
    """One piece template (a finite pentaform rooted at the empty label) with
    every endnode classified by an exit rule."""

    template: Pentaform
    exits: Mapping[str, Exit]


@dataclass(frozen=True)
class DiscountedAccumulation:
    beta: Fraction
    kind = "discounted"

    def validated(self, sys: StationarySystem) -> DiscountedAccumulation:
        """This model, once β ∈ (0,1) and every reward is finite."""
        if not isinstance(self.beta, Fraction) or not (0 < self.beta < 1):
            raise ValueError("discount factor must be a Fraction in (0, 1)")
        for cid, cls in sys.classes.items():
            for label, e in cls.exits.items():
                if any(not is_finite(x) for x in e.reward.values()):
                    raise ValueError(f"class {cid!r}: discounted accumulation requires finite rewards ({label!r})")
        return self

    def step(self, reward: Mapping[str, Scalar], w: Mapping[str, Scalar]) -> Profile:
        """The value of a continue exit with `reward` into a piece worth `w`."""
        beta = self.beta
        return {k: reward[k] + beta * w[k] for k in w}

    def cycle_value(self, cycle: tuple[str, ...], rewards: list[Profile]) -> Profile:
        """The value at cycle[0] of circling `cycle` forever, earning
        rewards[m] on leaving cycle[m]: the geometric series of one lap."""
        lap = {k: Fraction(0) for k in rewards[0]}
        for reward in reversed(rewards):
            lap = self.step(reward, lap)
        denom = 1 - self.beta ** len(cycle)
        return {k: x / denom for k, x in lap.items()}

    def bounds(self, sys: StationarySystem) -> dict[str, dict[str, tuple[Scalar, Scalar]]]:
        """Per-class, per-stakeholder (inf, sup) of run values.

        For one stakeholder k, choosing a run through the class quotient is a
        deterministic single-agent problem with finitely many states (the
        classes) and rewards discounted by β < 1.  Its Bellman operator, which
        prices every exit of a class against a value vector and keeps the best,
        is a β-contraction, so it has one fixed point, and an exit policy that is
        greedy with respect to that fixed point attains it from every class
        (Howard 1960; Puterman 1994, ch. 6).  The sup over all runs, stationary
        or not, is therefore the value of one stationary exit policy, and so is
        the inf (maximize -u_k).  `_optimal_values` finds that policy exactly."""
        table: dict[str, dict[str, tuple[Scalar, Scalar]]] = {c: {} for c in sorted(sys.classes)}
        for k in sorted(sys.stakeholders):
            hi = _optimal_values(sys, k, 1)
            lo = _optimal_values(sys, k, -1)
            for c in table:
                table[c][k] = (lo[c], hi[c])
        return table

    def convergence(self, sys: StationarySystem, direction: str) -> ConvergenceVerdict:
        """Always holds: every continuation value lies in [-M/(1-β), M/(1-β)]
        for M = max absolute reward, so the conceivable increment (decrement)
        after d pieces is at most β^d · 2M/(1-β)."""
        beta = self.beta
        bound_const = 2 * max(abs(x) for cls in sys.classes.values()
                              for e in cls.exits.values() for x in e.reward.values()) / (1 - beta)
        return ConvergenceVerdict(HOLDS, certificate=(
            f"discounted accumulation with bounded rewards: the conceivable "
            f"{'increment' if direction == 'upper' else 'decrement'} after d pieces is at most "
            f"beta^d * {bound_const} with beta = {beta}, which vanishes "
            f"(at d = {DEFAULT_DEPTH} the bound is {beta**DEFAULT_DEPTH * bound_const})"))


@dataclass(frozen=True)
class AbsoluteTerminal:
    # canonical cycle tuple (min rotation) -> utility profile of runs that
    # settle into that cycle
    cycle_utilities: Mapping[tuple[str, ...], Mapping[str, Scalar]]
    kind = "absolute-terminal"

    def validated(self, sys: StationarySystem) -> AbsoluteTerminal:
        """This model with canonical cycles and profiles, once it declares
        exactly the simple class cycles.  A declared cycle is checked on the
        class graph directly; the walk over the simple cycles stops at the
        first one that is not declared, which alone is named."""
        declared = {canonical_cycle(tuple(cyc)): make_profile(prof, sys.stakeholders)
                    for cyc, prof in self.cycle_utilities.items()}
        graph = sys.continue_graph()
        unknown = sorted(cyc for cyc in declared if len(set(cyc)) < len(cyc)
                         or any(d not in graph.get(c, ()) for c, d in zip(cyc, cyc[1:] + cyc[:1])))
        missing = next(([cyc] for cyc in _simple_cycle_walk(graph) if cyc not in declared), [])
        if missing or unknown:
            raise ValueError(
                f"absolute-terminal model must declare exactly the simple class cycles; "
                f"missing {missing}, unknown {unknown}")
        return AbsoluteTerminal(declared)

    def step(self, reward: Mapping[str, Scalar], w: Mapping[str, Scalar]) -> Profile:
        """Continue rewards count for nothing: the value is `w` as-is."""
        return dict(w)

    def cycle_value(self, cycle: tuple[str, ...], rewards: list[Profile]) -> Profile:
        """The declared utility of runs that settle into `cycle`."""
        return dict(self.cycle_utilities[canonical_cycle(cycle)])

    def bounds(self, sys: StationarySystem) -> dict[str, dict[str, tuple[Scalar, Scalar]]]:
        """Per-class, per-stakeholder (inf, sup) over the defined runs from a
        fresh class piece: the terminal exits and the declared cycles of the
        classes it reaches (every class reaches one or the other)."""
        terminals = {c: [e.reward for _, e in sorted(cls.exits.items()) if e.is_terminal]
                     for c, cls in sys.classes.items()}
        cycles = sorted(self.cycle_utilities.items())
        table: dict[str, dict[str, tuple[Scalar, Scalar]]] = {}
        for c in sorted(sys.classes):
            reach = sys.reachable_from(c)
            runs = [r for d in sorted(reach) for r in terminals[d]]
            runs += [prof for cyc, prof in cycles if cyc[0] in reach]
            table[c] = {k: (min(r[k] for r in runs), max(r[k] for r in runs)) for k in sorted(sys.stakeholders)}
        return table

    def convergence(self, sys: StationarySystem, direction: str) -> ConvergenceVerdict:
        """Decide each lasso exactly on the quotient.  Every class on a
        declared cycle reaches the same classes, so one conceivable bound per
        cycle and stakeholder is the limit along the lasso."""
        upper = direction == "upper"
        for cyc, run_utility in sorted(self.cycle_utilities.items()):
            for k in sorted(sys.stakeholders):
                lo, hi = conceivable_bounds(sys, cyc[0], k)
                limit = hi if upper else lo
                gap = limit - run_utility[k] if upper else run_utility[k] - limit
                if gap > 0:
                    return ConvergenceVerdict(FAILS, witness={
                        "run": {"prefix": (), "cycle": cyc},
                        "stakeholder": k,
                        "gap": gap,
                        "limit": limit,
                        "run_utility": run_utility[k],
                    })
        if has_aperiodic_runs(sys):
            return ConvergenceVerdict(
                UNKNOWN,
                certificate=f"every declared lasso converges, but aperiodic infinite runs exist whose "
                            f"utility the model does not define (checked to depth {DEFAULT_DEPTH})")
        return ConvergenceVerdict(HOLDS, certificate=(
            "every infinite run settles into a declared class cycle and its conceivable "
            f"{'increments' if upper else 'decrements'} vanish on the quotient"))


StationaryStrategy = dict  # class id -> {template situation -> action}


class StationarySystem:
    """Class templates + exit rules + utility model, validated on construction.

    Validation enforces what the quotient analysis needs: templates rooted at
    the empty label with no interior subroots (so instantiated subroots are
    exactly the class paths), classified endnodes, reachable classes,
    prefix-free continue labels per class, and whatever the utility model's
    `validated` hook demands (finite rewards under discounting, a declared
    utility for exactly the simple class cycles under the absolute-terminal
    model).
    """

    def __init__(self, classes: Mapping[str, PieceClass], initial: str, model,
                 stakeholders: Iterable[str]):
        self.stakeholders = frozenset(str(k) for k in stakeholders)
        self.model = model
        self.initial = initial
        self._extremes = None  # the model's conceivable bounds, filled on first use
        if not classes:
            raise ValueError("a stationary system needs at least one class")
        if initial not in classes:
            raise ValueError(f"initial class {initial!r} is not defined")

        normalized: dict[str, PieceClass] = {}
        for cid in sorted(classes):
            cls = classes[cid]
            tmpl = cls.template
            if tmpl.root != "":
                raise ValueError(f"class {cid!r}: template root must be the empty label, got {tmpl.root!r}")
            if not tmpl.players <= self.stakeholders:
                raise ValueError(f"class {cid!r}: players {sorted(tmpl.players - self.stakeholders)} not stakeholders")
            if subroots(tmpl) != frozenset({""}):
                raise ValueError(
                    f"class {cid!r}: template has interior subroots; pieces would not match classes")
            if set(cls.exits) != set(tmpl.endnodes):
                missing = sorted(tmpl.endnodes - set(cls.exits))
                extra = sorted(set(cls.exits) - tmpl.endnodes)
                raise ValueError(f"class {cid!r}: exits mismatch (missing {missing}, extra {extra})")
            exits: dict[str, Exit] = {}
            for label in sorted(cls.exits):
                e = cls.exits[label]
                if e.next_class is not None and e.next_class not in classes:
                    raise ValueError(f"class {cid!r}: exit {label!r} continues into unknown class {e.next_class!r}")
                exits[label] = Exit(make_profile(e.reward, self.stakeholders), e.next_class)
            cont = [label for label in exits if not exits[label].is_terminal]
            for a in cont:
                for b in cont:
                    if a != b and b.startswith(a):
                        raise ValueError(f"class {cid!r}: continue labels {a!r} and {b!r} are not prefix-free")
            normalized[cid] = PieceClass(tmpl, exits)
        self.classes = normalized
        # the class graph, built once: the model's `validated` hook reads it
        self._successors = {
            cid: frozenset(e.next_class for e in cls.exits.values() if not e.is_terminal)
            for cid, cls in normalized.items()
        }

        if not isinstance(model, (DiscountedAccumulation, AbsoluteTerminal)):
            raise ValueError(f"unknown utility model {model!r}")
        self.model = model.validated(self)

        reachable = self.reachable_from(initial)
        unreachable = sorted(set(self.classes) - reachable)
        if unreachable:
            raise ValueError(f"classes {unreachable} are unreachable from the initial class")

    # -- class graph -----------------------------------------------------------

    def continue_graph(self) -> dict[str, set[str]]:
        """A copy of the class graph: class → classes its continue exits enter."""
        return {cid: set(successors) for cid, successors in self._successors.items()}

    def reachable_from(self, cid: str) -> set[str]:
        seen = {cid}
        stack = [cid]
        while stack:
            for nxt in self._successors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def zero_profile(self) -> Profile:
        return {k: Fraction(0) for k in self.stakeholders}

    def __repr__(self) -> str:
        return f"StationarySystem(classes={sorted(self.classes)}, initial={self.initial!r}, model={self.model.kind})"


def canonical_cycle(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """Rotate a simple cycle so it starts at its smallest class id."""
    if not cycle:
        raise ValueError("empty cycle")
    rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rotations)


def simple_cycles(graph: Mapping[str, set[str]]) -> list[tuple[str, ...]]:
    """All simple cycles of a digraph, each starting at its min node, sorted."""
    return list(_simple_cycle_walk(graph))


def _simple_cycle_walk(graph: Mapping[str, set[str]]) -> Iterator[tuple[str, ...]]:
    """Yield the simple cycles in sorted order: from each start, a depth-first
    walk on an explicit stack through larger nodes in sorted order, which
    meets each cycle before its extensions."""
    for start in sorted(graph):
        path, on_path = [start], {start}
        branches = [iter(sorted(graph[start]))]
        while branches:
            for nxt in branches[-1]:
                if nxt == start:
                    yield tuple(path)
                elif nxt > start and nxt not in on_path:
                    path.append(nxt)
                    on_path.add(nxt)
                    branches.append(iter(sorted(graph.get(nxt, ()))))
                    break
            else:
                branches.pop()
                on_path.discard(path.pop())


def has_aperiodic_runs(sys: StationarySystem) -> bool:
    """True when some class has two distinct continue-successors that both
    reach back to it.  Its strongly connected component then holds two
    distinct simple cycles (and conversely), so infinite class paths exist
    that never settle into a lasso."""
    graph = sys.continue_graph()
    reach = {c: sys.reachable_from(c) for c in graph}
    return any(sum(c in reach[d] for d in successors) >= 2 for c, successors in graph.items())


# -- instantiation -------------------------------------------------------------


def _relabel_situation(prefix: str, local: str) -> str:
    return "+".join(prefix + part for part in local.split("+"))


def _continue_exits(sys: StationarySystem, cid: str) -> list[tuple[str, Exit]]:
    exits = sys.classes[cid].exits
    return [(label, exits[label]) for label in sorted(exits) if not exits[label].is_terminal]


@dataclass(frozen=True)
class _PieceInstance:
    prefix: str
    class_id: str
    path: tuple[Exit, ...]  # the continue exits taken from the root to this piece


def _expand(sys: StationarySystem, depth: int):
    """All piece instances with class-path length ≤ depth, plus the cut
    endnodes (the continue exits of the deepest layer) as (node, class
    entered, class path ending in that exit) triples.

    Before building anything, counts the unfolding's quintuples level by
    level from the class multiplicities and raises ResourceCapError past the
    cap."""
    if depth < 1:
        raise ValueError("instantiation depth must be at least 1")
    cap = profile_cap()
    count, multiplicity = 0, {sys.initial: 1}
    for level in range(depth + 1):
        count += sum(m * len(sys.classes[c].template) for c, m in multiplicity.items())
        if count > cap:
            needed = count if level == depth else f"at least {count}"
            raise ResourceCapError(
                f"instantiation to depth {depth} needs {needed} quintuples, more than the cap of {cap}")
        nxt: dict[str, int] = {}
        for c, m in multiplicity.items():
            for _, e in _continue_exits(sys, c):
                nxt[e.next_class] = nxt.get(e.next_class, 0) + m
        if not nxt:
            break
        multiplicity = nxt

    root = _PieceInstance("", sys.initial, ())
    pieces, frontier = [root], [root]
    for _ in range(level):  # no piece lies deeper than the last counted level
        frontier = [_PieceInstance(inst.prefix + label, e.next_class, inst.path + (e,))
                    for inst in frontier for label, e in _continue_exits(sys, inst.class_id)]
        pieces.extend(frontier)
    cuts = [(inst.prefix + label, e.next_class, inst.path + (e,))
            for inst in frontier for label, e in _continue_exits(sys, inst.class_id)]
    return pieces, cuts


def _piece_quintuples(sys: StationarySystem, pieces) -> list[Quintuple]:
    out = []
    for inst in pieces:
        for q in sys.classes[inst.class_id].template.quintuples:
            out.append(Quintuple(
                q.player,
                _relabel_situation(inst.prefix, q.situation),
                inst.prefix + q.decision_node,
                q.action,
                inst.prefix + q.successor,
            ))
    if len(set(out)) != len(out):
        raise ValueError("template labels collide when concatenated; rename template nodes")
    return out


def _price(model, path: tuple[Exit, ...], w: Mapping[str, Scalar]) -> Profile:
    """The value at the start of a class path of reaching its end worth `w`:
    the model's `step` folded over the path's continue exits, last one first."""
    w = dict(w)
    for e in reversed(path):
        w = model.step(e.reward, w)
    return w


@dataclass(frozen=True)
class _Unfolding:
    """A depth-bounded unfolding: true terminals priced exactly, each cut
    endnode kept as (node, class entered, class path) until a continuation
    prices it."""

    form: Pentaform
    stakeholders: frozenset
    model: object
    terminal_utilities: Mapping[str, Profile]
    cuts: tuple

    def game(self, continuation: Mapping[str, Mapping[str, object]]) -> Game:
        """Point-instantiate the cut endnodes with one continuation profile per class."""
        utilities = dict(self.terminal_utilities)
        for node, class_id, path in self.cuts:
            if class_id not in continuation:
                raise ValueError(f"continuation missing class {class_id!r}")
            w = make_profile(continuation[class_id], self.stakeholders)
            utilities[node] = _price(self.model, path, w)
        return Game(self.form, self.stakeholders, utilities)


def _unfold(sys: StationarySystem, depth: int) -> _Unfolding:
    pieces, cuts = _expand(sys, depth)
    terminal_utilities = {
        inst.prefix + label: _price(sys.model, inst.path, e.reward)
        for inst in pieces for label, e in sys.classes[inst.class_id].exits.items() if e.is_terminal
    }
    form = validate(_piece_quintuples(sys, pieces))
    return _Unfolding(form, sys.stakeholders, sys.model, terminal_utilities, tuple(cuts))


@dataclass(frozen=True)
class BoundaryExit:
    node: str
    class_id: str
    accrued: Profile  # discounted rewards earned strictly before entering the class
    level: int        # class-path length of the boundary subroot
    low: Profile
    high: Profile


@dataclass(frozen=True)
class BoundedInstantiation(_Unfolding):
    """A depth-bounded unfolding whose cut endnodes carry exact value brackets."""

    boundary: Mapping[str, BoundaryExit]


def instantiate(sys: StationarySystem, depth: int, mode: str = "structural"):
    """Unfold all pieces with class-path length ≤ depth.

    Structural mode returns the validated pentaform only.  Bounded mode
    (discounted models only) additionally prices every true terminal exactly
    and brackets every cut endnode by the conceivable bounds of the class it
    enters, priced along its class path.
    """
    if mode == "structural":
        pieces, _ = _expand(sys, depth)
        return validate(_piece_quintuples(sys, pieces))
    if mode != "bounded":
        raise ValueError(f"unknown instantiation mode {mode!r}")
    if not isinstance(sys.model, DiscountedAccumulation):
        raise ValueError("bounded instantiation is unsupported for absolute-terminal models")
    unfolding = _unfold(sys, depth)
    boundary: dict[str, BoundaryExit] = {}
    for node, class_id, path in unfolding.cuts:
        lo, hi = {}, {}
        for k in sorted(sys.stakeholders):
            lo[k], hi[k] = conceivable_bounds(sys, class_id, k)
        boundary[node] = BoundaryExit(node, class_id, _price(sys.model, path, sys.zero_profile()),
                                      len(path), _price(sys.model, path, lo), _price(sys.model, path, hi))
    return BoundedInstantiation(**vars(unfolding), boundary=boundary)


def truncated_game(sys: StationarySystem, depth: int,
                   continuation: Mapping[str, Mapping[str, object]]) -> Game:
    """A finite game cut at `depth` with explicit per-class boundary profiles.

    Works for both utility models: every endnode is priced by folding the
    model's `step` over the continue exits on its class path.
    """
    return _unfold(sys, depth).game(continuation)


def induced_strategy(sys: StationarySystem, sigma: Mapping[str, Mapping[str, str]],
                     depth: int) -> dict[str, str]:
    """Replicate a stationary strategy over every piece of a truncation."""
    sigma = validate_stationary_strategy(sys, sigma)
    pieces, _ = _expand(sys, depth)
    out: dict[str, str] = {}
    for inst in pieces:
        for local_sit, action in sigma[inst.class_id].items():
            out[_relabel_situation(inst.prefix, local_sit)] = action
    return out


# -- strategies and values ------------------------------------------------------


def validate_stationary_strategy(sys: StationarySystem,
                                 sigma: Mapping[str, Mapping[str, str]]) -> StationaryStrategy:
    """Total and feasible per class template."""
    missing = sorted(set(sys.classes) - set(sigma))
    if missing:
        raise ValueError(f"stationary strategy missing classes {missing}")
    extra = sorted(set(sigma) - set(sys.classes))
    if extra:
        raise ValueError(f"stationary strategy names unknown classes {extra}")
    return {c: validate_strategy(sys.classes[c].template, sigma[c]) for c in sorted(sigma)}


def _sigma_exit(sys: StationarySystem, sigma: StationaryStrategy, cid: str) -> Exit:
    cls = sys.classes[cid]
    end = outcome(cls.template, sigma[cid])[-1]
    return cls.exits[end]


def _chain_values(sys: StationarySystem, exit_of: Mapping[str, Exit]) -> dict[str, Profile]:
    """Exact per-class run values when each class commits to one exit: a
    terminal exit is its profile, the first class of a σ-cycle gets the
    model's cycle value, and every other class steps back from the class its
    exit enters.
    """
    model = sys.model
    w: dict[str, Profile] = {}
    for start in sorted(sys.classes):
        if start in w:
            continue
        path: list[str] = []
        pos: dict[str, int] = {}
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
            cyc = tuple(path[pos[cur]:])
            w[cur] = model.cycle_value(cyc, [exit_of[d].reward for d in cyc])
        for d in reversed(path):
            if d in w:
                continue
            e = exit_of[d]
            w[d] = model.step(e.reward, w[e.next_class])
    return w


def continuation_values(sys: StationarySystem,
                        sigma: Mapping[str, Mapping[str, str]]) -> dict[str, Profile]:
    """The value of entering a fresh piece of each class and obeying σ forever."""
    sigma = validate_stationary_strategy(sys, sigma)
    exit_of = {c: _sigma_exit(sys, sigma, c) for c in sys.classes}
    return _chain_values(sys, exit_of)


def parse_subroot_label(sys: StationarySystem, label: str) -> tuple[list[Exit], str]:
    """Split a subroot label into its continue-exit path; returns the exits
    taken and the class reached."""
    cur = sys.initial
    rest = label
    exits: list[Exit] = []
    while rest:
        cls = sys.classes[cur]
        matches = [lab for lab, e in sorted(cls.exits.items())
                   if not e.is_terminal and rest.startswith(lab)]
        if not matches:
            raise ValueError(f"malformed subroot label {label!r}: no continue exit of class "
                             f"{cur!r} matches {rest!r}")
        lab = matches[0]
        e = cls.exits[lab]
        exits.append(e)
        rest = rest[len(lab):]
        cur = e.next_class
    return exits, cur


def value_at(sys: StationarySystem, sigma: Mapping[str, Mapping[str, str]], label: str) -> Profile:
    """Authentic value at a concrete subroot: the continuation of its class,
    priced back along the subroot's class path."""
    exits, cid = parse_subroot_label(sys, label)
    return _price(sys.model, exits, continuation_values(sys, sigma)[cid])


# -- conceivable bounds -----------------------------------------------------------


def conceivable_bounds(sys: StationarySystem, cid: str, k: str) -> tuple[Scalar, Scalar]:
    """Exact [inf, sup] of continuation utility from a fresh class-c piece:
    one entry of the model's bounds table, filled once per system."""
    if cid not in sys.classes:
        raise ValueError(f"unknown class {cid!r}")
    if k not in sys.stakeholders:
        raise ValueError(f"unknown stakeholder {k!r}")
    if sys._extremes is None:
        sys._extremes = sys.model.bounds(sys)
    return sys._extremes[cid][k]


def _optimal_values(sys: StationarySystem, k: str, sign: int) -> dict[str, Scalar]:
    """Howard policy iteration for stakeholder k: the per-class sup of k's
    run value (sign 1) or its inf (sign -1).

    Every class starts at its smallest exit label.  Each round evaluates the
    policy exactly with `_chain_values`, then prices every exit one step
    ahead of those values and switches a class to the first exit, in label
    order, that strictly beats its current one.  A strict switch makes the
    new policy's value at least as good in every class and strictly better
    in the switched ones (the policy improvement theorem), so no policy
    recurs and the rounds end; the policy they end with admits no strict
    improvement, so its values are the Bellman fixed point."""
    model = sys.model
    exits = {c: [cls.exits[label] for label in sorted(cls.exits)] for c, cls in sorted(sys.classes.items())}
    policy = {c: options[0] for c, options in exits.items()}
    while True:
        w = _chain_values(sys, policy)

        def ahead(e: Exit) -> Scalar:
            return sign * (e.reward[k] if e.is_terminal else model.step(e.reward, w[e.next_class])[k])

        switched = False
        for c, options in exits.items():
            best, best_value = policy[c], ahead(policy[c])
            for e in options:
                value = ahead(e)
                if value > best_value:
                    best, best_value = e, value
            if best is not policy[c]:
                policy[c] = best
                switched = True
        if not switched:
            return {c: w[c][k] for c in exits}


# -- quotient piece games and property checkers -------------------------------------


def quotient_piece_game(sys: StationarySystem, cid: str,
                        continuation: Mapping[str, Mapping[str, object]]) -> Game:
    """The class template priced as a piece game: terminal exits keep their
    profiles, continue exits step to the continuation of the class they enter."""
    cls = sys.classes[cid]
    utils: dict[str, Profile] = {}
    for label, e in cls.exits.items():
        if e.is_terminal:
            utils[label] = dict(e.reward)
        else:
            w = make_profile(continuation[e.next_class], sys.stakeholders)
            utils[label] = sys.model.step(e.reward, w)
    return Game(cls.template, sys.stakeholders, utils)


def stationary_authentic(sys: StationarySystem, sigma, values) -> Verdict:
    """Per class: the claimed continuation equals the true value of obeying σ."""
    v = _check_class_values(sys, values)
    truth = continuation_values(sys, sigma)
    for c in sorted(sys.classes):
        if not profiles_equal(v[c], truth[c]):
            return Verdict(False, {"class": c, "value": dict(v[c]), "true_value": dict(truth[c])})
    return Verdict(True)


def stationary_persistent(sys: StationarySystem, sigma, values) -> Verdict:
    """Per class: the value steps to the next class's value through the σ-exit
    (terminal exits compare against the terminal profile itself)."""
    sigma = validate_stationary_strategy(sys, sigma)
    v = _check_class_values(sys, values)
    for c in sorted(sys.classes):
        e = _sigma_exit(sys, sigma, c)
        expected = dict(e.reward) if e.is_terminal else sys.model.step(e.reward, v[e.next_class])
        if not profiles_equal(v[c], expected):
            return Verdict(False, {"class": c, "value": dict(v[c]), "expected": expected})
    return Verdict(True)


def stationary_admissible(sys: StationarySystem, values) -> Verdict:
    """Per class and stakeholder: the value lies inside the conceivable band."""
    v = _check_class_values(sys, values)
    for c in sorted(sys.classes):
        for k in sorted(sys.stakeholders):
            lo, hi = conceivable_bounds(sys, c, k)
            if not (lo <= v[c][k] <= hi):
                return Verdict(False, {
                    "class": c, "stakeholder": k, "value": v[c][k],
                    "inf_conceivable": lo, "sup_conceivable": hi,
                })
    return Verdict(True)


def stationary_piecewise_nash(sys: StationarySystem, sigma, values) -> Verdict:
    """One Nash scan per class on the quotient piece game settles all pieces:
    each concrete piece's utilities are a positive affine image of the
    quotient's, which preserves best responses."""
    sigma = validate_stationary_strategy(sys, sigma)
    v = _check_class_values(sys, values)
    for c in sorted(sys.classes):
        qg = quotient_piece_game(sys, c, v)
        verdict = nash_check(qg, sigma[c])
        if not verdict.holds:
            witness = dict(verdict.witness)
            witness["class"] = c
            return Verdict(False, witness)
    return Verdict(True)


def _check_class_values(sys: StationarySystem, values) -> dict[str, Profile]:
    missing = sorted(set(sys.classes) - set(values))
    if missing:
        raise ValueError(f"class values missing {missing}")
    extra = sorted(set(values) - set(sys.classes))
    if extra:
        raise ValueError(f"class values given for unknown classes {extra}")
    return {c: make_profile(values[c], sys.stakeholders) for c in sorted(values)}


# -- certification ------------------------------------------------------------------


SPE_CERTIFIED = "spe-certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    kind: str
    continuation_values: Mapping[str, Profile] | None
    upper: object
    lower: object
    route: str | None = None
    witness: dict | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.kind == SPE_CERTIFIED


def certify_spe(sys: StationarySystem, sigma) -> Certificate:
    """Decide subgame perfection of a stationary strategy on the quotient.

    Pipeline: (1) convergence verdicts; (2) the authentic continuation values
    (admissible and persistent by construction); (3) one piecewise-Nash scan
    per class.  A failing scan is a genuine one-piece improvement, so it
    refutes regardless of convergence.  A passing scan certifies under
    lower-convergence (upper-convergence strengthens the certificate's
    route).  When lower-convergence fails, a stationary unilateral deviation
    scan may still refute; otherwise the verdict is inconclusive.
    """
    sigma = validate_stationary_strategy(sys, sigma)
    up = upper_convergent(sys)
    lo = lower_convergent(sys)
    w = continuation_values(sys, sigma)
    pwn = stationary_piecewise_nash(sys, sigma, w)
    if not pwn.holds:
        return Certificate(REFUTED, w, up, lo, witness=pwn.witness,
                           reason="a one-piece deviation improves on the strategy "
                                  "(the values are authentic, so the improvement is genuine)")
    if lo.status == HOLDS:
        route = ("authentic values + piecewise-Nash under lower-convergence"
                 + ("; upper-convergence holds as well" if up.status == HOLDS else
                    "; upper-convergence not established"))
        return Certificate(SPE_CERTIFIED, w, up, lo, route=route)
    if lo.status == FAILS:
        try:
            deviation = _stationary_deviation_scan(sys, sigma, w)
        except ResourceCapError as skipped:
            return Certificate(INCONCLUSIVE, w, up, lo,
                               reason="lower-convergence fails, so piecewise-Nashness does not "
                                      f"certify, and the stationary deviation scan was not run: {skipped}")
        if deviation is not None:
            return Certificate(REFUTED, w, up, lo, witness=deviation,
                               reason="lower-convergence fails and a stationary unilateral "
                                      "deviation improves on the strategy from the root")
        return Certificate(INCONCLUSIVE, w, up, lo,
                           reason="lower-convergence fails, so piecewise-Nashness does not "
                                  "certify, and no improving stationary deviation was found")
    return Certificate(INCONCLUSIVE, w, up, lo,
                       reason=f"lower-convergence undecided: {lo.certificate}")


def _stationary_deviation_scan(sys: StationarySystem, sigma, w) -> dict | None:
    """Search per-player stationary deviations for a true-utility improvement
    at the root; exact because deviation values are quotient chain values.
    Raises ResourceCapError, before searching, for the first player whose
    stationary choice profiles exceed the cap."""
    players = sorted({p for cls in sys.classes.values() for p in cls.template.players})
    base = w[sys.initial]
    for i in players:
        slots = [(c, j) for c in sorted(sys.classes)
                 for j in sorted(sys.classes[c].template.situations)
                 if sys.classes[c].template.player_of(j) == i]
        pools = [sorted(sys.classes[c].template.action_set(j)) for c, j in slots]
        count = 1
        for pool in pools:
            count *= len(pool)
        cap = profile_cap()
        if count > cap:
            raise ResourceCapError(
                f"player {i!r} has {count} stationary choice profiles, more than the cap of {cap}")
        for combo in product(*pools):
            if all(sigma[c][j] == a for (c, j), a in zip(slots, combo)):
                continue
            alt = {c: dict(sigma[c]) for c in sigma}
            for (c, j), a in zip(slots, combo):
                alt[c][j] = a
            w_alt = continuation_values(sys, alt)
            if w_alt[sys.initial][i] > base[i]:
                return {
                    "player": i,
                    "deviation": {f"{c}:{j}": a for (c, j), a in zip(slots, combo)
                                  if sigma[c][j] != a},
                    "strategy_utility": base[i],
                    "deviation_utility": w_alt[sys.initial][i],
                }
    return None


# -- synthesis ------------------------------------------------------------------------


@dataclass(frozen=True)
class StationarySolution:
    strategy: StationaryStrategy
    values: dict


@dataclass(frozen=True)
class StationarySolveFailure:
    kind: str  # "no-pure-equilibrium" | "no-convergence"
    class_id: str | None = None


SOLVE_TOL = Fraction(1, 10**12)
SOLVE_MAX_SWEEPS = 500


def solve_stationary(sys: StationarySystem) -> StationarySolution | StationarySolveFailure:
    """Value iteration over class profiles for discounted models.

    Each sweep replaces every class value by the payoff profile of a pure
    Nash point of its quotient piece game under the current continuation
    (ties broken toward the lexicographically largest action profile, which
    favors staying in the game when indifferent).  When the sup-norm change
    drops below SOLVE_TOL and the selected strategy repeats, the strategy is
    evaluated exactly; it is returned only if every class still plays a Nash
    point under those exact values, and otherwise the sweeps go on from them.
    The returned values are therefore always the exact continuation values
    of a strategy that passes the piecewise-Nash scan.
    """
    if not isinstance(sys.model, DiscountedAccumulation):
        raise ValueError("solve_stationary requires a discounted-accumulation model")
    w = {c: sys.zero_profile() for c in sys.classes}
    sigma_prev: dict | None = None
    for _ in range(SOLVE_MAX_SWEEPS):
        new_w: dict[str, Profile] = {}
        new_sigma: dict[str, dict] = {}
        for c in sorted(sys.classes):
            qg = quotient_piece_game(sys, c, w)
            chosen = first_nash_point(qg, enumerate_piece_profiles(qg.form, largest_first=True))
            if chosen is None:
                return StationarySolveFailure("no-pure-equilibrium", c)
            new_sigma[c] = chosen
            new_w[c] = dict(qg.utilities[outcome(qg.form, chosen)[-1]])
        delta = max(abs(new_w[c][k] - w[c][k]) for c in new_w for k in new_w[c])
        stable = sigma_prev == new_sigma
        w, sigma_prev = new_w, new_sigma
        if delta < SOLVE_TOL and stable:
            exact = continuation_values(sys, new_sigma)
            if all(is_pure_nash(quotient_piece_game(sys, c, exact), new_sigma[c])
                   for c in sorted(sys.classes)):
                return StationarySolution(new_sigma, exact)
            w = exact
    return StationarySolveFailure("no-convergence", None)


def quotient_subroot_sequence(sys: StationarySystem, sigma, start: str | None = None):
    """The class chain visited by obeying σ, as a symbolic subroot sequence;
    a revisited class is an infinite chain with the cycle as witness."""
    sigma = validate_stationary_strategy(sys, sigma)
    cur = sys.initial if start is None else start
    if cur not in sys.classes:
        raise ValueError(f"unknown class {cur!r}")
    chain = [cur]
    seen = {cur: 0}
    while True:
        e = _sigma_exit(sys, sigma, chain[-1])
        if e.is_terminal:
            return SubrootSequence(tuple(chain), TERMINATED)
        nxt = e.next_class
        if nxt in seen:
            cycle = tuple(chain[seen[nxt]:])
            return SubrootSequence(tuple(chain), INFINITE_DETECTED, cycle=canonical_cycle(cycle))
        seen[nxt] = len(chain)
        chain.append(nxt)
