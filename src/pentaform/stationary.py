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
`step`: a class value steps back from the class its exit enters, and an
endnode of an unfolding folds `step` over the continue exits on its class
path.  One step of the value recursion is `_exit_prices`: every exit of a
class priced against class values w, a terminal exit at its profile and a
continue exit at step(reward, w[next]).  Policy iteration, value iteration
and the value checks of the game module (`admissible`, `persistent`,
`authentic` and `piecewise_nash`, which take a system as its classes in
sorted order) all price exits with it: a class's quotient piece game is its
template with these exit prices, and no code builds it as a game.

Each model also owns every other decision that depends on it: `validated`
(β and finite rewards, or exactly the simple class cycles declared),
`bounds` (the conceivable bounds of every class, by policy iteration or over
the reachable terminal exits and cycles) and `convergence` (a geometric
certificate, or a lasso-by-lasso decision).  The functions below call these
hooks; only `solve_stationary`, which supports discounting alone, still
tests the model's type.

Everything infinite is analyzed on the finite class quotient: continuation
values solve w_c = step(r(σ-exit), w_next) exactly, and the utility of any
concrete subgame is a positive affine image of the quotient, so one Nash scan
per class settles piecewise-Nashness for all infinitely many pieces at once.
The scans walk each class template in place and build no game.  One
breadth-first class-graph walk (`StationarySystem._walk`) serves reachability,
the absolute-terminal bounds and `certify_spe`'s best stationary deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .convergence import DEFAULT_DEPTH, FAILS, HOLDS, UNKNOWN, ConvergenceVerdict, lower_convergent, upper_convergent
from .core import Pentaform, Quintuple, validate
from .game import (
    Game,
    ResourceCapError,
    _best_deviation,
    _piece_nash,
    _reachable_exits,
    _require_domain,
    enumerate_piece_profiles,
    first_nash_point,
    profile_cap,
)
from .numbers import Profile, Scalar, is_finite, make_profile
from .partition import _partition
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
        missing = next(([cyc] for cyc in simple_cycles(graph) if cyc not in declared), [])
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
        fresh class piece: where the runs of a walk from the class can end
        (every class reaches a terminal exit or a declared cycle)."""
        table: dict[str, dict[str, tuple[Scalar, Scalar]]] = {}
        for c in sorted(sys.classes):
            runs = [r for r, _, _ in self._run_ends(sys, *sys._walk(c))]
            table[c] = {k: (min(r[k] for r in runs), max(r[k] for r in runs)) for k in sorted(sys.stakeholders)}
        return table

    def _run_ends(self, sys: StationarySystem, tree, edges, exits=None) -> list[tuple]:
        """Where the stationary runs along a walk can end, as (utility, where,
        label): each terminal exit `label` that `exits` allows (all by default)
        of a walked class `where`, then each declared cycle `where` the walk
        reaches whose edges `exits` all allows, with label None."""
        ends = [(e.reward, c, y) for c in tree for y, e in sys.classes[c].exits.items()
                if e.next_class is None and (exits is None or y in exits[c])]
        return ends + [(prof, cyc, None) for cyc, prof in sorted(self.cycle_utilities.items()) if cyc[0] in tree
                       and (exits is None or all(pair in edges for pair in zip(cyc, cyc[1:] + cyc[:1])))]

    def has_aperiodic_runs(self) -> bool:
        """True when some class lies on two declared cycles.  The declared
        cycles are exactly the simple class cycles, and a class lies on two
        of them exactly when its strongly connected component holds two;
        then infinite class paths exist that never settle into a lasso."""
        on_cycles = [c for cyc in self.cycle_utilities for c in cyc]
        return len(on_cycles) > len(set(on_cycles))

    def convergence(self, sys: StationarySystem, direction: str) -> ConvergenceVerdict:
        """Decide each lasso exactly on the quotient.  Every class on a
        declared cycle reaches the same classes, so one conceivable bound per
        cycle and stakeholder is the limit along the lasso.  Whether runs
        escape every lasso is read off the declared cycles alone."""
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
        if self.has_aperiodic_runs():
            return ConvergenceVerdict(
                UNKNOWN,
                certificate="every declared lasso converges, but aperiodic infinite runs exist whose "
                            "utility the model does not define (a class lies on two declared cycles)")
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
            if _partition(tmpl).nodes.keys() != {""}:
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
        # the class graph, built once: each class's continue exits as (label, exit), in label order
        self._continues = {cid: [(y, e) for y, e in cls.exits.items() if not e.is_terminal]
                           for cid, cls in normalized.items()}

        if not isinstance(model, (DiscountedAccumulation, AbsoluteTerminal)):
            raise ValueError(f"unknown utility model {model!r}")
        self.model = model.validated(self)

        unreachable = sorted(set(self.classes) - self.reachable_from(initial))
        if unreachable:
            raise ValueError(f"classes {unreachable} are unreachable from the initial class")

    # -- class graph -----------------------------------------------------------

    def continue_graph(self) -> dict[str, set[str]]:
        """The class graph: class → classes its continue exits enter."""
        return {cid: {e.next_class for _, e in continues} for cid, continues in self._continues.items()}

    def reachable_from(self, cid: str) -> set[str]:
        return set(self._walk(cid)[0])

    def _walk(self, start: str, exits: Mapping[str, set[str]] | None = None):
        """Breadth-first walk from `start` along the continue exits `exits`
        allows per class (all by default): the tree, class → (class, label
        first entering it) or None, in walk order, and each edge's first label."""
        tree, edges, queue = {start: None}, {}, [start]
        for c in queue:
            for y, e in self._continues[c]:
                if exits is None or y in exits[c]:
                    d = e.next_class
                    edges.setdefault((c, d), y)
                    if d not in tree:
                        tree[d] = (c, y)
                        queue.append(d)
        return tree, edges

    def zero_profile(self) -> Profile:
        return {k: Fraction(0) for k in self.stakeholders}

    # what the value checks (`game.admissible` and the rest) read of a system
    witness_key = "class"

    def _value_domain(self) -> tuple[list[str], str, str]:
        return sorted(self.classes), "class values missing", "class values given for unknown classes"

    def _valid_strategy(self, sigma) -> StationaryStrategy:
        return validate_stationary_strategy(self, sigma)

    def _pieces(self, sigma: StationaryStrategy, w: Mapping[str, Profile]):
        """Each class c's template as (c, template, σ(c), root, None, exit prices against w)."""
        for c in sorted(self.classes):
            template = self.classes[c].template
            yield c, template, sigma[c], template.root, None, _exit_prices(self, c, w)

    def _conceivable_bounds(self, c: str, k: str) -> tuple[Scalar, Scalar]:
        return conceivable_bounds(self, c, k)

    def _authentic_values(self, sigma) -> dict[str, Profile]:
        return continuation_values(self, sigma)

    def _convergence(self, direction: str) -> ConvergenceVerdict:
        return self.model.convergence(self, direction)

    def __repr__(self) -> str:
        return f"StationarySystem(classes={sorted(self.classes)}, initial={self.initial!r}, model={self.model.kind})"


def canonical_cycle(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """Rotate a simple cycle so it starts at its smallest class id."""
    if not cycle:
        raise ValueError("empty cycle")
    rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rotations)


def simple_cycles(graph: Mapping[str, set[str]]) -> Iterator[tuple[str, ...]]:
    """Yield the simple cycles of a digraph, each starting at its min node,
    in sorted order: from each start, a depth-first walk on an explicit stack
    through larger nodes in sorted order, which meets each cycle before its
    extensions."""
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


# -- instantiation -------------------------------------------------------------


def _relabel_situation(prefix: str, local: str) -> str:
    return "+".join(prefix + part for part in local.split("+"))


@dataclass(frozen=True)
class _PieceInstance:
    prefix: str
    class_id: str
    path: tuple[Exit, ...]  # the continue exits taken from the root to this piece


def _expand(sys: StationarySystem, depth: int):
    """All piece instances with class-path length ≤ depth, then the cuts: the
    instances one level deeper, whose prefix is the cut endnode (a continue
    exit of the deepest layer), with the class it enters and the class path
    ending in that exit.

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
            for _, e in sys._continues[c]:
                nxt[e.next_class] = nxt.get(e.next_class, 0) + m
        if not nxt:
            break
        multiplicity = nxt

    pieces, frontier = [], [_PieceInstance("", sys.initial, ())]
    for _ in range(level + 1):  # levels 0..level hold the pieces; the level after them, the cuts
        pieces.extend(frontier)
        frontier = [_PieceInstance(inst.prefix + label, e.next_class, inst.path + (e,))
                    for inst in frontier for label, e in sys._continues[inst.class_id]]
    return pieces, frontier


def _piece_quintuples(sys: StationarySystem, pieces) -> list[Quintuple]:
    made: dict[Quintuple, _PieceInstance] = {}  # each relabelled quintuple, with the piece that made it
    for inst in pieces:
        for q in sys.classes[inst.class_id].template.quintuples:
            r = Quintuple(q.player, _relabel_situation(inst.prefix, q.situation), inst.prefix + q.decision_node,
                          q.action, inst.prefix + q.successor)
            if r in made:
                first = made[r]
                raise ValueError(
                    f"template labels collide when concatenated: the piece of class {first.class_id!r} at "
                    f"{first.prefix!r} and the piece of class {inst.class_id!r} at {inst.prefix!r} both make "
                    f"move {r.action!r} at node {r.decision_node!r}; rename template nodes")
            made[r] = inst
    return list(made)


def _price(model, path: tuple[Exit, ...], w: Mapping[str, Scalar]) -> Profile:
    """The value at the start of a class path of reaching its end worth `w`:
    the model's `step` folded over the path's continue exits, last one first."""
    w = dict(w)
    for e in reversed(path):
        w = model.step(e.reward, w)
    return w


def instantiate(sys: StationarySystem, depth: int) -> Pentaform:
    """The validated pentaform of all pieces with class-path length ≤ depth."""
    return validate(_piece_quintuples(sys, _expand(sys, depth)[0]))


def truncated_game(sys: StationarySystem, depth: int,
                   continuation: Mapping[str, Mapping[str, object]]) -> Game:
    """The unfolding to `depth` as a finite game, each cut endnode worth the
    profile `continuation` gives the class it enters, priced back along its
    class path by folding the model's `step`, as every true terminal is.

    With each class's conceivable bounds as the continuation (`{c: {k:
    conceivable_bounds(sys, c, k)[0]}}`, or `[1]`), every cut carries the inf
    (sup) over the runs through it, and zero profiles give the rewards accrued
    before it; `parse_subroot_label` names the class a cut enters and its level.
    """
    pieces, cuts = _expand(sys, depth)
    form = validate(_piece_quintuples(sys, pieces))
    utilities = {inst.prefix + label: _price(sys.model, inst.path, e.reward)
                 for inst in pieces for label, e in sys.classes[inst.class_id].exits.items() if e.is_terminal}
    for cut in cuts:
        if cut.class_id not in continuation:
            raise ValueError(f"continuation missing class {cut.class_id!r}")
        w = make_profile(continuation[cut.class_id], sys.stakeholders)
        utilities[cut.prefix] = _price(sys.model, cut.path, w)
    return Game(form, sys.stakeholders, utilities)


def induced_strategy(sys: StationarySystem, sigma: Mapping[str, Mapping[str, str]],
                     depth: int) -> dict[str, str]:
    """Replicate a stationary strategy over every piece of a truncation."""
    sigma = validate_stationary_strategy(sys, sigma)
    out: dict[str, str] = {}
    for inst in _expand(sys, depth)[0]:
        for local_sit, action in sigma[inst.class_id].items():
            out[_relabel_situation(inst.prefix, local_sit)] = action
    return out


# -- strategies and values ------------------------------------------------------


def validate_stationary_strategy(sys: StationarySystem,
                                 sigma: Mapping[str, Mapping[str, str]]) -> StationaryStrategy:
    """Total and feasible per class template."""
    _require_domain(sys.classes, sigma, "stationary strategy missing classes",
                    "stationary strategy names unknown classes")
    return {c: validate_strategy(sys.classes[c].template, sigma[c]) for c in sorted(sigma)}


def _sigma_exit(sys: StationarySystem, sigma: StationaryStrategy, cid: str) -> Exit:
    cls = sys.classes[cid]
    return cls.exits[outcome(cls.template, sigma[cid])[-1]]


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
    return _chain_values(sys, {c: _sigma_exit(sys, sigma, c) for c in sys.classes})


def parse_subroot_label(sys: StationarySystem, label: str) -> tuple[list[Exit], str]:
    """Split a subroot label into its continue-exit path; returns the exits
    taken and the class reached."""
    cur = sys.initial
    rest = label
    exits: list[Exit] = []
    while rest:
        match = next(((lab, e) for lab, e in sys._continues[cur] if rest.startswith(lab)), None)
        if match is None:
            raise ValueError(f"malformed subroot label {label!r}: no continue exit of class "
                             f"{cur!r} matches {rest!r}")
        lab, e = match
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
    ahead of those values (`_exit_prices`) and switches a class to the first
    exit, in label order, that strictly beats its current one.  A strict
    switch makes the new policy's value at least as good in every class and
    strictly better in the switched ones (the policy improvement theorem), so
    no policy recurs and the rounds end; the policy they end with admits no
    strict improvement, so its values are the Bellman fixed point."""
    labels = {c: sorted(cls.exits) for c, cls in sorted(sys.classes.items())}
    policy = {c: ys[0] for c, ys in labels.items()}
    while True:
        w = _chain_values(sys, {c: sys.classes[c].exits[y] for c, y in policy.items()})
        switched = False
        for c, ys in labels.items():
            ahead = {y: sign * price[k] for y, price in _exit_prices(sys, c, w).items()}
            best = policy[c]
            for y in ys:
                if ahead[y] > ahead[best]:
                    best = y
            if best != policy[c]:
                policy[c] = best
                switched = True
        if not switched:
            return {c: w[c][k] for c in labels}


# -- exit prices -------------------------------------------------------------


def _exit_prices(sys: StationarySystem, cid: str, w: Mapping[str, Profile]) -> dict[str, Profile]:
    """What each exit of class cid pays against class values w: a terminal
    exit its profile, a continue exit the model's step into the value of the
    class it enters.  This is one step of the value recursion, and every
    quotient check and solver prices a class's exits with it."""
    step = sys.model.step
    return {y: e.reward if e.is_terminal else step(e.reward, w[e.next_class])
            for y, e in sys.classes[cid].exits.items()}


# -- certification ------------------------------------------------------------------


SPE_CERTIFIED = "spe-certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    kind: str
    continuation_values: Mapping[str, Profile]
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
    route).  When lower-convergence fails, each player's best stationary
    unilateral deviation from the root (`_best_stationary_deviation`) may
    still refute; otherwise the verdict is inconclusive.  σ is validated once.
    """
    sigma = validate_stationary_strategy(sys, sigma)
    up = upper_convergent(sys)
    lo = lower_convergent(sys)
    w = _chain_values(sys, {c: _sigma_exit(sys, sigma, c) for c in sys.classes})
    verdict = _piece_nash(sys, sigma, w)
    if not verdict:
        return Certificate(REFUTED, w, up, lo, witness=verdict.witness,
                           reason="a one-piece deviation improves on the strategy "
                                  "(the values are authentic, so the improvement is genuine)")
    if lo.status == HOLDS:
        route = ("authentic values + piecewise-Nash under lower-convergence"
                 + ("; upper-convergence holds as well" if up.status == HOLDS else
                    "; upper-convergence not established"))
        return Certificate(SPE_CERTIFIED, w, up, lo, route=route)
    if lo.status == FAILS:
        deviation = _best_stationary_deviation(sys, sigma, w)
        if deviation is not None:
            return Certificate(REFUTED, w, up, lo, witness=deviation,
                               reason="lower-convergence fails and a stationary unilateral "
                                      "deviation improves on the strategy from the root")
        return Certificate(INCONCLUSIVE, w, up, lo,
                           reason="lower-convergence fails, so piecewise-Nashness does not "
                                  "certify, and no improving stationary deviation was found")
    return Certificate(INCONCLUSIVE, w, up, lo,
                       reason=f"lower-convergence undecided: {lo.certificate}")


def _best_stationary_deviation(sys: StationarySystem, sigma: StationaryStrategy, w) -> dict | None:
    """The best stationary deviation from the root of the first player, in
    sorted order, who can improve.  Only absolute-terminal runs fail
    lower-convergence, and each is worth the terminal exit or the declared
    cycle it ends in, so player i's best deviation against σ₋ᵢ is the best
    end (`_run_ends`) of a class-graph walk along the exits i can reach.  It
    follows the walk's tree, entering a cycle at its first class in walk
    order; an indicator-priced deviation walk gives each class's choices."""
    base = w[sys.initial]
    for i in sorted({p for cls in sys.classes.values() for p in cls.template.players}):
        reach = {c: _reachable_exits(cls.template, sigma[c], i) for c, cls in sys.classes.items()}
        tree, edges = sys._walk(sys.initial, reach)
        value, where, label = max(sys.model._run_ends(sys, tree, edges, reach), key=lambda end: end[0][i])
        if not value[i] > base[i]:
            continue
        chosen = ({where: label} if label is not None
                  else {c: edges[c, d] for c, d in zip(where, where[1:] + where[:1])})
        c = next(c for c in tree if c in chosen)
        while tree[c] is not None:
            c, y = tree[c]
            chosen[c] = y
        deviation = {}
        for c in sorted(chosen):
            template = sys.classes[c].template
            _, assign, _ = _best_deviation(template, sigma[c], i, template.root, lambda y, c=c: y == chosen[c])
            deviation.update({f"{c}:{j}": a for j, a in sorted(assign.items()) if sigma[c][j] != a})
        return {"player": i, "deviation": deviation, "strategy_utility": base[i], "deviation_utility": value[i]}
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


class _ClassTable:
    """What value iteration scans in one class, none of which depends on the
    continuation: the rows, the template's profiles in scan order (largest
    first) each with the exit it reaches, and for each (player i, s₋ᵢ) the
    exits that i can reach by deviating, which `first_nash_point` prices as
    its `reach`.  Both are filled on first need, so the rows extend only as
    far as some sweep's scan has gone, and each reach set is one deviation
    walk."""

    def __init__(self, template: Pentaform):
        self.template = template
        self._rows: list[tuple[dict, str]] = []
        self._profiles = enumerate_piece_profiles(template, template.situations, template.root,
                                                  largest_first=True)
        self._reach: dict[str, dict[int, set[str]]] = {i: {} for i in template.players}

    def rows(self) -> Iterator[tuple[dict, str]]:
        rows = self._rows
        yield from rows
        for profile in self._profiles:
            row = (profile, outcome(self.template, profile)[-1])
            rows.append(row)
            yield row

    def reach(self, i: str, key: int, profile: Mapping[str, str]) -> set[str]:
        reach = self._reach[i]
        if key not in reach:
            reach[key] = _reachable_exits(self.template, profile, i)
        return reach[key]


def solve_stationary(sys: StationarySystem) -> StationarySolution | StationarySolveFailure:
    """Value iteration over class profiles for discounted models.

    Each sweep replaces every class value by the payoff profile of a pure
    Nash point of its quotient piece game under the current continuation
    (ties broken toward the lexicographically largest action profile, which
    favors staying in the game when indifferent).  A sweep prices each
    class's exits once against the current values (`_exit_prices`) and scans
    the rows of the class's table (`_ClassTable`), built once per solve, with
    `first_nash_point`: a player's best response is the best price among the
    exits in their stored reach set, and the Nash row gives the class's
    choices and its exit together.  A sweep builds no game, enumerates no
    profile twice and walks no deviation again.  When the selected strategy
    repeats and the sup-norm change is below SOLVE_TOL, the strategy is
    evaluated exactly; it is returned only if every class's row is still
    Nash under those exact values (read from the same reach sets), and
    otherwise the sweeps go on from them.  The returned values are therefore
    always the exact continuation values of a strategy that passes the
    piecewise-Nash scan.

    Each sweep is a function of the state (w, σ of the last sweep), so a
    state met twice repeats a cycle that can never settle: the answer is
    "no-convergence" at once.  Brent's method finds the repeat with one
    marked state, re-marked at power-of-two sweep counts, and one
    comparison per sweep.
    """
    if not isinstance(sys.model, DiscountedAccumulation):
        raise ValueError("solve_stationary requires a discounted-accumulation model")
    tables = {c: _ClassTable(sys.classes[c].template) for c in sorted(sys.classes)}
    w = {c: sys.zero_profile() for c in sys.classes}
    sigma_prev: dict | None = None
    marked = None
    for sweep in range(SOLVE_MAX_SWEEPS):
        state = (w, sigma_prev)
        if state == marked:
            break
        if sweep & (sweep - 1) == 0:  # 0 or a power of two
            marked = state
        new_w: dict[str, Profile] = {}
        new_sigma: dict[str, dict] = {}
        ends: dict[str, str] = {}
        for c, table in tables.items():
            prices = _exit_prices(sys, c, w)
            row = first_nash_point(table.template, table.template.situations, table.rows(), prices, table.reach)
            if row is None:
                return StationarySolveFailure("no-pure-equilibrium", c)
            new_sigma[c], ends[c] = row
            new_w[c] = prices[ends[c]]
        settled = (new_sigma == sigma_prev
                   and max(abs(new_w[c][k] - w[c][k]) for c in new_w for k in new_w[c]) < SOLVE_TOL)
        w, sigma_prev = new_w, new_sigma
        if settled:
            exact = _chain_values(sys, {c: sys.classes[c].exits[ends[c]] for c in tables})
            if all(first_nash_point(table.template, table.template.situations, [(new_sigma[c], ends[c])],
                                    _exit_prices(sys, c, exact), table.reach) is not None
                   for c, table in tables.items()):
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
