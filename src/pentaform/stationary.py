"""Finitely generated infinite-horizon games and their quotient analysis.

A stationary system is a finite set of piece-class templates with exit rules:
each template endnode either ends the game with a terminal profile or
continues into a fresh copy of some class.  Unfolding from the initial class
generates an infinite pentaform whose subroots are exactly the class paths;
node labels concatenate exit labels, so the piece at path p of class c uses
labels p ⊕ (local label).  An unfolded piece is therefore its label and its
class, and `parse_subroot_label`, the one reader of class paths, reads the
path back from the label.

Two utility models are supported.  DiscountedAccumulation sums per-visit
rewards with a factor β ∈ (0,1) (terminal profiles are the final summand,
taken at the day they occur).  AbsoluteTerminal takes terminal profiles
as-is and requires an explicit utility profile for every simple class cycle;
infinite runs that settle into a cycle get that profile, and systems whose
class graph admits aperiodic infinite runs are only partially specified.

Each model holds one pricing rule, `continue_map(reward)`: a continue exit
with that reward as an affine map (accrued, scale), under which entering a
piece worth w is worth accrued + scale·w (`_priced`): (reward, β) under
discounting, (0, 1) under the absolute-terminal model.  An unfolding
composes these maps down its levels, so each piece carries the one map of
its class path and prices each of its exits once (`truncated_game`).  One
step of the value recursion prices every exit of a class against class
values w: a terminal exit at its profile and a continue exit at its map
applied to w[next], in `Fraction`s for the value checks and `certify_spe`,
whose values may be infinite (`_exit_prices`), and in integers for the
discounted solver loops (`_integer_prices`).  Each model evaluates a
policy's chains itself (`policy_values`, along `_chain_order`): discounting
in integers (`_integer_chain_values`), the absolute-terminal model by
copying profiles.  A class's quotient piece game is its template with these
exit prices; the value checks of the game module take a system as its
classes in sorted order.

Each model also owns every other decision that depends on it: `validated`
(β and finite rewards, or exactly the simple class cycles declared),
`bounds` (the conceivable bounds of every class, by policy iteration or over
the reachable terminal exits and cycles) and `convergence` (a geometric
certificate, or a lasso-by-lasso decision).  The functions below call these
hooks; only `solve_stationary`, which supports discounting alone, still
tests the model's type.

Everything infinite is analyzed on the finite class quotient: continuation
values solve w_c = accrued + scale·w_next along each class's σ-exit exactly,
and the utility of any concrete subgame is a positive affine image of its
class's value, under the map its class path composes, so one Nash scan per
class settles piecewise-Nashness for all infinitely many pieces at once.
The scans walk each class template in place; value iteration reads each
template's rows from a table kept for the solve (`_ClassTable`).  One
breadth-first class-graph walk (`StationarySystem._walk`) serves
reachability and `certify_spe`'s best stationary deviation; the
absolute-terminal bounds take one backward walk from the ends per
stakeholder and side, worst end first for the inf and best end first for
the sup (`_first_reached`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import AbstractSet, Iterable, Iterator, Mapping

from .convergence import DEFAULT_DEPTH, FAILS, HOLDS, UNKNOWN, ConvergenceVerdict, lower_convergent, upper_convergent
from .core import Pentaform, Quintuple, validate
from .game import (
    Game,
    PieceScan,
    ResourceCapError,
    _best_deviation,
    _best_ends,
    _piece_nash,
    _reachable_exits,
    _require_domain,
    profile_cap,
)
from .numbers import Profile, Scalar, _stated, is_finite, make_profile
from .partition import _partition
from .strategy import outcome, validate_strategy


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

    def continue_map(self, reward: Mapping[str, Scalar]) -> tuple[Mapping[str, Scalar], Fraction]:
        """A continue exit with `reward` as the affine map w ↦ reward + β·w."""
        return reward, self.beta

    def policy_values(self, sys: StationarySystem, labels: Mapping[str, str]) -> dict[str, Profile]:
        """Each class's run value when every class c leaves by its exit
        labels[c] forever: the chains evaluated in integers
        (`_integer_chain_values`), and only the answers made `Fraction`s."""
        exits, lcd = _integer_exits({c: {y: sys.classes[c].exits[y]} for c, y in labels.items()})
        W, S = _integer_chain_values({c: exits[c][y] for c, y in labels.items()}, self.beta, lcd)
        return {c: {k: Fraction(x, S) for k, x in W[c].items()} for c in W}

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
        the inf (maximize -u_k).  `_optimal_values` finds that policy exactly,
        by policy iteration."""
        extremes = {k: (_optimal_values(sys, k, -1), _optimal_values(sys, k, 1)) for k in sorted(sys.stakeholders)}
        return {c: {k: (lo[c], hi[c]) for k, (lo, hi) in extremes.items()} for c in sorted(sys.classes)}

    def convergence(self, sys: StationarySystem, direction: str) -> ConvergenceVerdict:
        """Always holds: every continuation value lies in [-M/(1-β), M/(1-β)]
        for M = max absolute reward, so the conceivable increment (decrement)
        after d pieces is at most β^d · 2M/(1-β).  The certificate states
        each number as `_stated` writes it; the statement of the bound, the
        same in both directions, is kept on the system on first use."""
        if sys._discounted_bound is None:
            beta = self.beta
            bound_const = 2 * max(abs(x) for cls in sys.classes.values()
                                  for e in cls.exits.values() for x in e.reward.values()) / (1 - beta)
            sys._discounted_bound = (
                f"after d pieces is at most beta^d * {_stated(bound_const)} with beta = {_stated(beta)}, "
                f"which vanishes (at d = {DEFAULT_DEPTH} the bound is {_stated(beta**DEFAULT_DEPTH * bound_const)})")
        return ConvergenceVerdict(HOLDS, certificate=(
            f"discounted accumulation with bounded rewards: the conceivable "
            f"{'increment' if direction == 'upper' else 'decrement'} {sys._discounted_bound}"))


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
        first one that is not declared, which alone is named.  A cycle
        declared twice, in two rotations, is refused, since only one of its
        utilities could hold."""
        declared: dict[tuple[str, ...], Profile] = {}
        for cyc, prof in self.cycle_utilities.items():
            key = canonical_cycle(tuple(cyc))
            if key in declared:
                raise ValueError(f"absolute-terminal model declares the cycle {list(key)} twice")
            declared[key] = make_profile(prof, sys.stakeholders)
        graph = sys.continue_graph()
        unknown = sorted(cyc for cyc in declared if len(set(cyc)) < len(cyc)
                         or any(d not in graph.get(c, ()) for c, d in zip(cyc, cyc[1:] + cyc[:1])))
        missing = next(([cyc] for cyc in simple_cycles(graph) if cyc not in declared), [])
        if missing or unknown:
            raise ValueError(
                f"absolute-terminal model must declare exactly the simple class cycles; "
                f"missing {missing}, unknown {unknown}")
        return AbsoluteTerminal(declared)

    def continue_map(self, reward: Mapping[str, Scalar]) -> tuple[Mapping[str, Scalar], int]:
        """Continue rewards count for nothing: the map is w ↦ w."""
        return dict.fromkeys(reward, 0), 1

    def policy_values(self, sys: StationarySystem, labels: Mapping[str, str]) -> dict[str, Profile]:
        """Each class's run value when every class c leaves by its exit
        labels[c] forever, in `_chain_order`: a terminal exit's profile, the
        declared utility of a cycle the exits close, or else a copy of the
        value of the class its exit enters.  The profiles may be infinite."""
        exit_of = {c: sys.classes[c].exits[y] for c, y in labels.items()}
        w: dict[str, Profile] = {}
        for c, cycle in _chain_order({c: e.next_class for c, e in exit_of.items()}):
            e = exit_of[c]
            w[c] = dict(self.cycle_utilities[canonical_cycle(cycle)] if cycle is not None
                        else e.reward if e.is_terminal else w[e.next_class])
        return w

    def bounds(self, sys: StationarySystem) -> dict[str, dict[str, tuple[Scalar, Scalar]]]:
        """Per-class, per-stakeholder (inf, sup) over the defined runs from a
        fresh class piece: the worst and best end a walk from the class can
        reach, where an end is a terminal exit at its class or a declared
        cycle at its first class (every class reaches one).  For each
        stakeholder the ends are taken worst first for the inf and best first
        for the sup, and each class gets the value of the first end it
        reaches (`_first_reached`)."""
        entering: dict[str, list[str]] = {c: [] for c in sys.classes}
        for c, targets in sys.continue_graph().items():
            for d in targets:
                entering[d].append(c)
        ends = [(e.reward, c) for c, cls in sys.classes.items() for e in cls.exits.values() if e.is_terminal]
        ends += [(profile, cyc[0]) for cyc, profile in self.cycle_utilities.items()]
        table: dict[str, dict[str, tuple[Scalar, Scalar]]] = {c: {} for c in sorted(sys.classes)}
        for k in sorted(sys.stakeholders):
            ranked = sorted(ends, key=lambda end: end[0][k])
            inf, sup = _first_reached(ranked, entering, k), _first_reached(reversed(ranked), entering, k)
            for c, row in table.items():
                row[k] = (inf[c], sup[c])
        return table

    def _run_ends(self, sys: StationarySystem, tree, edges, exits) -> list[tuple]:
        """Where the stationary runs along a walk can end, as (utility, where,
        label): each terminal exit `label` that `exits` allows of a walked
        class `where`, then each declared cycle `where` the walk reaches
        whose edges `exits` all allows, with label None."""
        ends = [(e.reward, c, y) for c in tree for y, e in sys.classes[c].exits.items()
                if e.next_class is None and y in exits[c]]
        return ends + [(prof, cyc, None) for cyc, prof in sorted(self.cycle_utilities.items()) if cyc[0] in tree
                       and all(pair in edges for pair in zip(cyc, cyc[1:] + cyc[:1]))]

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
        self._discounted_bound = None  # the discounted certificate's stated bound, filled on first use
        if not classes:
            raise ValueError("a stationary system needs at least one class")
        if initial not in classes:
            raise ValueError(f"initial class {initial!r} is not defined")

        normalized: dict[str, PieceClass] = {}
        # the class graph, built once: each class's continue exits as (label, exit), in label order
        self._continues: dict[str, list[tuple[str, Exit]]] = {}
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
            continues = self._continues[cid] = [(y, e) for y, e in exits.items() if not e.is_terminal]
            for (a, _), (b, _) in zip(continues, continues[1:]):  # a label that prefixes a later one prefixes the next
                if b.startswith(a):
                    raise ValueError(f"class {cid!r}: continue labels {a!r} and {b!r} are not prefix-free")
            normalized[cid] = PieceClass(tmpl, exits)
        self.classes = normalized

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

    # what the value checks (`game.admissible` and the rest) read of a system
    witness_key = "class"

    def _value_domain(self) -> tuple[list[str], str, str]:
        return sorted(self.classes), "class values missing", "class values given for unknown classes"

    def _valid_strategy(self, sigma) -> StationaryStrategy:
        return validate_stationary_strategy(self, sigma)

    def _pieces(self, sigma: StationaryStrategy, w: Mapping[str, Profile]):
        """Each class c's template as (c, template, σ(c), root, its decision nodes, exit prices against w)."""
        for c in sorted(self.classes):
            template = self.classes[c].template
            yield c, template, sigma[c], template.root, template.decision_nodes, _exit_prices(self, c, w)

    def _conceivable_bounds(self, c: str, k: str) -> tuple[Scalar, Scalar]:
        return conceivable_bounds(self, c, k)

    def _authentic_values(self, sigma) -> dict[str, Profile]:
        return continuation_values(self, sigma)

    def _convergence(self, direction: str) -> ConvergenceVerdict:
        return self.model.convergence(self, direction)

    def __repr__(self) -> str:
        return f"StationarySystem(classes={sorted(self.classes)}, initial={self.initial!r}, model={self.model.kind})"


def canonical_cycle(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """Rotate a simple cycle so it starts at its smallest class id: the
    least rotation, taken among the rotations at that class only."""
    if not cycle:
        raise ValueError("empty cycle")
    least = min(cycle)
    return min(cycle[i:] + cycle[:i] for i, c in enumerate(cycle) if c == least)


def _first_reached(ends: Iterable[tuple[Mapping[str, Scalar], str]], entering: Mapping[str, list[str]],
                   k: str) -> dict[str, Scalar]:
    """Each class's value for k of the first end in `ends`, as (profile,
    class), that the class can reach: from each end's class a walk backward
    along the class graph, on an explicit stack, values the classes it
    meets and stops at those already valued, which an earlier end reaches
    together with every class that enters them."""
    value: dict[str, Scalar] = {}
    for profile, c in ends:
        stack = [c]
        while stack:
            d = stack.pop()
            if d not in value:
                value[d] = profile[k]
                stack.extend(entering[d])
    return value


def simple_cycles(graph: Mapping[str, set[str]]) -> Iterator[tuple[str, ...]]:
    """Yield the simple cycles of a digraph, each starting at its min node,
    in sorted order: from each start, a depth-first walk on an explicit stack
    through larger nodes in sorted order, which meets each cycle before its
    extensions.  A cycle enters its min node from that node itself or from a
    larger one, so a start that only smaller nodes enter is skipped: one pass
    first records each node's largest predecessor."""
    largest_entering: dict[str, str] = {}
    for c, targets in graph.items():
        for d in targets:
            largest_entering[d] = max(largest_entering.get(d, c), c)
    for start in sorted(graph):
        if start not in largest_entering or largest_entering[start] < start:
            continue
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


def _expand(sys: StationarySystem, depth: int):
    """All pieces with class-path length ≤ depth, in level order.  A piece
    is its label and its class, a (prefix, class) pair, built level by level
    as (prefix + exit label, class entered); the label spells out the class
    path, which `parse_subroot_label` reads back, so no piece keeps its
    exits.  The cuts, the continue exits of the deepest level, are not
    built: `truncated_game` reaches them from their pieces.

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

    pieces, frontier = [("", sys.initial)], [("", sys.initial)]
    for _ in range(level):
        frontier = [(prefix + label, e.next_class) for prefix, c in frontier for label, e in sys._continues[c]]
        pieces.extend(frontier)
    return pieces


def _piece_quintuples(sys: StationarySystem, pieces) -> list[Quintuple]:
    """The pieces' relabelled quintuples.  Two pieces that make the same
    move, the same situation or the same node would merge in the unfolding:
    that raises, naming both pieces and the label.  A piece's root is its
    parent's exit and never a successor in its own template, so a parent and
    its child, which share that node, do not clash on it."""
    quintuples = []
    moves: dict[tuple[str, str], tuple[str, str]] = {}  # each relabelled move, with the piece that makes it
    situations: dict[str, tuple[str, str]] = {}  # each relabelled situation, likewise
    nodes: dict[str, tuple[str, str]] = {}  # each relabelled successor, likewise
    for piece in pieces:
        prefix, cid = piece
        for q in sys.classes[cid].template.quintuples:
            r = Quintuple(q.player, _relabel_situation(prefix, q.situation), prefix + q.decision_node,
                          q.action, prefix + q.successor)
            first = moves.setdefault((r.decision_node, r.action), piece)
            if first is not piece:
                _collide(first, piece, f"move {r.action!r} at node {r.decision_node!r}; rename template nodes")
            first = situations.setdefault(r.situation, piece)
            if first is not piece:
                _collide(first, piece, f"situation {r.situation!r}; rename template situations")
            first = nodes.setdefault(r.successor, piece)
            if first is not piece:
                _collide(first, piece, f"node {r.successor!r}; rename template nodes")
            quintuples.append(r)
    return quintuples


def _collide(first: tuple[str, str], piece: tuple[str, str], what: str):
    (first_prefix, first_class), (prefix, cid) = first, piece
    raise ValueError(f"template labels collide when concatenated: the piece of class {first_class!r} at "
                     f"{first_prefix!r} and the piece of class {cid!r} at {prefix!r} both make {what}")


def _priced(m: tuple[Mapping[str, Scalar], Scalar], w: Mapping[str, Scalar]) -> Profile:
    """w under the affine map m = (accrued, scale): accrued + scale·w."""
    return {k: m[0][k] + m[1] * w[k] for k in w}


def instantiate(sys: StationarySystem, depth: int) -> Pentaform:
    """The validated pentaform of all pieces with class-path length ≤ depth."""
    return validate(_piece_quintuples(sys, _expand(sys, depth)))


def truncated_game(sys: StationarySystem, depth: int,
                   continuation: Mapping[str, Mapping[str, object]]) -> Game:
    """The unfolding to `depth` as a finite game, each cut endnode worth the
    profile `continuation` gives the class it enters, priced back along its
    class path as every true terminal is.

    Each piece is priced once.  The pieces (`_expand`) are walked in level
    order, each with its map (accrued, scale): reaching the piece's root
    worth w is worth accrued + scale·w at the unfolding's root (`_priced`).
    The root piece's map is (0, 1).  A terminal exit is priced with its
    piece's map; a continue exit, whose model map is (A, s) =
    `continue_map(reward)`, gives the piece it enters the map (accrued +
    scale·A, scale·s).  A piece's map is dropped once the piece is priced,
    so only two levels' maps are held, and the maps left are the cuts'.

    With each class's conceivable bounds as the continuation (`{c: {k:
    conceivable_bounds(sys, c, k)[0]}}`, or `[1]`), every cut carries the inf
    (sup) over the runs through it, and zero profiles give the rewards accrued
    before it; `parse_subroot_label` names the class a cut enters and its level.
    """
    pieces = _expand(sys, depth)
    form = validate(_piece_quintuples(sys, pieces))
    maps = {pieces[0]: (dict.fromkeys(sys.stakeholders, 0), 1)}
    utilities: dict[str, Profile] = {}
    for prefix, cid in pieces:
        m = maps.pop((prefix, cid))
        for label, e in sys.classes[cid].exits.items():
            if e.is_terminal:
                utilities[prefix + label] = _priced(m, e.reward)
            else:
                accrued, scale = sys.model.continue_map(e.reward)
                maps[prefix + label, e.next_class] = _priced(m, accrued), m[1] * scale
    for (prefix, cid), m in maps.items():
        if cid not in continuation:
            raise ValueError(f"continuation missing class {cid!r}")
        try:
            w = make_profile(continuation[cid], sys.stakeholders)
        except ValueError as err:
            raise ValueError(f"continuation for class {cid!r}: {err}") from None
        utilities[prefix] = _priced(m, w)
    return Game(form, sys.stakeholders, utilities)


def induced_strategy(sys: StationarySystem, sigma: Mapping[str, Mapping[str, str]],
                     depth: int) -> dict[str, str]:
    """Replicate a stationary strategy over every piece of a truncation."""
    sigma = validate_stationary_strategy(sys, sigma)
    out: dict[str, str] = {}
    for prefix, cid in _expand(sys, depth):
        for local_sit, action in sigma[cid].items():
            out[_relabel_situation(prefix, local_sit)] = action
    return out


# -- strategies and values ------------------------------------------------------


def validate_stationary_strategy(sys: StationarySystem,
                                 sigma: Mapping[str, Mapping[str, str]]) -> StationaryStrategy:
    """Total and feasible per class template."""
    _require_domain(sys.classes, sigma, "stationary strategy missing classes",
                    "stationary strategy names unknown classes")
    return {c: validate_strategy(sys.classes[c].template, sigma[c]) for c in sorted(sigma)}


def _sigma_exits(sys: StationarySystem, sigma: StationaryStrategy) -> dict[str, str]:
    """Each class's σ-exit: the label of the template endnode that obeying σ reaches."""
    return {c: outcome(cls.template, sigma[c])[-1] for c, cls in sys.classes.items()}


def _chain_order(next_class: Mapping[str, str | None]) -> Iterator[tuple[str, tuple[str, ...] | None]]:
    """The classes of a policy whose class c's exit enters next_class[c]
    (None: a terminal exit), in an order that evaluates each chain: every
    class after the class its exit enters, except the first class met of
    each σ-cycle, which heads the cycle.  Yields each class with its cycle
    if it heads one, else None.  The walks start at the classes in sorted
    order, and each runs until it meets a terminal exit or a class already
    met; a class met on the same walk closes a cycle."""
    walk_of: dict[str, int] = {}
    for n, start in enumerate(sorted(next_class)):
        path: list[str] = []
        cur = start
        while cur is not None and cur not in walk_of:
            walk_of[cur] = n
            path.append(cur)
            cur = next_class[cur]
        if cur is not None and walk_of[cur] == n:
            head = path.index(cur)
            yield cur, tuple(path[head:])
            del path[head]
        for c in reversed(path):
            yield c, None


def _sigma_values(sys: StationarySystem, sigma: StationaryStrategy) -> dict[str, Profile]:
    """The continuation values of the valid σ: its σ-exits, evaluated by the model."""
    return sys.model.policy_values(sys, _sigma_exits(sys, sigma))


def continuation_values(sys: StationarySystem,
                        sigma: Mapping[str, Mapping[str, str]]) -> dict[str, Profile]:
    """The value of entering a fresh piece of each class and obeying σ forever."""
    return _sigma_values(sys, validate_stationary_strategy(sys, sigma))


def parse_subroot_label(sys: StationarySystem, label: str) -> tuple[list[Exit], str]:
    """Split a subroot label into its continue-exit path; returns the exits
    taken and the class reached.  The label is walked by position: at each
    step the one continue exit of the current class whose label starts
    there (continue labels are prefix-free) is taken."""
    cur, at = sys.initial, 0
    exits: list[Exit] = []
    while at < len(label):
        match = next(((lab, e) for lab, e in sys._continues[cur] if label.startswith(lab, at)), None)
        if match is None:
            raise ValueError(f"malformed subroot label {label!r}: no continue exit of class "
                             f"{cur!r} matches {label[at:]!r}")
        lab, e = match
        exits.append(e)
        at += len(lab)
        cur = e.next_class
    return exits, cur


def value_at(sys: StationarySystem, sigma: Mapping[str, Mapping[str, str]], label: str) -> Profile:
    """Authentic value at a concrete subroot: the continuation of its class,
    priced back along the subroot's class path, each continue exit's
    `continue_map` applied in turn from the last."""
    exits, cid = parse_subroot_label(sys, label)
    w = continuation_values(sys, sigma)[cid]
    for e in reversed(exits):
        w = _priced(sys.model.continue_map(e.reward), w)
    return w


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

    Every exit's reward is projected onto k, so each round evaluates and
    prices one stakeholder only.  Every class starts at its smallest exit
    label.  Each round evaluates the policy exactly, in integers over one
    denominator (`_integer_chain_values`), then prices every exit one step
    ahead of those values (`_integer_prices`) and moves each class to the
    first exit, in label order, that pays sign·u_k the most, unless its
    current exit pays that much: a class switches only to a strictly better
    exit.  Every strict switch and every tie is the one exact arithmetic
    makes.  A strict switch makes the new policy's value at least as good in
    every class and strictly better in the switched ones (the policy
    improvement theorem), so no policy recurs and the rounds end; the policy
    they end with admits no strict improvement, so its values are the
    Bellman fixed point.  Only they become `Fraction`s, one per class."""
    beta = sys.model.beta
    exits, lcd = _integer_exits({c: {y: Exit({k: e.reward[k]}, e.next_class) for y, e in cls.exits.items()}
                                 for c, cls in sorted(sys.classes.items())})
    policy = {c: next(iter(ys)) for c, ys in exits.items()}
    while True:
        W, S = _integer_chain_values({c: exits[c][y] for c, y in policy.items()}, beta, lcd)
        improved = {}
        for c, ys in exits.items():
            ahead = {y: sign * price[k] for y, price in _integer_prices(ys, W, S, beta, lcd).items()}
            improved[c] = max(ahead, key=lambda y: (ahead[y], y == policy[c]))
        if improved == policy:
            return {c: Fraction(W[c][k], S) for c in exits}
        policy = improved


# -- exit prices -------------------------------------------------------------


def _exit_prices(sys: StationarySystem, cid: str, w: Mapping[str, Profile]) -> dict[str, Profile]:
    """What each exit of class cid pays against class values w: a terminal
    exit its profile, a continue exit the value of the class it enters under
    the exit's `continue_map`.  This is one step of the value recursion in
    `Fraction`s, and the value checks and `certify_spe` price a class's exits
    with it: the values they price (a value file, an absolute-terminal
    profile) may be infinite, which no integer stands for."""
    continue_map = sys.model.continue_map
    return {y: e.reward if e.is_terminal else _priced(continue_map(e.reward), w[e.next_class])
            for y, e in sys.classes[cid].exits.items()}


def _integer_exits(exits: Mapping[str, Mapping[str, Exit]]) -> tuple[dict[str, dict[str, tuple]], int]:
    """Each class's exits as label → (reward·L, class entered or None), in
    label order, with L the lcm of every reward's denominator."""
    lcd = lcm(*(v.denominator for ys in exits.values() for e in ys.values() for v in e.reward.values()))
    return {c: {y: ({k: v.numerator * (lcd // v.denominator) for k, v in e.reward.items()}, e.next_class)
                for y, e in ys.items()} for c, ys in exits.items()}, lcd


def _integer_prices(exits: Mapping[str, tuple], W: Mapping[str, Mapping[str, int]], S: int, beta: Fraction,
                    lcd: int) -> dict[str, dict[str, int]]:
    """One class's exits, as `_integer_exits` gives them with L = lcd,
    priced against class values W/S as integers over S·q, for β = p/q in
    lowest terms and S a multiple of L.  A terminal exit is R·(S·q/L) and a
    continue exit R·(S·q/L) + p·W[next], for R = reward·L.  Each is its
    `_exit_prices` price times S·q, a positive factor, so the prices order
    the exits exactly as `Fraction`s do, and every choice and tie made on
    them is the one exact arithmetic makes."""
    p, scale = beta.numerator, S * beta.denominator // lcd
    return {y: {k: r * scale for k, r in R.items()} if nxt is None
            else {k: r * scale + p * W[nxt][k] for k, r in R.items()}
            for y, (R, nxt) in exits.items()}


def _integer_chain_values(exit_of: Mapping[str, tuple], beta: Fraction, lcd: int) -> tuple[dict, int]:
    """A discounted policy's run values in integers: each class's exit as
    `_integer_exits` gives it with L = lcd, evaluated in `_chain_order` to
    integers W over one S, the lcm of every class's denominator, so that
    W[c][k]/S is exactly class c's value for stakeholder k.  For
    β = p/q and R = reward·L, a terminal exit is R over L; a continue exit
    into a class worth N/D, with D a multiple of L, is R·(D/L)·q + p·N over
    q·D; the head of a σ-cycle of n classes, leaving the m-th by R_m, is
    Σₘ pᵐ·qⁿ⁻ᵐ·R_m over L·(qⁿ − pⁿ)."""
    p, q = beta.numerator, beta.denominator
    num: dict[str, dict[str, int]] = {}
    den: dict[str, int] = {}
    for c, cycle in _chain_order({c: nxt for c, (_, nxt) in exit_of.items()}):
        R, nxt = exit_of[c]
        if cycle is not None:
            n = len(cycle)
            lap = dict.fromkeys(R, 0)
            for m, d in enumerate(cycle):
                weight = p ** m * q ** (n - m)
                for k, r in exit_of[d][0].items():
                    lap[k] += weight * r
            num[c], den[c] = lap, lcd * (q ** n - p ** n)
        elif nxt is None:
            num[c], den[c] = R, lcd
        else:
            N, D = num[nxt], den[nxt]
            scale = D // lcd * q
            num[c], den[c] = {k: r * scale + p * N[k] for k, r in R.items()}, q * D
    S = lcm(*den.values())
    return {c: {k: x * (S // den[c]) for k, x in num[c].items()} for c in sorted(num)}, S


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
    w = _sigma_values(sys, sigma)
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
        reach = {c: _reachable_exits(cls.template, sigma[c], i, cls.template.root, cls.template.decision_nodes)
                 for c, cls in sys.classes.items()}
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
            _, assign, _ = _best_deviation(template, sigma[c], i, template.root, lambda y, c=c: y == chosen[c],
                                           template.decision_nodes)
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


class _ClassTable(PieceScan):
    """Class cid's template rows for value iteration, kept for the whole
    solve and read from `PieceScan.rows`, largest action first, on first
    need; `cap` is the profile cap, which the solve reads once for every
    class.

    Row r is the r-th profile of that order.  The table holds, for each row
    walked so far, a copy of its profile `profiles[r]`, its exit `ends[r]`
    and `keys[r]`, each player's s₋ᵢ key in `players` order.  For each
    (player i, key) the table keeps the exits i can reach by deviating,
    walked once, on first need, from the row that asks.

    Row r is Nash when its exit lies in every player's best set over the
    exits that player reaches (`_best_ends`), as in the finite scan.  A
    sweep (`first_nash_row`) keeps each best set it computes for that sweep
    only; the exact check tests one row by the same method (`is_nash`)."""

    def __init__(self, cid: str, template: Pentaform, cap: int):
        super().__init__(template, template.root, template.decision_nodes, cap, largest_first=True)
        self.where = f"class {cid!r}"
        self.profiles: list[dict[str, str]] = []
        self.ends: list[str] = []
        self.keys: list[tuple[int, ...]] = []
        self._reach: dict[str, dict[int, AbstractSet[str]]] = {i: {} for i in self.players}
        self._rows = self._walk()

    def _walk(self) -> Iterator[bool]:
        """Append the rows to `profiles`, `ends` and `keys` one at a time, in order."""
        profile, keys = dict(self.first_profile), dict.fromkeys(self.players, 0)
        for end, _ in self.rows(profile, keys):
            self.profiles.append(dict(profile))
            self.ends.append(end)
            self.keys.append(tuple(keys.values()))
            yield True

    def first_nash_row(self, prices: Mapping[str, Mapping[str, Scalar]]) -> int | None:
        """The first Nash row when an exit y pays prices[y], or None when the
        template has none.  The profiles are counted against the cap before
        any row is read."""
        self.check_cap()
        best: list[dict[int, frozenset]] = [{} for _ in self.players]
        r = 0
        while r < len(self.ends) or next(self._rows, False):  # walk a row only when the sweep reads past the table
            if self.is_nash(r, prices, best):
                return r
            r += 1
        return None

    def is_nash(self, r: int, prices: Mapping[str, Mapping[str, Scalar]],
                best: list[dict[int, frozenset]] | None = None) -> bool:
        """Whether row r is a pure Nash point when an exit y pays prices[y]:
        whether its exit lies in every player's best set for the row's key.
        `best` keeps those sets, per player by key, for one sweep's prices."""
        if best is None:
            best = [{} for _ in self.players]
        end = self.ends[r]
        for i, key, sets in zip(self.players, self.keys[r], best):
            found = sets.get(key)
            if found is None:
                reach = self._reach[i]
                if key not in reach:
                    reach[key] = self.reach(i, self.profiles[r])
                found = sets[key] = _best_ends(reach[key], i, prices)
            if end not in found:
                return False
        return True


def solve_stationary(sys: StationarySystem) -> StationarySolution | StationarySolveFailure:
    """Value iteration over class profiles for discounted models.

    Each sweep replaces every class value by the payoff profile of a pure
    Nash point of its quotient piece game under the current continuation
    (ties broken toward the lexicographically largest action profile, which
    favors staying in the game when indifferent).  A sweep prices each
    class's exits once against the current values, one step of the value
    recursion, and takes the class's first Nash row from its `_ClassTable`,
    which gives the class's choices and its exit together.  σ is carried as
    each class's row number; only the returned strategy becomes profiles.

    The values are integers W over one denominator S, which starts at L,
    the lcm of the rewards' denominators, with W = 0.  A sweep prices every
    exit with `_integer_prices`, and the chosen row's price is the new W
    over S·q, for q the denominator of β.

    When the selected strategy repeats and the sup-norm change is below
    SOLVE_TOL, the strategy is evaluated exactly, in integers over one
    denominator (`_integer_chain_values`).  The strategy is returned only if
    every class's row still passes the sweeps' row test (`_ClassTable.is_nash`)
    under the exits priced against those values as a sweep prices them;
    otherwise the sweeps go on from those values.  The returned values are
    therefore always the exact continuation values of a strategy that passes
    the piecewise-Nash scan, and only they become `Fraction`s.

    Each sweep is a function of the state (the values, σ of the last sweep),
    so a state met twice repeats a cycle that can never settle: the answer
    is "no-convergence" at once.  Brent's method finds the repeat with one
    marked state, re-marked at power-of-two sweep counts, and one
    comparison per sweep.
    """
    if not isinstance(sys.model, DiscountedAccumulation):
        raise ValueError("solve_stationary requires a discounted-accumulation model")
    beta = sys.model.beta
    q = beta.denominator
    tol_num, tol_den = SOLVE_TOL.numerator, SOLVE_TOL.denominator
    cap = profile_cap()
    tables = {c: _ClassTable(c, sys.classes[c].template, cap) for c in sorted(sys.classes)}
    exits, lcd = _integer_exits({c: sys.classes[c].exits for c in tables})
    W = {c: dict.fromkeys(sys.stakeholders, 0) for c in tables}
    S = lcd
    sigma_prev: dict | None = None
    marked_W, marked_S, marked_sigma = None, S, None
    for sweep in range(SOLVE_MAX_SWEEPS):
        if marked_W is not None and sigma_prev == marked_sigma and all(
                W[c][k] * marked_S == x * S for c, old in marked_W.items() for k, x in old.items()):
            break
        if sweep & (sweep - 1) == 0:  # 0 or a power of two
            marked_W, marked_S, marked_sigma = W, S, sigma_prev
        new_S = S * q
        new_W: dict[str, dict[str, int]] = {}
        new_sigma: dict[str, int] = {}
        for c, table in tables.items():
            prices = _integer_prices(exits[c], W, S, beta, lcd)
            r = table.first_nash_row(prices)
            if r is None:
                return StationarySolveFailure("no-pure-equilibrium", c)
            new_sigma[c] = r
            new_W[c] = prices[table.ends[r]]
        # |W'/S' - W/S| < SOLVE_TOL with S' = S·q, in integers
        bound = tol_num * new_S
        settled = new_sigma == sigma_prev and all(
            abs(x - q * W[c][k]) * tol_den < bound for c, now in new_W.items() for k, x in now.items())
        W, S, sigma_prev = new_W, new_S, new_sigma
        if settled:
            W, S = _integer_chain_values({c: exits[c][table.ends[new_sigma[c]]] for c, table in tables.items()},
                                         beta, lcd)
            if all(table.is_nash(new_sigma[c], _integer_prices(exits[c], W, S, beta, lcd))
                   for c, table in tables.items()):
                return StationarySolution({c: table.profiles[new_sigma[c]] for c, table in tables.items()},
                                          {c: {k: Fraction(x, S) for k, x in W[c].items()} for c in tables})
    return StationarySolveFailure("no-convergence", None)

