"""Quintuple sets and validated pentaforms.

A quintuple ⟨player, situation, decision node, action, successor⟩ records one
edge of an extensive-form tree together with who moves there and in which
information situation.  A finite set of such quintuples that satisfies eight
axioms is a *pentaform*; its root, predecessor function, precedence order,
paths, and runs are all derivable from the raw relation, and this module
derives them.  A form keeps only what its readers read: the node sets, the
per-label maps, each node's children and depth, and its partition slot; a
path or a run is walked from the predecessor map when asked for.

All labels are opaque strings ordered lexicographically, so every operation
iterates in a canonical order and produces deterministic output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import itemgetter, ne
from typing import Iterable, Iterator, NamedTuple, Sequence

AXIOM_PLAYER_OF_SITUATION = "Pi<-j"
AXIOM_SITUATION_OF_NODE = "Pj<-w"
AXIOM_ACTION_RECTANGLE = "Pwa"
AXIOM_SUCCESSOR_FUNCTION = "Pwa->y"
AXIOM_PREDECESSOR_FUNCTION = "Pw<-y"
AXIOM_ACTION_OF_SUCCESSOR = "Pa<-y"
AXIOM_NO_CYCLES = "Py"
AXIOM_SINGLE_ROOT = "Pr"

ALL_AXIOMS = (
    AXIOM_PLAYER_OF_SITUATION,
    AXIOM_SITUATION_OF_NODE,
    AXIOM_ACTION_RECTANGLE,
    AXIOM_SUCCESSOR_FUNCTION,
    AXIOM_PREDECESSOR_FUNCTION,
    AXIOM_ACTION_OF_SUCCESSOR,
    AXIOM_NO_CYCLES,
    AXIOM_SINGLE_ROOT,
)

_COORD_NAMES = {"I": "player", "J": "situation", "W": "decision_node", "A": "action", "Y": "successor"}


class Quintuple(NamedTuple):
    """One ⟨player, situation, decision node, action, successor⟩ record.

    A tuple of its five fields: it equals, hashes and orders as the plain
    5-tuple does, and hashing or comparing one runs no Python code."""

    player: str
    situation: str
    decision_node: str
    action: str
    successor: str

    def key(self) -> tuple[str, str, str, str, str]:
        """Canonical sort key: (situation, decision node, action) first."""
        return (self.situation, self.decision_node, self.action, self.player, self.successor)


_CANONICAL = itemgetter(1, 2, 3, 0, 4)  # Quintuple.key, without a Python call


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: str

    def __str__(self) -> str:
        return f"[{self.axiom}] {self.witness}"


class InvalidPentaform(ValueError):
    """Raised by validate(); carries every violated axiom with a witness."""

    def __init__(self, violations: Sequence[AxiomViolation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def project(q: Iterable[Quintuple], coords: str | Sequence[str]) -> set:
    """Project a quintuple set onto a coordinate sequence over {I,J,W,A,Y}.

    A single coordinate yields a set of labels; several yield a set of tuples
    in the requested order.
    """
    letters = list(coords)
    if not letters:
        raise ValueError("projection needs at least one coordinate")
    if len(set(letters)) != len(letters):
        raise ValueError(f"repeated coordinate in {coords!r}")
    try:
        attrs = [_COORD_NAMES[c] for c in letters]
    except KeyError as exc:
        raise ValueError(f"unknown coordinate {exc.args[0]!r}; expected letters from IJWAY") from None
    if len(attrs) == 1:
        attr = attrs[0]
        return {getattr(t, attr) for t in q}
    return {tuple(getattr(t, a) for a in attrs) for t in q}


def situation_slice(q: Iterable[Quintuple], j: str) -> frozenset:
    """All quintuples listing situation j (empty for unknown j)."""
    return frozenset(t for t in q if t.situation == j)


def check_axioms(q: Iterable[Quintuple]) -> list[AxiomViolation]:
    """Evaluate all eight pentaform axioms, returning every violation.

    The axioms are independent diagnostics, so a single bad input can violate
    several at once; each violation comes with one concrete witness.
    """
    return _diagnosed(q)[1]


def _diagnosed(q: Iterable[Quintuple]) -> tuple[Pentaform, list[AxiomViolation]]:
    """Index the set once and diagnose every violated axiom from that index,
    each with one witness.  A valid form comes back grown, with the depths
    of the walk that checked [Py]; the witness search runs only when one of
    `_valid_depths`' counts disagrees."""
    form = Pentaform.__new__(Pentaform)
    columns = form._index(q)
    depth = _valid_depths(form, columns)
    if depth is not None:
        form._grow(columns, depth)
        return form, []
    return form, _violations(form)


def _valid_depths(form: Pentaform, columns) -> dict[str, int] | None:
    """Each node's depth from the root when all eight axioms hold, else None.

    Each test compares two numbers that are equal exactly when its axioms
    hold, given the tests before it: one distinct quintuple per successor
    ([Pw<-y], [Pa<-y]) and per (node, action) pair ([Pwa->y]); one
    situation per decision node ([Pj<-w]); as many (node, action) pairs as
    the rectangles of each situation's nodes and actions hold ([Pwa]); each
    quintuple's player its situation's ([Pi<-j]); one decision node that is
    no successor ([Pr]); and every successor reached by the walk down from
    it ([Py]).
    """
    n = len(form.quintuples)
    players, situations = columns[0], columns[1]
    if not (n == len(form._pred) == len(form._next)
            and sum(map(len, form._info_sets.values())) == len(form._situation_of)
            and sum(len(ws) * len(form._action_sets[j]) for j, ws in form._info_sets.items()) == n
            and tuple(map(form._player_of.__getitem__, situations)) == players):
        return None
    roots = form._situation_of.keys() - form._pred.keys()
    if len(roots) != 1:
        return None
    depth = form._depths(*roots)
    return depth if len(depth) == n + 1 else None


def _violations(form: Pentaform) -> list[AxiomViolation]:
    """Every violated axiom of an indexed form, each with one witness."""
    found: dict[str, str] = {}  # axiom → witness, in order of discovery
    extra_preds: dict[str, set[str]] = {}  # successor → all its predecessors, where several
    first_action: dict[str, str] = {}  # successor → the first action met that reaches it
    pairs_by_situation: dict[str, set[tuple[str, str]]] = {}

    for t in form.quintuples:
        prev = form._player_of[t.situation]
        if prev != t.player and AXIOM_PLAYER_OF_SITUATION not in found:
            found[AXIOM_PLAYER_OF_SITUATION] = (
                f"situation {t.situation!r} is assigned players {prev!r} and {t.player!r}")
        prev = form._situation_of[t.decision_node]
        if prev != t.situation and AXIOM_SITUATION_OF_NODE not in found:
            found[AXIOM_SITUATION_OF_NODE] = (
                f"decision node {t.decision_node!r} lies in situations {prev!r} and {t.situation!r}")
        prev = form._next[(t.decision_node, t.action)]
        if prev != t.successor and AXIOM_SUCCESSOR_FUNCTION not in found:
            found[AXIOM_SUCCESSOR_FUNCTION] = (
                f"pair ({t.decision_node!r}, {t.action!r}) leads to both {prev!r} and {t.successor!r}")
        prev = form._pred[t.successor]
        if prev != t.decision_node:
            extra_preds.setdefault(t.successor, {prev}).add(t.decision_node)
        prev = first_action.setdefault(t.successor, t.action)
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
        nodes, acts = form._info_sets[j], form._action_sets[j]
        if len(pairs) != len(nodes) * len(acts):
            w, a = sorted((w, a) for w in nodes for a in acts if (w, a) not in pairs)[0]
            violations.append(AxiomViolation(
                AXIOM_ACTION_RECTANGLE,
                f"situation {j!r}: node {w!r} lacks action {a!r} present elsewhere in the situation"))
            break

    # [Py]: every predecessor walk must leave Y.  Where [Pw<-y] fails, a walk
    # follows the lexicographically smallest predecessor.  A walk from y
    # leaves Y exactly when y is reached from a root (a decision node outside
    # Y) along the edges that the walks follow backwards.
    pred_choice = {**form._pred, **{y: min(ws) for y, ws in extra_preds.items()}}
    roots = form._situation_of.keys() - form._pred.keys()
    reached, stack = set(roots), list(roots)
    while stack:
        w = stack.pop()
        for _, y in form._children.get(w, ()):
            if pred_choice[y] == w and y not in reached:
                reached.add(y)
                stack.append(y)
    cycling = form._pred.keys() - reached
    if cycling:
        y = min(cycling)
        violations.append(AxiomViolation(
            AXIOM_NO_CYCLES, f"predecessor walk from {y!r} never leaves the successor set (cycle)"))

    if len(roots) != 1:
        shown = ", ".join(repr(r) for r in sorted(roots)[:3]) if roots else "none"
        violations.append(AxiomViolation(
            AXIOM_SINGLE_ROOT,
            f"decision nodes that are not successors should be a singleton; found {shown}"))

    return violations


class Pentaform:
    """A validated quintuple set with its derived tree structure.

    Instances are immutable and are produced by :func:`validate` or by trusted
    ``Pentaform(...)`` construction, which checks no axiom and must only
    receive a pentaform.  That constructor is the one trusted way to build a
    form: subforms and pieces are pentaforms by the paper's propositions, so
    `partition` builds them with it, and the differential tests check every
    one they build.  Each node's children are kept in the canonical order the
    quintuples arrive in, which sorts a valid node's children by action.
    """

    __slots__ = (
        "quintuples", "players", "situations", "decision_nodes", "actions",
        "successors", "nodes", "endnodes", "root",
        "_pred", "_children", "_situation_of", "_player_of",
        "_info_sets", "_action_sets", "_next", "_depth", "_hash", "_partition",
    )

    def __init__(self, quintuples: Iterable[Quintuple]):
        self._grow(self._index(quintuples))

    def _index(self, q: Iterable[Quintuple]) -> tuple[tuple[str, ...], ...]:
        """The one place a quintuple set is sorted and indexed; returns its
        five columns in canonical order.  Each map keeps the first value met
        in canonical order (the reversed columns write it last), against
        which the diagnosis finds every conflict.  A valid node's quintuples
        lie side by side sorted by action, so its children need no sort; an
        invalid form's children are read only by order-free walks."""
        qs = sorted(q, key=_CANONICAL)
        # equal quintuples lie side by side once sorted: keep the first of each run
        qs = self.quintuples = tuple(compress(qs, chain((True,), map(ne, islice(qs, 1, None), qs))))
        columns = tuple(zip(*qs)) or ((),) * 5
        players, situations, nodes, actions, successors = (c[::-1] for c in columns)
        self._player_of = dict(zip(situations, players))
        self._situation_of = dict(zip(nodes, situations))
        self._next = dict(zip(zip(nodes, actions), successors))
        self._pred = dict(zip(successors, nodes))
        children: dict[str, list[tuple[str, str]]] = {}
        info: dict[str, set[str]] = {}
        acts: dict[str, set[str]] = {}
        for j, w, a, y in zip(*columns[1:]):
            children.setdefault(w, []).append((a, y))
            info.setdefault(j, set()).add(w)
            acts.setdefault(j, set()).add(a)
        self._children = {w: tuple(cs) for w, cs in children.items()}
        self._info_sets = {j: frozenset(v) for j, v in info.items()}
        self._action_sets = {j: frozenset(v) for j, v in acts.items()}
        return columns

    def _grow(self, columns, depth: dict[str, int] | None = None) -> None:
        """Node sets, root and depths of an indexed pentaform, from the
        columns `_index` returned; a caller that has walked the depths
        passes them."""
        # Filled in canonical order as before: a set's iteration order depends
        # on how it was filled, and random_game draws in endnode order.
        players, situations, decision_nodes, actions, successors = columns
        self.players = frozenset(players)
        self.situations = frozenset(situations)
        self.decision_nodes = frozenset(decision_nodes)
        self.actions = frozenset(actions)
        self.successors = frozenset(successors)
        self.nodes = self.decision_nodes | self.successors
        self.endnodes = self.successors - self.decision_nodes
        (self.root,) = self.decision_nodes - self.successors
        self._depth = self._depths(self.root) if depth is None else depth
        self._hash = None
        self._partition = None  # filled by partition._partition

    def _depths(self, root: str) -> dict[str, int]:
        """The depth of each node that the walk down from root reaches."""
        children = self._children
        depth = {root: 0}
        stack = [root]
        while stack:
            w = stack.pop()
            d = depth[w] + 1
            for _, y in children[w]:
                depth[y] = d
                if y in children:
                    stack.append(y)
        return depth

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Pentaform) and self.quintuples == other.quintuples

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.quintuples)
        return self._hash

    def __len__(self) -> int:
        return len(self.quintuples)

    def __iter__(self) -> Iterator[Quintuple]:
        return iter(self.quintuples)

    def __repr__(self) -> str:
        return f"Pentaform(root={self.root!r}, quintuples={len(self.quintuples)})"

    # -- local structure ----------------------------------------------------

    def situation_of(self, w: str) -> str:
        if w not in self._situation_of:
            raise ValueError(f"{w!r} is not a decision node")
        return self._situation_of[w]

    def player_of(self, j: str) -> str:
        if j not in self._player_of:
            raise ValueError(f"unknown situation {j!r}")
        return self._player_of[j]

    def information_set(self, j: str) -> frozenset:
        if j not in self._info_sets:
            raise ValueError(f"unknown situation {j!r}")
        return self._info_sets[j]

    def action_set(self, j: str) -> frozenset:
        if j not in self._action_sets:
            raise ValueError(f"unknown situation {j!r}")
        return self._action_sets[j]

    def children(self, w: str) -> tuple[tuple[str, str], ...]:
        """Sorted (action, successor) pairs at a decision node."""
        return self._children.get(w, ())

    def next_node(self, w: str, a: str) -> str:
        try:
            return self._next[(w, a)]
        except KeyError:
            raise ValueError(f"({w!r}, {a!r}) is not a feasible decision-node/action pair") from None

    def predecessor(self, y: str) -> str:
        if y not in self._pred:
            raise ValueError(f"{y!r} has no predecessor (not a successor node)")
        return self._pred[y]

    def depth(self, x: str) -> int:
        self._require_node(x)
        return self._depth[x]

    def _require_node(self, x: str) -> None:
        if x not in self.nodes:
            raise ValueError(f"unknown node {x!r}")

    # -- precedence, paths, and runs -----------------------------------------

    def weak_predecessors(self, x: str) -> tuple[str, ...]:
        """The root-to-x path, root first (equals {x* | x* ⪯ x})."""
        self._require_node(x)
        chain = [x]
        while chain[-1] != self.root:
            chain.append(self._pred[chain[-1]])
        chain.reverse()
        return tuple(chain)

    def precedes(self, x1: str, x2: str, strict: bool = False) -> bool:
        """Weak (or strict) precedence: a path from x1 to x2 exists."""
        self._require_node(x1)
        self._require_node(x2)
        if x1 == x2:
            return not strict
        if self._depth[x1] >= self._depth[x2]:
            return False
        x = x2
        while self._depth[x] > self._depth[x1]:
            x = self._pred[x]
        return x == x1

    def run_closure(self, nodes: Iterable[str]) -> tuple[str, ...] | None:
        """R(N) when it is a finite run, else None.

        R(N) is a run exactly when N has a ⪯-maximum that is an endnode; a
        non-chain N or a maximum that is still a decision node is not a run.
        """
        ns = set(nodes)
        if not ns:
            raise ValueError("run closure of an empty node set")
        for x in ns:
            self._require_node(x)
        top = max(ns, key=lambda x: (self._depth[x], x))
        chain = self.weak_predecessors(top)
        if not ns.issubset(chain):
            return None
        if top not in self.endnodes:
            return None
        return chain

    def runs(self) -> tuple[tuple[str, ...], ...]:
        """All finite runs, one per endnode, sorted by endnode label."""
        return tuple(self.weak_predecessors(y) for y in sorted(self.endnodes))

    def is_run(self, z: Sequence[str]) -> bool:
        zt = tuple(z)
        return bool(zt) and zt[-1] in self.endnodes and zt == self.weak_predecessors(zt[-1])

    def subtree_nodes(self, x: str) -> list[str]:
        """All nodes weakly after x, in DFS order."""
        self._require_node(x)
        out = []
        stack = [x]
        while stack:
            n = stack.pop()
            out.append(n)
            for _, y in reversed(self._children.get(n, ())):
                stack.append(y)
        return out


def validate(q: Iterable[Quintuple]) -> Pentaform:
    """Check all eight axioms and build the derived structure.

    Raises :class:`InvalidPentaform` carrying every violated axiom with a
    concrete witness; an empty set fails the single-root axiom.
    """
    form, violations = _diagnosed(q)
    if violations:
        raise InvalidPentaform(violations)
    return form
