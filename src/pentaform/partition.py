"""Subroots, subforms, and the piece-form partition.

A subroot is a decision node t whose weakly-subsequent quintuples share no
situation with the rest of the form; the root always qualifies.  The subform
at t collects everything weakly after t, and the piece form at t is the
subform minus everything weakly after a strictly later subroot.  The piece
forms partition the whole form, and every piece run ends either at a later
subroot or at a final endnode (never infinitely, for explicit finite forms).

The partition is derived once per form and kept on it (`_partition`) as two
facts: the decision nodes of each piece, keyed by its subroot in (depth,
label) order, and the subroots deepest first.  The subroot set is the keys
of the first; the owner of each decision node (the nearest subroot weakly
before it) is rebuilt from it by the callers that ask for it.  The engine
walks pieces in place; only `subform`, `piece_form` and `piece_partition`
build subforms and pieces, with the trusted ``Pentaform(...)`` constructor:
the paper's propositions prove each is a pentaform, and the differential
tests check them against a reference axiom check.  `subroots`, `subform`
and `piece_partition` keep module-level caches, whose `cache_info()` the
benchmark's tracer reads; no package function calls them, so only their
direct callers fill those caches and keep forms alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import Pentaform, Quintuple


@dataclass(frozen=True)
class _Partition:
    """A form's piece partition: each subroot's piece decision nodes, the
    subroots in (depth, label) order, and the subroots deepest first."""

    nodes: Mapping[str, frozenset]
    deepest_first: tuple[str, ...]


def _partition(p: Pentaform) -> _Partition:
    """The piece partition of p, filled into its slot on first use."""
    if p._partition is None:
        # Euler-tour criterion: in preorder every subtree is a contiguous
        # block [pos(w), pos(w) + size(w)), so w is a subroot exactly when
        # every situation met below w has its preorder span [lo, hi] inside
        # that block.  One post-order sweep folds the spans upwards, which
        # makes this O(N).  The sweep stores only ints in dicts: no container
        # per node, so no garbage collection pass lands inside it.
        order = p.subtree_nodes(p.root)
        decision = p.decision_nodes
        lo: dict[str, int] = {}
        hi: dict[str, int] = {}
        for i, x in enumerate(order):
            if x in decision:
                j = p._situation_of[x]
                lo.setdefault(j, i)
                hi[j] = i
        size: dict[str, int] = {}
        first: dict[str, int] = {}
        last: dict[str, int] = {}
        result = set()
        for i in range(len(order) - 1, -1, -1):
            x = order[i]
            if x not in decision:
                continue
            j = p._situation_of[x]
            n, a, b = 1, lo[j], hi[j]
            for _, y in p._children[x]:
                n += size.get(y, 1)
                if y in first:
                    a = min(a, first[y])
                    b = max(b, last[y])
            size[x], first[x], last[x] = n, a, b
            if a >= i and b < i + n:
                result.add(x)
        assert p.root in result
        # one preorder pass hands each decision node to its nearest subroot
        owner: dict[str, str] = {}
        nodes: dict[str, list[str]] = {}
        for x in order:
            if x in decision:
                t = owner[x] = x if x in result else owner[p._pred[x]]
                nodes.setdefault(t, []).append(x)
        ts = sorted(result, key=lambda t: (p._depth[t], t))
        p._partition = _Partition(
            MappingProxyType({t: frozenset(nodes[t]) for t in ts}),
            tuple(sorted(ts, key=p._depth.__getitem__, reverse=True)))  # stable: labels stay ascending
    return p._partition


@lru_cache(maxsize=None)
def subroots(p: Pentaform) -> frozenset:
    """Decision nodes whose subsequent situations occur nowhere else."""
    return frozenset(_partition(p).nodes)


def subroots_sorted(p: Pentaform) -> list[str]:
    """Subroots ordered by (depth, label); backward induction reverses this."""
    return list(_partition(p).nodes)


def _require_subroot(p: Pentaform, t: str) -> None:
    if t not in _partition(p).nodes:
        raise ValueError(f"{t!r} is not a subroot")


@lru_cache(maxsize=None)
def subform(p: Pentaform, t: str) -> Pentaform:
    """The pentaform of all quintuples weakly after subroot t (root t)."""
    _require_subroot(p, t)
    below = set(p.subtree_nodes(t))
    return Pentaform(q for q in p.quintuples if q.decision_node in below)


def piece_owners(p: Pentaform) -> Mapping[str, str]:
    """The piece-owner map: each decision node → the subroot whose piece
    holds it, the nearest subroot weakly before it."""
    return {x: t for t, xs in _partition(p).nodes.items() for x in xs}


def piece_decision_nodes(p: Pentaform, t: str) -> frozenset:
    """The decision nodes of the piece at subroot t: a walk from t moves on
    them up to the next subroots and final endnodes."""
    _require_subroot(p, t)
    return _partition(p).nodes[t]


@lru_cache(maxsize=None)
def piece_partition(p: Pentaform) -> Mapping[str, Pentaform]:
    """Partition the form into piece forms: a read-only mapping subroot →
    piece form, in (depth, label) order, so deepest subroots come last.

    Each quintuple belongs to the piece that owns its decision node.
    """
    return MappingProxyType({t: piece_form(p, t) for t in _partition(p).nodes})


def piece_form(p: Pentaform, t: str) -> Pentaform:
    """The piece form at subroot t: the subform minus later subforms, the
    quintuples at the decision nodes the piece at t holds, read from the
    form's index in time proportional to the piece."""
    qs = []
    for x in piece_decision_nodes(p, t):
        j = p._situation_of[x]
        qs += (Quintuple(p._player_of[j], j, x, a, y) for a, y in p._children[x])
    return Pentaform(qs)


@dataclass(frozen=True)
class PieceEndnodes:
    """Per-piece endnodes split into subroot exits and final endnodes."""

    exits_to_subroots: Mapping[str, frozenset]
    final_endnodes: Mapping[str, frozenset]


def classify_piece_endnodes(p: Pentaform) -> PieceEndnodes:
    """Split each piece's endnodes and verify they tile T ∪ (Y \\ W).

    A piece's endnodes are the children of its decision nodes that are not
    its own: no piece form is built.  {{r}} together with the nonempty
    piece-endnode sets partitions the union of the subroots and the final
    endnodes; a failure here is an engine bug, not a user error.
    """
    pieces = _partition(p).nodes
    ts = pieces.keys()
    ends = {t: {y for x in nodes for _, y in p.children(x) if y not in nodes}
            for t, nodes in pieces.items()}
    seen = [p.root] + [y for piece_ends in ends.values() for y in piece_ends]
    expected = sorted(ts | p.endnodes)
    assert sorted(seen) == expected, "piece endnodes do not tile the subroots and final endnodes"
    exits = {t: frozenset(piece_ends & ts) for t, piece_ends in ends.items()}
    finals = {t: frozenset(piece_ends - ts) for t, piece_ends in ends.items()}
    return PieceEndnodes(MappingProxyType(exits), MappingProxyType(finals))


EXIT_TO_SUBROOT = "exit-to-subroot"
FINAL_ENDNODE = "final-endnode"


@dataclass(frozen=True)
class PieceRunClass:
    """Tag for one piece run: an exit to a later subroot, or a final endnode
    completing a full run (an infinite piece run cannot occur in a finite
    form)."""

    kind: str
    subroot: str | None = None
    completed_run: tuple[str, ...] | None = None


def classify_piece_run(p: Pentaform, t: str, n: Sequence[str]) -> PieceRunClass:
    """Classify a run of the piece at t: exit to a later subroot, or a final
    endnode completing a full run.  The run is checked in place: it is the
    path from t to a node that the piece at t moves into but does not own."""
    _require_subroot(p, t)
    pieces = _partition(p).nodes
    nt = tuple(n)
    last = nt[-1] if nt else None
    if not (last in p.successors and p.predecessor(last) in pieces[t] and last not in pieces[t]
            and nt == p.weak_predecessors(last)[p.depth(t):]):
        raise ValueError(f"{nt!r} is not a run of the piece at {t!r}")
    if last in pieces:
        return PieceRunClass(EXIT_TO_SUBROOT, subroot=last)
    return PieceRunClass(FINAL_ENDNODE, completed_run=p.weak_predecessors(last))
