"""Subroots, subforms, and the piece-form partition.

A subroot is a decision node t whose weakly-subsequent quintuples share no
situation with the rest of the form; the root always qualifies.  The subform
at t collects everything weakly after t, and the piece form at t is the
subform minus everything weakly after a strictly later subroot.  The piece
forms partition the whole form, and every piece run ends either at a later
subroot or at a final endnode (never infinitely, for explicit finite forms).

The partition is fully described by which subroot owns each decision node:
`piece_owners` fills that map once per form and keeps it on the form.  The
engine walks pieces in place from it (`piece_decision_nodes`,
`classify_piece_run`, `classify_piece_endnodes`, the solvers and the CLI's
piece listing); only the API functions `subform`, `piece_form` and
`piece_partition` build subforms and pieces.  They are built with the
trusted ``Pentaform(...)`` constructor: the paper's propositions prove each
is a pentaform, and the differential tests check them against a reference
axiom check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import Pentaform, Quintuple


@lru_cache(maxsize=None)
def subroots(p: Pentaform) -> frozenset:
    """Decision nodes whose subsequent situations occur nowhere else."""
    # Euler-tour criterion: in preorder every subtree is a contiguous block
    # [pos(w), pos(w) + size(w)), so w is a subroot exactly when every
    # situation met below w has its preorder span [lo, hi] inside that block.
    # One post-order sweep folds the spans upwards, which makes this O(N).  The
    # sweep stores only ints in dicts: no container per node, so no garbage
    # collection pass lands inside it on large heaps.
    order = p.subtree_nodes(p.root)
    pos = {x: i for i, x in enumerate(order)}
    lo: dict[str, int] = {}
    hi: dict[str, int] = {}
    for i, x in enumerate(order):
        if x in p.decision_nodes:
            j = p.situation_of(x)
            lo.setdefault(j, i)
            hi[j] = i
    size: dict[str, int] = {}
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    result = set()
    for x in reversed(order):
        if x not in p.decision_nodes:
            continue
        j = p.situation_of(x)
        n, a, b = 1, lo[j], hi[j]
        for _, y in p.children(x):
            n += size.get(y, 1)
            if y in first:
                a = min(a, first[y])
                b = max(b, last[y])
        size[x], first[x], last[x] = n, a, b
        if a >= pos[x] and b < pos[x] + n:
            result.add(x)
    assert p.root in result
    return frozenset(result)


def subroots_sorted(p: Pentaform) -> list[str]:
    """Subroots ordered by (depth, label); backward induction reverses this."""
    return sorted(subroots(p), key=lambda t: (p.depth(t), t))


def _require_subroot(p: Pentaform, t: str) -> None:
    if t not in subroots(p):
        raise ValueError(f"{t!r} is not a subroot")


@lru_cache(maxsize=None)
def subform(p: Pentaform, t: str) -> Pentaform:
    """The pentaform of all quintuples weakly after subroot t (root t)."""
    _require_subroot(p, t)
    below = set(p.subtree_nodes(t))
    return Pentaform(q for q in p.quintuples if q.decision_node in below)


def piece_owners(p: Pentaform) -> Mapping[str, str]:
    """The piece-owner map: each decision node → the subroot whose piece
    holds it, the nearest subroot weakly before it.  One preorder pass, once
    per form; the map is kept on the form."""
    if p._owners is None:
        ts = subroots(p)
        owner: dict[str, str] = {}
        for x in p.subtree_nodes(p.root):
            if x in p.decision_nodes:
                owner[x] = x if x in ts else owner[p.predecessor(x)]
        p._owners = MappingProxyType(owner)
    return p._owners


def piece_decision_nodes(p: Pentaform, t: str) -> set[str]:
    """The decision nodes of the piece at subroot t, walked in place from t
    up to the next subroots and final endnodes."""
    _require_subroot(p, t)
    owner = piece_owners(p)
    nodes, stack = {t}, [t]
    while stack:
        for _, y in p.children(stack.pop()):
            if owner.get(y) == t:
                nodes.add(y)
                stack.append(y)
    return nodes


@lru_cache(maxsize=None)
def piece_partition(p: Pentaform) -> Mapping[str, Pentaform]:
    """Partition the form into piece forms: a read-only mapping subroot →
    piece form, in (depth, label) order, so deepest subroots come last.

    Each quintuple belongs to the piece that owns its decision node.
    """
    owner = piece_owners(p)
    buckets: dict[str, list[Quintuple]] = {t: [] for t in subroots_sorted(p)}
    for q in p.quintuples:
        buckets[owner[q.decision_node]].append(q)
    pieces = {t: Pentaform(qs) for t, qs in buckets.items()}
    return MappingProxyType(pieces)


def piece_form(p: Pentaform, t: str) -> Pentaform:
    """The piece form at subroot t: the subform minus later subforms."""
    _require_subroot(p, t)
    return piece_partition(p)[t]


@dataclass(frozen=True)
class PieceEndnodes:
    """Per-piece endnodes split into subroot exits and final endnodes."""

    exits_to_subroots: Mapping[str, frozenset]
    final_endnodes: Mapping[str, frozenset]


def classify_piece_endnodes(p: Pentaform) -> PieceEndnodes:
    """Split each piece's endnodes and verify they tile T ∪ (Y \\ W).

    A piece's endnodes are the children of its decision nodes that it does
    not own, read from the piece-owner map: no piece form is built.
    {{r}} together with the nonempty piece-endnode sets partitions the union
    of the subroots and the final endnodes; a failure here is an engine bug,
    not a user error.
    """
    ts = subroots(p)
    owner = piece_owners(p)
    ends: dict[str, set[str]] = {t: set() for t in subroots_sorted(p)}
    for x, t in owner.items():
        ends[t].update(y for _, y in p.children(x) if owner.get(y) != t)
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
    owner = piece_owners(p)
    nt = tuple(n)
    last = nt[-1] if nt else None
    if not (last in p.successors and owner[p.predecessor(last)] == t and owner.get(last) != t
            and nt == p.weak_predecessors(last)[p.depth(t):]):
        raise ValueError(f"{nt!r} is not a run of the piece at {t!r}")
    if last in subroots(p):
        return PieceRunClass(EXIT_TO_SUBROOT, subroot=last)
    return PieceRunClass(FINAL_ENDNODE, completed_run=p.weak_predecessors(last))
