"""Grand strategies, restrictions, outcomes, and subroot sequences.

A (grand) strategy is a total mapping from situations to feasible actions;
player, subform, and piece restrictions are plain domain restrictions of that
mapping.  Strategies are stored total even though tracing an outcome only
ever reads on-path situations, which keeps the restriction algebra exact.

`outcome` is the one tracer: it follows s from the root, or from any given
node, so the outcome of the subgame at a subroot t is `outcome(p, s, t)`.
A piece run is the same trace confined to the piece's decision nodes, so
`subform_outcome`, `piece_outcome` and `subroot_sequence` walk the form in
place.  Single moves are `Pentaform.next_node`; the trace itself reads the
form's own tables, and names what it cannot follow in the accessors' words.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from .core import Pentaform
from .partition import _partition, _require_subroot, piece_decision_nodes

Strategy = dict  # situation -> action


def validate_strategy(p: Pentaform, choices: Mapping[str, str]) -> Strategy:
    """Accept a mapping iff it is total on J and feasible at every situation."""
    problems = []
    actions = p._actions
    situations = sorted(p.situations)
    for j in situations:
        if j not in choices:
            problems.append(f"missing situation {j!r}")
        elif choices[j] not in actions[j]:
            problems.append(f"action {choices[j]!r} is infeasible at situation {j!r}")
    extra = sorted(set(choices) - p.situations)
    if extra:
        problems.append(f"unknown situations {extra}")
    if problems:
        raise ValueError("invalid strategy: " + "; ".join(problems))
    # no situation is missing and none is extra: the keys are the situations
    return {j: choices[j] for j in situations}


def player_situations(p: Pentaform, i: str) -> frozenset:
    """The situations controlled by player i; these partition J over I."""
    if i not in p.players:
        raise ValueError(f"unknown player {i!r}")
    return frozenset(j for j in p.situations if p.player_of(j) == i)


def restrict(s: Mapping[str, str], situations) -> Strategy:
    """Domain-restrict a strategy to the given situations."""
    keep = set(situations)
    return {j: a for j, a in s.items() if j in keep}


def restrict_to_player(p: Pentaform, s: Mapping[str, str], i: str) -> Strategy:
    return restrict(s, player_situations(p, i))


def restrict_to_opponents(p: Pentaform, s: Mapping[str, str], i: str) -> Strategy:
    return restrict(s, set(s) - player_situations(p, i))


def outcome(p: Pentaform, s: Mapping[str, str], start: str | None = None,
            through: AbstractSet[str] | None = None) -> tuple[str, ...]:
    """The run traced from start (the root by default) by obeying s to an
    endnode of p; finite, so it terminates.  Only the situations the run meets
    are read, so s may be any restriction that covers them.  `through` is the
    set of decision nodes the trace may move on (all of p's by default); it
    stops at the first node outside it, so a piece run stops at the next
    subroot.  The trace reads the form's own tables."""
    situation_of, children = p._situation_of, p._children
    x = p.root if start is None else start
    if through is None:
        through = p.decision_nodes
    nodes = [x]
    while x in through:
        j = situation_of[x]
        try:
            a = s[j]
        except KeyError:
            raise ValueError(f"strategy does not cover situation {j!r}") from None
        try:
            x = children[x][a]
        except KeyError:
            raise ValueError(f"({x!r}, {a!r}) is not a feasible decision-node/action pair") from None
        nodes.append(x)
    return tuple(nodes)


def subform_outcome(p: Pentaform, t: str, restriction: Mapping[str, str]) -> tuple[str, ...]:
    """The run of the subform at t under a restriction total on its situations,
    traced in place from t: the subform's situations are those of the
    decision nodes below t."""
    _require_subroot(p, t)
    below = {p.situation_of(x) for x in p.subtree_nodes(t) if x in p.decision_nodes}
    _require_total(restriction, below, "subform")
    return outcome(p, restriction, t)


def piece_outcome(p: Pentaform, t: str, restriction: Mapping[str, str]) -> tuple[str, ...]:
    """The run of the piece at t under a restriction total on its situations,
    traced in place from t up to the next subroot or a final endnode."""
    nodes = piece_decision_nodes(p, t)
    _require_total(restriction, {p.situation_of(x) for x in nodes}, "piece")
    return outcome(p, restriction, t, nodes)


def _require_total(restriction: Mapping[str, str], situations: AbstractSet[str], what: str) -> None:
    missing = sorted(situations - set(restriction))
    if missing:
        raise ValueError(f"restriction is partial on the {what}: missing {missing}")


def subroot_sequence(p: Pentaform, s: Mapping[str, str], t0: str) -> tuple[str, ...]:
    """The strictly increasing chain of subroots visited by obeying s from
    t0: iterate t ↦ last node of the piece outcome at t while it is a
    subroot.  A finite form's chain always ends."""
    _require_subroot(p, t0)
    ts = _partition(p).nodes
    seq = [t0]
    while True:
        last = piece_outcome(p, seq[-1], s)[-1]
        if last not in ts:
            return tuple(seq)
        seq.append(last)


__all__ = [
    "Strategy",
    "validate_strategy", "player_situations", "restrict", "restrict_to_player",
    "restrict_to_opponents", "outcome", "subform_outcome", "piece_outcome",
    "subroot_sequence",
]
