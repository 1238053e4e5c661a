"""Conceivable-utility bounds and the upper/lower-convergence checkers.

After reaching a node x, the runs still conceivable are exactly those passing
through x; sup/inf of a stakeholder's utility over them bound what can still
happen.  A utility function is upper-convergent when that sup collapses to
the run's own utility along every run (lower-convergence is the mirror
image).  Finite games always converge; generated infinite-horizon systems
are decided exactly on their class quotient by their utility model, which
owns its validation, conceivable bounds and convergence verdicts:
discounted accumulation gives a geometric certificate, and absolute-terminal
models are checked lasso by lasso, with Unknown reserved for systems whose
aperiodic infinite runs have no declared utility.

`DEFAULT_DEPTH` is only the d at which a discounted certificate prints its
bound (and the depth an Unknown certificate names).
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import Game
from .numbers import Scalar

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

DEFAULT_DEPTH = 64


@dataclass(frozen=True)
class ConvergenceVerdict:
    status: str
    certificate: str | None = None
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.status == HOLDS


def sup_conceivable(g: Game, x: str, k: str) -> Scalar:
    """Highest stakeholder-k utility over runs through x (exact tree max)."""
    return _conceivable(g, x, k, max)


def inf_conceivable(g: Game, x: str, k: str) -> Scalar:
    """Lowest stakeholder-k utility over runs through x (exact tree min)."""
    return _conceivable(g, x, k, min)


def _conceivable(g: Game, x: str, k: str, pick) -> Scalar:
    if k not in g.stakeholders:
        raise ValueError(f"unknown stakeholder {k!r}")
    reachable = [y for y in g.form.subtree_nodes(x) if y in g.form.endnodes]
    return pick(g.utilities[y][k] for y in reachable)


def upper_convergent(obj) -> ConvergenceVerdict:
    """Do conceivable utility increments vanish along every run?"""
    return _convergent(obj, "upper")


def lower_convergent(obj) -> ConvergenceVerdict:
    """Do conceivable utility decrements vanish along every run?"""
    return _convergent(obj, "lower")


def _convergent(obj, direction: str) -> ConvergenceVerdict:
    if isinstance(obj, Game):
        # Finite games: the last node of any run pins the tail down exactly.
        return ConvergenceVerdict(HOLDS, certificate="finite game: all runs end at endnodes")
    from .stationary import StationarySystem  # stationary imports this module

    if isinstance(obj, StationarySystem):
        return obj.model.convergence(obj, direction)
    raise TypeError(f"expected a Game or StationarySystem, got {type(obj).__name__}")
