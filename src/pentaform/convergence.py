"""Conceivable-utility bounds and the upper/lower-convergence checkers.

After reaching a node x, the runs still conceivable are exactly those passing
through x; sup/inf of a stakeholder's utility over them bound what can still
happen.  A game finds both at once in one walk of x's subtree
(`Game._conceivable_bounds`), which `inf_conceivable` and `sup_conceivable`
read.  A utility function is upper-convergent when that sup collapses to
the run's own utility along every run (lower-convergence is the mirror
image).  Each object gives its own verdict (`_convergence`), as it gives
its own bounds: finite games always converge, and generated infinite-horizon
systems are decided exactly on their class quotient by their utility model,
which owns its validation, conceivable bounds and convergence verdicts:
discounted accumulation gives a geometric certificate, and absolute-terminal
models are checked lasso by lasso, with Unknown reserved for systems whose
aperiodic infinite runs have no declared utility.

`DEFAULT_DEPTH` is only the d at which a discounted certificate prints its
bound; an Unknown certificate names its cause, a class on two declared cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def sup_conceivable(g, x: str, k: str) -> Scalar:
    """Highest stakeholder-k utility over runs through x (exact tree max)."""
    return g._conceivable_bounds(x, k)[1]


def inf_conceivable(g, x: str, k: str) -> Scalar:
    """Lowest stakeholder-k utility over runs through x (exact tree min)."""
    return g._conceivable_bounds(x, k)[0]


def upper_convergent(obj) -> ConvergenceVerdict:
    """Do conceivable utility increments vanish along every run?"""
    return _convergent(obj, "upper")


def lower_convergent(obj) -> ConvergenceVerdict:
    """Do conceivable utility decrements vanish along every run?"""
    return _convergent(obj, "lower")


def _convergent(obj, direction: str) -> ConvergenceVerdict:
    if not hasattr(obj, "_convergence"):
        raise TypeError(f"expected a Game or StationarySystem, got {type(obj).__name__}")
    return obj._convergence(direction)
