"""Extensive-form games as quintuple relations.

The package validates quintuple sets against the eight pentaform axioms,
partitions forms into piece forms at their subroots, checks and synthesizes
pure-strategy subgame-perfect equilibria through value functions, and
certifies stationary infinite-horizon games on their finite class quotient.
"""

from .core import (
    ALL_AXIOMS,
    AxiomViolation,
    InvalidPentaform,
    Pentaform,
    Quintuple,
    check_axioms,
    project,
    situation_slice,
    validate,
)
from .partition import (
    PieceRunClass,
    classify_piece_endnodes,
    classify_piece_run,
    piece_form,
    piece_partition,
    subform,
    subroots,
)
from .strategy import (
    outcome,
    piece_outcome,
    player_situations,
    restrict,
    subform_outcome,
    subroot_sequence,
    validate_strategy,
)
from .game import (
    BackwardSolution,
    Game,
    NoPureEquilibrium,
    ResourceCapError,
    Verdict,
    admissible,
    authentic,
    authentic_value,
    nash_check,
    one_piece_unimprovable,
    persistent,
    piece_game,
    piecewise_nash,
    random_game,
    solve_backward,
    spe_check_direct,
    utility_of_run,
)
from .convergence import (
    ConvergenceVerdict,
    inf_conceivable,
    lower_convergent,
    sup_conceivable,
    upper_convergent,
)
from .stationary import (
    AbsoluteTerminal,
    Certificate,
    DiscountedAccumulation,
    Exit,
    PieceClass,
    StationarySolution,
    StationarySolveFailure,
    StationarySystem,
    certify_spe,
    conceivable_bounds,
    continuation_values,
    induced_strategy,
    instantiate,
    solve_stationary,
    truncated_game,
    value_at,
)

__version__ = "0.1.0"
