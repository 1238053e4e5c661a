"""Bundled example games.

* ``entry_game``: the two-stage entrant/incumbent game (perfect information;
  two singleton pieces).  The incumbent's utility after staying out and the
  entrant's after an accommodated entry are immaterial placeholders (0).
* ``cry_wolf``: the infinitely repeated wolf/kid/town fable as a one-class
  discounted system (β = 1/10).  Exit labels follow the single-day template:
  1 = no attack, 2 = attack, 3 = untruthful cry, then 4/5 terminal
  (attack met/ignored) and 6/7/8 continuing (rescue, ignore, quiet).
* ``ann_chain`` / ``bob_chain`` / ``eda_chain``: one-player in/out chains with
  infinite-run utility 0; out pays +1 (Ann), -1 (Bob), alternating -1/+1
  (Eda, two classes so that every chain node is its own class).

Run this module (``python -m pentaform.fixtures``) to regenerate the golden
files under fixtures/.
"""

from __future__ import annotations

import pathlib
from fractions import Fraction

from . import fileio
from .core import Quintuple, validate
from .game import Game
from .partition import _partition
from .stationary import (
    AbsoluteTerminal,
    DiscountedAccumulation,
    Exit,
    PieceClass,
    StationarySystem,
    instantiate,
    truncated_game,
)

F = Fraction


def entry_game() -> Game:
    form = validate([
        Quintuple("Ent", "jE", "5", "e", "6"),
        Quintuple("Ent", "jE", "5", "e~", "7"),
        Quintuple("Inc", "jI", "6", "f", "8"),
        Quintuple("Inc", "jI", "6", "f~", "9"),
    ])
    utilities = {
        "7": {"Ent": 0, "Inc": 0},
        "8": {"Ent": -1, "Inc": 3},
        "9": {"Ent": 0, "Inc": 2},
    }
    return Game(form, ["Ent", "Inc"], utilities)


def entry_spe_strategy() -> dict:
    return {"jE": "e~", "jI": "f"}


def entry_values() -> dict:
    return {"5": {"Ent": 0, "Inc": 0}, "6": {"Ent": -1, "Inc": 3}}


def _day_template():
    return validate([
        Quintuple("Wolf", "", "", "a~", "1"),
        Quintuple("Wolf", "", "", "a", "2"),
        Quintuple("Kid", "1", "1", "c", "3"),
        Quintuple("Kid", "1", "1", "c~", "8"),
        Quintuple("Town", "2+3", "2", "r", "4"),
        Quintuple("Town", "2+3", "2", "r~", "5"),
        Quintuple("Town", "2+3", "3", "r", "6"),
        Quintuple("Town", "2+3", "3", "r~", "7"),
    ])


def cry_wolf() -> StationarySystem:
    day = PieceClass(_day_template(), {
        # attack met by rescue: permanent profiles; kid coordinate pinned by
        # the run utilities printed for the neighbouring comparisons
        "4": Exit({"Wolf": F(-5, 9), "Kid": F(5, 9), "Town": 0}),
        # attack ignored: permanent win for the wolf
        "5": Exit({"Wolf": F(5, 9), "Kid": 0, "Town": 0}),
        # untruthful cry rescued: kid fools the town, another day follows
        "6": Exit({"Wolf": F(1, 2), "Kid": F(2, 5), "Town": F(1, 5)}, next_class="day"),
        # untruthful cry ignored: small win for the town
        "7": Exit({"Wolf": F(1, 2), "Kid": F(1, 5), "Town": F(2, 5)}, next_class="day"),
        # quiet day: small win for the town
        "8": Exit({"Wolf": F(1, 2), "Kid": F(1, 5), "Town": F(2, 5)}, next_class="day"),
    })
    return StationarySystem({"day": day}, "day", DiscountedAccumulation(F(1, 10)),
                            ["Wolf", "Kid", "Town"])


def cry_wolf_calm_strategy() -> dict:
    """Wolf never attacks, kid always cries, town never rescues."""
    return {"day": {"": "a~", "1": "c", "2+3": "r~"}}


def _chain_class(player: str, out_payoff, next_class: str) -> PieceClass:
    template = validate([
        Quintuple(player, "", "", "in", "i"),
        Quintuple(player, "", "", "out", "x"),
    ])
    return PieceClass(template, {
        "x": Exit({player: out_payoff}),
        "i": Exit({player: 0}, next_class=next_class),
    })


def ann_chain() -> StationarySystem:
    return StationarySystem(
        {"c": _chain_class("Ann", 1, "c")}, "c",
        AbsoluteTerminal({("c",): {"Ann": 0}}), ["Ann"])


def bob_chain() -> StationarySystem:
    return StationarySystem(
        {"c": _chain_class("Bob", -1, "c")}, "c",
        AbsoluteTerminal({("c",): {"Bob": 0}}), ["Bob"])


def eda_chain() -> StationarySystem:
    """Out pays -1 at odd steps and +1 at even steps; two alternating classes
    keep every chain node a class of its own."""
    return StationarySystem(
        {"odd": _chain_class("Eda", -1, "even"),
         "even": _chain_class("Eda", 1, "odd")},
        "odd",
        AbsoluteTerminal({("even", "odd"): {"Eda": 0}}), ["Eda"])


def always_in(sys: StationarySystem) -> dict:
    return {c: {"": "in"} for c in sys.classes}


def always_out(sys: StationarySystem) -> dict:
    return {c: {"": "out"} for c in sys.classes}


def ann_truncation(depth: int = 8) -> Game:
    """Ann's chain cut at `depth`, the cut node carrying the infinite-run
    utility 0 (the value of continuing to play in forever)."""
    return truncated_game(ann_chain(), depth, {"c": {"Ann": 0}})


def bob_truncation(depth: int = 8) -> Game:
    """Bob's chain cut at `depth`, the cut node carrying -1 (the value of the
    always-out strategy beyond the cut)."""
    return truncated_game(bob_chain(), depth, {"c": {"Bob": -1}})


def constant_values(g: Game, profile: dict) -> dict:
    """A value function constant across all subroots of a finite game."""
    return {t: dict(profile) for t in _partition(g.form).nodes}


def _write_fixture_files(root: pathlib.Path = pathlib.Path(__file__).resolve().parents[2] / "fixtures") -> None:
    """Write the golden files into the directory `root`, the repository's fixtures/ by default."""
    root.mkdir(exist_ok=True)

    g = entry_game()
    fileio.save_pentaform(root / "entry.pentaform", g.form)
    fileio.save_game(root / "entry.game", g)
    fileio.save_strategy(root / "entry_spe.strategy", entry_spe_strategy())
    fileio.save_strategy(root / "entry_enter.strategy", {"jE": "e", "jI": "f"})
    fileio.save_values(root / "entry.values", entry_values())

    wolf = cry_wolf()
    fileio.save_system(root / "crywolf.system", wolf)
    fileio.save_stationary_strategy(root / "crywolf_calm.strategy", cry_wolf_calm_strategy())
    fileio.save_pentaform(root / "crywolf_depth1.pentaform", instantiate(wolf, 1))
    fileio.save_pentaform(root / "crywolf_depth2.pentaform", instantiate(wolf, 2))

    for name, sys_ in (("ann", ann_chain()), ("bob", bob_chain()), ("eda", eda_chain())):
        fileio.save_system(root / f"{name}.system", sys_)

    ann_tr = ann_truncation()
    fileio.save_game(root / "ann_trunc.game", ann_tr)
    fileio.save_strategy(root / "ann_trunc_in.strategy",
                         {j: "in" for j in ann_tr.form.situations})
    fileio.save_values(root / "ann_trunc_half.values",
                       constant_values(ann_tr, {"Ann": F(1, 2)}))

    bob_tr = bob_truncation()
    fileio.save_game(root / "bob_trunc.game", bob_tr)
    fileio.save_strategy(root / "bob_trunc_out.strategy",
                         {j: "out" for j in bob_tr.form.situations})
    fileio.save_values(root / "bob_trunc_minus1.values",
                       constant_values(bob_tr, {"Bob": -1}))


if __name__ == "__main__":
    _write_fixture_files()
