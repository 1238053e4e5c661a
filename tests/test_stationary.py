"""Generated systems: instantiation, quotient values, certification, synthesis."""

from __future__ import annotations

import gc
import sys
import time
import weakref
from fractions import Fraction as F

import pytest

from pentaform import (
    Quintuple,
    ResourceCapError,
    piece_game,
    piece_partition,
    spe_check_direct,
    subroots,
    validate,
)
from pentaform import stationary
from pentaform.fixtures import (
    always_in,
    always_out,
    ann_chain,
    bob_chain,
    cry_wolf,
    cry_wolf_calm_strategy,
    eda_chain,
)
from pentaform.game import authentic_value
from pentaform.stationary import (
    AbsoluteTerminal,
    BoundaryExit,
    DiscountedAccumulation,
    Exit,
    INCONCLUSIVE,
    PieceClass,
    REFUTED,
    SPE_CERTIFIED,
    StationarySolveFailure,
    StationarySystem,
    canonical_cycle,
    certify_spe,
    conceivable_bounds,
    continuation_values,
    has_aperiodic_runs,
    induced_strategy,
    instantiate,
    parse_subroot_label,
    quotient_piece_game,
    quotient_subroot_sequence,
    simple_cycles,
    solve_stationary,
    stationary_admissible,
    stationary_authentic,
    stationary_persistent,
    stationary_piecewise_nash,
    truncated_game,
    value_at,
)
from pentaform.strategy import INFINITE_DETECTED, TERMINATED

from conftest import random_discounted_system, random_ring_system, reference_discounted_extremes

WOLF = cry_wolf()
CALM = cry_wolf_calm_strategy()
W_CALM = continuation_values(WOLF, CALM)
BETA = F(1, 10)


# -- system validation -----------------------------------------------------------


def _single_class(**overrides):
    template = validate([
        Quintuple("p", "", "", "go", "i"),
        Quintuple("p", "", "", "stop", "x"),
    ])
    exits = overrides.get("exits", {
        "i": Exit({"p": 0}, next_class="c"),
        "x": Exit({"p": 1}),
    })
    return {"c": PieceClass(template, exits)}


def test_system_rejects_unknown_initial():
    with pytest.raises(ValueError, match="initial"):
        StationarySystem(_single_class(), "zzz", DiscountedAccumulation(BETA), ["p"])


def test_system_rejects_unreachable_classes():
    classes = _single_class()
    island = PieceClass(classes["c"].template, {
        "i": Exit({"p": 0}, next_class="island"),
        "x": Exit({"p": 0}),
    })
    with pytest.raises(ValueError, match="unreachable"):
        StationarySystem({**classes, "island": island}, "c",
                         DiscountedAccumulation(BETA), ["p"])


def test_system_rejects_templates_with_interior_subroots():
    # A two-node perfect-information chain inside one template would make the
    # interior node a subroot of the unfolding, breaking the class quotient.
    template = validate([
        Quintuple("p", "ja", "", "go", "m"),
        Quintuple("p", "jb", "m", "go", "i"),
        Quintuple("p", "jb", "m", "stop", "x"),
    ])
    cls = PieceClass(template, {
        "i": Exit({"p": 0}, next_class="c"),
        "x": Exit({"p": 1}),
    })
    with pytest.raises(ValueError, match="interior subroots"):
        StationarySystem({"c": cls}, "c", DiscountedAccumulation(BETA), ["p"])


def test_system_rejects_unclassified_endnodes():
    classes = _single_class(exits={"i": Exit({"p": 0}, next_class="c")})
    with pytest.raises(ValueError, match="exits mismatch"):
        StationarySystem(classes, "c", DiscountedAccumulation(BETA), ["p"])


def test_system_rejects_bad_discount():
    with pytest.raises(ValueError, match="discount factor"):
        StationarySystem(_single_class(), "c", DiscountedAccumulation(F(3, 2)), ["p"])


def test_system_rejects_infinite_rewards_under_discounting():
    classes = _single_class(exits={
        "i": Exit({"p": 0}, next_class="c"),
        "x": Exit({"p": float("inf")}),
    })
    with pytest.raises(ValueError, match="finite rewards"):
        StationarySystem(classes, "c", DiscountedAccumulation(BETA), ["p"])


def test_absolute_model_requires_exactly_the_simple_cycles():
    with pytest.raises(ValueError, match="missing"):
        StationarySystem(_single_class(), "c", AbsoluteTerminal({}), ["p"])
    with pytest.raises(ValueError, match="unknown"):
        StationarySystem(_single_class(), "c",
                         AbsoluteTerminal({("c",): {"p": 0}, ("c", "d"): {"p": 0}}), ["p"])


def test_absolute_model_names_the_undeclared_loop():
    with pytest.raises(ValueError) as caught:
        StationarySystem(_single_class(), "c", AbsoluteTerminal({}), ["p"])
    assert str(caught.value) == ("absolute-terminal model must declare exactly the simple class cycles; "
                                 "missing [('c',)], unknown []")


def _absolute_ring(n: int) -> StationarySystem:
    names = [f"c{m}" for m in range(n)]
    template = validate([Quintuple("p", "", "", "go", "i"), Quintuple("p", "", "", "stop", "x")])
    classes = {c: PieceClass(template, {"i": Exit({"p": 0}, next_class=names[(m + 1) % n]),
                                        "x": Exit({"p": 1})})
               for m, c in enumerate(names)}
    return StationarySystem(classes, "c0", AbsoluteTerminal({tuple(names): {"p": 0}}), ["p"])


def test_absolute_ring_past_the_recursion_limit_builds():
    # 1,100 classes: past the default recursion limit, which a recursive
    # cycle walk outgrows; validation is quadratic on a ring.
    assert sys.getrecursionlimit() <= 1100
    ring = _absolute_ring(1100)
    assert list(ring.model.cycle_utilities) == [tuple(sorted(ring.classes, key=lambda c: int(c[1:])))]


def test_continue_graph_is_a_copy():
    ring = _absolute_ring(3)
    graph = ring.continue_graph()
    assert graph == {"c0": {"c1"}, "c1": {"c2"}, "c2": {"c0"}}
    graph["c0"].clear()
    graph["c1"] = {"c1"}
    assert ring.continue_graph() == {"c0": {"c1"}, "c1": {"c2"}, "c2": {"c0"}}
    assert ring.reachable_from("c0") == {"c0", "c1", "c2"}


def test_complete_graph_with_no_cycle_declared_is_rejected_quickly():
    # 12 classes that each continue into every class: 119,481,296 simple
    # cycles, of which only the first is named.
    names = [f"c{m:02d}" for m in range(12)]
    template = validate([Quintuple("p", "", "", f"a{d}", d) for d in names])
    cls = PieceClass(template, {d: Exit({"p": 0}, next_class=d) for d in names})
    start = time.perf_counter()
    with pytest.raises(ValueError, match="missing") as caught:
        StationarySystem(dict.fromkeys(names, cls), "c00", AbsoluteTerminal({}), ["p"])
    assert time.perf_counter() - start < 1
    assert str(caught.value).endswith("missing [('c00',)], unknown []")
    assert len(str(caught.value)) < 1024


def test_system_rejects_prefix_sharing_continue_labels():
    template = validate([
        Quintuple("p", "", "", "a1", "i"),
        Quintuple("p", "", "", "a2", "ii"),
        Quintuple("p", "", "", "a3", "x"),
    ])
    cls = PieceClass(template, {
        "i": Exit({"p": 0}, next_class="c"),
        "ii": Exit({"p": 0}, next_class="c"),
        "x": Exit({"p": 1}),
    })
    with pytest.raises(ValueError, match="prefix-free"):
        StationarySystem({"c": cls}, "c", DiscountedAccumulation(BETA), ["p"])


# -- instantiation ------------------------------------------------------------------


def test_instantiate_depth_counts():
    f1 = instantiate(WOLF, 1)
    assert len(f1) == 32
    assert subroots(f1) == {"", "6", "7", "8"}
    f2 = instantiate(WOLF, 2)
    assert len(f2) == 13 * 8 and len(subroots(f2)) == 13
    f3 = instantiate(WOLF, 3)
    assert len(f3) == 40 * 8 and len(subroots(f3)) == 40
    with pytest.raises(ValueError):
        instantiate(WOLF, 0)


def test_instantiate_structural_consistency():
    # Subroots are exactly the class-path labels, and each piece is the
    # template translated by its prefix.
    for depth in (1, 2, 3):
        form = instantiate(WOLF, depth)
        labels = {""}
        frontier = [""]
        for _ in range(depth):
            frontier = [p + e for p in frontier for e in ("6", "7", "8")]
            labels.update(frontier)
        assert subroots(form) == labels
        parts = piece_partition(form)
        template = WOLF.classes["day"].template
        for t, piece in parts.items():
            translated = {
                Quintuple(q.player,
                          "+".join(t + part for part in q.situation.split("+")),
                          t + q.decision_node, q.action, t + q.successor)
                for q in template.quintuples
            }
            assert set(piece.quintuples) == translated


def test_bounded_instantiation_prices_terminals_exactly():
    bounded = instantiate(WOLF, 2, "bounded")
    u65 = bounded.terminal_utilities["65"]
    assert u65 == {"Wolf": F(5, 9), "Kid": F(2, 5), "Town": F(1, 5)}
    # boundary nodes carry brackets that contain the calm continuation value
    g = bounded.game(W_CALM)
    for node, b in bounded.boundary.items():
        point = g.utilities[node]
        for k in point:
            assert b.low[k] <= point[k] <= b.high[k]


def test_bounded_instantiation_rejected_for_absolute_model():
    with pytest.raises(ValueError, match="unsupported"):
        instantiate(ann_chain(), 2, "bounded")


def _ring(n: int) -> StationarySystem:
    """n classes in a ring, each one decision: continue into the next class
    (reward 1) or stop (0); 2**n exit policies, two quintuples per piece."""
    template = validate([Quintuple("p", "", "", "go", "i"), Quintuple("p", "", "", "stop", "x")])
    classes = {f"c{m}": PieceClass(template, {"i": Exit({"p": 1}, next_class=f"c{(m + 1) % n}"),
                                              "x": Exit({"p": 0})})
               for m in range(n)}
    return StationarySystem(classes, "c0", DiscountedAccumulation(F(1, 2)), ["p"])


def test_truncated_game_computes_no_bounds(monkeypatch):
    # The depth-2 truncation's 6 quintuples pass a cap of 10; the ring's 64
    # exit policies are never enumerated, so the bounds pass it too.
    ring = _ring(6)
    continuation = {c: {"p": F(1, 3)} for c in ring.classes}
    uncapped = truncated_game(ring, 2, continuation)
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", "10")
    assert truncated_game(ring, 2, continuation) == uncapped
    assert ring._extremes is None
    assert uncapped.utilities["iii"] == {"p": 1 + F(1, 2) + F(1, 4) + F(1, 8) * F(1, 3)}
    assert instantiate(_ring(6), 2, "bounded").boundary["iii"].high == {"p": 2}


def test_bounded_instantiation_of_a_ring_with_two_to_the_forty_policies():
    # Going on forever is worth 1 + 1/2 + 1/4 + ... = 2 and stopping 0, from
    # every class; the depth-2 cut enters c3 after three go exits.
    ring = _ring(40)
    for c in ring.classes:
        assert conceivable_bounds(ring, c, "p") == (0, 2)
    bounded = instantiate(ring, 2, "bounded")
    accrued = 1 + F(1, 2) + F(1, 4)
    assert bounded.boundary == {"iii": BoundaryExit("iii", "c3", {"p": accrued}, 3,
                                                    {"p": accrued}, {"p": accrued + F(1, 8) * 2})}


def test_bounds_make_few_chain_evaluations(monkeypatch):
    # Five classes of five exits: 3,125 exit policies, the benchmark's shape.
    chain_values = stationary._chain_values
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= 100, "more than 100 policy evaluations for one system"
        return chain_values(*args)

    monkeypatch.setattr(stationary, "_chain_values", counted)
    for seed in range(20):
        calls = 0
        sys_ = random_ring_system(seed, (5, 5))
        conceivable_bounds(sys_, "c0", "p1")
        assert calls > 0


def test_instantiation_cap_counts_quintuples_before_building(monkeypatch):
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", str(13 * 8))
    assert len(instantiate(WOLF, 2)) == 13 * 8
    with pytest.raises(ResourceCapError,
                       match="instantiation to depth 3 needs 320 quintuples, more than the cap of 104"):
        instantiate(WOLF, 3)
    # counting stops at the first level past the cap, so a huge depth is cheap
    with pytest.raises(ResourceCapError, match="depth 1000000000 needs at least 320 quintuples"):
        truncated_game(WOLF, 10**9, W_CALM)
    with pytest.raises(ResourceCapError, match="depth 3 needs 320"):
        induced_strategy(WOLF, CALM, 3)


def test_instantiation_of_a_finite_class_graph_stops_at_its_last_piece():
    template = validate([Quintuple("p", "", "", "go", "i"), Quintuple("p", "", "", "stop", "x")])
    classes = {"a": PieceClass(template, {"i": Exit({"p": 1}, next_class="b"), "x": Exit({"p": 0})}),
               "b": PieceClass(template, {"i": Exit({"p": 2}), "x": Exit({"p": 0})})}
    sys_ = StationarySystem(classes, "a", DiscountedAccumulation(F(1, 2)), ["p"])
    assert instantiate(sys_, 10**9) == instantiate(sys_, 1)
    assert truncated_game(sys_, 10**9, {}).utilities["ii"] == {"p": 2}


def test_truncated_game_absolute_boundary():
    ann = ann_chain()
    g = truncated_game(ann, 3, {"c": {"Ann": 0}})
    boundary = "i" * 4
    assert g.utilities[boundary] == {"Ann": F(0)}
    assert g.utilities["x"] == {"Ann": F(1)}
    assert g.utilities["iix"] == {"Ann": F(1)}


def test_induced_strategy_covers_all_situations():
    for depth in (1, 2, 3):
        form = instantiate(WOLF, depth)
        induced = induced_strategy(WOLF, CALM, depth)
        assert set(induced) == form.situations
        assert induced["62+63"] == "r~"


# -- continuation values and value_at -------------------------------------------------


def test_continuation_values_cry_wolf():
    assert W_CALM == {"day": {"Wolf": F(5, 9), "Kid": F(2, 9), "Town": F(4, 9)}}


def test_continuation_values_residual():
    # w = r(sigma-exit) + beta * w  exactly
    r7 = WOLF.classes["day"].exits["7"].reward
    for k, v in W_CALM["day"].items():
        assert v == r7[k] + BETA * v


def test_continuation_values_terminal_exit_is_the_profile():
    bob = bob_chain()
    assert continuation_values(bob, always_out(bob)) == {"c": {"Bob": F(-1)}}
    # wolf attacking leaves the terminal profile of exit 5 directly
    attack = {"day": {"": "a", "1": "c", "2+3": "r~"}}
    assert continuation_values(WOLF, attack)["day"] == {"Wolf": F(5, 9), "Kid": 0, "Town": 0}


def test_continuation_values_declared_cycle():
    ann = ann_chain()
    assert continuation_values(ann, always_in(ann)) == {"c": {"Ann": F(0)}}
    eda = eda_chain()
    assert continuation_values(eda, always_in(eda)) == {
        "odd": {"Eda": F(0)}, "even": {"Eda": F(0)},
    }


def test_value_at_examples():
    assert value_at(WOLF, CALM, "") == W_CALM["day"]
    assert value_at(WOLF, CALM, "6") == {"Wolf": F(5, 9), "Kid": F(19, 45), "Town": F(11, 45)}
    ann = ann_chain()
    for label in ("", "i", "iii"):
        assert value_at(ann, always_in(ann), label) == {"Ann": F(0)}
    with pytest.raises(ValueError, match="malformed"):
        value_at(WOLF, CALM, "65")  # 5 is a terminal exit, not a subroot step


def test_value_persists_along_the_on_path_chain():
    assert value_at(WOLF, CALM, "") == value_at(WOLF, CALM, "7") == value_at(WOLF, CALM, "77")


def test_parse_subroot_label():
    exits, cid = parse_subroot_label(WOLF, "67")
    assert cid == "day" and len(exits) == 2


# -- conceivable bounds -----------------------------------------------------------------


def test_conceivable_bounds_chains():
    assert conceivable_bounds(ann_chain(), "c", "Ann") == (F(0), F(1))
    assert conceivable_bounds(bob_chain(), "c", "Bob") == (F(-1), F(0))


def test_conceivable_bounds_cry_wolf_kid():
    lo, hi = conceivable_bounds(WOLF, "day", "Kid")
    assert hi == F(5, 9)   # keep fooling the town until a rescued attack
    assert lo == F(0)      # an ignored attack ends the game at zero
    assert hi >= F(19, 45) and lo <= F(2, 9)
    with pytest.raises(ValueError, match="unknown class"):
        conceivable_bounds(WOLF, "night", "Kid")
    with pytest.raises(ValueError, match="unknown stakeholder"):
        conceivable_bounds(WOLF, "day", "Shepherd")


def test_conceivable_bounds_do_not_keep_the_system_alive():
    system = cry_wolf()
    assert conceivable_bounds(system, "day", "Kid") == conceivable_bounds(WOLF, "day", "Kid")
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


# -- quotient property checkers -----------------------------------------------------------


def test_stationary_authentic_and_persistent():
    assert stationary_authentic(WOLF, CALM, W_CALM).holds
    assert stationary_persistent(WOLF, CALM, W_CALM).holds
    assert stationary_admissible(WOLF, W_CALM).holds
    assert stationary_piecewise_nash(WOLF, CALM, W_CALM).holds
    bumped = {"day": {**W_CALM["day"], "Kid": F(1, 3)}}
    assert not stationary_authentic(WOLF, CALM, bumped).holds
    assert not stationary_persistent(WOLF, CALM, bumped).holds


def test_quotient_piece_game_pricing():
    qg = quotient_piece_game(WOLF, "day", W_CALM)
    assert qg.utilities["5"] == {"Wolf": F(5, 9), "Kid": F(0), "Town": F(0)}
    assert qg.utilities["7"] == W_CALM["day"]  # r7 + beta*w is the fixed point
    assert qg.utilities["6"] == {"Wolf": F(5, 9), "Kid": F(19, 45), "Town": F(11, 45)}


def test_affine_invariance_of_concrete_piece_games():
    # Every concrete piece game of a depth-1/2 truncation is the quotient
    # piece game rescaled by beta^|t| and shifted by the accrued rewards.
    qg = quotient_piece_game(WOLF, "day", W_CALM)
    for depth in (1, 2):
        g = truncated_game(WOLF, depth, W_CALM)
        v = authentic_value(g, induced_strategy(WOLF, CALM, depth))
        for t in sorted(subroots(g.form)):
            concrete = piece_game(g, v, t)
            accrued = {k: value_at(WOLF, CALM, t)[k] - BETA**len(t) * W_CALM["day"][k]
                       for k in g.stakeholders}
            for local, prof in qg.utilities.items():
                node = t + local
                assert concrete.utilities[node] == {
                    k: accrued[k] + BETA**len(t) * prof[k] for k in prof
                }


# -- certification --------------------------------------------------------------------------


def test_certify_cry_wolf_calm():
    cert = certify_spe(WOLF, CALM)
    assert cert.kind == SPE_CERTIFIED
    assert cert.continuation_values == W_CALM
    assert cert.upper.status == "holds" and cert.lower.status == "holds"


def test_certify_refutes_bob_always_out():
    bob = bob_chain()
    cert = certify_spe(bob, always_out(bob))
    assert cert.kind == REFUTED
    assert cert.witness["deviation_utility"] == F(0)
    assert cert.witness["strategy_utility"] == F(-1)
    assert cert.lower.status == "fails"


def test_certify_names_a_skipped_deviation_scan(monkeypatch):
    # Lower-convergence fails for Bob, so only the stationary deviation scan
    # can refute; under a cap of 1 it must not run, and the reason says so.
    bob = bob_chain()
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", "1")
    cert = certify_spe(bob, always_out(bob))
    assert cert.kind == INCONCLUSIVE and cert.witness is None
    assert "no improving stationary deviation was found" not in cert.reason
    assert "player 'Bob' has 2 stationary choice profiles, more than the cap of 1" in cert.reason
    monkeypatch.delenv("PENTAFORM_PROFILE_CAP")
    assert certify_spe(bob, always_out(bob)).kind == REFUTED


def test_conceivable_bounds_ignore_the_profile_cap(monkeypatch):
    monkeypatch.setenv("PENTAFORM_PROFILE_CAP", "1")
    assert conceivable_bounds(cry_wolf(), "day", "Kid") == reference_discounted_extremes(WOLF)[("day", "Kid")]


def test_certify_refutes_ann_always_in():
    # Playing in forever is worth 0 while out pays 1: a one-piece improvement.
    ann = ann_chain()
    cert = certify_spe(ann, always_in(ann))
    assert cert.kind == REFUTED
    assert cert.witness["player"] == "Ann"


def test_certify_ann_always_out_via_lower_convergence_only():
    # Upper-convergence fails for Ann, but the authentic-value route only
    # needs lower-convergence, and out is indeed optimal everywhere.
    ann = ann_chain()
    cert = certify_spe(ann, always_out(ann))
    assert cert.kind == SPE_CERTIFIED
    assert cert.upper.status == "fails" and cert.lower.status == "holds"


def test_certify_single_action_system_trivially():
    template = validate([Quintuple("p", "", "", "go", "i")])
    sys_ = StationarySystem(
        {"c": PieceClass(template, {"i": Exit({"p": 0}, next_class="c")})},
        "c", AbsoluteTerminal({("c",): {"p": 0}}), ["p"])
    cert = certify_spe(sys_, {"c": {"": "go"}})
    assert cert.kind == SPE_CERTIFIED


def test_certify_inconclusive_for_unknown_convergence_without_refutation():
    # Aperiodic system where the strategy is fine on every declared run but
    # lower-convergence is undecided.
    template = validate([
        Quintuple("p", "", "", "stay_a", "i"),
        Quintuple("p", "", "", "stay_b", "j"),
    ])
    cls = {
        "A": PieceClass(template, {"i": Exit({"p": 0}, next_class="A"),
                                   "j": Exit({"p": 0}, next_class="B")}),
        "B": PieceClass(template, {"i": Exit({"p": 0}, next_class="A"),
                                   "j": Exit({"p": 0}, next_class="B")}),
    }
    sys_ = StationarySystem(cls, "A", AbsoluteTerminal({
        ("A",): {"p": 0}, ("B",): {"p": 0}, ("A", "B"): {"p": 0},
    }), ["p"])
    cert = certify_spe(sys_, {"A": {"": "stay_a"}, "B": {"": "stay_b"}})
    assert cert.kind == INCONCLUSIVE


# -- truncation consistency and synthesis ------------------------------------------------------


def test_truncation_consistency_of_certified_strategy():
    for depth in (1, 2, 3):
        g = truncated_game(WOLF, depth, W_CALM)
        induced = induced_strategy(WOLF, CALM, depth)
        assert spe_check_direct(g, induced).holds


def test_solve_stationary_cry_wolf():
    sol = solve_stationary(WOLF)
    assert sol.values["day"] == {"Wolf": F(5, 9), "Kid": F(2, 9), "Town": F(4, 9)}
    assert sol.strategy["day"]["2+3"] == "r~"
    assert certify_spe(WOLF, sol.strategy).kind == SPE_CERTIFIED


def test_solve_stationary_returns_exact_nash_values_only():
    # Value iteration settles on "stop" (1 - 10^-20) before B's value has
    # climbed to 2, which makes "go" worth exactly 1; the exact polish must
    # not fall back to the approximate values.
    choice = validate([Quintuple("P", "", "", "stop", "x"), Quintuple("P", "", "", "go", "i")])
    loop = validate([Quintuple("P", "", "", "go", "i")])
    sys_ = StationarySystem({
        "A": PieceClass(choice, {"x": Exit({"P": 1 - F(1, 10**20)}), "i": Exit({"P": 0}, next_class="B")}),
        "B": PieceClass(loop, {"i": Exit({"P": 1}, next_class="B")}),
    }, "A", DiscountedAccumulation(F(1, 2)), ["P"])
    sol = solve_stationary(sys_)
    assert sol.strategy == {"A": {"": "go"}, "B": {"": "go"}}
    assert sol.values == {"A": {"P": F(1)}, "B": {"P": F(2)}}
    assert certify_spe(sys_, sol.strategy).kind == SPE_CERTIFIED


def test_solve_stationary_requires_discounting():
    with pytest.raises(ValueError, match="discounted"):
        solve_stationary(ann_chain())


def test_solve_stationary_fails_on_matching_pennies_class():
    template = validate([
        Quintuple("P1", "j1", "", "H", "1"),
        Quintuple("P1", "j1", "", "T", "2"),
        Quintuple("P2", "j2", "1", "H", "1H"),
        Quintuple("P2", "j2", "1", "T", "1T"),
        Quintuple("P2", "j2", "2", "H", "2H"),
        Quintuple("P2", "j2", "2", "T", "2T"),
    ])
    cls = PieceClass(template, {
        "1H": Exit({"P1": 1, "P2": -1}),
        "1T": Exit({"P1": -1, "P2": 1}),
        "2H": Exit({"P1": -1, "P2": 1}),
        "2T": Exit({"P1": 1, "P2": -1}),
    })
    sys_ = StationarySystem({"c": cls}, "c", DiscountedAccumulation(BETA), ["P1", "P2"])
    result = solve_stationary(sys_)
    assert isinstance(result, StationarySolveFailure)
    assert result.kind == "no-pure-equilibrium" and result.class_id == "c"


def test_random_discounted_systems_solve_certify_and_truncate():
    from itertools import product as iproduct

    solved = 0
    for seed in range(60):
        sys_ = random_discounted_system(seed)
        if sys_ is None:
            continue
        # conceivable bounds bracket the value of every stationary strategy
        slots = [(c, j) for c in sorted(sys_.classes)
                 for j in sorted(sys_.classes[c].template.situations)]
        pools = [sorted(sys_.classes[c].template.action_set(j)) for c, j in slots]
        for combo in iproduct(*pools):
            sigma = {c: {} for c in sys_.classes}
            for (c, j), a in zip(slots, combo):
                sigma[c][j] = a
            w = continuation_values(sys_, sigma)
            for c in sys_.classes:
                for k in sys_.stakeholders:
                    lo, hi = conceivable_bounds(sys_, c, k)
                    assert lo <= w[c][k] <= hi
        result = solve_stationary(sys_)
        if isinstance(result, StationarySolveFailure):
            continue
        solved += 1
        assert certify_spe(sys_, result.strategy).kind == SPE_CERTIFIED
        g = truncated_game(sys_, 2, result.values)
        assert spe_check_direct(g, induced_strategy(sys_, result.strategy, 2)).holds
    assert solved >= 30


def test_quotient_subroot_sequence():
    seq = quotient_subroot_sequence(WOLF, CALM)
    assert seq.termination == INFINITE_DETECTED and seq.cycle == ("day",)
    bob = bob_chain()
    seq2 = quotient_subroot_sequence(bob, always_out(bob))
    assert seq2.termination == TERMINATED and seq2.subroots == ("c",)


def test_cycle_helpers():
    assert canonical_cycle(("b", "a")) == ("a", "b")
    graph = {"a": {"b"}, "b": {"a", "b"}}
    assert simple_cycles(graph) == [("a", "b"), ("b",)]
    assert has_aperiodic_runs(eda_chain()) is False
