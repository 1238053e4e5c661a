"""Subroots, subforms, piece forms, and their partition laws."""

from __future__ import annotations

import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from pentaform import (
    BackwardSolution,
    Quintuple,
    admissible,
    authentic,
    authentic_value,
    classify_piece_endnodes,
    classify_piece_run,
    cli,
    lower_convergent,
    nash_check,
    one_piece_unimprovable,
    persistent,
    piece_form,
    piece_game,
    piece_partition,
    piecewise_nash,
    random_game,
    situation_slice,
    solve_backward,
    spe_check_direct,
    subform,
    subroot_sequence,
    subroots,
    upper_convergent,
    validate,
)
from pentaform.fixtures import cry_wolf, entry_game
from pentaform.partition import EXIT_TO_SUBROOT, FINAL_ENDNODE
from pentaform.stationary import instantiate

from conftest import random_strategy

F1 = entry_game().form
F3_1 = instantiate(cry_wolf(), 1)
F3_2 = instantiate(cry_wolf(), 2)


def one_situation_game():
    """Every decision node shares a single situation: only the root is a subroot."""
    return validate([
        Quintuple("Joe", "B", "r", "0", "r0"),
        Quintuple("Joe", "B", "r", "1", "r1"),
        Quintuple("Joe", "B", "r0", "0", "r00"),
        Quintuple("Joe", "B", "r0", "1", "r01"),
        Quintuple("Joe", "B", "r1", "0", "r10"),
        Quintuple("Joe", "B", "r1", "1", "r11"),
    ])


def test_subroot_examples():
    assert subroots(F3_1) == {"", "6", "7", "8"}
    assert subroots(F1) == {"5", "6"}  # perfect information: T = W
    assert subroots(one_situation_game()) == {"r"}


def test_subroots_contain_root(small_corpus):
    for g in small_corpus:
        assert g.form.root in subroots(g.form)


def test_subform_examples():
    sub7 = subform(F3_2, "7")
    pieces = piece_partition(F3_2)
    expected = set()
    for t in subroots(F3_2):
        if F3_2.precedes("7", t):
            expected |= set(pieces[t].quintuples)
    assert set(sub7.quintuples) == expected
    assert subform(F3_2, F3_2.root) == F3_2
    assert len(subform(F1, "6")) == 2
    assert subform(F1, "6").root == "6"
    with pytest.raises(ValueError):
        subform(F3_1, "1")  # not a subroot


def test_piece_form_examples():
    assert len(piece_form(F3_1, "")) == 8
    one = one_situation_game()
    assert piece_form(one, "r") == one
    piece5 = piece_form(F1, "5")
    assert len(piece5) == 2
    assert {q.player for q in piece5} == {"Ent"}
    assert piece5.root == "5"


def test_piece_partition_counts():
    parts = piece_partition(F3_1)
    assert {t: len(p) for t, p in parts.items()} == {"": 8, "6": 8, "7": 8, "8": 8}
    parts1 = piece_partition(F1)
    assert {t: len(p) for t, p in parts1.items()} == {"5": 2, "6": 2}
    one = one_situation_game()
    assert dict(piece_partition(one).items()) == {"r": one}


def test_piece_iteration_order_is_depth_then_label():
    order = list(piece_partition(F3_2))
    depths = [F3_2.depth(t) for t in order]
    assert depths == sorted(depths)


def test_classify_piece_endnodes_cry_wolf():
    report = classify_piece_endnodes(F3_1)
    assert report.exits_to_subroots[""] == {"6", "7", "8"}
    assert report.final_endnodes[""] == {"4", "5"}


def test_classify_piece_endnodes_entry():
    report = classify_piece_endnodes(F1)
    assert report.exits_to_subroots["5"] == {"6"}
    assert report.final_endnodes["5"] == {"7"}
    assert report.final_endnodes["6"] == {"8", "9"}


def test_classify_piece_endnodes_single_situation():
    one = one_situation_game()
    report = classify_piece_endnodes(one)
    assert report.exits_to_subroots["r"] == frozenset()
    assert report.final_endnodes["r"] == one.endnodes


def test_classify_piece_run_exit_and_final():
    exit_run = classify_piece_run(F3_2, "6", ("6", "61", "68"))
    assert exit_run.kind == EXIT_TO_SUBROOT and exit_run.subroot == "68"
    final = classify_piece_run(F3_2, "6", ("6", "62", "64"))
    assert final.kind == FINAL_ENDNODE
    assert final.completed_run == ("", "1", "3", "6", "62", "64")
    with pytest.raises(ValueError):
        classify_piece_run(F3_2, "6", ("6", "61"))  # stops at an interior node


def test_partition_laws_on_corpus(small_corpus):
    for g in small_corpus:
        form = g.form
        ts = subroots(form)
        parts = piece_partition(form)
        # Piece quintuples, situations, decision nodes, successors each
        # partition their whole-form counterparts.
        for attr, whole in (("quintuples", set(form.quintuples)),
                            ("situations", form.situations),
                            ("decision_nodes", form.decision_nodes),
                            ("successors", form.successors)):
            seen = set()
            for _, piece in parts.items():
                got = set(getattr(piece, attr))
                assert got and seen.isdisjoint(got)
                seen |= got
            assert seen == set(whole)
        for t, piece in parts.items():
            assert piece.root == t
            assert subform(form, t).root == t
            # pieces never straddle subroots and never re-enter their root
            assert piece.decision_nodes & ts == {t}
            assert t not in piece.successors
            # slice-union reconstruction of the piece
            rebuilt = set()
            for j in piece.situations:
                rebuilt |= set(situation_slice(form.quintuples, j))
            assert rebuilt == set(piece.quintuples)
        # the subform at t is the union of the pieces at subroots after t
        for t in ts:
            union = set()
            for t2 in ts:
                if form.precedes(t, t2):
                    union |= set(parts[t2].quintuples)
            assert union == set(subform(form, t).quintuples)
        # trichotomy for every piece run (finite forms: no infinite case)
        for t, piece in parts.items():
            for run in piece.runs():
                cls = classify_piece_run(form, t, run)
                if run[-1] in ts:
                    assert cls.kind == EXIT_TO_SUBROOT
                    assert form.run_closure(set(run)) is None  # R(N) is no full run
                else:
                    assert cls.kind == FINAL_ENDNODE
                    assert cls.completed_run in form.runs()
                    assert form.run_closure(set(run)) == cls.completed_run
        classify_piece_endnodes(form)  # asserts its own tiling law


# -- the engine and the module-level caches --------------------------------------

CACHED = (subroots, subform, piece_partition)
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _library_run(seeds) -> None:
    """Solve each fresh random game and run every check on it."""
    for seed in seeds:
        g = random_game(seed, max_nodes=40)
        solved = solve_backward(g)
        s = solved.strategy if isinstance(solved, BackwardSolution) else random_strategy(g.form, random.Random(seed))
        v = authentic_value(g, s)
        nash_check(g, s)
        spe_check_direct(g, s)
        one_piece_unimprovable(g, s)
        subroot_sequence(g.form, s, g.form.root)
        classify_piece_endnodes(g.form)
        admissible(g, v)
        persistent(g, s, v)
        authentic(g, s, v)
        piecewise_nash(g, s, v)
        upper_convergent(g)
        lower_convergent(g)


CLI_RUN = (
    *(["inspect", str(FIXTURES / f), "--pieces"]
      for f in ("entry.pentaform", "crywolf_depth1.pentaform", "crywolf_depth2.pentaform")),
    *(["solve", str(FIXTURES / f)] for f in ("entry.game", "ann_trunc.game", "bob_trunc.game")),
    *(["check", str(FIXTURES / g), str(FIXTURES / s), "--property", "one-piece"]
      for g, s in (("entry.game", "entry_spe.strategy"), ("entry.game", "entry_enter.strategy"),
                   ("ann_trunc.game", "ann_trunc_in.strategy"), ("bob_trunc.game", "bob_trunc_out.strategy"))),
)


def test_the_engine_keeps_no_form_alive(capsys):
    """Neither the library's solver and checks nor the CLI adds an entry to
    the caches of `subroots`, `subform` and `piece_partition`; they are
    emptied first, so every form is new to them."""
    for cached in CACHED:
        cached.cache_clear()
    _library_run(range(200))
    assert [cached.cache_info().currsize for cached in CACHED] == [0, 0, 0]
    for argv in CLI_RUN:
        assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    assert [cached.cache_info().currsize for cached in CACHED] == [0, 0, 0]


def test_piece_game_fills_no_cache():
    """`piece_game` builds each piece form, through `piece_form`, from the
    partition kept on the form, so it adds no entry to the three caches."""
    for cached in CACHED:
        cached.cache_clear()
    g = entry_game()
    values = authentic_value(g, solve_backward(g).strategy)
    for t in values:
        piece = piece_game(g, values, t).form
        assert [cached.cache_info().currsize for cached in CACHED] == [0, 0, 0]
        assert piece == piece_partition(g.form)[t]
        piece_partition.cache_clear()


def test_memory_stays_flat_over_many_distinct_forms():
    """The forms a run analyses are freed with it: no module-level structure
    keeps them."""
    _library_run(range(1000, 1010))  # warm up whatever is built once per process
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _library_run(range(1010, 1060))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 50_000, grown
