import re

import pytest
from conftest import l_board_reference, l_chain_specs

from residue_tilings.board import (
    Board,
    LShapeSpec,
    half_board,
    l_board,
    rectangle,
)
from residue_tilings.decomp import admissible_diagonal, periodicity_factor
from residue_tilings.residue import jacobi
from residue_tilings.tiling import normalize_to_vertical, totally_vertical_tiling


def test_rectangle_cells():
    r = rectangle(2, 3)
    assert len(r) == 6
    assert set(r) == {(i, j) for i in (1, 2) for j in (1, 2, 3)}
    assert rectangle(0, 5) == Board()
    assert rectangle(5, 0) == Board()


def test_rectangle_is_the_board_of_its_cells():
    # rectangle builds its cells in order, with no sort; they must match
    # those of the checked constructor, order included
    for w in range(7):
        for h in range(7):
            cells = [(i, j) for j in range(1, h + 1) for i in range(1, w + 1)]
            r, board = rectangle(w, h), Board(cells)
            assert r == board and r.cells == board.cells and hash(r) == hash(board)
            assert len(r) == w * h and all(cell in r for cell in cells)


def test_board_set_semantics():
    a = Board([(1, 1), (2, 1)])
    b = Board([(2, 1), (1, 1), (1, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert (1, 1) in a
    assert (3, 3) not in a
    assert a <= rectangle(2, 2)
    assert rectangle(2, 1) - Board([(1, 1)]) == Board([(2, 1)])


def test_board_iteration_is_sorted():
    cells = list(Board([(2, 1), (1, 2), (1, 1)]))
    assert cells == [(1, 1), (1, 2), (2, 1)]


@pytest.mark.parametrize("call, message", [
    (lambda: rectangle(-1, 2), "width and height must be non-negative"),
    (lambda: rectangle(1.5, 2), "width and height must be ints"),
    (lambda: periodicity_factor(0), "n must be a positive int"),
    (lambda: admissible_diagonal(15, 9), "m and n must be coprime"),
    (lambda: jacobi(-1, 3), "numerator must be a non-negative int"),
    (lambda: normalize_to_vertical(totally_vertical_tiling(2, 2), 4, 2),
     "tiling is not over the given rectangle"),
], ids=["rectangle-negative", "rectangle-float", "periodicity_factor", "admissible_diagonal",
        "jacobi", "normalize_to_vertical"])
def test_validators_name_what_they_refuse(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_board_rejects_bad_cells():
    with pytest.raises(ValueError):
        Board([(0, 1)])
    with pytest.raises(ValueError):
        Board([(1, -2)])
    with pytest.raises(ValueError):
        Board([(1.0, 2)])


@pytest.mark.parametrize("bad, message", [
    # equal to the good cell before it, so a check of the distinct cells alone
    # would miss it
    ((1.0, 1), "cell coordinates must be ints, got (1.0, 1)"),
    ((1, 2, 3), "too many values to unpack (expected 2)"),
    ((0, 1), "cells are 1-indexed, got (0, 1)"),
])
def test_board_names_the_first_bad_cell(bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Board([(1, 1), bad, (2.5, 1)])


def test_board_takes_any_pair_of_ints():
    # a list pair and a bool are taken as they always were
    assert Board([(1, 1), [1, 2]]) == Board([(1, 1), (1, 2)])
    assert Board([(1, 1), [1, 2]]).cells == ((1, 1), (1, 2))
    assert Board([(True, 1)]) == Board([(1, 1)])


def test_built_boards_equal_checked_boards():
    # rectangle, l_board, half_board and the difference build their cells
    # from checked ints and skip the per-cell check
    spec = LShapeSpec((3, 0, 2), (2, 4, 1))
    built = [rectangle(3, 2), l_board(spec), half_board(9, 5, {2}),
             rectangle(3, 2) - l_board(spec)]
    for board in built:
        again = Board(list(board.cells)[::-1])
        assert board == again and board.cells == again.cells
        assert hash(board) == hash(again)
        assert all(type(i) is int and type(j) is int for i, j in board.cells)


def test_bounds():
    assert rectangle(3, 2).bounds() == (1, 1, 3, 2)
    with pytest.raises(ValueError):
        Board().bounds()
    # holey boards, L chains and half boards, whose extreme rows lie inside
    # the sorted cells, against min and max over the cells
    holey = [rectangle(6, 5) - Board([(1, 1), (1, 5), (6, 1), (6, 2), (3, 3)]),
             Board([(2, 7), (2, 3), (5, 9), (4, 2), (9, 4)]),
             rectangle(4, 4) - rectangle(4, 1)]
    chains = [l_board(LShapeSpec(a, b)) for a, b in
              (((2,), (3,)), ((3, 0, 4), (1, 2, 5)), ((1, 5, 2), (4, 1, 3)))]
    for board in holey + chains + [half_board(9, 5), half_board(13, 7, {2, 5})]:
        cells = board.cells
        assert board.bounds() == (min(i for i, _ in cells), min(j for _, j in cells),
                                  max(i for i, _ in cells), max(j for _, j in cells))


def test_l_board_single_chunk():
    # the 2-wide row plus 3-tall column sharing the corner square
    board = l_board(LShapeSpec((2,), (3,)))
    assert set(board) == {(1, 1), (2, 1), (1, 2), (1, 3)}


def test_l_board_chain_offsets():
    board = l_board(LShapeSpec((2, 2), (2, 2)))
    # second chunk is the same L shifted by (1, 1)
    first = {(1, 1), (2, 1), (1, 2)}
    second = {(c[0] + 1, c[1] + 1) for c in first}
    assert set(board) == first | second


def test_l_board_skips_empty_chunks():
    # an empty chunk contributes no cells but still advances the offset
    board = l_board(LShapeSpec((0, 2), (0, 3)))
    single = l_board(LShapeSpec((2,), (3,)))
    assert set(board) == {(i + 1, j + 1) for i, j in single}


def test_l_board_matches_its_reference_on_every_chain_spec():
    # every spec of the l-closed-form suite at arms 3, length 4, cell for
    # cell, in order, against the generator-based builder
    for spec in l_chain_specs(3, 4):
        assert l_board(spec).cells == l_board_reference(spec).cells, spec


def test_l_spec_validation():
    with pytest.raises(ValueError):
        LShapeSpec((1, 2), (1,))
    with pytest.raises(ValueError):
        LShapeSpec((-1,), (2,))


@pytest.mark.parametrize("a, b, text", [
    ([1.0], [1, 2], "must be ints"),
    (["1"], [-1], "must be ints"),
    ([-1], [1, 2], "equal length"),
    ([-1], [], "equal length"),
    ([1, -1], [0, 2], "non-negative"),
])
def test_l_spec_checks_run_in_order(a, b, text):
    # with two faults at once, the first of the three checks names it
    with pytest.raises(ValueError, match=text):
        LShapeSpec(a, b)


def test_l_spec_refuses_arm_lengths_that_are_not_ints():
    # refused, not rounded down to the (2, 3) chain
    for a, b in (((2.7,), (3.2,)), ((2,), (3.0,)), (("2",), (3,))):
        with pytest.raises(ValueError, match="arm lengths must be ints"):
            LShapeSpec(a, b)
    assert LShapeSpec([2], [3]) == LShapeSpec((2,), (3,))


def test_half_board_shape():
    # (m, n) = (5, 3): squares of the 4 x 2 rectangle strictly below the
    # anti-diagonal i + j = 4, plus chosen anti-diagonal squares
    base = half_board(5, 3)
    assert set(base) == {(1, 1), (1, 2), (2, 1)}
    with_diag = half_board(5, 3, {1})
    assert set(with_diag) == {(1, 1), (1, 2), (2, 1), (3, 1)}
    assert half_board(5, 3, {2}) == Board([*base, (2, 2)])


def test_half_board_validation():
    with pytest.raises(ValueError):
        half_board(3, 5)  # m must exceed n
    with pytest.raises(ValueError):
        half_board(4, 3)  # m must be odd
    with pytest.raises(ValueError):
        half_board(5, 3, {0})
    with pytest.raises(ValueError):
        half_board(5, 3, {3})

