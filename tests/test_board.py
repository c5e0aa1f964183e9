import pytest

from residue_tilings.board import (
    Board,
    LShapeSpec,
    half_board,
    l_board,
    rectangle,
)


def test_rectangle_cells():
    r = rectangle(2, 3)
    assert len(r) == 6
    assert set(r) == {(i, j) for i in (1, 2) for j in (1, 2, 3)}
    assert rectangle(0, 5) == Board()
    assert rectangle(5, 0) == Board()


def test_board_set_semantics():
    a = Board([(1, 1), (2, 1)])
    b = Board([(2, 1), (1, 1), (1, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert (1, 1) in a
    assert (3, 3) not in a
    assert a <= rectangle(2, 2)
    assert a | Board([(1, 2)]) == Board([(1, 1), (2, 1), (1, 2)])
    assert rectangle(2, 1) - Board([(1, 1)]) == Board([(2, 1)])
    assert rectangle(2, 2) & rectangle(3, 1) == rectangle(2, 1)


def test_board_iteration_is_sorted():
    cells = list(Board([(2, 1), (1, 2), (1, 1)]))
    assert cells == [(1, 1), (1, 2), (2, 1)]


def test_board_rejects_bad_cells():
    with pytest.raises(ValueError):
        Board([(0, 1)])
    with pytest.raises(ValueError):
        Board([(1, -2)])
    with pytest.raises(ValueError):
        Board([(1.0, 2)])


def test_bounds():
    assert rectangle(3, 2).bounds() == (1, 1, 3, 2)
    with pytest.raises(ValueError):
        Board().bounds()


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


def test_l_spec_validation():
    with pytest.raises(ValueError):
        LShapeSpec((1, 2), (1,))
    with pytest.raises(ValueError):
        LShapeSpec((-1,), (2,))


def test_half_board_shape():
    # (m, n) = (5, 3): squares of the 4 x 2 rectangle strictly below the
    # anti-diagonal i + j = 4, plus chosen anti-diagonal squares
    base = half_board(5, 3)
    assert set(base) == {(1, 1), (1, 2), (2, 1)}
    with_diag = half_board(5, 3, {1})
    assert set(with_diag) == {(1, 1), (1, 2), (2, 1), (3, 1)}
    assert half_board(5, 3, {2}) == base | Board([(2, 2)])


def test_half_board_validation():
    with pytest.raises(ValueError):
        half_board(3, 5)  # m must exceed n
    with pytest.raises(ValueError):
        half_board(4, 3)  # m must be odd
    with pytest.raises(ValueError):
        half_board(5, 3, {0})
    with pytest.raises(ValueError):
        half_board(5, 3, {3})

