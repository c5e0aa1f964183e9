"""Tiling enumeration, the profile DP, and flip moves."""

import math
import random
import re
import time
import tracemalloc
from collections import OrderedDict
from itertools import combinations, product
from unittest import mock

import pytest
from conftest import biadjacency, domino, window_table_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from residue_tilings import lemmas, limits, tiling
from residue_tilings.board import Board, LShapeSpec, half_board, l_board, rectangle
from residue_tilings.decomp import closure, closure_union, restricted_sum
from residue_tilings.gaussian import GaussianInt, i_power
from residue_tilings.kasteleyn import det_exact
from residue_tilings.lemmas import run_parity, run_periodicity
from residue_tilings.limits import SizeLimitError
from residue_tilings.tiling import (
    Domino,
    Tiling,
    count_tilings,
    enumerate_tilings,
    flip_at,
    flip_component,
    flip_moves,
    horizontal_count,
    is_totally_vertical,
    normalize_to_vertical,
    parity_counts,
    signed_sum,
    signed_sum_bruteforce,
    totally_vertical_tiling,
)

# number of tilings of the 2xN strip is the Fibonacci sequence
FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_domino_normalizes_order():
    d = domino((2, 1), (1, 1))
    assert d.a == (1, 1) and d.b == (2, 1)
    assert d.horizontal
    assert not domino((1, 1), (1, 2)).horizontal
    assert d.cells == ((1, 1), (2, 1))


def test_domino_rejects_non_adjacent():
    with pytest.raises(ValueError):
        domino((1, 1), (2, 2))
    with pytest.raises(ValueError):
        domino((1, 1), (1, 1))
    with pytest.raises(ValueError):
        domino((1, 1), (3, 1))


def test_tiling_must_cover_board():
    board = rectangle(2, 1)
    good = Tiling(board, [domino((1, 1), (2, 1))])
    assert horizontal_count(good) == 1
    square = rectangle(2, 2)
    low, high = domino((1, 1), (2, 1)), domino((1, 2), (2, 2))
    faults = [
        (board, [], "dominoes do not cover the whole board"),
        (square, [low], "dominoes do not cover the whole board"),
        (board, [domino((2, 1), (3, 1))], "domino cell (3, 1) not on the board"),
        # a whole cover plus a domino off the board, and plus a repeated one
        (square, [low, high, domino((1, 3), (2, 3))], "domino cell (1, 3) not on the board"),
        (square, [low, high, low], "cell (1, 1) covered twice"),
        # four cells on a board of four: the count alone does not show these
        (square, [low, low], "cell (1, 1) covered twice"),
        (square, [low, domino((1, 1), (1, 2))], "cell (1, 1) covered twice"),
        # the first fault in domino order is named: the repeat before (3, 2)
        (square, [domino((2, 2), (3, 2)), low, low], "cell (1, 1) covered twice"),
    ]
    for on, dominoes, message in faults:
        with pytest.raises(ValueError, match=re.escape(message)):
            Tiling(on, dominoes)
    # dominoes given out of order are stored in the canonical order
    assert Tiling(square, [high, low]).dominoes == (low, high)
    assert Tiling(square, (d for d in [high, low])) == Tiling(square, [low, high])


def test_enumerate_small_boards():
    assert len(enumerate_tilings(Board())) == 1
    assert len(enumerate_tilings(rectangle(1, 1))) == 0
    assert len(enumerate_tilings(rectangle(2, 2))) == 2
    assert len(enumerate_tilings(rectangle(4, 4))) == 36
    for w, count in enumerate(FIB):
        assert len(enumerate_tilings(rectangle(w, 2))) == count


# the three readers of the one tiling search, each as a number of one board:
# restricted to the whole board, restricted_sum is the signed sum
SEARCHES = {
    "enumerate_tilings": lambda board: len(enumerate_tilings(board)),
    "signed_sum_bruteforce": signed_sum_bruteforce,
    "restricted_sum": lambda board: restricted_sum(board, board),
}


def test_enumeration_limit(monkeypatch):
    with pytest.raises(SizeLimitError):
        enumerate_tilings(rectangle(8, 8))
    # RESIDUE_TILINGS_LIMIT overrides the default of 36 cells
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "40")
    assert len(enumerate_tilings(rectangle(2, 20))) == 10946
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "3")
    with pytest.raises(SizeLimitError):
        enumerate_tilings(rectangle(2, 2))


def test_the_cell_limit_follows_the_variable_from_call_to_call(monkeypatch):
    # the limit is read from the environment on every search, so a value
    # set, changed or unset at run time holds from the next call on
    board = rectangle(2, 19)
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "40")
    assert signed_sum_bruteforce(board) == signed_sum(board)
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "37")
    with pytest.raises(SizeLimitError, match="^board has 38 cells, enumeration limit is 37$"):
        signed_sum_bruteforce(board)
    monkeypatch.delenv("RESIDUE_TILINGS_LIMIT")
    with pytest.raises(SizeLimitError, match="^board has 38 cells, enumeration limit is 36$"):
        signed_sum_bruteforce(board)


def test_enumerate_tilings_reads_the_cell_limit_once(monkeypatch):
    # its check before the first Domino hands the limit it read to the search
    reads = []
    cell_limit = limits.cell_limit

    def counted(limit=None):
        if limit is None:
            reads.append(limit)
        return cell_limit(limit)

    monkeypatch.setattr(limits, "cell_limit", counted)
    assert len(enumerate_tilings(rectangle(4, 4))) == 36
    assert len(reads) == 1


@pytest.mark.parametrize("name", SEARCHES)
def test_every_search_keeps_the_enumeration_limit(monkeypatch, name):
    search = SEARCHES[name]
    # refused by default, a board of odd size too, before it is found untilable
    for board in (rectangle(8, 8), rectangle(37, 1)):
        with pytest.raises(SizeLimitError, match=f"{len(board)} cells, enumeration limit is 36"):
            search(board)
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "40")
    assert search(rectangle(37, 1)) == 0
    strip = rectangle(2, 20)
    assert search(strip) == (10946 if name == "enumerate_tilings" else signed_sum(strip))
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "3")
    with pytest.raises(SizeLimitError, match="4 cells, enumeration limit is 3"):
        search(rectangle(2, 2))
    for value in ("abc", "0", "-3", "1.5", "4e1"):
        monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", value)
        message = f"RESIDUE_TILINGS_LIMIT must be a positive int, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            search(rectangle(2, 2))


def test_enumeration_of_a_long_board_keeps_its_own_stack(monkeypatch):
    # 1000 dominoes deep, past Python's default recursion limit of 1000
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "3000")
    (only,) = enumerate_tilings(rectangle(2000, 1))
    assert horizontal_count(only) == 1000
    # the search keeps h on its stack as well: i**1000 = 1
    assert signed_sum_bruteforce(rectangle(2000, 1)) == GaussianInt(1)
    # and a dead end 998 dominoes deep, at (1997, 1), on a board with as
    # many cells of each colour, so that the search does not skip it
    dead_end = Board([(i, 1) for i in range(1, 1998)] + [(2000, 3)])
    assert enumerate_tilings(dead_end) == []
    assert signed_sum_bruteforce(dead_end) == 0
    # a board of odd size has no tiling, but the limit still comes first
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "36")
    with pytest.raises(SizeLimitError):
        enumerate_tilings(rectangle(37, 1))


MUTILATED = rectangle(8, 8) - Board([(1, 1), (8, 8)])


def test_boards_with_unequal_colour_classes_are_not_searched(monkeypatch):
    # the mutilated chessboard lacks two cells of one colour; its search
    # took 4.7 s to find no tiling before the colour count came first
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "64")
    start = time.perf_counter()
    assert enumerate_tilings(MUTILATED) == []
    assert signed_sum_bruteforce(MUTILATED) == 0
    assert restricted_sum(Board([(2, 1)]), MUTILATED) == 0
    assert time.perf_counter() - start < 1


def test_the_cell_limit_comes_before_the_colour_count(monkeypatch):
    monkeypatch.delenv("RESIDUE_TILINGS_LIMIT", raising=False)
    for search in (enumerate_tilings, signed_sum_bruteforce,
                   lambda board: restricted_sum(Board(), board)):
        with pytest.raises(SizeLimitError, match="^board has 62 cells, enumeration limit is 36$"):
            search(MUTILATED)


@pytest.mark.parametrize("value", [
    "abc", "0", "-3", "1.5", "4e1",
    pytest.param(-1, id="limit=-1"), pytest.param(0, id="limit=0"),
])
def test_enumeration_limit_must_be_a_positive_int(monkeypatch, value):
    # a str is set as RESIDUE_TILINGS_LIMIT, an int is passed as run_parity's
    # limit, the one caller that sets it
    if isinstance(value, str):
        monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", value)
        message = f"RESIDUE_TILINGS_LIMIT must be a positive int, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_tilings(rectangle(2, 2))
    else:
        message = f"enumeration limit must be a positive int, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_parity(m_max=3, limit=value)


def enumerate_by_partner_lists(board):
    """The tilings of board as the enumerator once listed them, the
    reference for the order: each cell's partners a list of its right and
    upper neighbours on the board, Dominoes made as they are placed, and
    each tiling built as the search reaches it."""
    if len(board) % 2:
        return []
    order = board.cells
    size = len(order)
    position = {cell: k for k, cell in enumerate(order)}
    partners = [
        [position[p] for p in ((i + 1, j), (i, j + 1)) if p in position]
        for i, j in order
    ] + [[]]
    made = [None] * (2 * size)
    covered = bytearray(size + 1)
    placed = []
    results = []
    idx = slot = 0
    while True:
        while covered[idx]:
            idx += 1
        options = partners[idx]
        while slot < len(options) and covered[options[slot]]:
            slot += 1
        if slot < len(options):
            code, p = 2 * idx + slot, options[slot]
            if made[code] is None:
                made[code] = Domino(order[idx], order[p])
            covered[idx] = covered[p] = 1
            placed.append(code)
            idx, slot = idx + 1, 0
            continue
        if idx == size:
            results.append(Tiling(board, [made[code] for code in placed]))
        if not placed:
            return results
        code = placed.pop()
        idx, slot = code >> 1, code & 1
        covered[idx] = covered[partners[idx][slot]] = 0
        slot += 1


def test_count_matches_enumeration():
    for w in range(0, 7):
        for h in range(0, 5):
            board = rectangle(w, h)
            assert count_tilings(board) == len(enumerate_tilings(board))


def test_signed_sum_known_values():
    # 2x4: one all-vertical tiling (h=0), one all-horizontal (h=4), and
    # three mixed with h=2, so the sum is 1 + 3i^2 + i^4 = -1
    assert signed_sum(rectangle(2, 4)) == -1
    assert signed_sum(rectangle(2, 2)) == 0
    assert signed_sum(rectangle(3, 2)) == -1
    assert signed_sum(rectangle(0, 4)) == 1
    assert signed_sum(rectangle(3, 3)) == 0
    assert signed_sum(rectangle(4, 2)) == -1


def test_signed_sum_matches_bruteforce():
    for w in range(0, 6):
        for h in range(0, 6):
            board = rectangle(w, h)
            assert signed_sum(board) == signed_sum_bruteforce(board)


def test_signed_sum_irregular_board():
    board = rectangle(4, 3) - Board([(1, 3), (4, 1)])
    assert signed_sum(board) == signed_sum_bruteforce(board)


def test_profile_limit():
    with pytest.raises(SizeLimitError):
        signed_sum(rectangle(30, 30))
    # but a long thin board is fine: 2xN tilings all have even h
    assert count_tilings(rectangle(40, 2)) == 165580141


def test_profile_state_cap_refuses_early():
    # count 39 x 24 would otherwise run for about 45 minutes
    for sweep, board in ((count_tilings, rectangle(39, 24)),
                         (signed_sum, rectangle(24, 24))):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="states exceed limit"):
            sweep(board)
        assert time.perf_counter() - start < 10
    # Kasteleyn's product for the tilings of a 39 x 14 rectangle
    product = math.prod(
        4 * math.cos(math.pi * j / 40) ** 2 + 4 * math.cos(math.pi * k / 15) ** 2
        for j in range(1, 21) for k in range(1, 8)
    )
    assert math.isclose(count_tilings(rectangle(39, 14)), product, rel_tol=1e-9)


def test_totally_vertical():
    t = totally_vertical_tiling(3, 4)
    assert is_totally_vertical(t)
    assert horizontal_count(t) == 0
    assert len(t.dominoes) == 6
    with pytest.raises(ValueError):
        totally_vertical_tiling(3, 3)


def test_flip_at():
    t = totally_vertical_tiling(2, 2)
    flipped = flip_at(t, (1, 1))
    assert horizontal_count(flipped) == 2
    assert flip_at(flipped, (1, 1)) == t
    with pytest.raises(ValueError):
        flip_at(t, (1, 2))  # the 2x2 square there leaves the board


def test_flip_changes_h_by_two():
    for t in enumerate_tilings(rectangle(4, 4)):
        for u in flip_moves(t):
            assert abs(horizontal_count(u) - horizontal_count(t)) == 2


def test_normalize_to_vertical_staircase():
    for m, n in [(2, 2), (4, 2), (4, 4), (3, 4)]:
        for t in enumerate_tilings(rectangle(m, n)):
            path = normalize_to_vertical(t, m, n)
            assert path[0] == t
            assert is_totally_vertical(path[-1])
            for a, b in zip(path, path[1:]):
                assert b in flip_moves(a)


def test_normalize_bfs_not_longer():
    vertical = totally_vertical_tiling(4, 4)
    for t in enumerate_tilings(rectangle(4, 4)):
        stair = normalize_to_vertical(t, 4, 4)
        parents = flip_component(t)
        bfs = [vertical]
        while bfs[-1] != t:
            bfs.append(parents[bfs[-1]])
        assert len(bfs) <= len(stair)


def test_flip_component_keeps_the_enumeration_limit():
    # the search would list all 6765 tilings of 19 x 2, a board past the
    # limit of 36 cells, so it is refused before the first flip
    with pytest.raises(SizeLimitError, match="^board has 38 cells, enumeration limit is 36$"):
        flip_component(totally_vertical_tiling(19, 2))


def test_enumeration_refuses_a_large_board_before_it_makes_a_domino(monkeypatch):
    # the decoder makes two dominoes per cell up front, 320 000 here
    monkeypatch.setattr(tiling, "Domino", mock.Mock(side_effect=AssertionError("Domino made")))
    with pytest.raises(SizeLimitError, match="^board has 160000 cells, enumeration limit is 36$"):
        enumerate_tilings(rectangle(400, 400))


def test_flip_moves_find_the_flipped_pair_by_identity(monkeypatch):
    # the moves are found on the tiling's domino codes and decoded from
    # them, so no domino is compared by value while they are built
    tiling = totally_vertical_tiling(4, 4)
    expected = flip_moves(tiling)

    def refuse(self, other):
        raise AssertionError("Domino.__eq__ called")

    monkeypatch.setattr(Domino, "__eq__", refuse)
    moves = flip_moves(tiling)
    monkeypatch.undo()
    assert moves == expected and len(moves) == 6


def reference_flip(tiling, cover, corner):
    """The record flip the code kernel replaced: tiling with the two
    parallel dominoes covering the 2x2 square whose lower-left cell is
    corner rotated, or None when no parallel pair covers it; cover maps
    each cell to tiling's domino on it, so the two are found by identity."""
    x, y = corner
    c00, c10, c01, c11 = (x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)
    if not all(c in cover for c in (c00, c10, c01, c11)):
        return None
    first = cover[c00]
    if first.cells == (c00, c10) and cover[c01].cells == (c01, c11):
        second = cover[c01]
        new = (domino(c00, c01), domino(c10, c11))
    elif first.cells == (c00, c01) and cover[c10].cells == (c10, c11):
        second = cover[c10]
        new = (domino(c00, c10), domino(c01, c11))
    else:
        return None
    remaining = [d for d in tiling.dominoes if d is not first and d is not second]
    return Tiling(tiling.board, remaining + list(new))


def flip_reference_boards():
    """Rectangles of area at most 16, and boards up to about 20 cells on
    which some 2x2 squares lose cells: L-chains and half boards."""
    rectangles = [rectangle(w, h) for w in range(1, 17) for h in range(1, 16 // w + 1)]
    arms = [(1, 2), (2, 2), (3, 2), (2, 4), (4, 3)]
    chains = [l_board(LShapeSpec(a, b)) for a, b in
              [((x,), (y,)) for x, y in arms] + [((x, z), (y, y)) for x, y in arms for z in (1, 3)]
              + [((2, 2, 3), (3, 2, 2)), ((1, 3, 2), (2, 2, 1)), ((4, 4, 3), (4, 3, 3))]]
    halves = [half_board(m, n, diag) for m, n in ((5, 3), (7, 3), (7, 5), (9, 5), (11, 5))
              for k in range(n) for diag in combinations(range(1, n), k)]
    return rectangles + chains + halves


def test_flip_kernel_matches_the_record_flips():
    # flip_moves and flip_at run on domino codes; the record flip above is
    # their reference, move for move and corner by corner, also at corners
    # whose square leaves the board or is not a parallel pair
    squares = 0
    for board in flip_reference_boards():
        i0, j0, i1, j1 = board.bounds()
        corners = [(i, j) for i in range(i0 - 1, i1 + 1) for j in range(j0 - 1, j1 + 1)]
        for t in enumerate_tilings(board):
            cover = {cell: d for d in t.dominoes for cell in d.cells}
            expected = [reference_flip(t, cover, corner) for corner in board.cells]
            assert flip_moves(t) == [move for move in expected if move is not None]
            for corner in corners:
                move = reference_flip(t, cover, corner)
                if move is None:
                    with pytest.raises(ValueError, match="is not covered by a parallel pair"):
                        flip_at(t, corner)
                else:
                    squares += 1
                    assert flip_at(t, corner) == move
    assert squares > 1000


def test_normalize_rejects_odd_height():
    t = next(iter(enumerate_tilings(rectangle(4, 3))))
    with pytest.raises(ValueError):
        normalize_to_vertical(t, 4, 3)


@st.composite
def holey_boards(draw):
    """A rectangle up to 6 x 6 with up to five cells taken out."""
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 6))
    cell = st.tuples(st.integers(1, width), st.integers(1, height))
    holes = draw(st.sets(cell, max_size=5))
    return rectangle(width, height) - Board(holes)


def mirror(board):
    """board reflected left to right, i -> 1 + max_i - i."""
    width = max((i for i, _ in board), default=0)
    return Board((width + 1 - i, j) for i, j in board)


def test_a_mirror_image_reads_the_column_plans_of_its_board():
    # a board that is not a rectangle is swept from its short end, so its
    # mirror image walks the same columns with the same next columns, and
    # neither it nor the board swept again cuts a column into windows.  The
    # board's seven columns have three shapes: two cells before a full
    # column, a full column before another, and the last full column
    board = rectangle(7, 4) - Board([(1, 1), (1, 4)])
    tiling._forget_memos()
    value = signed_sum(board)
    assert value == signed_sum_bruteforce(board) != 0
    assert tiling._plan.cache_info().misses == 3
    assert signed_sum(board) == signed_sum(mirror(board)) == value
    assert tiling._plan.cache_info().misses == 3


def test_rectangles_and_boards_share_one_column_plan():
    # every rectangle w x 8 with w >= 8 is swept at profile height 8 (a
    # narrower one is turned, to its own height), so after the first its
    # signed sums cut no column into windows, and the counts cut one more
    # plan, unsigned.  A board of full 8-row columns but its first reads
    # the rectangles' signed plan for each of its 10 columns before another
    # full one: only its first column and its last, before none, are cut
    tiling._forget_memos()
    for w in range(8, 21):
        signed_sum(rectangle(w, 8))
    assert tiling._plan.cache_info().misses == 1
    for w in range(8, 21):
        count_tilings(rectangle(w, 8))
    assert tiling._plan.cache_info().misses == 2
    hits = tiling._plan.cache_info().hits
    signed_sum(rectangle(12, 8) - Board([(1, 1), (1, 2)]))
    assert tiling._plan.cache_info().misses == 4
    assert tiling._plan.cache_info().hits == hits + 10


def assert_kernel_matches_enumeration(board):
    # the board and its transpose, so both the upright sweep, whose exponent
    # is N/2 - f, and, on the taller box, the turned one, whose exponent is
    # f, are checked; and the mirror image of each, which the sweep takes
    # from the other end unless its first and last columns hold as many cells
    transpose = Board((j, i) for i, j in board)
    for b in (board, mirror(board), transpose, mirror(transpose)):
        hs = [horizontal_count(t) for t in enumerate_tilings(b)]
        assert count_tilings(b) == len(hs)
        odd = sum(h % 2 for h in hs)
        assert parity_counts(b) == (len(hs) - odd, odd)
        expected = GaussianInt(0)
        for h in hs:
            expected = expected + i_power(h)
        assert signed_sum(b) == expected


@settings(max_examples=100, deadline=None)
@given(holey_boards())
def test_profile_kernel_matches_enumeration(board):
    assert_kernel_matches_enumeration(board)


@st.composite
def tall_boards(draw):
    """A bar one or two cells wide and 9 to 11 tall on a foot one or two
    cells high and as wide as the bar is tall, the bar anywhere along the
    foot, with up to five cells taken out: a bounding box no taller than
    wide, so the sweep's columns along the bar hold 9 to 11 cells, several
    windows each, in at most 36 cells."""
    height = draw(st.integers(9, 11))
    bar = draw(st.integers(1, 2))
    foot = draw(st.integers(1, 2 if bar * height < 22 else 1))
    left = draw(st.integers(1, height + 1 - bar))
    cells = {(i, j) for i in range(left, left + bar) for j in range(1, height + 1)}
    cells |= {(i, j) for i in range(1, height + 1) for j in range(1, foot + 1)}
    holes = draw(st.sets(st.sampled_from(sorted(cells)), max_size=5))
    return Board(cells - holes)


@settings(max_examples=100, deadline=None)
@given(tall_boards())
def test_tall_windows_match_enumeration(board):
    # windows cut by holes, cells with and without a right neighbour or a
    # cell above, signed and unsigned, mirrored and transposed
    assert len(board) <= limits.DEFAULT_CELL_LIMIT
    assert_kernel_matches_enumeration(board)


@settings(max_examples=100, deadline=None)
@given(st.one_of(holey_boards(), tall_boards()))
def test_the_tilings_of_a_board_share_one_parity(board):
    # a vertical domino covers a cell of an even row and one of an odd row,
    # a horizontal one two cells of one row, so on N cells, f of them on
    # even rows counted from the lowest, every tiling has h = N/2 - f +
    # 2 * h_even: i**h = i**(N/2 - f) * (-1)**h_even, the DP's sign rule,
    # checked here on the enumerated tilings alone.  The same count by
    # columns gives h = #(cells with even i) mod 2, and the unsigned sweep
    # puts its count on that parity
    transpose = Board((j, i) for i, j in board)
    for b in (board, transpose):
        low = min((j for _, j in b), default=0)
        e = len(b) // 2 - sum((j - low) % 2 == 0 for _, j in b)
        for t in enumerate_tilings(b):
            h = horizontal_count(t)
            h_even = sum(d.horizontal and (d.a[1] - low) % 2 == 0 for d in t.dominoes)
            assert i_power(h) == i_power(e) * (-1) ** h_even
            assert h % 2 == e % 2
    counts = parity_counts(board)
    assert min(counts) == 0
    assert counts[sum(i % 2 == 0 for i, _ in board) % 2] == max(counts)
    assert count_tilings(board) == sum(counts)


@st.composite
def column_pair_boards(draw, staircase=False):
    """Columns in pairs on rows 1 to height, height 8 to 12, in 100 to 600
    cells.  One column of a pair is a run of more than height/2 rows, the
    other the same run grown by an even number of rows at either end, in
    either order, so each pair has a tiling (verticals, and one horizontal
    on the run's first row when its length is odd), and h takes either
    parity.  Any two such runs share a row, so the board is connected and
    column-convex, which leaves it without holes.  A staircase's pairs are
    two equal runs from row 1, shrinking to the right."""
    height = draw(st.integers(8, 12))
    shortest = height // 2 + 1
    pairs = draw(st.integers(-(-100 // (2 * shortest)), 600 // (2 * height)))
    lengths = draw(st.lists(st.integers(shortest, height), min_size=pairs, max_size=pairs))
    if staircase:
        lengths.sort(reverse=True)
    cells = []
    for k, length in enumerate(lengths):
        low = 1 if staircase else draw(st.integers(1, height + 1 - length))
        top = low + length
        down = 0 if staircase else draw(st.integers(0, (low - 1) // 2))
        up = 0 if staircase else draw(st.integers(0, (height + 1 - top) // 2))
        runs = [range(low, top), range(low - 2 * down, top + 2 * up)]
        if not staircase and draw(st.booleans()):
            runs.reverse()
        for i, rows in enumerate(runs, start=2 * k + 1):
            cells.extend((i, j) for j in rows)
    return Board(cells)


@st.composite
def l_boards(draw):
    """A bar c columns wide and d rows tall on the left end of a foot a
    columns wide and b rows tall, a up to 12, each part of even area, in
    about 100 to 600 cells: unless the bar is short, a box taller than
    wide, swept turned."""
    a, b = draw(st.integers(4, 12)), draw(st.integers(1, 6))
    b += a * b % 2
    c = draw(st.integers(1, a))
    d = draw(st.integers(max(1, -(-(100 - a * b) // c)), (600 - a * b) // c - 1))
    d += c * d % 2
    foot = {(i, j) for i in range(1, a + 1) for j in range(1, b + 1)}
    bar = {(i, j) for i in range(1, c + 1) for j in range(b + 1, b + d + 1)}
    return Board(foot | bar)


@settings(max_examples=30, deadline=None)
@given(st.one_of(column_pair_boards(), column_pair_boards(staircase=True), l_boards()))
def test_profile_sums_square_to_the_determinant(board):
    # flips join all tilings of a board without holes, and a flip changes
    # both i**h and the sign of the matching of even cells to odd ones, so
    # S = c * det(B) with c**2 = (-1)**h, h being the number of cells with
    # even i, mod 2.  Boards with holes are left out, as flips need not
    # join their tilings.  Turned, the sweep's exponent is f, not N/2 - f,
    # which this checks far past enumeration's 36 cells
    det = det_exact(biadjacency(board))
    transpose = Board((j, i) for i, j in board)
    for b in (board, mirror(board), transpose, mirror(transpose)):
        h = sum(i % 2 == 0 for i, _ in b) % 2
        s = signed_sum(b)
        assert s * s == (-1) ** h * det * det


@settings(max_examples=100, deadline=None)
@given(holey_boards(), st.data())
def test_enumerated_tilings_rebuild_and_close(board, data):
    tilings = enumerate_tilings(board)
    for t in tilings:
        again = Tiling(board, t.dominoes)
        assert again == t and again.dominoes == t.dominoes
    assert len(set(tilings)) == len(tilings) == count_tilings(board)
    # one enumeration makes each domino once: equal dominoes are one object
    shared = {d: d for t in tilings for d in t.dominoes}
    assert all(shared[d] is d for t in tilings for d in t.dominoes)
    cells = board.cells
    subset = Board(data.draw(st.sets(st.sampled_from(cells))) if cells else ())
    # oracles from the public closure, one Board per tiling
    union = set()
    for t in tilings:
        union.update(closure(t, subset))
    assert closure_union(board, subset) == Board(union)
    expected = GaussianInt(0)
    for t in tilings:
        if closure(t, subset) == board:
            expected = expected + i_power(horizontal_count(t))
    assert restricted_sum(subset, board) == expected


# fewer examples than the other board tests: each enumerates a board and
# its transpose twice, 26 912 tilings for a full 6 x 6
@settings(max_examples=50, deadline=None)
@given(holey_boards(), st.data())
def test_the_search_matches_the_partner_list_enumerator(board, data):
    # the one search behind enumerate_tilings, signed_sum_bruteforce and
    # restricted_sum against the enumerator it replaced, on the board and
    # its transpose: the same tilings in the same order, their signed sum,
    # and the closure-based definition of the restricted sum
    transpose = Board((j, i) for i, j in board)
    for b in (board, transpose):
        expected = enumerate_by_partner_lists(b)
        # as cell pairs, which compare in C, and not Domino by Domino
        assert ([[d.cells for d in t.dominoes] for t in enumerate_tilings(b)]
                == [[d.cells for d in t.dominoes] for t in expected])
        signed = closing = GaussianInt(0)
        subset = Board(data.draw(st.sets(st.sampled_from(b.cells))) if b.cells else ())
        for t in expected:
            signed += i_power(horizontal_count(t))
            if closure(t, subset) == b:
                closing += i_power(horizontal_count(t))
        assert signed_sum_bruteforce(b) == signed
        assert restricted_sum(subset, b) == closing


@st.composite
def mirror_boards(draw):
    """A rectangle up to 7 x 5, at least as wide as tall, with holes
    mirrored about its middle column: a board that is its own mirror
    image, which the profile sweep folds only when it has no holes."""
    width = draw(st.integers(1, 7))
    height = draw(st.integers(1, min(width, 5)))
    cell = st.tuples(st.integers(1, width), st.integers(1, height))
    holes = draw(st.sets(cell, max_size=4))
    holes |= {(width + 1 - i, j) for i, j in holes}
    return rectangle(width, height) - Board(holes)


@settings(max_examples=100, deadline=None)
@given(mirror_boards())
def test_folded_sweep_matches_enumeration(board):
    # the transpose of a wide board is folded too, turned, and its pair
    # mapped back
    assert_kernel_matches_enumeration(board)


def h_distribution(width, height):
    """{h: number of tilings with h horizontals} of the width x height
    rectangle, from a plain profile sweep over every column."""
    states = {0: {0: 1}}
    for i in range(width):
        for j in range(height):
            bit, new = 1 << j, {}
            for mask, hs in states.items():
                if mask & bit:
                    moves = [(mask ^ bit, 0)]
                else:
                    moves = [(mask | bit, 1)] if i + 1 < width else []
                    if j + 1 < height and not mask & bit << 1:
                        moves.append((mask | bit << 1, 0))
                for key, dh in moves:
                    target = new.setdefault(key, {})
                    for h, c in hs.items():
                        target[h + dh] = target.get(h + dh, 0) + c
            states = new
    return states.get(0, {})


def test_folded_sweep_matches_unfolded_reference():
    for width in range(11):
        for height in range(9):
            board = rectangle(width, height)
            dist = h_distribution(width, height)
            assert count_tilings(board) == sum(dist.values())
            odd = sum(c for h, c in dist.items() if h % 2)
            assert parity_counts(board) == (sum(dist.values()) - odd, odd)
            signed = sum((i_power(h) * c for h, c in dist.items()), GaussianInt(0))
            assert signed_sum(board) == signed, (width, height)


@st.composite
def rectangle_runs(draw):
    """Up to eight (width, height, signed) triples on a few profile heights,
    taller than wide as often as not, in drawn order or by falling width."""
    size = st.integers(1, 12)
    runs = draw(st.lists(st.tuples(size, st.integers(1, 6), st.booleans()),
                         min_size=1, max_size=8))
    runs = [(w, h, signed) if draw(st.booleans()) else (h, w, signed) for w, h, signed in runs]
    if draw(st.booleans()):
        runs.sort(key=lambda run: -run[0])
    return runs


def empty_memo():
    """Empty the DP's memo of kept columns and reset its count of states."""
    tiling._SNAPSHOTS.clear()
    tiling._held = 0


def fresh_memo(monkeypatch, memo=None):
    """Give the DP, for this test, a memo of kept columns, empty unless
    memo is given, with a count of no held states."""
    monkeypatch.setattr(tiling, "_SNAPSHOTS", OrderedDict() if memo is None else memo)
    monkeypatch.setattr(tiling, "_held", 0)


def count_calls(monkeypatch, name):
    """The list that gains one entry per call of tiling.<name> from now on."""
    calls, original = [], getattr(tiling, name)
    monkeypatch.setattr(tiling, name, lambda *args: calls.append(1) or original(*args))
    return calls


def upside_down(p, height):
    """The state p of a profile height high turned upside down: its height
    bits reversed."""
    return int(f"{p:0{height}b}"[::-1], 2)


def kept_columns(key):
    """{c: the states after c columns} kept for key = (height, signed): each
    kept orbit {p, upside_down p}, held by its smaller state with the orbit's
    total weight, expanded back to both of its states."""
    height = key[0]
    kept = {}
    for (h, signed, c), orbits in tiling._SNAPSHOTS.items():
        if (h, signed) != key:
            continue
        states = kept[c] = {}
        for q, w in orbits.items():
            r = upside_down(q, height)
            assert q <= r, (key, c, q)
            if q == r:
                states[q] = w
            else:
                assert w % 2 == 0, (key, c, q)
                states[q] = states[r] = w // 2
    return kept


def kept_sets():
    kept = {}
    for height, signed, c in tiling._SNAPSHOTS:
        kept.setdefault((height, signed), []).append(c)
    return {key: sorted(columns) for key, columns in kept.items()}


def held_states():
    """The states held by the memo, which its count must equal."""
    held = sum(len(states) for states in tiling._SNAPSHOTS.values())
    assert tiling._held == held
    return held


def profile_outcome(w, h, signed):
    """The DP's pair for the w x h rectangle, or the text it is refused with."""
    try:
        return tiling._profile_sum(rectangle(w, h), signed)
    except SizeLimitError as error:
        return str(error)


@settings(max_examples=200, deadline=None)
@given(rectangle_runs(), st.sampled_from((40, 150, limits.MAX_STATES)))
def test_snapshots_give_the_sums_of_an_empty_cache(runs, limit):
    # under a low limit the kept columns are dropped by random traffic, and
    # some rectangles are refused: each outcome must still be the cold one
    with mock.patch.object(limits, "MAX_STATES", limit):
        empty_memo()
        warm = []
        for run in runs:
            warm.append(profile_outcome(*run))
            assert held_states() <= limit
        cold = []
        for run in runs:
            empty_memo()
            cold.append(profile_outcome(*run))
    assert warm == cold


def cell_sweep_columns(height, signed, columns):
    """{c: the states after c whole columns} of a rectangle of profile
    height height, made one cell at a time with no window and no table, a
    horizontal domino on an even row weighed -1 when signed: the reference
    for the DP's kept columns."""
    states, out = {0: 1}, {0: {0: 1}}
    for c in range(1, columns + 1):
        for y in range(height):
            bit, up, new = 1 << y, 2 << y if y + 1 < height else 0, {}
            for mask, w in states.items():
                if mask & bit:
                    moves = [(mask ^ bit, w)]
                else:
                    moves = [(mask | bit, -w if signed and y % 2 == 0 else w)]
                    if up and not mask & up:
                        moves.append((mask | up, w))
                for key, v in moves:
                    new[key] = new.get(key, 0) + v
            states = {key: w for key, w in new.items() if w}
        out[c] = states
    return out


def test_the_states_of_whole_columns_are_their_own_mirror_image():
    # turning a rectangle upside down keeps h, and so, by the sign rule, each
    # state's weight: after c whole columns a state p and its mirror image
    # weigh the same, so the DP keeps one state per orbit {p, upside_down p}
    for height in range(1, 13):
        for signed in (False, True):
            for c, states in cell_sweep_columns(height, signed, 6).items():
                for p, w in states.items():
                    assert states.get(upside_down(p, height)) == w, (height, signed, c, p)


def test_kept_columns_equal_the_cell_by_cell_sweep(monkeypatch):
    # every kept column, cold and after resuming from kept columns, holds the
    # same states with the same weights as the sweep one cell at a time, and
    # no state whose weight cancelled to 0; a turned rectangle keeps its
    # columns under the same key as an upright one
    fresh_memo(monkeypatch)
    for height in range(1, 11):
        for signed in (False, True):
            key = (height, signed)
            reference = cell_sweep_columns(height, signed, 6)
            for turned in (False, True):
                widths = range(height + turned, 13)
                for cold in (True, False):
                    checked = set()
                    for w in widths:
                        if cold:
                            empty_memo()
                        board = rectangle(height, w) if turned else rectangle(w, height)
                        tiling._profile_sum(board, signed)
                        for c, states in kept_columns(key).items():
                            assert states == reference[c], (key, w, c)
                            assert all(states.values())
                            checked.add(c)
                    assert max(checked) == 6
                    empty_memo()


def test_snapshots_hold_at_most_max_states(monkeypatch):
    calls = [(count_tilings, rectangle(20, 4)), (parity_counts, rectangle(16, 5)),
             (count_tilings, rectangle(40, 6)), (signed_sum, rectangle(9, 30))]
    fresh_memo(monkeypatch)
    expected = []
    for sweep, board in calls:
        empty_memo()
        expected.append(sweep(board))
    empty_memo()
    monkeypatch.setattr(limits, "MAX_STATES", 80)
    kept = []
    for (sweep, board), value in zip(calls, expected):
        assert sweep(board) == value
        assert held_states() <= 80
        kept.append(kept_sets())
    # the 49 orbits of height 4 fit; the next 47, of height 5, push out the
    # oldest columns of height 4 but its last 6; height 6 needs 274, so it
    # keeps only its own last 5 columns, and the transposed 9 x 30 its last 3
    assert kept == [{(4, False): list(range(1, 11))},
                    {(4, False): [5, 6, 7, 8, 9, 10], (5, False): list(range(1, 9))},
                    {(6, False): [16, 17, 18, 19, 20]}, {(9, True): [13, 14, 15]}]


def cold_count(width):
    """The count of the width x 6 rectangle, swept from an empty memo."""
    empty_memo()
    return count_tilings(rectangle(width, 6))


def test_columns_past_the_budget_are_swept_about_once(monkeypatch):
    # columns 1..30 of height 6 hold 414 orbits, far more than the 150
    # allowed; widths 2..60 in rising order must still resume from the
    # columns just swept instead of sweeping again from a frozen prefix
    widths = range(2, 61)
    fresh_memo(monkeypatch)
    cold = [cold_count(w) for w in widths]
    monkeypatch.setattr(limits, "MAX_STATES", 150)
    calls = count_calls(monkeypatch, "_window_step")
    # each window step covers up to WINDOW_ROWS of the 6 cells of a column:
    # two sweeps of the 30 columns are 2 * 30 * 2 steps
    bound = 2 * 30 * math.ceil(6 / tiling.WINDOW_ROWS)
    empty_memo()
    assert [count_tilings(rectangle(w, 6)) for w in widths] == cold
    assert 0 < len(calls) <= bound
    # falling, the memo holds the last 10 columns of 14 orbits, and a read
    # below them sweeps again from column 0: 30 + 21 + 12 columns, under
    # twice the bound, where a sweep from column 0 for each width
    # would take about 15 times it
    calls.clear()
    empty_memo()
    assert [count_tilings(rectangle(w, 6)) for w in widths[::-1]] == cold[::-1]
    assert 0 < len(calls) <= 2 * bound


class CountingDict(OrderedDict):
    """An OrderedDict that counts the passes over its keys or entries."""

    passes = 0

    def _pass(self, name):
        self.passes += 1
        return getattr(super(), name)()

    def __iter__(self):
        return self._pass("__iter__")

    def keys(self):
        return self._pass("keys")

    def values(self):
        return self._pass("values")

    def items(self):
        return self._pass("items")


def strip_sum(width):
    # the 2 x W strip: S(W) = S(W - 1) - S(W - 2), of period 6
    return [1, 1, 0, -1, -1, 0][width % 6]


def test_kept_columns_are_counted_as_they_are_stored(monkeypatch):
    # the held states used to be summed over every kept column twice per
    # column stored, so a strip 2 high took time quadratic in its width:
    # the memo counts them as it stores them, and passes over no column
    memo = CountingDict()
    fresh_memo(monkeypatch, memo)
    assert signed_sum(rectangle(2000, 2)) == strip_sum(2000)
    assert memo.passes == 0 and len(memo) == 1000
    assert held_states() == tiling._held


def test_a_read_of_kept_columns_passes_over_none_of_them(monkeypatch):
    # a read served by kept columns finds them in the memo by their number
    # and passes over none, so its cost does not grow with the number kept
    fresh_memo(monkeypatch)
    assert signed_sum(rectangle(2000, 2)) == strip_sum(2000)
    memo = CountingDict(tiling._SNAPSHOTS)
    monkeypatch.setattr(tiling, "_SNAPSHOTS", memo)
    calls = count_calls(monkeypatch, "_window_step")
    for w in (2, 3, 1000, 1001, 1999, 2000):
        assert signed_sum(rectangle(w, 2)) == strip_sum(w)
    assert memo.passes == 0 and calls == []


def test_a_short_read_keeps_the_columns_of_a_long_one(monkeypatch):
    # past the budget the 2 x 2 between two reads of 2000 x 2 sweeps its one
    # column from column 0 and drops only the oldest kept column, so the
    # second 2000 x 2 reads column 1000 and sweeps nothing: 1000 + 1 column
    # steps, where a store that restarted its run for the 2 x 2 took 2000
    fresh_memo(monkeypatch)
    monkeypatch.setattr(limits, "MAX_STATES", 150)
    steps = count_calls(monkeypatch, "_orbit_step")
    for w in (2000, 2, 2000):
        assert signed_sum(rectangle(w, 2)) == strip_sum(w)
        assert held_states() <= 150
    assert len(steps) == 1001


def test_a_shuffled_order_resumes_from_the_nearest_kept_column(monkeypatch):
    # the counts of the 6-high rectangles of widths 2..60 in a seeded shuffle,
    # 150 orbits kept of the 414 of columns 1..30: a read sweeps on from the
    # highest kept column below it, 285 column steps, where a store that
    # restarted its run from column 0 below its first column takes 412, and
    # restarting from column 0 on each read whose column is not kept 1239
    widths = list(range(2, 61))
    random.Random(0).shuffle(widths)
    fresh_memo(monkeypatch)
    cold = [cold_count(w) for w in widths]
    monkeypatch.setattr(limits, "MAX_STATES", 150)
    steps = count_calls(monkeypatch, "_orbit_step")
    empty_memo()
    assert [count_tilings(rectangle(w, 6)) for w in widths] == cold
    assert 0 < len(steps) < 350


def reference_memo(reads, sizes, limit):
    """The memo's keys (height, signed, c), oldest first, after each read
    (key, width), by its rule written out plainly: a read starts from the
    highest column of its key kept at or below it, or from column 0, and
    keeps each column it sweeps; while the held states pass limit, the
    oldest kept column goes.  sizes[key][c] is the number of states after
    c columns."""
    memo, out = [], []
    for key, width in reads:
        for column in (width // 2, (width + 1) // 2):
            start = max((c for k, c in memo if k == key and c <= column), default=0)
            for c in range(start + 1, column + 1):
                memo.append((key, c))
                while sum(sizes[k][col] for k, col in memo) > limit:
                    memo.pop(0)
        out.append([(*k, c) for k, c in memo])
    return out


def test_past_the_budget_the_memo_drops_its_oldest_column(monkeypatch):
    # a seeded shuffle of rectangles on four keys, under a budget that drops
    # columns on most reads, where many reads sweep from below the columns
    # kept, then falling widths, whose two middle columns may lie on both
    # sides of the oldest kept column: the memo keeps the columns the plain
    # rule keeps, in the same order, read by read
    keys = [(4, False), (4, True), (6, False), (6, True)]
    reads = [(key, w) for key in keys for w in range(key[0], 41)]
    random.Random(0).shuffle(reads)
    reads += [((6, True), w) for w in range(40, 5, -1)]
    sizes = {key: {c: len({min(p, upside_down(p, key[0])) for p in states})
                   for c, states in cell_sweep_columns(*key, 20).items()}
             for key in keys}
    fresh_memo(monkeypatch)
    monkeypatch.setattr(limits, "MAX_STATES", 150)
    kept = []
    for (height, signed), w in reads:
        tiling._profile_sum(rectangle(w, height), signed)
        assert held_states() <= 150
        kept.append(list(tiling._SNAPSHOTS))
    assert kept == reference_memo(reads, sizes, 150)


def test_a_read_of_kept_columns_looks_up_no_window_table(monkeypatch):
    # 20 x 8 keeps columns 1..10; read again, and as 19 x 8, whose middle
    # columns 9 and 10 are kept, it steps no window and looks up no table;
    # the plans are emptied too, since a kept plan looks up no table either
    fresh_memo(monkeypatch)
    cold = signed_sum(rectangle(19, 8))
    tiling._forget_memos()
    calls = []
    for name in ("_window_table", "_window_step"):
        original = getattr(tiling, name)
        monkeypatch.setattr(tiling, name,
                            lambda *args, f=original, name=name: calls.append(name) or f(*args))
    value = signed_sum(rectangle(20, 8))
    assert "_window_table" in calls and "_window_step" in calls
    calls.clear()
    assert signed_sum(rectangle(20, 8)) == value
    assert signed_sum(rectangle(19, 8)) == cold
    assert calls == []


def test_a_turned_rectangle_resumes_from_its_upright_twin(monkeypatch):
    # an 8 x 20 rectangle is swept turned, as the 20 x 8 one, under the same
    # key, and a count under the key of the parity counts: read after its
    # twin, each sweeps nothing, and gives the sum of a cold sweep
    fresh_memo(monkeypatch)
    calls = []
    step = tiling._window_step
    monkeypatch.setattr(tiling, "_window_step", lambda *args: calls.append(1) or step(*args))
    for first, then in ((signed_sum, signed_sum), (parity_counts, count_tilings)):
        empty_memo()
        cold = then(rectangle(8, 20))
        empty_memo()
        first(rectangle(20, 8))
        swept = len(calls)
        assert then(rectangle(8, 20)) == cold
        assert len(calls) == swept > 0


def test_a_refused_rectangle_is_refused_again_from_the_snapshots(monkeypatch):
    # at profile height 10 the orbits number 110 after column 2 and 135
    # after column 3; column 4 steps them to 222 live states at its window
    # over rows 8 and 9, and stepped again from the 241 whole states it
    # makes 245 at its window over rows 0 to 3, so with a limit of 220 both
    # rectangles are refused there, after storing the columns they
    # finished, of which only column 3 fits (110 + 135 > 220); the wider
    # one then resumes from it
    limit = limits.MAX_STATES
    fresh_memo(monkeypatch)
    expected = count_tilings(rectangle(12, 10))
    empty_memo()
    monkeypatch.setattr(limits, "MAX_STATES", 220)
    with pytest.raises(SizeLimitError) as cold:
        count_tilings(rectangle(12, 10))
    empty_memo()
    with pytest.raises(SizeLimitError):
        count_tilings(rectangle(10, 10))
    assert list(kept_columns((10, False))) == [3]
    with pytest.raises(SizeLimitError) as warm:
        count_tilings(rectangle(12, 10))
    assert str(warm.value) == str(cold.value) == "245 profile states exceed limit 220"
    assert list(kept_columns((10, False))) == [3]
    # with a limit of 60 the first column is refused at its last window, and
    # nothing of it is kept: with the limit back, the sum is the cold one
    empty_memo()
    monkeypatch.setattr(limits, "MAX_STATES", 60)
    with pytest.raises(SizeLimitError, match="89 profile states exceed limit 60"):
        count_tilings(rectangle(12, 10))
    monkeypatch.setattr(limits, "MAX_STATES", limit)
    assert count_tilings(rectangle(12, 10)) == expected


def test_the_dp_edge_is_refused_with_its_state_count(monkeypatch):
    # the refusals that README and CI state, at their limit of 65536 live
    # states: the count of 39 x 20 and the signed sums of 24 x 24 and
    # 30 x 30 are refused at the first window of whole states past it,
    # cold or from kept columns; the signed sum of 48 x 21, whose orbits
    # alone pass it at 73855 live states, is still computed
    fresh_memo(monkeypatch)
    monkeypatch.setattr(limits, "MAX_STATES", 65536)
    for sweep, board, text in ((count_tilings, rectangle(39, 20), "75400"),
                               (signed_sum, rectangle(24, 24), "75025"),
                               (signed_sum, rectangle(30, 30), "121393")):
        for _ in range(2):
            with pytest.raises(SizeLimitError) as refused:
                sweep(board)
            assert str(refused.value) == f"{text} profile states exceed limit 65536"
    assert signed_sum(rectangle(48, 21)) == GaussianInt(1, 0)


def test_a_column_is_refused_only_where_its_whole_states_are(monkeypatch):
    # stepping one state per orbit, p and rev p cancel only at a column's
    # end: column 2 of the signed 14 x 13 steps its orbits to 702 live
    # states, where the whole states peak at 559 in the sweep, so under a
    # limit of 559 that column is stepped again from the whole states and
    # the sum is the one under the default limit; under 558 it is refused
    # at the whole states' 559, cold or from kept columns
    fresh_memo(monkeypatch)
    expected = signed_sum(rectangle(14, 13))
    empty_memo()
    monkeypatch.setattr(limits, "MAX_STATES", 559)
    assert signed_sum(rectangle(14, 13)) == expected == GaussianInt(0, 1)
    empty_memo()
    monkeypatch.setattr(limits, "MAX_STATES", 558)
    for _ in range(2):
        with pytest.raises(SizeLimitError, match="^559 profile states exceed limit 558$"):
            signed_sum(rectangle(14, 13))


def test_a_height_refused_in_its_first_column_builds_no_reversal_table(monkeypatch):
    # the first column's whole states are its orbits, so a refusal there is
    # final, and the tables of rev, 2 ** (h/2) entries each, are built only
    # once a column fits: 26 x 26 builds none, 12 x 10 those of height 10,
    # which a read at height 10 then finds
    fresh_memo(monkeypatch)
    tiling._reversals.cache_clear()
    for sweep in (count_tilings, signed_sum):
        with pytest.raises(SizeLimitError):
            sweep(rectangle(26, 26))
    assert tiling._reversals.cache_info().currsize == 0
    count_tilings(rectangle(12, 10))
    assert tiling._reversals.cache_info().currsize == 1
    tiling._reversals(10)
    assert tiling._reversals.cache_info().currsize == 1


def test_a_refused_rectangle_builds_no_cells(monkeypatch):
    # a rectangle is held as its size, so the signed sum of 1000 x 1000 is
    # refused at its first window past the state limit without its 10**6
    # cells, which took 114 MB of a 119 MB traced peak when they were built
    fresh_memo(monkeypatch)
    tiling._forget_memos()
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="^121393 profile states exceed limit 65536$"):
            signed_sum(rectangle(1000, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20


# every window shape: rights of 1 to 4 cells, a cell above or not, signed or not
WINDOW_SHAPES = [(rights, up, signed) for length in range(1, 5)
                 for rights in product((False, True), repeat=length)
                 for up in (False, True) for signed in (False, True)]


@pytest.mark.parametrize("rows", [range(10), range(9, -1, -1)], ids=["rising", "falling"])
def test_a_window_table_equals_the_one_built_at_its_row(rows):
    # a table is stepped out at row 0 or 1 and shifted to any other
    # row; rows read rising and falling, so that either is read first
    tiling._window_table.cache_clear()
    for rights, up, signed in WINDOW_SHAPES:
        for y in rows:
            table = tiling._window_table(rights, up, signed, y)
            assert table == window_table_reference(rights, up, signed, y), (rights, up, signed, y)


def test_periodicity_builds_one_window_table_per_shape(monkeypatch):
    # heights 1..10 are cut into windows from rows 0, 4 and 8, all even, so
    # of the 12 tables run_periodicity(10, 10) reads, the 5 shapes are
    # stepped out at row 0 and the other 7 tables shifted from them; all 12
    # were stepped out before.  The report's _forget_memos is a no-op here:
    # it would call cache_clear on the counting stand-in below, which has none
    fresh_memo(monkeypatch)
    tiling._forget_memos()
    monkeypatch.setattr(lemmas, "_forget_memos", lambda: None)
    read, built = [], []
    table, ways = tiling._window_table, tiling._window_ways
    monkeypatch.setattr(tiling, "_window_table", lambda *key: read.append(key) or table(*key))
    monkeypatch.setattr(tiling, "_window_ways", lambda *key: built.append(key) or ways(*key))
    assert run_periodicity(10, 10)["pass"]
    assert len(set(read)) == 12
    assert len(built) == 5 and {y for *_, y in built} == {0}


def test_parity_counts_known():
    # 3 x 2 board: the all-vertical tiling and two with two horizontals
    assert parity_counts(rectangle(3, 2)) == (3, 0)
    # 2 x 3 board: every tiling has one or three horizontals
    assert parity_counts(rectangle(2, 3)) == (0, 3)
    assert parity_counts(Board()) == (1, 0)
    assert parity_counts(rectangle(3, 3)) == (0, 0)
    # 4 x 4 board: the height is even, so every one of its 36 tilings has h even
    assert parity_counts(rectangle(4, 4)) == (36, 0)
