"""Closure, decomposition, periodicity, and the half-board path."""

import math
import subprocess
import sys

import pytest

from residue_tilings.board import Board, LShapeSpec, half_board, l_board, rectangle
from residue_tilings.decomp import (
    InvariantError,
    admissible_diagonal,
    closure,
    closure_union,
    half_board_parity,
    half_board_sum,
    half_board_support,
    l_signed_sum_closed,
    periodicity_factor,
    reciprocity_free_sum,
    restricted_sum,
    verify_decomposition,
)
from residue_tilings.gaussian import GaussianInt, ZERO, i_power
from residue_tilings.residue import theorem_rhs
from residue_tilings.tiling import enumerate_tilings, signed_sum, signed_sum_bruteforce


def test_l_closed_form_known():
    assert l_signed_sum_closed(LShapeSpec((2,), (3,))) == GaussianInt(0, 1)
    assert l_signed_sum_closed(LShapeSpec((2,), (2,))) == ZERO
    assert l_signed_sum_closed(LShapeSpec((0,), (0,))) == 1
    assert l_signed_sum_closed(LShapeSpec((), ())) == 1


def test_l_closed_form_rejects_wide_gap():
    with pytest.raises(ValueError):
        l_signed_sum_closed(LShapeSpec((4,), (2,)))


def test_l_closed_form_vs_bruteforce():
    for a1 in range(5):
        for b1 in range(5):
            if abs(a1 - b1) > 1:
                continue
            for a2 in range(4):
                for b2 in range(4):
                    if abs(a2 - b2) > 1:
                        continue
                    spec = LShapeSpec((a1, a2), (b1, b2))
                    assert l_signed_sum_closed(spec) == signed_sum_bruteforce(
                        l_board(spec)
                    )


def test_closure_absorbs_crossing_dominoes():
    board = rectangle(2, 2)
    subset = Board([(1, 1)])
    for t in enumerate_tilings(board):
        clo = closure(board, t, subset)
        # both tilings of the 2x2 square pair (1,1) with a neighbor
        assert len(clo) == 2
        assert subset <= clo


def test_closure_union_known():
    clo = closure_union(rectangle(2, 2), Board([(1, 1)]))
    assert set(clo) == {(1, 1), (1, 2), (2, 1)}


def test_restricted_sum():
    # closing up the whole square keeps both tilings, whose signs cancel:
    # i^0 + i^2 = 0
    board = rectangle(2, 2)
    assert restricted_sum(board, board) == ZERO
    column = Board([(1, 1), (1, 2)])
    assert restricted_sum(column, column) == 1
    row = Board([(1, 1), (2, 1)])
    assert restricted_sum(row, row) == GaussianInt(0, 1)


def test_verify_decomposition_known_cases():
    rep = verify_decomposition(rectangle(2, 2), Board([(1, 1)]))
    assert rep.equal
    assert rep.lhs == ZERO
    rep = verify_decomposition(rectangle(4, 2), Board([(1, 1), (1, 2)]))
    assert rep.equal
    assert rep.lhs == signed_sum(rectangle(4, 2))


def test_verify_decomposition_terms_sum_to_rhs():
    rep = verify_decomposition(rectangle(3, 2), Board([(1, 1)]))
    total = ZERO
    for _, outside, inside in rep.terms:
        total = total + outside * inside
    assert total == rep.rhs


def test_periodicity_factor():
    assert periodicity_factor(1) == GaussianInt(0, 1)
    assert periodicity_factor(2) == -1
    assert periodicity_factor(4) == -1
    for n in range(1, 9):
        exp = (n * n + 2 * n + (n % 2)) // 4
        assert periodicity_factor(n) == i_power(exp)


def test_periodicity_identity():
    for n in range(1, 6):
        for m in range(1, 6):
            wide = signed_sum(rectangle(m + n + 1, n))
            assert wide == signed_sum(rectangle(m, n)) * periodicity_factor(n)


def test_admissible_diagonal_known():
    assert admissible_diagonal(5, 3) == frozenset({1})
    assert admissible_diagonal(7, 5) == frozenset({1, 2})
    assert admissible_diagonal(9, 7) == frozenset({1, 2, 3})
    assert admissible_diagonal(13, 9) == frozenset({2, 4, 6, 8})


def test_admissible_diagonal_window():
    with pytest.raises(ValueError):
        admissible_diagonal(3, 5)
    with pytest.raises(ValueError):
        admissible_diagonal(15, 5)
    with pytest.raises(ValueError):
        admissible_diagonal(9, 3)


def test_half_board_sum_values():
    assert half_board_sum(5, 3, {1}) == GaussianInt(0, 1)
    assert half_board_sum(5, 3, {2}) == ZERO
    assert half_board_sum(5, 3, set()) == ZERO
    # every half-board sum is 0 or a fourth root of unity
    for m, n in [(5, 3), (7, 5)]:
        for diag in _subsets(n):
            assert str(half_board_sum(m, n, diag)) in {"0", "1", "-1", "i", "-i"}


def _subsets(n):
    from itertools import combinations

    for r in range(n):
        yield from combinations(range(1, n), r)


def test_half_board_support_matches_sum():
    for m, n in [(5, 3), (7, 3), (7, 5)]:
        for diag in _subsets(n):
            nonzero = half_board_sum(m, n, diag) != ZERO
            assert nonzero == half_board_support(m, n, diag)


def test_half_board_parity():
    assert half_board_parity(5, 3, {1}) == 1
    assert half_board_parity(7, 5, {1, 2}) == 1
    assert half_board_parity(9, 7, {1, 2, 3}) == 0
    with pytest.raises(ValueError):
        half_board_parity(5, 3, {1, 2})  # non-integral expression


def test_reciprocity_free_known():
    assert reciprocity_free_sum(4, 3) == -1
    assert reciprocity_free_sum(5, 3) == -1
    assert reciprocity_free_sum(3, 3) == 0
    assert reciprocity_free_sum(7, 1) == 1


def test_reciprocity_free_matches_theorem():
    for n in range(1, 10, 2):
        for m in range(1, 14):
            assert reciprocity_free_sum(m, n) == theorem_rhs(m, n)


def test_reciprocity_free_never_calls_jacobi(monkeypatch):
    import residue_tilings.decomp as decomp
    import residue_tilings.residue as residue

    # the combinatorial route must not lean on the symbol it reproves
    assert "jacobi" not in vars(decomp)
    expected = theorem_rhs(7, 5)

    def trip(*args, **kwargs):
        raise AssertionError("jacobi was called")

    monkeypatch.setattr(residue, "jacobi", trip)
    assert reciprocity_free_sum(7, 5) == expected == -1


def test_half_board_invariants_raise(monkeypatch):
    import residue_tilings.decomp as decomp

    monkeypatch.setattr(decomp, "signed_sum", lambda board: GaussianInt(2))
    with pytest.raises(InvariantError, match="out of range"):
        half_board_sum(7, 5, admissible_diagonal(7, 5))
    # a unit value is in range, but not at a diagonal outside the support
    monkeypatch.setattr(decomp, "signed_sum", lambda board: GaussianInt(1))
    assert not half_board_support(7, 5, ())
    with pytest.raises(InvariantError, match="unsupported"):
        half_board_sum(7, 5, ())


def test_reciprocity_free_invariant_raises(monkeypatch):
    import residue_tilings.decomp as decomp

    monkeypatch.setattr(decomp, "half_board_sum", lambda m, n, diag: GaussianInt(1, 1))
    with pytest.raises(InvariantError, match="non-real"):
        reciprocity_free_sum(7, 5)


def test_invariant_checks_survive_optimize_flag(src_env):
    script = (
        "import residue_tilings.decomp as d\n"
        "from residue_tilings.gaussian import GaussianInt\n"
        "d.signed_sum = lambda board: GaussianInt(2)\n"
        "try:\n"
        "    d.half_board_sum(7, 5, d.admissible_diagonal(7, 5))\n"
        "except d.InvariantError:\n"
        "    print('raised')\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=src_env)
    assert result.stdout == "raised\n", result.stderr
