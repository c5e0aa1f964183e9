"""Folded adjacency matrices and the exact determinant."""

import copy
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from conftest import Built, det_exact_reference, trip
from hypothesis import given, settings
from hypothesis import strategies as st

from residue_tilings import kasteleyn, limits
from residue_tilings.board import rectangle
from residue_tilings.decomp import _half_board_matrix, admissible_diagonal, reciprocity_free_sum
from residue_tilings.gaussian import GaussianInt
from residue_tilings.kasteleyn import (
    SparseMatrix,
    build_kasteleyn,
    det_exact,
    det_sign,
    signed_sum_via_det,
)
from residue_tilings.limits import SizeLimitError
from residue_tilings.residue import theorem_rhs
from residue_tilings.tiling import signed_sum


def _sparse(rows):
    return SparseMatrix(tuple({r: row[c] for r, row in enumerate(rows) if row[c]}
                              for c in range(len(rows))))


def det_cofactor(rows):
    """Textbook cofactor expansion, the slow oracle."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for col in range(k):
        if rows[0][col] == 0:
            continue
        minor = [
            [row[c] for c in range(k) if c != col] for row in rows[1:]
        ]
        term = rows[0][col] * det_cofactor(minor)
        total += term if col % 2 == 0 else -term
    return total


def test_matrix_validation():
    m = _sparse(((1, 2), (3, 4)))
    assert m.dim == 2
    assert m.columns == ({0: 1, 1: 3}, {0: 2, 1: 4})
    # unchecked, these reach the elimination and give 0, a KeyError, an
    # IndexError, an AttributeError or a TypeError
    for columns in (({-2: 2}, {0: 1}), ({-1: 3}, {0: 5}), ({0: 1}, {2: 1}),
                    ({0: 1, -1: 1}, {0: 1, 1: 1}), ({0: 1.5},), ({0: 1.0},),
                    ({1.0: 1}, {0: 1}), ({"0": 1},), ([1],), ({0: "1"},)):
        with pytest.raises(ValueError):
            det_exact(SparseMatrix(columns))


def test_known_matrices():
    assert build_kasteleyn(2, 3).columns == ({0: -1},)
    assert build_kasteleyn(3, 3).columns == ({0: -1, 1: -1}, {0: -1, 1: -1})
    # the folded space has one basis vector per even cell
    assert build_kasteleyn(6, 5).dim == 10
    assert build_kasteleyn(1, 5).dim == 0


def kasteleyn_by_basis(m, n):
    """K's columns as the builder once made them: the even cells listed
    lexicographically, a dict from cell to index, and each neighbor folded
    and looked up there, in the order below, above, left, right."""
    basis = [(i, j) for i in range(1, m) for j in range(1, n) if (i + j) % 2 == 0]
    index = {cell: pos for pos, cell in enumerate(basis)}
    columns = []
    for i, j in basis:
        column = {}
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if ni not in (0, m) and nj not in (0, n):
                column[index[(ni, n - nj)]] = -1
        columns.append(column)
    return tuple(columns)


def test_index_arithmetic_matches_the_basis_lookup():
    # the same columns with their keys in the same order, so the
    # elimination meets the same ties and detk --matrix prints the same bytes
    for n in range(1, 42, 2):
        for m in range(1, 61):
            columns = build_kasteleyn(m, n).columns
            expected = kasteleyn_by_basis(m, n)
            assert columns == expected, (m, n)
            assert [list(c) for c in columns] == [list(c) for c in expected], (m, n)


def test_column_structure():
    # each column holds the -1 neighbor stencil; the fold is one-to-one, so
    # no two neighbors land on one row
    for m, n in [(4, 3), (5, 5), (6, 7), (9, 3)]:
        matrix = build_kasteleyn(m, n)
        for column in matrix.columns:
            assert all(v == -1 for v in column.values())


def test_kasteleyn_is_symmetric_with_unit_entries():
    # the fold preserves adjacency, so K equals its transpose, which is what
    # lets detk --matrix print each column as its row
    for n in range(1, 22, 2):
        for m in range(1, 31):
            columns = build_kasteleyn(m, n).columns
            for col, column in enumerate(columns):
                assert len(column) <= 4, (m, n, col)
                for row, v in column.items():
                    assert v == -1, (m, n, row, col)
                    assert columns[row].get(col) == -1, (m, n, row, col)


def test_det_known_values():
    assert det_exact(_sparse(())) == 1
    assert det_exact(_sparse(((7,),))) == 7
    assert det_exact(_sparse(((1, 2), (3, 4)))) == -2
    assert det_exact(build_kasteleyn(2, 3)) == -1
    assert det_exact(build_kasteleyn(3, 3)) == 0


def test_det_random_matrices_against_cofactor():
    rng = random.Random(20240811)
    for _ in range(1000):
        k = rng.randrange(0, 5)
        rows = tuple(
            tuple(rng.randrange(-4, 5) for _ in range(k)) for _ in range(k)
        )
        expected = det_cofactor([list(r) for r in rows])
        assert det_exact(_sparse(rows)) == expected


def det_bareiss(rows):
    """Fraction-free Gaussian elimination (Bareiss) over the ints, the
    second oracle: after step col every entry below and right of the pivot
    is a minor of rows, so each division by the previous pivot is exact."""
    k = len(rows)
    work = [list(row) for row in rows]
    det, previous = 1, 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if work[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        top = work[col]
        p = top[col]
        for row in work[col + 1:]:
            a = row[col]
            for c in range(col + 1, k):
                q, r = divmod(p * row[c] - a * top[c], previous)
                assert r == 0
                row[c] = q
        previous = p
    return det * previous


def test_det_random_matrices_against_fractions():
    rng = random.Random(97)
    for _ in range(200):
        k = rng.randrange(1, 7)
        rows = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(k)]
        assert det_exact(_sparse(rows)) == det_bareiss(rows)


@st.composite
def sparse_matrices(draw):
    """Square matrices up to 25 x 25 with entries up to 10**6 in size: a
    nonzero entry in each row at permuted columns, so that most are
    invertible and pivots need row exchanges, plus scattered extras."""
    k = draw(st.integers(0, 25))
    rows = [[0] * k for _ in range(k)]
    entry = st.integers(-10**6, 10**6)
    for r, c in enumerate(draw(st.permutations(range(k)))):
        rows[r][c] = draw(entry.filter(bool))
    if k:
        index = st.integers(0, k - 1)
        for r, c, v in draw(st.lists(st.tuples(index, index, entry), max_size=3 * k)):
            rows[r][c] = v
    return rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_det_sparse_matrices_against_fractions(rows):
    assert det_exact(_sparse(rows)) == det_bareiss(rows)


@st.composite
def wide_matrices(draw):
    """Matrices up to 6 x 6 with entries of size 1 or 2 (so that unit
    pivots occur) mixed with entries up to 2**90 and 2**180, so that the
    other pivots bring in Fractions of wide numerators and denominators."""
    k = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-2, 2), st.integers(-2**90, 2**90),
                      st.integers(-2**180, 2**180))
    rows = [[0] * k for _ in range(k)]
    for r, c in enumerate(draw(st.permutations(range(k)))):
        rows[r][c] = draw(entry.filter(bool))
    index = st.integers(0, k - 1)
    for r, c, v in draw(st.lists(st.tuples(index, index, entry), max_size=2 * k)):
        rows[r][c] = v
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wide_matrices())
def test_det_wide_matrices_against_fractions(rows):
    assert det_exact(_sparse(rows)) == det_bareiss(rows)


@st.composite
def k_like_matrices(draw):
    """Square matrices up to 30 x 30 shaped like K: each column holds 0 to
    2 nonzeros, one at permuted rows and maybe a second, so that rows and
    columns with one nonzero are common, and half of the matrices have an
    empty column.  Entries are mostly +1 or -1, with some others."""
    k = draw(st.integers(0, 30))
    rows = [[0] * k for _ in range(k)]
    unit = st.sampled_from((1, -1))
    entry = st.one_of(unit, unit, unit, st.integers(-5, 5).filter(bool))
    for c, r in enumerate(draw(st.permutations(range(k)))):
        rows[r][c] = draw(entry)
        second = draw(st.one_of(st.none(), st.integers(0, k - 1)))
        if second is not None:
            rows[second][c] = draw(entry)
    if k and draw(st.booleans()):
        empty = draw(st.integers(0, k - 1))
        for row in rows:
            row[empty] = 0
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k_like_matrices())
def test_det_k_like_matrices_against_fractions(rows):
    assert det_exact(_sparse(rows)) == det_bareiss(rows)


def _count_fractions(monkeypatch):
    """Patch kasteleyn._fraction, which makes each Fraction of the
    elimination, to count its calls; return the count."""
    calls = []
    monkeypatch.setattr(kasteleyn, "_fraction",
                        lambda *args: calls.append(args) or Fraction(*args))
    return calls


def test_det_of_k_stays_in_ints(monkeypatch):
    # every pivot of K is +1 or -1, so no Fraction is made (the half
    # boards' B are checked on their windows in test_decomp); a matrix
    # with another pivot does make one
    calls = _count_fractions(monkeypatch)
    for n in range(1, 16, 2):
        for m in range(1, 41):
            assert det_exact(build_kasteleyn(m, n)) in (-1, 0, 1), (m, n)
    assert calls == []
    assert det_exact(_sparse(((2,),))) == 2
    assert calls == [(1, 2)]


def _reference_corpus():
    """K for m < 45 and odd n < 22, B at the admissible diagonal of every
    coprime window of odd n < 26, and 400 seeded random matrices up to
    12 x 12, many of whose pivots are not units."""
    for n in range(1, 22, 2):
        for m in range(1, 45):
            yield build_kasteleyn(m, n)
    for n in range(3, 26, 2):
        for m in range(n + 2, 3 * n, 2):
            if math.gcd(m, n) == 1:
                yield _half_board_matrix(m, n, frozenset(admissible_diagonal(m, n)))
    rng = random.Random(20231)
    entries = (-3, -2, -1, 1, 2, 5, 2**70)
    for _ in range(400):
        k, density = rng.randint(1, 12), rng.random()
        yield _sparse([[rng.choice(entries) if rng.random() < density else 0
                        for _ in range(k)] for _ in range(k)])


def test_elimination_matches_the_reference(monkeypatch):
    # the in-place elimination gives the determinant and the pivot map (the
    # permutation handed to _is_odd) of the one it replaced, which copied
    # every column and kept a set of holders per column
    maps = []
    is_odd = kasteleyn._is_odd
    monkeypatch.setattr(kasteleyn, "_is_odd", lambda perm: maps.append(perm[:]) or is_odd(perm))
    cases = pivoted = 0
    for matrix in _reference_corpus():
        expected = det_exact_reference(matrix)
        expected_maps = maps[:]
        del maps[:]
        assert kasteleyn._eliminate(matrix.columns) == expected, matrix
        assert maps == expected_maps, matrix
        cases += 1
        pivoted += len(maps)
        del maps[:]
    assert (cases, pivoted) == (1020, 772)


def test_det_exact_leaves_its_matrix_intact(monkeypatch):
    # the routes hand their own K or B to _eliminate, which consumes its
    # columns; det_exact must not, or a second call on one matrix goes wrong
    calls = _count_fractions(monkeypatch)
    for matrix in (build_kasteleyn(12, 7), _sparse(((2, 1, 0), (1, 3, 1), (0, 1, 4)))):
        before = copy.deepcopy(matrix.columns)
        det = det_exact(matrix)
        assert matrix.columns == before
        assert det_exact(matrix) == det != 0
    assert calls  # the second matrix pivots on 2


def test_determinant_memory_per_dimension():
    # the elimination runs on the columns the builder hands it, with a list
    # of holders per column: at most 600 traced bytes per dimension at the
    # peak, against 945 (K) and 809 (B) with a copy and a set per column
    tracemalloc.start()
    try:
        for route, m, n, dim in ((signed_sum_via_det, 401, 101, 20000),
                                 (reciprocity_free_sum, 301, 101, 7500)):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert route(m, n) == theorem_rhs(m, n)
            assert (tracemalloc.get_traced_memory()[1] - held) / dim <= 600
    finally:
        tracemalloc.stop()


def sylvester(order):
    """The Sylvester-Hadamard matrix of a power-of-two order."""
    rows = [[1]]
    while len(rows) < order:
        rows = [r + r for r in rows] + [r + [-v for v in r] for r in rows]
    return rows


def test_det_attains_the_hadamard_bound():
    for order in (8, 16, 32, 64):
        rows = sylvester(order)
        det = det_exact(_sparse(rows))
        assert abs(det) == order ** (order // 2)
        if order <= 16:
            assert det == det_bareiss(rows)


def test_signed_sum_via_det_matches_dp():
    # the range on which the values were checked equal to the dense
    # Bareiss elimination this module used before
    for n in range(1, 14, 2):
        for m in range(1, 31):
            via_det = signed_sum_via_det(m, n)
            assert GaussianInt(via_det) == signed_sum(rectangle(m - 1, n - 1))
            assert det_exact(build_kasteleyn(m, n)) * det_sign(m, n) == via_det


def test_rejects_even_n():
    with pytest.raises(ValueError):
        build_kasteleyn(3, 4)
    with pytest.raises(ValueError):
        signed_sum_via_det(3, 0)


def test_det_reach():
    start = time.perf_counter()
    assert signed_sum_via_det(100, 31) == theorem_rhs(100, 31)  # d = 1485
    assert time.perf_counter() - start < 30


def test_det_refuses_past_the_last_prime(monkeypatch):
    # K of width 529 has dimension 264 (m - 1): (1023, 529), d = 269808,
    # is the last one within MAX_DIM, and (1024, 529), d = 270072, the
    # first one past it.  The builder's loop is patched to trip, so the
    # refusal comes from (m, n) alone
    assert limits.MAX_DIM == 270000
    monkeypatch.setattr(kasteleyn, "range", trip, raising=False)
    with pytest.raises(Built):
        signed_sum_via_det(1023, 529)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="K at m = 1024, n = 529 has dimension "
                                             "270072, over the dimension limit 270000"):
        signed_sum_via_det(1024, 529)
    assert time.perf_counter() - start < 0.1


def test_long_thin_boards_refused_before_the_build(monkeypatch):
    # K of a 2 x N board has dimension N: (270001, 3) is the widest one
    # admitted
    monkeypatch.setattr(kasteleyn, "range", trip, raising=False)
    with pytest.raises(Built):
        build_kasteleyn(270001, 3)
    # refused without building a column; at d near 5e17 as well
    start = time.perf_counter()
    for m, n in ((270002, 3), (1000000, 3), (10**9, 10**9 + 1)):
        with pytest.raises(SizeLimitError, match="over the dimension limit"):
            build_kasteleyn(m, n)
    assert time.perf_counter() - start < 0.1


def test_det_refuses_past_max_dim():
    # a matrix built by hand is held to the same limit, before elimination
    dim = limits.MAX_DIM + 1
    with pytest.raises(SizeLimitError, match="the matrix has dimension 270001"):
        det_exact(SparseMatrix(({},) * dim))
