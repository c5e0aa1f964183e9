"""Adjacency operator on the folded cell space and its exact determinant.

For odd n the cells of the (m-1) x (n-1) rectangle are folded by the
relation (i, j) ~ -(i, n-j).  The even-parity cells (i + j even, ordered
lexicographically) form a basis: with h = (n-1)/2 of them at each i,
cell (i, j) is basis vector (i-1)h + (j-1)//2.  The neighbor-sum operator
expressed in that basis is an integer matrix whose determinant equals the
signed tiling sum up to the sign det_sign(m, n), which depends on m's
parity.

Every matrix here has one type, SparseMatrix, whose constructor validates
its entries, so no malformed input reaches the elimination.

The determinant is exact for any integer matrix: Gaussian elimination over
the rationals gives it as the product of the pivots, with no bound and no
modulus.  The elimination works on sparse columns and pivots on the
sparsest column left, which keeps the fill-in of K small.  Every entry of K
is -1, and its pivots have been +1 or -1 in every case checked, so the
elimination of K stays in ints; only another pivot brings in a Fraction.
It runs in place on the columns of the K or B just built, with a list of
the rows left per column: K at (1023, 529), d = 269808, peaks at 180 MB
RSS.  det_exact runs it on copies, so its argument stays intact.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from heapq import heapify, heappop, heappush

from . import limits
from .gaussian import _Frozen, _set
from .residue import _check_pair


class SparseMatrix(_Frozen):
    """A square integer matrix held as one {row: entry} dict per column,
    with zero entries left out.

    Raises ValueError unless every column is a dict whose keys are ints in
    range(dim) and whose values are ints.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Iterable[dict[int, int]]) -> None:
        columns = tuple(columns)
        dim = len(columns)
        for column in columns:
            if not isinstance(column, dict):
                raise ValueError(f"column {column!r} is not a dict")
            for row, v in column.items():
                if type(row) is not int or not 0 <= row < dim:
                    raise ValueError(f"row index {row!r} is not an int in range({dim})")
                if not isinstance(v, int):
                    raise ValueError(f"entry {v!r} is not an int")
        _set(self, "columns", columns)

    @property
    def dim(self) -> int:
        return len(self.columns)


def build_kasteleyn(m: int, n: int) -> SparseMatrix:
    """The matrix K of the neighbor-sum operator for the (m-1) x (n-1)
    rectangle, held by columns.

    Column (i, j) holds the image of basis cell (i, j): each in-range
    neighbor (i', j') has odd parity and is rewritten as -(i', n-j').
    Neighbors that step onto the frame i' in {0, m} or j' in {0, n} vanish.
    The fold (i', j') -> (i', n-j') is one-to-one and preserves adjacency,
    so no two neighbors share a row, which makes every nonzero entry a
    single -1, at most four per column; and basis cell (i', n-j') has the
    neighbor (i, n-j), which folds back to (i, j), so K is symmetric.

    Raises SizeLimitError, before the build, when the dimension
    ((m-1)(n-1)+1) // 2, the number of even cells, exceeds MAX_DIM.
    """
    _check_pair(m, n)
    limits.check_dim(f"K at m = {m}, n = {n}", ((m - 1) * (n - 1) + 1) // 2)
    h = (n - 1) // 2
    # one int object per matrix row, shared by the up to four columns with
    # an entry there: a sum per entry would keep four ints per column alive
    # through det_exact, about 25 MB more at d = MAX_DIM
    ids = list(range((m - 1) * h))
    columns = []
    for i in range(1, m):
        # the first basis index at i - 1, i and i + 1
        below, here, above = (i - 2) * h, (i - 1) * h, i * h
        for j in range(2 - i % 2, n, 2):
            # (i +- 1, j) folds to (i +- 1, n - j), (i, j -+ 1) to (i, n - j +- 1)
            column: dict[int, int] = {}
            if i > 1:
                column[ids[below + (n - j - 1) // 2]] = -1
            if i < m - 1:
                column[ids[above + (n - j - 1) // 2]] = -1
            if j > 1:
                column[ids[here + (n - j) // 2]] = -1
            if j < n - 1:
                column[ids[here + (n - j - 2) // 2]] = -1
            columns.append(column)
    return SparseMatrix(tuple(columns))


def det_exact(matrix: SparseMatrix) -> int:
    """Exact determinant of matrix, which _eliminate computes on copies of
    its columns.  Raises SizeLimitError, before any elimination, when the
    dimension exceeds MAX_DIM.  The empty matrix has determinant 1.
    """
    limits.check_dim("the matrix", matrix.dim)
    return _eliminate([dict(column) for column in matrix.columns])


def _eliminate(rows: Sequence[dict[int, int]]) -> int:
    """The determinant of the matrix with these columns, by elimination over
    the rationals in place: the columns are consumed.

    Each step takes the column held by the fewest rows left (minimum
    degree), pivots on its shortest row, the lowest such row, and clears
    the column from the other rows.  The determinant is the product of the
    pivots times the sign of the permutation that sends each pivot row to
    its column.  The columns serve as the rows, since a matrix and its
    transpose share the determinant.  A pivot of +1 or -1 is its own
    inverse, so while every pivot is a unit, as on K and on a half board's
    B, all values stay ints; any other pivot a is inverted as
    Fraction(1, a), by _fraction.
    """
    # column -> the rows left with a nonzero there; None once it has pivoted
    holders: list[list[int] | None] = [[] for _ in rows]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].append(r)
    # a key is count << 32 | column, as dim <= MAX_DIM < 2**32
    heap = [len(rs) << 32 | c for c, rs in enumerate(holders)]
    heapify(heap)
    pivot_col = [0] * len(rows)
    det = 1
    for _ in rows:
        key = heappop(heap)
        while holders[k := key & 0xFFFFFFFF] is None or key >> 32 != len(holders[k]):
            key = heappop(heap)
        cands, holders[k] = holders[k], None
        if not cands:
            return 0
        best = 1 << 64
        for s in cands:  # the shortest row, the lowest of those
            if (key := len(rows[s]) << 32 | s) < best:
                best = key
        r = best & 0xFFFFFFFF
        cands.remove(r)
        pivot_col[r] = k
        pivot = rows[r]
        a = pivot.pop(k)
        for c in pivot:
            holders[c].remove(r)
        det *= a
        inv = a if a in (1, -1) else _fraction(1, a)
        for s in cands:
            row = rows[s]
            g = -row.pop(k) * inv
            for c, v in pivot.items():
                x = row.get(c)
                if x is None:  # fill: g * v is not 0
                    row[c] = g * v
                    holders[c].append(s)
                elif x := x + g * v:
                    row[c] = x
                else:
                    del row[c]
                    holders[c].remove(s)
        for c in pivot:
            heappush(heap, len(holders[c]) << 32 | c)
    det = int(det)  # exact: up to sign, the product of the pivots is the determinant
    return -det if _is_odd(pivot_col) else det


def _fraction(numerator: int, denominator: int):
    """Fraction(numerator, denominator); fractions, which imports decimal,
    is loaded on the first call, since no pivot of K or B needs one."""
    from fractions import Fraction
    return Fraction(numerator, denominator)


def _is_odd(perm: list[int]) -> bool:
    """Whether the permutation i -> perm[i] is odd: a cycle of length L is
    L - 1 transpositions."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return (len(perm) - cycles) % 2 == 1


def det_sign(m: int, n: int) -> int:
    """The sign relating det K to the signed tiling sum of the (m-1) x (n-1)
    rectangle: 1 for odd m and (-1)**((n*n - 1) // 8) for even m."""
    return -1 if m % 2 == 0 and (n * n - 1) // 8 % 2 else 1


def signed_sum_via_det(m: int, n: int) -> int:
    """Signed tiling sum of the (m-1) x (n-1) rectangle via the determinant."""
    return _eliminate(build_kasteleyn(m, n).columns) * det_sign(m, n)
