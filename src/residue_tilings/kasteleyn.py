"""Adjacency operator on the folded cell space and its exact determinant.

For odd n the cells of the (m-1) x (n-1) rectangle are folded by the
relation (i, j) ~ -(i, n-j).  The even-parity cells (i + j even, ordered
lexicographically) form a basis; the neighbor-sum operator expressed in
that basis is an integer matrix whose determinant equals the signed tiling
sum up to the sign det_sign(m, n), which depends on m's parity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .residue import _check_pair


@dataclass(frozen=True)
class SignedMatrix:
    """A square integer matrix with immutable row-major entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            for v in row:
                if not isinstance(v, int):
                    raise ValueError(f"entry {v!r} is not an int")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def build_kasteleyn(m: int, n: int) -> SignedMatrix:
    """Matrix of the neighbor-sum operator for the (m-1) x (n-1) rectangle.

    Column (i, j) holds the image of basis cell (i, j): each in-range
    neighbor (i', j') has odd parity and is rewritten as -(i', n-j'), so
    every nonzero entry is -1 and each column has at most four of them.
    Neighbors that step onto the frame i' in {0, m} or j' in {0, n} vanish.
    """
    _check_pair(m, n)
    basis = [
        (i, j)
        for i in range(1, m)
        for j in range(1, n)
        if (i + j) % 2 == 0
    ]
    index = {cell: pos for pos, cell in enumerate(basis)}
    dim = len(basis)
    rows = [[0] * dim for _ in range(dim)]
    for col, (i, j) in enumerate(basis):
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if ni in (0, m) or nj in (0, n):
                continue
            rows[index[(ni, n - nj)]][col] -= 1
    return SignedMatrix(tuple(tuple(row) for row in rows))


def det_exact(matrix: SignedMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Every intermediate entry is a minor of the original matrix, so the
    divisions below are exact in integer arithmetic.  Pivoting picks the
    first nonzero entry in each column and flips the sign per row swap;
    an all-zero column means the determinant is 0.  The empty matrix has
    determinant 1.
    """
    size = matrix.dim
    if size == 0:
        return 1
    a = [list(row) for row in matrix.entries]
    sign = 1
    prev = 1
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if a[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            row_i, row_k = a[i], a[k]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[size - 1][size - 1]


def det_sign(m: int, n: int) -> int:
    """The sign relating det K to the signed tiling sum of the (m-1) x (n-1)
    rectangle: 1 for odd m and (-1)**((n*n - 1) // 8) for even m."""
    return -1 if m % 2 == 0 and (n * n - 1) // 8 % 2 else 1


def signed_sum_via_det(m: int, n: int) -> int:
    """Signed tiling sum of the (m-1) x (n-1) rectangle via the determinant."""
    return det_exact(build_kasteleyn(m, n)) * det_sign(m, n)
