"""Adjacency operator on the folded cell space and its exact determinant.

For odd n the cells of the (m-1) x (n-1) rectangle are folded by the
relation (i, j) ~ -(i, n-j).  The even-parity cells (i + j even, ordered
lexicographically) form a basis; the neighbor-sum operator expressed in
that basis is an integer matrix whose determinant equals the signed tiling
sum up to the sign det_sign(m, n), which depends on m's parity.

Every matrix here has one type, SparseMatrix, whose constructor validates
its entries, so no malformed input reaches the elimination.

The determinant is exact for any integer matrix.  Hadamard's inequality
bounds |det| by H, the product of the column norms, so Gaussian elimination
modulo one prime P > 2H gives det itself as the residue in (-P/2, P/2).
P is a Mersenne prime 2**q - 1 from a fixed table of proven ones.  The
elimination works on sparse columns and pivots on the sparsest column
left, which keeps the fill-in of K small.  It holds each residue in
[-P/2, P/2] and reduces only a value that leaves that range, so the -1
entries of K stay -1 and a pivot of +1 or -1 needs no inverse: the cost
follows the size of the values, not q, while a dense or random matrix
still pays for full q-bit residues.  K is symmetric, and each column has
at most four nonzero entries, all -1, so H <= 2**d in dimension d.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .residue import _check_pair
from .tiling import SizeLimitError

# Exponents q of proven Mersenne primes 2**q - 1, in increasing order.  The
# last one is the resource limit.  K of dimension d needs q >= d + 2 at
# worst, so K up to d = 132000 is admitted (up to 166626 for 2 x N boards),
# and a half board's B up to about the same d.  On 2 vCPUs with CPython
# 3.11 the largest admitted ones took at most 4.4 s and 180 MB for K, such
# as (530, 501), and 4.8 s and 225 MB for B, such as (881, 601).  The next
# prime, 2**216091 - 1, would admit B such as (1601, 541) at 362 MB.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                      4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209,
                      44497, 86243, 110503, 132049)


@dataclass(frozen=True)
class SparseMatrix:
    """A square integer matrix held as one {row: entry} dict per column,
    with zero entries left out.

    Raises ValueError unless every column is a dict whose keys are ints in
    range(dim) and whose values are ints.
    """

    columns: tuple[dict[int, int], ...]

    def __post_init__(self) -> None:
        columns = tuple(self.columns)
        object.__setattr__(self, "columns", columns)
        dim = len(columns)
        for column in columns:
            if not isinstance(column, dict):
                raise ValueError(f"column {column!r} is not a dict")
            for row, v in column.items():
                if type(row) is not int or not 0 <= row < dim:
                    raise ValueError(f"row index {row!r} is not an int in range({dim})")
                if not isinstance(v, int):
                    raise ValueError(f"entry {v!r} is not an int")

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

    Raises SizeLimitError, before the build, when det_exact would refuse K
    anyway.  For m, n >= 3 each column has a horizontal and a vertical
    neighbor in range, in different rows; for m = 2 each column but that of
    (1, 1) has two vertical ones.  So the square of the Hadamard bound is
    at least 2**(d - 1) in dimension d.
    """
    _check_pair(m, n)
    dim = ((m - 1) * (n - 1) + 1) // 2
    _refuse_past_table(f"a {dim} x {dim} determinant", dim - 1)
    basis = [
        (i, j)
        for i in range(1, m)
        for j in range(1, n)
        if (i + j) % 2 == 0
    ]
    index = {cell: pos for pos, cell in enumerate(basis)}
    columns = []
    for i, j in basis:
        column: dict[int, int] = {}
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if ni in (0, m) or nj in (0, n):
                continue
            column[index[(ni, n - nj)]] = -1
        columns.append(column)
    return SparseMatrix(tuple(columns))


def det_exact(matrix: SparseMatrix) -> int:
    """Exact determinant, by elimination modulo a prime above twice the
    Hadamard bound of the matrix's own entries: the balanced residue that
    _det_mod returns is the determinant itself.

    Raises SizeLimitError, before any elimination, when the bound needs a
    prime beyond the last of MERSENNE_EXPONENTS.  The empty matrix has
    determinant 1.
    """
    columns = matrix.columns
    dim = len(columns)
    q = _modulus_exponent(f"a {dim} x {dim} determinant", _bound_sq(columns))
    return _det_mod(columns, q)


def _bound_sq(columns: tuple[dict[int, int], ...]) -> int:
    """The square of the Hadamard bound: the product of the squared column
    norms.  Equal norms are raised to their count at once, since a product
    taken one factor at a time costs time quadratic in the dimension."""
    norms = Counter(sum(v * v for v in column.values()) for column in columns)
    return math.prod(pow(v, k) for v, k in norms.items())


def _modulus_exponent(what: str, bound_sq: int) -> int:
    """The smallest listed q with 2**q - 1 > 2H, where H * H == bound_sq;
    what names the matrix in the SizeLimitError."""
    for q in MERSENNE_EXPONENTS:
        if ((1 << q) - 1) ** 2 > 4 * bound_sq:
            return q
    raise SizeLimitError(
        f"the Hadamard bound of {what} needs a prime "
        f"above 2^{MERSENNE_EXPONENTS[-1]} - 1"
    )


def _refuse_past_table(what: str, floor_bits: int) -> None:
    """Raise SizeLimitError when a squared Hadamard bound of at least
    2**floor_bits already needs a prime past the table, so that a matrix
    det_exact would refuse is refused before it is built.  Every bound past
    2**(2 * q) for the last q is refused alike, so the shift stops there."""
    floor_bits = min(max(floor_bits, 0), 2 * MERSENNE_EXPONENTS[-1])
    _modulus_exponent(what, 1 << floor_bits)


def _det_mod(lines: tuple[dict[int, int], ...], q: int) -> int:
    """Determinant modulo p = 2**q - 1 of the matrix whose rows are lines
    ({column: entry} dicts), as the residue in [-p // 2, p // 2]; a column
    list gives the same value, since a matrix and its transpose share the
    determinant.

    Each step takes the column held by the fewest rows left (minimum
    degree), pivots on its shortest row, and clears the column from the
    other rows.  The determinant is the product of the pivots times the
    sign of the permutation that sends each pivot row to its column.

    Every residue is held in [-p // 2, p // 2] and reduced only when a sum
    or product leaves that range, so a -1 of K stays -1, not p - 1, and a
    pivot of +1 or -1 is its own inverse.
    """
    p = (1 << q) - 1
    half = p >> 1
    rows = [{c: r for c, v in line.items() if (r := _balance(v, p, half))}
            for line in lines]
    # column -> the rows left with a nonzero there; None once it has pivoted
    holders: list[set[int] | None] = [set() for _ in rows]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    heap = [(len(rs), c) for c, rs in enumerate(holders)]
    heapify(heap)
    pivot_col = [0] * len(rows)
    det = 1
    for _ in rows:
        count, k = heappop(heap)
        while holders[k] is None or count != len(holders[k]):
            count, k = heappop(heap)
        if count == 0:
            return 0
        cands, holders[k] = holders[k], None
        r = min(cands, key=lambda s: (len(rows[s]), s))
        cands.remove(r)
        pivot_col[r] = k
        pivot = rows[r]
        a = pivot.pop(k)
        for c in pivot:
            holders[c].discard(r)
        det = _balance(det * a, p, half)
        inv = a if a in (1, -1) else pow(a, -1, p)
        for s in cands:
            row = rows[s]
            g = _balance(-row.pop(k) * inv, p, half)
            for c, v in pivot.items():
                x = row.get(c, 0) + g * v
                if x > half or x < -half:  # _balance, inlined in the hot loop
                    x %= p
                    if x > half:
                        x -= p
                if x:
                    if c not in row:
                        holders[c].add(s)
                    row[c] = x
                elif c in row:
                    del row[c]
                    holders[c].discard(s)
        for c in pivot:
            heappush(heap, (len(holders[c]), c))
    return -det if _is_odd(pivot_col) else det


def _balance(x: int, p: int, half: int) -> int:
    """The residue of x modulo p in [-half, half], where half = p // 2;
    x itself when it is already there."""
    if -half <= x <= half:
        return x
    x %= p
    return x - p if x > half else x


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
    return det_exact(build_kasteleyn(m, n)) * det_sign(m, n)
