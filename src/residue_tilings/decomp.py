"""Combinatorial decomposition machinery for signed tiling sums.

This module carries the self-contained route to the main identity: closed
forms for L-shaped chains, closure-based board decompositions, the width
periodicity of rectangle sums, and the half-board analysis that produces
the signed sum without ever evaluating a Jacobi symbol.

The half-board sums come from the DP's column steps, with no Board: one
sweep of a window branches on its marks (half_board_sums).

The half-board sum enters that route only squared, and its square comes
from a determinant: a half board is simply connected, so by Kasteleyn's
theorem every tiling T has the same unit sgn(sigma_T) * i**v(T), where
sigma_T is T read as a matching of even cells to odd cells and v(T) counts
vertical dominoes.  Hence S**2 = (-1)**h * det(B)**2, with B the 0/1
even-against-odd matrix and h the common parity of horizontal dominoes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from . import limits
from .board import Board, LShapeSpec, _half_board_diag
from .gaussian import GaussianInt, ZERO, _Frozen, _set, i_power
from .kasteleyn import SparseMatrix, _eliminate
from .residue import _check_pair
from .tiling import (Tiling, _column_step, _i_power_sum, _plan, _tilings, count_tilings,
                     signed_sum)


class InvariantError(RuntimeError):
    """A computed value broke a proved invariant (raised, so python -O keeps it)."""


def l_signed_sum_closed(spec: LShapeSpec) -> GaussianInt:
    """Closed form of the signed sum of an L-chain with |a_k - b_k| <= 1:
    zero if any chunk is a square (a_k == b_k != 0), otherwise the product
    of i**floor(a_k / 2).  Every chunk is checked, also after a square one."""
    square, half = False, 0
    for a, b in zip(spec.a, spec.b):
        if abs(a - b) > 1:
            raise ValueError("arm lengths must differ by at most 1 in each chunk")
        square, half = square or a == b != 0, half + a // 2
    return ZERO if square else i_power(half)


def closure(tiling: Tiling, subset: Board) -> Board:
    """The smallest superset of subset such that no domino of tiling
    crosses its boundary.  Dominoes are disjoint, so it is the union of
    the dominoes that meet subset."""
    if not subset <= tiling.board:
        raise ValueError("subset must lie inside the board")
    return Board(cell for d in tiling.dominoes
                 if d.a in subset or d.b in subset for cell in d.cells)


def closure_union(board: Board, subset: Board) -> Board:
    """Union of the closures of subset over every tiling of board; the
    empty board when board has no tilings.

    No tiling is listed.  On a tilable board every cell of subset lies in
    the union, and a cell c outside it lies there exactly when some tiling
    holds a domino {s, c} with s in subset, that is, exactly when board
    minus {s, c} has a tiling: that tiling plus {s, c} tiles board, and
    any tiling holding {s, c} leaves one of board minus {s, c}.  So it
    takes one count per edge leaving subset.  Boards above the cell limit
    of enumerate_tilings are refused all the same.
    """
    if not subset <= board:
        raise ValueError("subset must lie inside the board")
    limits.check_cells(board)
    if not count_tilings(board):
        return Board()
    union = set(subset)
    for i, j in subset:
        for c in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if (c in board and c not in union
                    and count_tilings(board - Board([(i, j), c]))):
                union.add(c)
    return Board(union)


def restricted_sum(subset: Board, board: Board) -> GaussianInt:
    """Sum of i**h(D) over tilings D of board whose closure of subset is
    the whole board, that is, each of whose dominoes meets subset; read off
    the codes of tiling._tilings, flagged by meets[code], building no Tiling."""
    if not subset <= board:
        raise ValueError("subset must lie inside the board")
    meets = [(i, j) in subset or p in subset
             for i, j in board.cells for p in ((i + 1, j), (i, j + 1))]
    return _i_power_sum(h for placed, h in _tilings(board.cells)
                        if all(meets[code] for code in placed))


class DecompositionReport(_Frozen):
    """The sides and terms of verify_decomposition, compared by identity."""

    __slots__ = ("board", "subset", "closure", "lhs", "rhs", "terms")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, board: Board, subset: Board, closure: Board, lhs: GaussianInt,
                 rhs: GaussianInt, terms: tuple[tuple[Board, GaussianInt, GaussianInt], ...]) -> None:
        for name, value in zip(self.__slots__, (board, subset, closure, lhs, rhs, terms)):
            _set(self, name, value)

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def verify_decomposition(board: Board, subset: Board) -> DecompositionReport:
    """Check S(X) = sum over T <= U <= Cl(T) of S(X \\ U) * S(T; U), where
    S(T; U) restricts to tilings of U that close T to all of U.

    Both sides are computed exactly.  Each term records (U, S(X \\ U),
    S(T; U)).  The number of intermediate boards is 2**|Cl(T) \\ T|, so
    that gap is capped by FREE_CELL_LIMIT.
    """
    if not subset <= board:
        raise ValueError("subset must lie inside the board")
    lhs = signed_sum(board)
    clo = closure_union(board, subset)
    terms: list[tuple[Board, GaussianInt, GaussianInt]] = []
    rhs = ZERO
    if subset <= clo:
        free = (clo - subset).cells
        limits.check(len(free), limits.FREE_CELL_LIMIT,
                     "{} free closure cells exceed limit {}")
        for picks in range(1 << len(free)):
            extra = [free[p] for p in range(len(free)) if picks >> p & 1]
            middle = Board(subset.cells + tuple(extra))
            outside = signed_sum(board - middle)
            closing = restricted_sum(subset, middle)
            terms.append((middle, outside, closing))
            rhs = rhs + outside * closing
    return DecompositionReport(board, subset, clo, lhs, rhs, tuple(terms))


def periodicity_factor(n: int) -> GaussianInt:
    """Multiplier relating rectangle sums of heights n and widths m and
    m + n + 1: i**floor((n + 1)^2 / 4).  That is i**((n^2 + 2n + 1) / 4)
    for odd n, and i**((n^2 + 2n) / 4) for even n, where n^2 + 2n is a
    multiple of 8, so the factor is real."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive int")
    return i_power((n + 1) ** 2 // 4)


def admissible_diagonal(m: int, n: int) -> frozenset[int]:
    """The unique anti-diagonal index set with a nonzero half-board
    contribution: the residues k * (m/2 mod n) for k in 1..(n-1)/2.

    Requires odd coprime m, n with n < m < 3n.
    """
    _check_window(m, n)
    if math.gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    step = _window_residue(m, n)
    return frozenset(k * step % n for k in range(1, (n - 1) // 2 + 1))


def half_board_support(m: int, n: int, diag: Iterable[int]) -> bool:
    """Whether the index set diag satisfies the three support conditions
    under which the half-board sum is nonzero."""
    marks = _check_window(m, n, diag)
    t = _window_residue(m, n)
    if t not in marks:
        return False
    for i in range(1, n):
        j = (t - i) % n
        if i < j < n and len({i, j} & marks) != 1:
            return False
        if (2 * i - t) % n == 0 and i in marks:
            return False
    return True


def half_board_sum(m: int, n: int, diag: Iterable[int]) -> GaussianInt:
    """Exact signed sum of the half board with anti-diagonal cells diag,
    the single path of half_board_sums.

    The value is always one of 0, 1, -1, i, -i, and can be nonzero only
    when diag satisfies the support conditions; a value that breaks
    either fact raises InvariantError.
    """
    (value,) = half_board_sums(m, n, diag=diag).values()
    return value


def half_board_sums(m: int, n: int, signed: bool = True, diag: Iterable[int] | None = None) -> dict:
    """The signed sum (checked as in half_board_sum), or unsigned the
    parity_counts, of the half board at every diagonal of the window
    (m, n), or at diag alone, keyed by its marks in ascending order.

    One DP sweep from the staircase's tip, as _profile_sum sweeps the
    board, but with no Board: column (m+n)/2 - a holds rows 1..a-1, and
    row a if marked, all with right neighbours in column (m+n)/2 - a - 1,
    so the sweep branches on each mark, on a stack, and
    each leaf then steps the (m-n)/2 full columns.  A leaf of odd size,
    (m-2)(n-1)/2 plus its marks, reads 0 and skips its last column.
    """
    marks = _check_window(m, n, () if diag is None else diag)
    if diag is None:
        limits.check_diagonals(n)
    full = tuple(range(n - 1))
    columns = [None] + [[_plan(full[:a - 1 + mark], full[:a], signed) for mark in (0, 1)]
                        for a in range(1, n)]
    tail = [_plan(full, full, signed)] * ((m - n) // 2 - 1) + [_plan(full, (), signed)]
    cells = (m - 2) * (n - 1) // 2
    f = (m - n) // 2 * (n - 1) // 2 + sum(a // 2 for a in range(1, n))  # cells on odd rows j
    values, stack = {}, [(1, (), {0: 1})]
    while stack:
        a, picks, states = stack.pop()
        if a < n:
            for mark in (0, 1) if diag is None else (a in marks,):
                marked = picks + (a,) if mark else picks
                if a < n - 1 or (cells + len(marked)) % 2 == 0:
                    stack.append((a + 1, marked, _column_step(states, columns[a][mark])))
                else:
                    values[marked] = ZERO if signed else (0, 0)
            continue
        for windows in tail:
            states = _column_step(states, windows)
        value, e = states.get(0, 0), (cells + len(picks)) // 2 - f - sum(p % 2 for p in picks)
        if signed:
            value = i_power(e) * value
            _check_half_board(m, n, frozenset(picks), "sum", value, _HALF_BOARD_VALUES)
        values[picks] = value if signed else ((0, value) if e % 2 else (value, 0))
    return values


_HALF_BOARD_VALUES = frozenset([ZERO, *(i_power(k) for k in range(4))])


def _check_half_board(m: int, n: int, marks: frozenset[int], what: str,
                      value, allowed) -> None:
    """Raise InvariantError unless value, the half-board what at marks,
    lies in allowed and is zero off the support conditions."""
    if value not in allowed:
        raise InvariantError(f"half-board {what} {value} out of range")
    if value != 0 and not half_board_support(m, n, marks):
        raise InvariantError(f"nonzero half-board {what} at unsupported diag "
                             f"{sorted(marks)}")


def half_board_parity(m: int, n: int, diag: Iterable[int]) -> int:
    """Common parity of h(D) over tilings of the half board:
    (n-1)/4 - #diag/2 + #(odd elements of diag), reduced mod 2.

    It is an integer exactly when 4 divides n - 1 - 2 #diag; otherwise the
    half board is untilable and ValueError is raised.
    """
    marks = _half_board_diag(m, n, diag)
    quarters = n - 1 - 2 * len(marks)
    if quarters % 4:
        raise ValueError(f"parity expression is {quarters}/4 plus an int (untilable)")
    return (quarters // 4 + sum(1 for a in marks if a % 2)) % 2


def _half_board_matrix(m: int, n: int, marks: frozenset[int]) -> SparseMatrix | None:
    """B from (m, n, marks) alone: column i < (m+n)/2 of the half board is
    rows 1..t[i], and each even cell is a column with a 1 at each odd
    neighbour, left, right, below, above; None if colour classes differ."""
    mid = (m + n) // 2
    t = [0] + [min(n - 1, mid - 1 - i) + (mid - i in marks) for i in range(1, mid)] + [0]
    rows = 0  # the odd cell (i, j) is row first[i] + (j-1)//2
    first = [0] + [rows := rows + (height + 1 - i % 2) // 2 for i, height in enumerate(t)]
    if sum(t) != 2 * rows:
        return None
    ids = list(range(rows))  # one int per row for all its columns: 20 MB less at d = 216000
    return SparseMatrix(
        {ids[first[a] + (b - 1) // 2]: 1
         for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)) if 0 < b <= t[a]}
        for i in range(1, mid) for j in range(2 - i % 2, t[i] + 1, 2))


def half_board_square(m: int, n: int, diag: Iterable[int]) -> int:
    """Square of the signed sum of the half board with anti-diagonal cells
    diag, as (-1)**h * det(B)**2 (see the module docstring).  |det B| is
    at most 1, and nonzero only when diag satisfies the support
    conditions; a value that breaks either fact raises InvariantError.

    The board has (m-2)(n-1)/2 cells below the anti-diagonal and one on it
    per mark, so a square B has half as many columns: (m-1)(n-1)/4 at the
    admissible diagonal.  Raises SizeLimitError, before the build, when
    that dimension exceeds MAX_DIM.
    """
    marks = _check_window(m, n, diag)
    limits.check_dim(f"B at m = {m}, n = {n}", ((m - 2) * (n - 1) // 2 + len(marks)) // 2)
    matrix = _half_board_matrix(m, n, marks)
    if matrix is None:
        return 0
    det = _eliminate(matrix.columns)  # B is not read again
    _check_half_board(m, n, marks, "determinant", det, (-1, 0, 1))
    return (-1) ** half_board_parity(m, n, marks) if det else 0


def reciprocity_free_sum(m: int, n: int) -> int:
    """Signed tiling sum of the (m-1) x (n-1) rectangle computed by the
    combinatorial route alone: width periodicity reduces m into the window
    n < m < 3n with m odd, where the sum is the square of the half-board
    sum at the admissible diagonal.  No Jacobi symbols are evaluated.

    Raises SizeLimitError, before the diagonal is built, when B at the
    window's m, of dimension (m-1)(n-1)/4, exceeds MAX_DIM.
    """
    _check_pair(m, n)
    if math.gcd(m, n) > 1:
        return 0
    if n == 1:
        return 1
    r = m % n
    base = n + r if (n + r) % 2 else 2 * n + r
    steps = (m - base) // n
    # Each width step of n multiplies the sum by periodicity_factor(n - 1),
    # which is real for odd n; steps is negative below the window, so only
    # its parity enters, keeping the sign an int.
    sign = periodicity_factor(n - 1).re ** (steps % 2)
    # before the diagonal, which holds (n - 1)/2 marks
    limits.check_dim(f"B at m = {base}, n = {n}", (base - 1) * (n - 1) // 4)
    return sign * half_board_square(base, n, admissible_diagonal(base, n))


def _window_residue(m: int, n: int) -> int:
    """The residue m/2 mod n, which for odd m in the window n < m < 3n is
    exactly (m - n)/2."""
    return (m - n) // 2


def _check_window(m: int, n: int, diag: Iterable[int] = ()) -> frozenset[int]:
    marks = _half_board_diag(m, n, diag)
    if m >= 3 * n:
        raise ValueError("m must satisfy n < m < 3n")
    return marks
