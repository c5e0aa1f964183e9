"""Finite boards of 1-indexed lattice cells.

A cell is a pair (i, j) with i the column and j the row, both starting at 1.
Boards are immutable cell sets with a canonical lexicographic ordering, so
equal boards compare and serialize identically.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import count, product, repeat

from .gaussian import _Frozen, _set
from .residue import _check_pair

Cell = tuple[int, int]


class Board:
    """An immutable set of cells."""

    __slots__ = ("_cells", "_cellset")

    def __init__(self, cells: Iterable[Cell] = ()):
        seen: set[Cell] = set()
        for cell in cells:
            i, j = cell
            if not isinstance(i, int) or not isinstance(j, int):
                raise ValueError(f"cell coordinates must be ints, got {cell!r}")
            if i < 1 or j < 1:
                raise ValueError(f"cells are 1-indexed, got {cell!r}")
            seen.add((i, j))
        self._cells: tuple[Cell, ...] = tuple(sorted(seen))
        self._cellset: frozenset[Cell] = frozenset(seen)

    @classmethod
    def _sorted(cls, cells: Iterable[Cell]) -> "Board":
        """The board of cells known to be valid, built in this module from
        checked ints or taken from another board: each is already an (i, j)
        tuple of ints >= 1, so none is checked again.  They come sorted and
        distinct, and are kept as given."""
        board = cls.__new__(cls)
        board._cells = tuple(cells)
        board._cellset = frozenset(board._cells)
        return board

    @property
    def cells(self) -> tuple[Cell, ...]:
        return self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell: object) -> bool:
        return cell in self._cellset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Board):
            return NotImplemented
        return self._cellset == other._cellset

    def __hash__(self) -> int:
        return hash(self._cells)

    def __le__(self, other: "Board") -> bool:
        return self._cellset <= other._cellset

    def __sub__(self, other: "Board") -> "Board":
        return Board._sorted(c for c in self._cells if c not in other._cellset)

    def __repr__(self) -> str:
        return f"Board({list(self._cells)!r})"

    def bounds(self) -> tuple[int, int, int, int]:
        """(min_i, min_j, max_i, max_j); raises on the empty board."""
        if not self._cells:
            raise ValueError("empty board has no bounds")
        # the cells are sorted by i first, so the extreme i lie at the ends
        rows = [j for _, j in self._cells]
        return self._cells[0][0], min(rows), self._cells[-1][0], max(rows)

    def to_json_obj(self) -> list[list[int]]:
        return [[i, j] for i, j in self._cells]


class LShapeSpec(_Frozen):
    """Arm lengths for a chain of L-shaped chunks.

    Chunk k (0-based) is shifted by (k, k) and consists of a horizontal arm
    of a[k] cells along its bottom row and a vertical arm of b[k] cells along
    its left column, sharing the corner cell.  A chunk with a[k] == 0 or
    b[k] == 0 is empty.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Iterable[int], b: Iterable[int]) -> None:
        a, b = tuple(a), tuple(b)
        if not all(map(isinstance, both := a + b, repeat(int))):
            raise ValueError("arm lengths must be ints")
        if len(a) != len(b):
            raise ValueError("arm length lists must have equal length")
        if min(both, default=0) < 0:
            raise ValueError("arm lengths must be non-negative")
        _set(self, "a", a)
        _set(self, "b", b)


def rectangle(width: int, height: int) -> Board:
    """The full width x height board; width or height 0 gives the empty board."""
    if not isinstance(width, int) or not isinstance(height, int):
        raise ValueError("width and height must be ints")
    if width < 0 or height < 0:
        raise ValueError("width and height must be non-negative")
    return Board._sorted(product(range(1, width + 1), range(1, height + 1)))


def l_board(spec: LShapeSpec) -> Board:
    """The union of shifted L-shaped chunks described by spec."""
    return Board._sorted(_l_chain_cells(zip(count(), spec.a, spec.b)))


def _l_chain_cells(chunks: Iterable[tuple[int, int, int]]) -> tuple[Cell, ...]:
    """The sorted cells, none twice, of the chunks (k, a, b) of an L-chain."""
    cells: list[Cell] = []
    for k, a, b in chunks:
        if a and b:
            cells += zip(range(k + 1, k + a + 1), repeat(k + 1))
            cells += zip(repeat(k + 1), range(k + 2, k + b + 1))  # corner once
    return tuple(sorted(cells))


def half_board(m: int, n: int, diag: Iterable[int] = ()) -> Board:
    """The cells of the (m-1) x (n-1) rectangle strictly below the
    anti-diagonal i + j = (m+n)/2, plus the anti-diagonal cells
    ((m+n)/2 - a, a) for each a in diag.

    Requires m, n odd with m > n; diag must be a subset of 1..n-1.
    """
    marks = _half_board_diag(m, n, diag)
    mid = (m + n) // 2
    cells = [
        (i, j) for i in range(1, m) for j in range(1, n) if i + j < mid
    ]
    cells.extend((mid - a, a) for a in marks)
    return Board._sorted(sorted(cells))


def _half_board_diag(m: int, n: int, diag: Iterable[int] = ()) -> frozenset[int]:
    """Check the half-board contract (m, n odd positive ints, m > n, diag
    a subset of 1..n-1) and return diag as a frozenset."""
    _check_pair(m, n)
    if m % 2 == 0 or m <= n:
        raise ValueError("m must be odd and exceed n")
    marks = frozenset(diag)
    if not all(isinstance(a, int) and 0 < a < n for a in marks):
        raise ValueError("diag must be a subset of 1..n-1")
    return marks
