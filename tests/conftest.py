"""Shared fixtures."""

import os
from heapq import heapify, heappop, heappush
from itertools import product
from pathlib import Path

import pytest

from residue_tilings import kasteleyn, limits
from residue_tilings.board import Board, LShapeSpec
from residue_tilings.kasteleyn import SparseMatrix
from residue_tilings.tiling import Domino

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports the package from src."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


class Built(Exception):
    """Raised where a builder patched with trip starts: the size check let
    the case through."""


def trip(*args, **kwargs):
    """Stands in for a builder, so that no matrix or board gets built."""
    raise Built


def domino(c1, c2):
    """The Domino of two cells given in either order, made through
    Domino's own checks."""
    return Domino(min(c1, c2), max(c1, c2))


def biadjacency(board):
    """B, the 0/1 matrix of board with one column per even cell (i + j
    even) and an entry 1 at each odd neighbour on board, listed left,
    right, below, above; None when the two colour classes differ in size,
    as then board has no tiling.  The reciprocity-free route built its B
    this way from the half Board, with a dict from odd cell to row; it
    serves as the reference for the route's index-arithmetic builder."""
    even = [(i, j) for i, j in board if (i + j) % 2 == 0]
    odd = {cell: row for row, cell in enumerate(
        (i, j) for i, j in board if (i + j) % 2)}
    if len(even) != len(odd):
        return None
    return SparseMatrix(tuple(
        {odd[c]: 1 for c in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
         if c in odd}
        for i, j in even
    ))


def l_board_reference(spec):
    """l_board as it was before it added its arms by zip and repeat: two
    generator expressions per non-empty chunk, with the corner cell added
    by both arms and dropped as a repeat by the Board.  It serves as the
    reference for l_board."""
    cells = []
    for k, (a, b) in enumerate(zip(spec.a, spec.b)):
        if a == 0 or b == 0:
            continue
        cells.extend((k + i, k + 1) for i in range(1, a + 1))
        cells.extend((k + 1, k + j) for j in range(1, b + 1))
    return Board(cells)


def l_chain_specs(arms, length):
    """Every LShapeSpec of run_l_closed_form(arms, length), in its order."""
    pairs = [(a, b) for a in range(length + 1) for b in range(length + 1) if abs(a - b) <= 1]
    return [LShapeSpec([a for a, _ in combo], [b for _, b in combo])
            for k in range(arms + 1) for combo in product(pairs, repeat=k)]


def det_exact_reference(matrix):
    """det_exact as it was before its elimination ran in place: on a copy
    of every column, with a set of holders per column, and the pivot row
    picked by min over (len(rows[s]), s).  It calls kasteleyn._is_odd and
    kasteleyn._fraction through the module, so a patch of either sees both
    eliminations; it serves as the reference for kasteleyn._eliminate."""
    dim = matrix.dim
    limits.check_dim("the matrix", dim)
    rows = [dict(column) for column in matrix.columns]
    holders = [set() for _ in rows]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    heap = [len(rs) << 32 | c for c, rs in enumerate(holders)]
    heapify(heap)
    pivot_col = [0] * dim
    det = 1
    for _ in rows:
        key = heappop(heap)
        while holders[k := key & 0xFFFFFFFF] is None or key >> 32 != len(holders[k]):
            key = heappop(heap)
        cands, holders[k] = holders[k], None
        if len(cands) == 1:
            r = cands.pop()
        elif cands:
            r = min(cands, key=lambda s: (len(rows[s]), s))
            cands.remove(r)
        else:
            return 0
        pivot_col[r] = k
        pivot = rows[r]
        a = pivot.pop(k)
        for c in pivot:
            holders[c].discard(r)
        det *= a
        inv = a if a in (1, -1) else kasteleyn._fraction(1, a)
        for s in cands:
            row = rows[s]
            g = -row.pop(k) * inv
            for c, v in pivot.items():
                x = row.get(c, 0) + g * v
                if x:
                    if c not in row:
                        holders[c].add(s)
                    row[c] = x
                elif c in row:
                    del row[c]
                    holders[c].discard(s)
        for c in pivot:
            heappush(heap, len(holders[c]) << 32 | c)
    det = int(det)
    return -det if kasteleyn._is_odd(pivot_col) else det
