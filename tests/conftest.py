"""Shared fixtures."""

import os
from pathlib import Path

import pytest

from residue_tilings.kasteleyn import SparseMatrix

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
