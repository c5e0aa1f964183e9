"""Resource limits: SizeLimitError (exit 2 in the CLI), every cap, and the
one check that refuses a size past its cap before the work it would cost."""

from __future__ import annotations

import os

# cells of a board searched for tilings; a positive int in
# RESIDUE_TILINGS_LIMIT replaces the default
DEFAULT_CELL_LIMIT = 36
ENV_CELL_LIMIT = "RESIDUE_TILINGS_LIMIT"
# live profile states after one window of the DP, and states its memo keeps;
# also the 2^(n-1) diagonals of one half-board window sweep, so n <= 17
MAX_STATES = 1 << 16
# The largest dimension eliminated, checked from (m, n) before a matrix is
# built: it keeps the build and elimination of every admitted matrix within
# 1 GB of address space.  In place, the elimination peaks at 180 MB RSS for
# K at (1023, 529), d = 269808, 138 MB for B at (1041, 1039), d = 269880,
# and 130 MB for the widest 2 x N board, (270001, 3).  K at (1024, 529),
# d = 270072, and B at (1043, 1039), d = 270399, are refused.
MAX_DIM = 270000
# free cells of a closure in verify_decomposition, which sums over their subsets
FREE_CELL_LIMIT = 16
# bytes of the dense JSON of detk --matrix
MAX_JSON_BYTES = 10**9


class SizeLimitError(RuntimeError):
    """A board, profile-state set, matrix or output exceeded a resource limit."""


def check(size: int, cap: int, text: str) -> None:
    """Raise SizeLimitError(text.format(size, cap)) when size exceeds cap."""
    if size > cap:
        raise SizeLimitError(text.format(size, cap))


def cell_limit(limit: int | None = None) -> int:
    """limit, or when it is None RESIDUE_TILINGS_LIMIT, or 36 when that is
    unset; a limit from either source that is not a positive int raises
    ValueError."""
    source, raw = "enumeration limit", limit
    if limit is None:
        source, raw = ENV_CELL_LIMIT, os.environ.get(ENV_CELL_LIMIT)
        if not raw:
            return DEFAULT_CELL_LIMIT
        limit = int(raw) if raw.isdecimal() else None
    if not (isinstance(limit, int) and limit > 0):
        raise ValueError(f"{source} must be a positive int, got {raw!r}")
    return limit


def check_cells(board, limit: int | None = None) -> None:
    """Refuse a board, or a count of cells, past cell_limit(limit)."""
    size = board if isinstance(board, int) else len(board)
    check(size, cell_limit(limit), "board has {} cells, enumeration limit is {}")


def check_dim(what: str, dim: int) -> None:
    """Refuse dim, the dimension of what, past MAX_DIM."""
    check(dim, MAX_DIM, what + " has dimension {}, over the dimension limit {}")


def check_diagonals(n: int) -> None:
    """Refuse a sweep of the 2^(n-1) diagonals of window (m, n) past MAX_STATES."""
    check(1 << (n - 1), MAX_STATES, "{} diagonals exceed limit {}")
