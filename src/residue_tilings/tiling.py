"""Domino tilings, signed sums, and flip moves.

The signed sum of a board X is sum over tilings D of i**h(D), where h(D)
counts horizontal dominoes.  Two independent evaluation routes live here:
a backtracking search (the oracle, limited to small boards), whose codes
and h back enumerate_tilings, signed_sum_bruteforce, decomp.restricted_sum
and the flips, which run on ints of codes, and a broken-profile dynamic
program that sweeps the board column by column, covering up to WINDOW_ROWS
consecutive cells of a column in one pass over its states through a
table of the window's placements, built once per window shape and row
parity and shifted to each row, so each placement is one int to xor.
The DP is one kernel with one flag: signed, it weighs each horizontal
domino on an even row by -1, which gives the signed sum up to a power of i
that the board fixes; unsigned, it counts the tilings, all of whose h
share the parity that power gives.  A rectangle is swept only up to its
middle column: the right half, mirrored, is the left half, so the sum is
assembled from the profiles of one half sweep.  The states after each
whole column of a rectangle, one per row mirror orbit since turning it
upside down keeps h, are kept in one memo by profile height, sign and
column, within MAX_STATES in total, the oldest column dropped first, so
that the next rectangle of that height, upright or turned, reads its
middle columns from the memo or sweeps on from the highest kept column
below them.  Any other board is swept whole, from its short end.  The
column plans, window tables and row reversals are functools.cache
functions, which _forget_memos empties, and a rectangle reads its column
plan from the same cache as any other board.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from functools import cache, total_ordering
from itertools import groupby
from operator import attrgetter, itemgetter

from . import limits
from .board import Board, Cell, rectangle
from .gaussian import GaussianInt, _Frozen, _set

WINDOW_ROWS = 4


@total_ordering
class Domino(_Frozen):
    """Two adjacent cells; ``a`` is the lexicographically smaller one.
    Dominoes are ordered as their (a, b) pairs."""

    __slots__ = ("a", "b")

    def __init__(self, a: Cell, b: Cell) -> None:
        (ai, aj), (bi, bj) = a, b
        if (bi - ai, bj - aj) not in ((1, 0), (0, 1)):
            raise ValueError(f"cells {a} and {b} do not form a domino")
        _set(self, "a", a)
        _set(self, "b", b)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.a, self.b) < (other.a, other.b)
        return NotImplemented

    @property
    def horizontal(self) -> bool:
        return self.a[1] == self.b[1]

    @property
    def cells(self) -> tuple[Cell, Cell]:
        return (self.a, self.b)


class Tiling(_Frozen):
    """A perfect cover of a board by dominoes, stored in canonical order."""

    __slots__ = ("board", "dominoes")

    def __init__(self, board: Board, dominoes: Iterable[Domino]) -> None:
        # the Domino order, without calling Domino.__lt__ per comparison
        doms = tuple(sorted(dominoes, key=attrgetter("a", "b")))
        cells = [cell for d in doms for cell in (d.a, d.b)]
        covered = set(cells)
        # one set comparison accepts a cover; the loop only names a fault
        if not (len(cells) == len(covered) == len(board) and covered.issuperset(board)):
            covered.clear()
            for cell in cells:
                if cell not in board:
                    raise ValueError(f"domino cell {cell} not on the board")
                if cell in covered:
                    raise ValueError(f"cell {cell} covered twice")
                covered.add(cell)
            raise ValueError("dominoes do not cover the whole board")
        _set(self, "board", board)
        _set(self, "dominoes", doms)

    def cover_map(self) -> dict[Cell, Domino]:
        return {cell: d for d in self.dominoes for cell in d.cells}


def horizontal_count(tiling: Tiling) -> int:
    return sum(1 for d in tiling.dominoes if d.horizontal)


def _tilings(cells, limit=None):
    """Each tiling of the board of cells, sorted and distinct as Board.cells,
    as (placed, h): placed codes each domino 2 * k + s, k its lower left
    cell's index in cells and s 0 when it is horizontal, 1 when vertical,
    and h counts the horizontal ones; placed is the search's own stack, so
    read it before the next tiling.  The smallest uncovered cell takes its
    right neighbour first, then its upper one, on an explicit stack (no
    recursion limit).  The cell limit, limits.cell_limit(limit), comes
    first; then a board is searched only if exactly half its cells have
    i + j odd, as each domino covers one cell of each colour (so no board
    of odd size is searched)."""
    limits.check_cells(cells, limit)
    size = len(cells)
    if 2 * sum([(i + j) & 1 for i, j in cells]) != size:
        return
    # ends[code]: the index of the domino's other cell, lex-greater, or the
    # always covered sentinel off the board and at the scan's end, k = size
    sentinel = size + 1
    index = dict(zip(cells, range(size))).get
    ends = []
    for i, j in cells:
        ends += (index((i + 1, j), sentinel), index((i, j + 1), sentinel))
    ends += (sentinel, sentinel)
    covered = bytearray(size) + b"\0\1"  # the scan stops at size
    placed: list[int] = []
    idx = slot = h = 0
    while True:
        while covered[idx]:
            idx += 1
        while slot < 2 and covered[ends[2 * idx + slot]]:
            slot += 1
        if slot < 2:
            code = 2 * idx + slot
            covered[idx] = covered[ends[code]] = 1
            placed.append(code)
            h += 1 - slot
            idx, slot = idx + 1, 0
            continue
        if idx == size:
            yield placed, h
        # a tiling or a dead end: take back the last domino, try its next slot
        if not placed:
            return
        code = placed.pop()
        idx, slot = code >> 1, code & 1
        covered[idx] = covered[ends[code]] = 0
        h -= 1 - slot
        slot += 1


def _i_power_sum(hs: Iterable[int]) -> GaussianInt:
    """The sum of i**h over hs, from the counts of h mod 4."""
    counts = [0] * 4
    for h in hs:
        counts[h & 3] += 1
    return GaussianInt(counts[0] - counts[2], counts[1] - counts[3])


def enumerate_tilings(board: Board) -> list[Tiling]:
    """All tilings of board, in the order of the search _tilings, decoded
    by one _decoder.  Boards past the cell limit (default 36, overridable
    via RESIDUE_TILINGS_LIMIT, read once) are refused before any Domino."""
    limits.check_cells(board, limit := limits.cell_limit())
    decode = _decoder(board)
    return [decode(placed) for placed, _ in _tilings(board.cells, limit)]


def signed_sum_bruteforce(board: Board) -> GaussianInt:
    """Oracle: sum i**h(D) by explicit enumeration, building no Tiling."""
    return _i_power_sum(h for _, h in _tilings(board.cells))


def signed_sum(board: Board) -> GaussianInt:
    """Sum of i**h(D) over all tilings D of board, computed exactly."""
    value, e = _profile_sum(board, True)
    value = -value if e & 2 else value  # i**e * value, as i**2 = -1
    return GaussianInt(0, value) if e & 1 else GaussianInt(value)


def count_tilings(board: Board) -> int:
    """Number of tilings of board (the unsigned profile sweep)."""
    return _profile_sum(board, False)[0]


def parity_counts(board: Board) -> tuple[int, int]:
    """Numbers of tilings D of board with h(D) even and with h(D) odd."""
    count, e = _profile_sum(board, False)
    return (0, count) if e % 2 else (count, 0)


def _profile_sum(board, signed):
    """(V, e) with h(D) = e mod 2 for every tiling D of board: unsigned, V
    is the number of tilings, and signed, the sum of i**h(D) is i**e * V.

    The sign rule: a vertical domino covers a cell of an even row and one
    of an odd row, a horizontal one two cells of one row, so on N cells, f
    of them on even rows (counted from the lowest), every tiling has h =
    N/2 - f + 2 * h_even, h_even its horizontal dominoes on even rows.  So
    the signed sweep weighs those by -1, and e = N/2 - f.  A bounding box
    taller than wide is swept turned, as X^T, and a turn takes h to N/2 - h,
    so there e = f.

    Broken-profile DP in column order.  Bit y of a state is set when the
    next cell of row y is already covered, and a state carries the summed
    weight of its partial tilings.  Each pass over the states covers a
    window of up to WINDOW_ROWS consecutive cells of a column (_window_step,
    its placements from _window_table).  States whose weight has cancelled
    to 0 are skipped, and dropped at the end of each column.  A window step
    whose live states outgrow MAX_STATES raises SizeLimitError, since time
    grows with the states.

    A rectangle is read by its size and bounds alone.  Any other board is
    swept whole, its windows cut from the runs of consecutive cells in each
    column by its rows and the next swept column's (_plan), from
    its short end: when its last column holds fewer cells than its first,
    its columns are walked in reverse, mirrored by i -> -i (rows kept).

    Fold: a rectangle is swept to column ceil(W/2) of its W.  Cut between
    columns k = floor(W/2) and k + 1, and let p be the rows a domino crosses
    the cut in: the right part, mirrored, is a left sweep of W - k columns
    ending in p.  Both weigh the crossing dominoes, so V is sum_p L_k[p] *
    L_(W-k)[p], signed times -1 per even row of p, L_c being the states
    after c columns.  Turned upside down, a rectangle keeps h, so L_c[p] =
    L_c[rev p], and both take one sign: rev keeps row parity for odd h,
    and p has an even number of bits for even h.  With orbit sums a_q, c_q at q = min(p,
    rev p) (_fold_states; one dict for even W), V sums a_q * c_q, halved
    unless q is a palindrome.
    """
    size = len(board)
    if not size:
        return 1, 0
    if size % 2:
        return 0, 0
    min_i, min_j, max_i, max_j = board.bounds()
    width, height = max_i - min_i + 1, max_j - min_j + 1
    turned = height > width
    if turned:
        min_j = min_i
        width, height = height, width
    if size == width * height:
        # a rectangle, at least two columns wide as its cell count is even
        f = width * ((height + 1) // 2)
        left, right = _fold_states(height, signed, width)
        evens = sum(1 << y for y in range(0, height, 2)) if signed else 0
        half, mask, low, high = _reversals(height)
        value = 0
        for p, a in left.items():
            c = right.get(p)
            if c:
                ac = a * c if low[p & mask] | high[p >> half] == p else a * c // 2
                value += -ac if (p & evens).bit_count() % 2 else ac
    else:
        cells = sorted((j, i) for i, j in board.cells) if turned else board.cells
        f = sum((j - min_j) % 2 == 0 for _, j in cells)
        columns = [(i, tuple(j - min_j for _, j in column))
                   for i, column in groupby(cells, itemgetter(0))]
        if len(columns[-1][1]) < len(columns[0][1]):
            columns = [(-i, rows) for i, rows in reversed(columns)]
        columns.append((None, ()))
        states = {0: 1}
        for (i, rows), (after, next_rows) in zip(columns, columns[1:]):
            states = _column_step(states, _plan(rows, next_rows if after == i + 1 else (), signed))
        value = states.get(0, 0)
    return value, f if turned else size // 2 - f


def _window_step(states, y, table):
    """The states after covering the window of cells from row y up whose
    placements table gives (see _window_table); states whose weight has
    cancelled to 0 are skipped."""
    new_states: dict[int, int] = {}
    get = new_states.get
    low = len(table) - 1
    for mask, w in states.items():
        if not w:
            continue
        plus, minus = table[(mask >> y) & low]
        for x in plus:
            key = mask ^ x
            new_states[key] = get(key, 0) + w
        for x in minus:
            key = mask ^ x
            new_states[key] = get(key, 0) - w
    if len(new_states) > limits.MAX_STATES:
        # only live states count against the limit
        new_states = {key: w for key, w in new_states.items() if w}
        limits.check(len(new_states), limits.MAX_STATES, "{} profile states exceed limit {}")
    return new_states


@cache
def _plan(rows, next_rows, signed):
    """(y, table) for each window of a column of rows, ascending, before a
    column of next_rows, or of () when none is adjacent: its profile rows,
    in ascending order, cut into runs of consecutive rows of at most
    WINDOW_ROWS; a cell has a right neighbour when its row is in next_rows,
    so only the rows of next_rows that neighbour rows count."""
    rights = list(map(set(next_rows).__contains__, rows))  # linear in the column's height
    windows, start = [], 0
    for k, y in enumerate(rows):
        up = k + 1 < len(rows) and rows[k + 1] == y + 1
        if not up or k + 1 - start == WINDOW_ROWS:
            row = rows[start]
            windows.append((row, _window_table(tuple(rights[start:k + 1]), up, signed, row)))
            start = k + 1
    return windows


@cache
def _window_table(rights, up, signed, y):
    """The placements of a window of L = len(rights) cells, one above
    another from row y: rights[k] tells whether cell k has a right
    neighbour, up whether a cell sits above the window, and signed whether
    a horizontal domino on an even row weighs -1.

    table[b | a << L], for the window's profile bits b and the bit a above
    it, is a pair (plus, minus) of the ways to cover the window: each is one
    int x that takes a state's mask to mask ^ x, adding its weight there
    under plus and subtracting it under minus.  The ways are found on the
    window's own L + 1 bits and shifted to row y once here, so the kernel
    shifts nothing.  Only the row's parity moves a sign, so a table is
    stepped out only at row y % 2 (signed) or 0 (unsigned); at any other
    row it is that table shifted.
    """
    d = y - y % 2 if signed else y  # rows above the one it is built at
    return _window_ways(rights, up, signed, y) if not d else [
        ([x << d for x in plus], [x << d for x in minus])
        for plus, minus in _window_table(rights, up, signed, y - d)]


def _window_ways(rights, up, signed, y):
    """The table of _window_table at row y, from its cell steps."""
    length = len(rights)
    table = [([], []) for _ in range(2 << length)]
    for start, (plus, minus) in enumerate(table):
        # the cell steps of the window, on its own bits, from one start
        states = {start: False}
        for k, right in enumerate(rights):
            bit, new_states = 1 << k, {}
            above = bit << 1 if k + 1 < length or up else 0
            on_even = signed and (y + k) % 2 == 0
            for mask, negate in states.items():
                if mask & bit:
                    new_states[mask ^ bit] = negate
                    continue
                if right:
                    new_states[mask | bit] = negate ^ on_even
                if above and not mask & above:
                    new_states[mask | above] = negate
            states = new_states
        for end, negate in states.items():
            (minus if negate else plus).append((end ^ start) << y)
    return table


def _column_step(states, windows):
    """The states after every window of one column, without those whose
    weight has cancelled to 0."""
    for y, table in windows:
        states = _window_step(states, y, table)
    return {key: w for key, w in states.items() if w}


def _orbit_step(orbits, windows, height):
    """The orbit sums after one more whole column of a rectangle of a
    profile height high: the windows step one state per orbit, and each
    state p left adds its weight at min(p, rev p).  As p and rev p cancel
    only there, a column whose window passes MAX_STATES is stepped again
    from the whole states, each orbit's sum halved between its members."""
    try:
        states = orbits
        for y, table in windows:
            states = _window_step(states, y, table)
    except limits.SizeLimitError:
        if orbits == {0: 1}:
            raise  # column 1, whose whole states are these
        half, mask, low, high = _reversals(height)
        states = {}
        for q, w in orbits.items():
            r = low[q & mask] | high[q >> half]
            states[q] = states[r] = w if q == r else w // 2
        states = _column_step(states, windows)
    half, mask, low, high = _reversals(height)
    get = states.get
    orbits = {}
    for p, w in states.items():
        r = low[p & mask] | high[p >> half]
        if p < r:
            w += get(r, 0)
        elif p > r and r in states:
            continue  # the orbit is summed at r
        if w:
            orbits[r if r < p else p] = w
    return orbits


@cache
def _reversals(height):
    """(half, mask, low, high) for height, with rev p = low[p & mask] |
    high[p >> half], built once a column of it fits."""
    half, top = height // 2, height - height // 2
    return (half, (1 << half) - 1,
            [int(f"{x:0{half}b}"[::-1], 2) << top for x in range(1 << half)],
            [int(f"{x:0{top}b}"[::-1], 2) for x in range(1 << top)])


# (profile height, signed, c) -> the states after c whole columns of a
# rectangle, oldest first; _held counts the states they hold
_SNAPSHOTS: OrderedDict[tuple, dict[int, int]] = OrderedDict()
_held = 0


def _forget_memos():
    """Empty every memo of the DP, so that the next sweep builds what it needs."""
    global _held
    for memo in (_plan, _window_table, _reversals):
        memo.cache_clear()
    _SNAPSHOTS.clear()
    _held = 0


def _fold_states(height, signed, width):
    """The orbit sums after floor(w/2) and after ceil(w/2) whole columns of
    a rectangle w = width wide, of a profile height high and signed or not.

    A column commutes with the row mirror, so _orbit_step is exact.  Every
    column before the last has a right neighbour, so the orbit sums after
    c < w columns do not depend on w: _SNAPSHOTS keeps them.  A read starts
    from the highest kept column at or below it, or from column 0, and
    keeps each column it sweeps once all of its window steps have passed;
    a kept column is read without stepping a window or looking up a table.
    While the held states pass MAX_STATES, the oldest kept column is dropped.
    """
    global _held
    rows = tuple(range(height))
    windows = _plan(rows, rows, signed)
    folds = []
    for column in (width // 2, (width + 1) // 2):
        c = column
        while c and (height, signed, c) not in _SNAPSHOTS:
            c -= 1
        states = _SNAPSHOTS[height, signed, c] if c else {0: 1}
        while c < column:
            states = _orbit_step(states, windows, height)
            c += 1
            _SNAPSHOTS[height, signed, c] = states
            _held += len(states)
            while _held > limits.MAX_STATES:
                _held -= len(_SNAPSHOTS.popitem(last=False)[1])
        folds.append(states)
    return folds


def _codes(t: int) -> list[int]:
    """The codes (see _tilings) whose bits the int t sets, ascending."""
    return [code for code in range(t.bit_length()) if t >> code & 1]


def _decoder(board: Board):
    """codes -> the Tiling of board they code, from one Domino per code."""
    made = [Domino((i, j), cell) for i, j in board.cells for cell in ((i + 1, j), (i, j + 1))]
    return lambda codes: Tiling(board, [made[code] for code in codes])


def _flip_squares(tiling: Tiling) -> tuple[int, list[tuple[Cell, int, int]]]:
    """tiling as the int t with bit c set per code c of its dominoes, and
    (corner, H, V) for each 2x2 square of its board whose four cells lie on
    it, in board order: H sets the bits of the codes of the square's two
    horizontal dominoes, V those of its two vertical ones.  t holds a flip
    there when t & (H | V) is H or V, and the flip is t ^ H ^ V."""
    cells = tiling.board.cells
    pos = dict(zip(cells, range(len(cells))))
    t = sum(1 << 2 * pos[d.a] + (not d.horizontal) for d in tiling.dominoes)
    return t, [((i, j), 1 << 2 * k | 1 << 2 * pos[i, j + 1], 2 << 2 * k | 2 << 2 * pos[i + 1, j])
               for k, (i, j) in enumerate(cells)
               if pos.keys() >= {(i + 1, j), (i, j + 1), (i + 1, j + 1)}]


def _flip_search(tiling: Tiling) -> dict[int, int]:
    """flip_component on ints of codes (_flip_squares); past the cell limit
    the board is refused before the search, which holds the component."""
    limits.check_cells(tiling.board)
    start, squares = _flip_squares(tiling)
    squares = [(h | v, (h, v)) for _, h, v in squares]
    parents = {start: start}
    queue = [start]
    for t in queue:
        for both, pairs in squares:
            if t & both in pairs and t ^ both not in parents:
                parents[t ^ both] = t
                queue.append(t ^ both)
    return parents


def flip_at(tiling: Tiling, corner: Cell) -> Tiling:
    """Rotate the two parallel dominoes covering the 2x2 square whose
    lower-left cell is corner; raises ValueError unless the square lies on
    the board and is covered by exactly two parallel dominoes."""
    t, squares = _flip_squares(tiling)
    for at, h, v in squares:
        if at == corner and t & (h | v) in (h, v):
            return _decoder(tiling.board)(_codes(t ^ h ^ v))
    raise ValueError(f"square at {corner} is not covered by a parallel pair")


def flip_moves(tiling: Tiling) -> list[Tiling]:
    """All tilings one flip away, ordered by the flipped square's corner."""
    (t, squares), decode = _flip_squares(tiling), _decoder(tiling.board)
    return [decode(_codes(t ^ h ^ v)) for _, h, v in squares if t & (h | v) in (h, v)]


def flip_component(tiling: Tiling) -> dict[Tiling, Tiling]:
    """Breadth-first search of the flip graph from tiling: maps every
    tiling reachable by flips to its parent on a shortest flip path back
    to tiling, which is its own parent; see _flip_search."""
    parents = _flip_search(tiling)
    decode = _decoder(tiling.board)
    tilings = {t: decode(_codes(t)) for t in parents}
    return {tilings[t]: tilings[parent] for t, parent in parents.items()}


def totally_vertical_tiling(m: int, n: int) -> Tiling:
    """The all-vertical tiling of the m x n rectangle (n must be even), its
    codes 1, 5, 9, ...: the cells k = (i - 1) * n + j - 1 with j odd."""
    if n % 2:
        raise ValueError("height must be even")
    return _decoder(rectangle(m, n))(range(1, 2 * m * n, 4))


def is_totally_vertical(tiling: Tiling) -> bool:
    return all(not d.horizontal for d in tiling.dominoes)


def normalize_to_vertical(tiling: Tiling, m: int, n: int) -> list[Tiling]:
    """A flip path from tiling to the all-vertical tiling of the m x n
    rectangle.  Returns the visited tilings including both endpoints, so an
    already-vertical input yields a single-element path.

    The path walks a staircase of forced dominoes: for each column pair
    and each odd row, find the smallest index where two consecutive
    staircase dominoes are parallel and flip back down to the row's
    origin, leaving the pair of cells vertically covered.  Flips never
    touch finished rows or columns, so progress is monotone.
    flip_component gives shortest paths instead.
    """
    if n % 2:
        raise ValueError("height must be even")
    if tiling.board != rectangle(m, n):
        raise ValueError("tiling is not over the given rectangle")
    path = [tiling]
    current = tiling
    for c in range(1, m, 2):
        for r in range(1, n, 2):
            cover = current.cover_map()
            if cover[(c, r)].horizontal:
                start = (c, r)
            elif cover[(c + 1, r)].horizontal:
                start = (c + 1, r)
            else:
                continue
            current = _staircase(current, start, path)
    if not is_totally_vertical(current):
        raise RuntimeError("normalization did not reach the vertical tiling")
    return path


def _staircase_square(origin: Cell, k: int) -> Cell:
    # Square k of the staircase: ceil(k/2) right, ceil((k+1)/2) up, 1-based.
    return (origin[0] - 1 + (k + 1) // 2, origin[1] - 1 + (k + 2) // 2)


def _staircase(tiling: Tiling, origin: Cell, path: list[Tiling]) -> Tiling:
    """One staircase pass: origin is covered by a horizontal domino; after
    the pass origin and its right neighbor are covered by verticals."""
    cover = tiling.cover_map()
    board = tiling.board
    k = 1
    prev = cover[_staircase_square(origin, 1)]
    while True:
        nxt_cell = _staircase_square(origin, k + 1)
        if nxt_cell not in board or k > 2 * len(board):
            raise RuntimeError("staircase ran off the board")
        nxt = cover[nxt_cell]
        if nxt.horizontal == prev.horizontal:
            break
        prev = nxt
        k += 1
    current = tiling
    for idx in range(k, 0, -1):
        current = flip_at(current, _staircase_square(origin, idx))
        path.append(current)
    return current
