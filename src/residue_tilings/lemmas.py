"""Named verification sweeps.

Each runner checks one proved statement over a finite parameter range and
returns a JSON-ready report: the inputs, both sides of the claim, and a
pass flag per case.  The CLI exposes them under the same names; the
acceptance tests call them directly with widened ranges.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from . import limits
from .board import Board, LShapeSpec, _l_chain_cells, half_board, l_board, rectangle
from .decomp import (
    admissible_diagonal,
    half_board_parity,
    half_board_sums,
    half_board_support,
    l_signed_sum_closed,
    periodicity_factor,
    verify_decomposition,
)
from .gaussian import GaussianInt, ZERO
from .kasteleyn import build_kasteleyn, det_exact, signed_sum_via_det
from .residue import jacobi, theorem_rhs, gauss_sign, gauss_sign_even_half
from .spectral import (
    ToleranceError,
    _is_odd_prime,
    eisenstein_product,
    ktf_count,
    norm_product,
    round_signed,
)
from .tiling import (
    _flip_search,
    _forget_memos,
    _i_power_sum,
    _tilings,
    count_tilings,
    parity_counts,
    signed_sum,
    totally_vertical_tiling,
)

# The tolerance of every floating-point claim, fixed so that no argument
# can widen a gate until it passes anything.
_FLOAT_GATE = 1e-6


def _rounds_to(value: float, expected: int) -> bool:
    """Whether value rounds to expected within _FLOAT_GATE."""
    try:
        return round_signed(value, _FLOAT_GATE) == expected
    except ToleranceError:
        return False


def _report(lemma: str, params: dict, cases: list[dict]) -> dict:
    _forget_memos()  # what a report costs does not hang on the reports before it
    failed = sum(1 for c in cases if not c["pass"])
    return {
        "lemma": lemma,
        "params": params,
        "total": len(cases),
        "failed": failed,
        "pass": failed == 0,
        "cases": cases,
    }


def _case(inputs: dict, lhs, rhs, ok: bool | None = None) -> dict:
    if ok is None:
        ok = lhs == rhs
    return {"inputs": inputs, "lhs": lhs, "rhs": rhs, "pass": bool(ok)}


def _grid(m_max: int, n_max: int, coprime: bool | None = None) -> list[tuple[int, int]]:
    """The theorem's (m, n) pairs, odd n <= n_max first and then m <= m_max;
    with coprime True only those with gcd(m, n) == 1, with False only the rest."""
    return [(m, n) for n in range(1, n_max + 1, 2) for m in range(1, m_max + 1)
            if coprime is None or (math.gcd(m, n) == 1) == coprime]


def _even_rectangles(max_area: int) -> list[tuple[int, int]]:
    """The rectangles of even height and area at most max_area, each checked
    against the cell limit before any of them is searched."""
    rectangles = [(m, n) for n in range(2, max_area + 1, 2) for m in range(1, max_area // n + 1)]
    for m, n in rectangles:
        limits.check_cells(rectangle(m, n))
    return rectangles


def run_flip_connectivity(max_area: int = 24) -> dict:
    """Flips connect every tiling of a rectangle with even height to the
    all-vertical tiling."""
    cases = []
    for m, n in _even_rectangles(max_area):
        reached = len(_flip_search(totally_vertical_tiling(m, n)))
        tilings = count_tilings(rectangle(m, n))
        cases.append(_case({"width": m, "height": n}, reached, tilings))
    return _report("flip-connectivity", {"max_area": max_area}, cases)


def run_h_even(max_area: int = 24) -> dict:
    """Every tiling of a rectangle with even height has an even number of
    horizontal dominoes."""
    cases = []
    for m, n in _even_rectangles(max_area):
        odd = parity_counts(rectangle(m, n))[1]
        cases.append(_case({"width": m, "height": n}, odd, 0))
    return _report("h-even", {"max_area": max_area}, cases)


def run_kasteleyn_det(m_max: int = 12, n_max: int = 9) -> dict:
    """The signed determinant route agrees with the tiling DP."""
    cases = []
    for m, n in _grid(m_max, n_max):
        via_det = signed_sum_via_det(m, n)
        direct = signed_sum(rectangle(m - 1, n - 1))
        cases.append(
            _case({"m": m, "n": n}, str(GaussianInt(via_det)), str(direct),
                  GaussianInt(via_det) == direct)
        )
    return _report("kasteleyn-det", {"m_max": m_max, "n_max": n_max}, cases)


def run_norm_bridge(m_max: int = 13, n_max: int = 13) -> dict:
    """The eigenvalue norm product rounds to the exact determinant, and has
    modulus at most 1e-6 whenever gcd(m, n) > 1."""
    cases = []
    for m, n in _grid(m_max, n_max):
        z = norm_product(m, n)
        det = det_exact(build_kasteleyn(m, n))
        ok = _rounds_to(z, det)
        if math.gcd(m, n) > 1:
            ok = ok and abs(z) <= _FLOAT_GATE
        # printed as a complex, so the report keeps its published bytes
        cases.append(_case({"m": m, "n": n}, repr(complex(z)), det, ok))
    return _report(
        "norm-bridge", {"m_max": m_max, "n_max": n_max, "tol": _FLOAT_GATE}, cases
    )


def run_gauss(bound: int = 49) -> dict:
    """The half-system sign counter equals the Jacobi symbol."""
    cases = [
        _case({"m": m, "n": n}, gauss_sign(m, n), jacobi(m, n))
        for m, n in _grid(bound, bound, coprime=True)
    ]
    return _report("gauss", {"bound": bound}, cases)


def run_gauss_even(bound: int = 49) -> dict:
    """The even-half-system sign counter equals the Jacobi symbol."""
    cases = [
        _case({"t": t, "n": n}, gauss_sign_even_half(t, n), jacobi(t, n))
        for t, n in _grid(bound, bound, coprime=True)
    ]
    return _report("gauss-even", {"bound": bound}, cases)


def run_l_closed_form(arms: int = 2, length: int = 4) -> dict:
    """The closed form for L-chain signed sums matches brute force.  A
    spec's board is fixed by its chain, the (k, a, b) of its non-empty
    chunks, so each distinct chain is searched once, from its cells; an odd
    chain (a + b - 1 cells a chunk) exits early, by the rule _tilings also
    applies.  The cell limit is read once, and refuses the largest chain,
    arms chunks of 2 * length - 1 cells, before the first search."""
    limit = limits.cell_limit()
    limits.check_cells(max(arms, 0) * max(2 * length - 1, 0), limit)
    arm_pairs = [(a, b) for a in range(length + 1) for b in range(length + 1) if abs(a - b) <= 1]
    cases, searched = [], {}
    for k in range(arms + 1):
        for combo in product(arm_pairs, repeat=k):
            a, b = zip(*combo) if k else ((), ())
            spec = LShapeSpec(a, b)
            closed = str(l_signed_sum_closed(spec))
            chain = tuple((j, x, y) for j, (x, y) in enumerate(combo) if x and y)
            brute = searched.get(chain)
            if brute is None:
                odd = sum(x + y - 1 for _, x, y in chain) % 2
                hs = () if odd else (h for _, h in _tilings(_l_chain_cells(chain), limit))
                brute = searched[chain] = str(_i_power_sum(hs))
            cases.append(_case({"a": list(a), "b": list(b)}, closed, brute, closed == brute))
    return _report("l-closed-form", {"arms": arms, "length": length}, cases)


def decomposition_corpus() -> list[tuple[str, Board, Board]]:
    """Standing (board, subset) pairs for the decomposition identity."""
    pairs: list[tuple[str, Board, Board]] = []
    for w in range(1, 5):
        for h in range(1, 5):
            pairs.append((f"rect{w}x{h}-corner", rectangle(w, h), Board([(1, 1)])))
    for w in range(2, 5):
        for h in range(1, 4):
            pairs.append(
                (f"rect{w}x{h}-col1", rectangle(w, h),
                 Board((1, j) for j in range(1, h + 1)))
            )
    # leading n x n square inside the (m + n + 1) x n rectangle: the shape
    # behind the width periodicity argument
    for n in range(1, 4):
        for m in range(1, 5):
            square = Board(
                (i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            )
            pairs.append((f"rect{m+n+1}x{n}-square", rectangle(m + n + 1, n), square))
    arm_specs = [((2,), (3,)), ((3,), (2,)), ((2, 2), (3, 3)), ((3, 2), (2, 3)),
                 ((4, 1), (3, 2)), ((1, 1, 1), (2, 2, 2))]
    for a, b in arm_specs:
        spec = LShapeSpec(a, b)
        first = l_board(LShapeSpec(a[:1], b[:1]))
        pairs.append((f"l-chain{a}+{b}", l_board(spec), first))
    # half boards sitting inside their rectangles
    for m, n in [(5, 3), (7, 3), (7, 5), (9, 5), (11, 3)]:
        pairs.append((f"half{m}-{n}", rectangle(m - 1, n - 1), half_board(m, n)))
    pairs.append(("empty", Board(), Board()))
    for w, h in [(2, 2), (3, 2), (2, 3)]:
        pairs.append((f"rect{w}x{h}-full", rectangle(w, h), rectangle(w, h)))
        pairs.append((f"rect{w}x{h}-none", rectangle(w, h), Board()))
    return pairs


def run_decomposition() -> dict:
    """S(X) equals the closure-decomposed sum for every corpus pair."""
    cases = []
    for name, board, subset in decomposition_corpus():
        rep = verify_decomposition(board, subset)
        cases.append(
            _case(
                {"pair": name, "board": board.to_json_obj(),
                 "subset": subset.to_json_obj()},
                str(rep.lhs), str(rep.rhs), rep.equal,
            )
        )
    return _report("decomposition", {"pairs": len(cases)}, cases)


def run_periodicity(m_max: int = 6, n_max: int | None = None, n: int | None = None) -> dict:
    """Widening a rectangle by n + 1 columns multiplies its signed sum by
    the fixed fourth root of unity periodicity_factor(n), for the heights
    1..n_max (6 when neither is given) or for the one height n."""
    if n is None:
        n_max = 6 if n_max is None else n_max
        heights, params = range(1, n_max + 1), {"m_max": m_max, "n_max": n_max}
    elif n_max is None:
        heights, params = [n], {"m_max": m_max, "n": n}
    else:
        raise ValueError("n and n_max exclude each other")
    cases = []
    for height in heights:
        for m in range(1, m_max + 1):
            wide = signed_sum(rectangle(m + height + 1, height))
            narrow = signed_sum(rectangle(m, height)) * periodicity_factor(height)
            cases.append(
                _case({"m": m, "n": height}, str(wide), str(narrow), wide == narrow)
            )
    return _report("periodicity", params, cases)


def run_coprime_vanishing(bound: int = 15) -> dict:
    """The rectangle sum vanishes whenever gcd(m, n) > 1."""
    cases = [
        _case({"m": m, "n": n}, str(signed_sum(rectangle(m - 1, n - 1))), "0")
        for m, n in _grid(bound, bound, coprime=False)
    ]
    return _report("coprime-vanishing", {"bound": bound}, cases)


def _window_pairs(m_max: int) -> list[tuple[int, int]]:
    """The coprime windows up to m_max, all checked before any is swept."""
    pairs = [
        (m, n)
        for n in range(3, m_max + 1, 2)
        for m in range(n + 2, min(3 * n, m_max + 1), 2)
        if math.gcd(m, n) == 1
    ]
    for _, n in pairs:
        limits.check_diagonals(n)
    return pairs


def _diagonals(n: int):
    """Every subset of 1..n-1, as a tuple, by size and then in order."""
    for r in range(n):
        yield from combinations(range(1, n), r)


def run_y_decomposition(m_max: int = 11) -> dict:
    """The rectangle sum splits over half-board pairs, with exactly one
    nonzero term, sitting at the admissible diagonal."""
    cases = []
    for m, n in _window_pairs(m_max):
        indices = frozenset(range(1, n))
        values = half_board_sums(m, n)
        sums = {frozenset(p): values[p] for p in _diagonals(n)}
        total = ZERO
        nonzero = []
        for key, value in sums.items():
            mirrored = frozenset(n - i for i in indices - key)
            term = sums[mirrored] * value
            total = total + term
            if term != ZERO:
                nonzero.append(key)
        expect = signed_sum(rectangle(m - 1, n - 1))
        ok = (
            total == expect
            and len(nonzero) == 1
            and nonzero[0] == admissible_diagonal(m, n)
        )
        cases.append(
            _case(
                {"m": m, "n": n, "nonzero_terms": len(nonzero)},
                str(total), str(expect), ok,
            )
        )
    return _report("y-decomposition", {"m_max": m_max}, cases)


def run_half_board(m_max: int = 9) -> dict:
    """A half-board sum is nonzero exactly when its diagonal set satisfies
    the support conditions, and always lies in {0, 1, -1, i, -i}."""
    cases = []
    for m, n in _window_pairs(m_max):
        values = half_board_sums(m, n)
        for picks in _diagonals(n):
            value = values[picks]
            supported = half_board_support(m, n, picks)
            cases.append(
                _case(
                    {"m": m, "n": n, "diag": list(picks)},
                    str(value), supported, (value != ZERO) == supported,
                )
            )
    return _report("half-board", {"m_max": m_max}, cases)


def run_parity(m_max: int = 9, limit: int = 64) -> dict:
    """Every tiling of a tilable half board has the parity of h given by
    the closed parity expression.  Each board's cell count is checked, in
    the order of _diagonals, before its window is swept."""
    limit = limits.cell_limit(limit)  # also when the range holds no board
    cases = []
    for m, n in _window_pairs(m_max):
        cells = (m - 2) * (n - 1) // 2
        for picks in _diagonals(n):
            limits.check_cells(cells + len(picks), limit)
        counts = half_board_sums(m, n, signed=False)
        for picks in _diagonals(n):
            even, odd = counts[picks]
            tilings = even + odd
            if not tilings:
                continue
            expected = half_board_parity(m, n, picks)
            mismatches = odd if expected == 0 else even
            cases.append(
                _case(
                    {"m": m, "n": n, "diag": list(picks), "tilings": tilings},
                    mismatches, 0,
                )
            )
    return _report("parity", {"m_max": m_max, "limit": limit}, cases)


def run_eisenstein(bound: int = 23) -> dict:
    """The cosine product over prime half-grids rounds to the Jacobi
    symbol of the second prime over the first."""
    primes = [p for p in range(3, bound + 1, 2) if _is_odd_prime(p)]
    cases = []
    for p in primes:
        for q in primes:
            if p == q:
                continue
            value = eisenstein_product(p, q)
            expected = jacobi(q, p)
            cases.append(_case({"p": p, "q": q}, value, expected,
                               _rounds_to(value, expected)))
    return _report("eisenstein", {"bound": bound, "tol": _FLOAT_GATE}, cases)


def run_ktf(bound: int = 11) -> dict:
    """The cosine-product count matches the exact tiling count."""
    cases = []
    for m in range(1, bound + 1, 2):
        for n in range(1, bound + 1, 2):
            approx = ktf_count(m, n)
            exact = count_tilings(rectangle(m - 1, n - 1))
            cases.append(
                _case({"m": m, "n": n}, approx, exact,
                      math.isclose(approx, exact, rel_tol=_FLOAT_GATE))
            )
    return _report("ktf", {"bound": bound, "rel_tol": _FLOAT_GATE}, cases)


LEMMAS = {
    "flip-connectivity": run_flip_connectivity,
    "h-even": run_h_even,
    "kasteleyn-det": run_kasteleyn_det,
    "norm-bridge": run_norm_bridge,
    "gauss": run_gauss,
    "gauss-even": run_gauss_even,
    "l-closed-form": run_l_closed_form,
    "decomposition": run_decomposition,
    "periodicity": run_periodicity,
    "coprime-vanishing": run_coprime_vanishing,
    "y-decomposition": run_y_decomposition,
    "half-board": run_half_board,
    "parity": run_parity,
    "eisenstein": run_eisenstein,
    "ktf": run_ktf,
}
