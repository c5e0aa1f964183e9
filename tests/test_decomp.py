"""Closure, decomposition, periodicity, and the half-board path."""

import hashlib
import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from conftest import Built, biadjacency, trip

from residue_tilings import decomp, limits
from residue_tilings.board import Board, LShapeSpec, half_board, l_board, rectangle
from residue_tilings.decomp import (
    InvariantError,
    admissible_diagonal,
    closure,
    closure_union,
    half_board_parity,
    half_board_square,
    half_board_sum,
    half_board_sums,
    half_board_support,
    l_signed_sum_closed,
    periodicity_factor,
    reciprocity_free_sum,
    restricted_sum,
    verify_decomposition,
)
from residue_tilings.gaussian import GaussianInt, ZERO, i_power
from residue_tilings.lemmas import _window_pairs as lemma_window_pairs, decomposition_corpus
from residue_tilings.limits import SizeLimitError
from residue_tilings.residue import theorem_rhs
from residue_tilings.tiling import (
    enumerate_tilings,
    parity_counts,
    signed_sum,
    signed_sum_bruteforce,
)


def test_l_closed_form_known():
    assert l_signed_sum_closed(LShapeSpec((2,), (3,))) == GaussianInt(0, 1)
    assert l_signed_sum_closed(LShapeSpec((2,), (2,))) == ZERO
    assert l_signed_sum_closed(LShapeSpec((0,), (0,))) == 1
    assert l_signed_sum_closed(LShapeSpec((), ())) == 1


def test_l_closed_form_rejects_wide_gap():
    with pytest.raises(ValueError):
        l_signed_sum_closed(LShapeSpec((4,), (2,)))
    # a square chunk ahead of the bad one does not end the check
    with pytest.raises(ValueError, match="^arm lengths must differ by at most 1 in each chunk$"):
        l_signed_sum_closed(LShapeSpec((2, 4), (2, 2)))


def test_l_closed_form_vs_bruteforce():
    for a1 in range(5):
        for b1 in range(5):
            if abs(a1 - b1) > 1:
                continue
            for a2 in range(4):
                for b2 in range(4):
                    if abs(a2 - b2) > 1:
                        continue
                    spec = LShapeSpec((a1, a2), (b1, b2))
                    assert l_signed_sum_closed(spec) == signed_sum_bruteforce(
                        l_board(spec)
                    )


def test_closure_absorbs_crossing_dominoes():
    board = rectangle(2, 2)
    subset = Board([(1, 1)])
    for t in enumerate_tilings(board):
        clo = closure(t, subset)
        # both tilings of the 2x2 square pair (1,1) with a neighbor
        assert len(clo) == 2
        assert subset <= clo


def closure_fixpoint(tiling, subset):
    """The closure by worklist to a fixpoint, the reference: absorb every
    domino that crosses the region's boundary until none does."""
    region = set(subset)
    changed = True
    while changed:
        changed = False
        for d in tiling.dominoes:
            a, b = d.cells
            if (a in region) != (b in region):
                region.update((a, b))
                changed = True
    return Board(region)


def test_closure_matches_the_fixpoint():
    rng = random.Random(1211)
    checked = 0
    for _, board, subset in decomposition_corpus():
        cells = board.cells
        subsets = [subset, Board(), board]
        subsets += [Board(rng.sample(cells, rng.randrange(len(cells) + 1)))
                    for _ in range(3)]
        for t in enumerate_tilings(board):
            for sub in subsets:
                assert closure(t, sub) == closure_fixpoint(t, sub), (board, sub)
                checked += 1
    assert checked > 1000


def test_closure_union_known():
    clo = closure_union(rectangle(2, 2), Board([(1, 1)]))
    assert set(clo) == {(1, 1), (1, 2), (2, 1)}
    # the domino (2,1)-(3,1) would cut (1,1) off, so no tiling holds it
    clo = closure_union(rectangle(4, 1), Board([(2, 1)]))
    assert clo == Board([(1, 1), (2, 1)])
    assert closure_union(rectangle(3, 1), Board([(1, 1)])) == Board()


def test_closure_union_keeps_the_enumeration_limit(monkeypatch):
    board, corner = rectangle(8, 5), Board([(1, 1)])
    with pytest.raises(SizeLimitError, match="40 cells, enumeration limit is 36"):
        closure_union(board, corner)
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "40")
    assert set(closure_union(board, corner)) == {(1, 1), (2, 1), (1, 2)}


def test_closure_union_lists_no_tiling(monkeypatch):
    # the tiling search is the one decomp would list tilings with
    monkeypatch.setattr(decomp, "_tilings", trip)
    clo = closure_union(rectangle(4, 3), Board([(2, 2)]))
    assert set(clo) == {(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)}


def test_closure_union_is_the_union_of_the_closures():
    # the corpus boards, and each with two cells cut out (31 of the 55 cut
    # boards still tile), against the union of closures over listed tilings
    rng = random.Random(2603)
    checked = 0
    for _, board, subset in decomposition_corpus():
        holey = Board(rng.sample(board.cells, max(len(board) - 2, 0)))
        for whole in (board, holey):
            tilings = enumerate_tilings(whole)
            cells = whole.cells
            subsets = [Board(c for c in subset if c in whole), Board(), whole]
            subsets += [Board(rng.sample(cells, rng.randrange(len(cells) + 1)))
                        for _ in range(3)]
            for sub in subsets:
                union = set().union(*(closure(t, sub) for t in tilings))
                assert closure_union(whole, sub) == Board(union), (whole, sub)
                checked += 1
    assert checked > 400


def test_decomposition_report_is_pinned_with_and_without_optimize(src_env):
    # sha256 of `lemma decomposition` stdout, which closure_union feeds
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-m", "residue_tilings.cli", "lemma",
             "decomposition"],
            capture_output=True, env=src_env, check=True).stdout
        assert hashlib.sha256(out).hexdigest() == (
            "0f582dc9d3bbb89e7e26831a4a99eac95455135f591a541ab364af333650d9fd"
        ), flags


OUTSIDE = Board([(5, 5)])


@pytest.mark.parametrize("call", [
    lambda: closure(enumerate_tilings(rectangle(2, 2))[0], OUTSIDE),
    # an untilable board: closure_union used to return the empty board here,
    # though it raised on a tilable one
    lambda: closure_union(Board([(1, 1)]), OUTSIDE),
    lambda: restricted_sum(OUTSIDE, rectangle(2, 2)),
    lambda: verify_decomposition(rectangle(2, 2), OUTSIDE),
], ids=["closure", "closure_union", "restricted_sum", "verify_decomposition"])
def test_subset_must_lie_inside_the_board(call):
    with pytest.raises(ValueError, match="subset must lie inside the board"):
        call()


def test_restricted_sum():
    # closing up the whole square keeps both tilings, whose signs cancel:
    # i^0 + i^2 = 0
    board = rectangle(2, 2)
    assert restricted_sum(board, board) == ZERO
    column = Board([(1, 1), (1, 2)])
    assert restricted_sum(column, column) == 1
    row = Board([(1, 1), (2, 1)])
    assert restricted_sum(row, row) == GaussianInt(0, 1)


def test_verify_decomposition_known_cases():
    rep = verify_decomposition(rectangle(2, 2), Board([(1, 1)]))
    assert rep.equal
    assert rep.lhs == ZERO
    rep = verify_decomposition(rectangle(4, 2), Board([(1, 1), (1, 2)]))
    assert rep.equal
    assert rep.lhs == signed_sum(rectangle(4, 2))


def test_verify_decomposition_terms_sum_to_rhs():
    rep = verify_decomposition(rectangle(3, 2), Board([(1, 1)]))
    total = ZERO
    for _, outside, inside in rep.terms:
        total = total + outside * inside
    assert total == rep.rhs


def _even_cells(board):
    return Board(cell for cell in board if sum(cell) % 2 == 0)


def test_verify_decomposition_keeps_the_free_cell_limit(monkeypatch):
    # the even cells close to the whole board, so every odd cell is free:
    # 18 on the 6 x 6 square, past the 16 of the default, refused before
    # any of the 2**18 terms
    board = rectangle(6, 6)
    with pytest.raises(SizeLimitError, match="^18 free closure cells exceed limit 16$"):
        verify_decomposition(board, _even_cells(board))
    # 4 x 2 leaves 4 free cells: admitted at a limit of 4, refused at 3
    board = rectangle(4, 2)
    monkeypatch.setattr(limits, "FREE_CELL_LIMIT", 4)
    rep = verify_decomposition(board, _even_cells(board))
    assert (len(rep.terms), rep.equal) == (16, True)
    monkeypatch.setattr(limits, "FREE_CELL_LIMIT", 3)
    with pytest.raises(SizeLimitError, match="^4 free closure cells exceed limit 3$"):
        verify_decomposition(board, _even_cells(board))


def test_periodicity_factor():
    assert periodicity_factor(1) == GaussianInt(0, 1)
    assert periodicity_factor(2) == -1
    assert periodicity_factor(4) == -1
    for n in range(1, 1001):
        # the two-branch exponent the single floor((n + 1)^2 / 4) replaced
        if n % 2 == 0:
            assert (n * n + 2 * n) % 8 == 0
            exp = (n * n + 2 * n) // 4
        else:
            exp = (n * n + 2 * n + 1) // 4
        assert periodicity_factor(n) == i_power(exp), n


def test_periodicity_identity():
    for n in range(1, 6):
        for m in range(1, 6):
            wide = signed_sum(rectangle(m + n + 1, n))
            assert wide == signed_sum(rectangle(m, n)) * periodicity_factor(n)


def test_admissible_diagonal_known():
    assert admissible_diagonal(5, 3) == frozenset({1})
    assert admissible_diagonal(7, 5) == frozenset({1, 2})
    assert admissible_diagonal(9, 7) == frozenset({1, 2, 3})
    assert admissible_diagonal(13, 9) == frozenset({2, 4, 6, 8})
    # the multiples of m/2 mod n, with 1/2 the inverse of 2 mod n
    for m, n in _window_pairs(31):
        step = m * pow(2, -1, n) % n
        assert admissible_diagonal(m, n) == {k * step % n for k in range(1, (n + 1) // 2)}


def test_admissible_diagonal_window():
    with pytest.raises(ValueError):
        admissible_diagonal(3, 5)
    with pytest.raises(ValueError):
        admissible_diagonal(15, 5)
    with pytest.raises(ValueError):
        admissible_diagonal(9, 3)


def test_half_board_sum_values():
    assert half_board_sum(5, 3, {1}) == GaussianInt(0, 1)
    assert half_board_sum(5, 3, {2}) == ZERO
    assert half_board_sum(5, 3, set()) == ZERO
    # every half-board sum is 0 or a fourth root of unity
    for m, n in [(5, 3), (7, 5)]:
        for diag in _subsets(n):
            assert str(half_board_sum(m, n, diag)) in {"0", "1", "-1", "i", "-i"}


def _subsets(n):
    from itertools import combinations

    for r in range(n):
        yield from combinations(range(1, n), r)


def test_half_board_support_matches_sum():
    for m, n in [(5, 3), (7, 3), (7, 5)]:
        for diag in _subsets(n):
            nonzero = half_board_sum(m, n, diag) != ZERO
            assert nonzero == half_board_support(m, n, diag)


def test_half_board_parity():
    assert half_board_parity(5, 3, {1}) == 1
    assert half_board_parity(7, 5, {1, 2}) == 1
    assert half_board_parity(9, 7, {1, 2, 3}) == 0
    with pytest.raises(ValueError):
        half_board_parity(5, 3, {1, 2})  # non-integral expression


def test_half_board_diag_check_builds_no_range(monkeypatch):
    # each mark is checked on its own, so a large n costs nothing before
    # the size checks; a frozenset of 1..n-1 took 89 MB at n = 10**6 + 1
    from residue_tilings import board

    monkeypatch.setattr(board, "range", trip, raising=False)
    assert half_board_parity(1000003, 1000001, ()) == 0


def test_half_board_refuses_a_diagonal_that_is_not_ints():
    # refused, not taken as the diagonal {2, 3}
    for diag in ([2.5, 3], [2.0], ["1"]):
        with pytest.raises(ValueError, match=re.escape("diag must be a subset of 1..n-1")):
            half_board(7, 5, diag)
        with pytest.raises(ValueError, match=re.escape("diag must be a subset of 1..n-1")):
            half_board_sum(7, 5, diag)


def test_half_board_parity_matches_the_rational_expression():
    # the closed expression evaluated over the rationals is the oracle
    for m, n in _window_pairs(11):
        for diag in _subsets(n):
            expr = (Fraction(n - 1, 4) - Fraction(len(diag), 2)
                    + sum(1 for a in diag if a % 2))
            if expr.denominator != 1:
                with pytest.raises(ValueError, match="untilable"):
                    half_board_parity(m, n, diag)
            else:
                assert half_board_parity(m, n, diag) == int(expr) % 2, (m, n, diag)


def test_reciprocity_free_known():
    assert reciprocity_free_sum(4, 3) == -1
    assert reciprocity_free_sum(5, 3) == -1
    assert reciprocity_free_sum(3, 3) == 0
    assert reciprocity_free_sum(7, 1) == 1


def test_reciprocity_free_matches_theorem():
    for n in range(1, 10, 2):
        for m in range(1, 14):
            value = reciprocity_free_sum(m, n)
            # an int, also below the window: verify prints str(value)
            assert type(value) is int
            assert value == theorem_rhs(m, n)


def test_half_board_invariants_raise(monkeypatch):
    import residue_tilings.decomp as decomp

    # every column step of the sweep leaves V = 2, and the sum i**e * V is checked
    monkeypatch.setattr(decomp, "_column_step", lambda states, windows: {0: 2})
    with pytest.raises(InvariantError, match="out of range"):
        half_board_sum(7, 5, admissible_diagonal(7, 5))
    with pytest.raises(InvariantError, match="out of range"):
        half_board_sums(7, 5)
    # a unit value is in range, but not at a diagonal outside the support
    monkeypatch.setattr(decomp, "_column_step", lambda states, windows: {0: 1})
    assert not half_board_support(7, 5, ())
    with pytest.raises(InvariantError, match="unsupported"):
        half_board_sum(7, 5, ())


def test_half_board_sweep_matches_the_board_oracles():
    # every diagonal of every window with m <= 13, signed and unsigned,
    # against the profile DP of the built half board, and against the
    # search where the board has at most 36 cells; the single path of
    # half_board_sum against the family
    for m, n in lemma_window_pairs(13):
        signed, unsigned = half_board_sums(m, n), half_board_sums(m, n, signed=False)
        assert len(signed) == len(unsigned) == 2 ** (n - 1)
        for diag in _subsets(n):
            board = half_board(m, n, diag)
            assert signed[diag] == signed_sum(board) == half_board_sum(m, n, diag), (m, n, diag)
            assert unsigned[diag] == parity_counts(board), (m, n, diag)
            if len(board) <= 36:
                assert signed[diag] == signed_sum_bruteforce(board), (m, n, diag)


def test_half_board_sum_keeps_the_short_end_sweep():
    # the single path sweeps from the staircase's tip, in the DP's windows,
    # so (43, 41) is refused at the README's count of states
    with pytest.raises(SizeLimitError, match="^98304 profile states exceed limit 65536$"):
        half_board_sum(43, 41, admissible_diagonal(43, 41))


def _window_pairs(n_max):
    """Every coprime (m, n) with odd n < m < 3n and odd n <= n_max."""
    return [(m, n) for n in range(3, n_max + 1, 2) for m in range(n + 2, 3 * n, 2)
            if math.gcd(m, n) == 1]


def test_half_board_square_matches_dp():
    # about 1.6 s in all: the DP oracle sweeps each half board from its
    # short end, and (45, 23) swept from the tall end passes MAX_STATES
    pairs = _window_pairs(25)
    assert len(pairs) == 136
    for m, n in pairs:
        diag = admissible_diagonal(m, n)
        half = half_board_sum(m, n, diag)
        assert half != ZERO
        assert half_board_square(m, n, diag) == half * half, (m, n)
    # every diagonal, including the zeros and the boards whose colour
    # classes differ in size
    for m, n in [(5, 3), (7, 3), (7, 5), (9, 5), (9, 7), (11, 7)]:
        for diag in _subsets(n):
            half = half_board_sum(m, n, diag)
            assert half_board_square(m, n, diag) == half * half, (m, n, diag)


def test_half_board_matrix_matches_the_board_reference():
    # the same columns with their keys in the same order as B built from
    # the half Board, so the elimination meets the same ties; None on both
    # sides when the colour classes differ in size
    cases = [(m, n, diag) for n in range(3, 32, 2) for m in range(n + 2, 3 * n, 2)
             for diag in [range(1, n), (), range(1, n, 2)]
             + ([admissible_diagonal(m, n)] if math.gcd(m, n) == 1 else [])]
    cases += [(m, n, diag) for n in (3, 5, 7) for m in range(n + 2, 3 * n, 2)
              for diag in _subsets(n)]
    unequal = 0
    for m, n, diag in cases:
        marks = frozenset(diag)
        matrix = decomp._half_board_matrix(m, n, marks)
        expected = biadjacency(half_board(m, n, marks))
        if expected is None:
            assert matrix is None, (m, n, diag)
            unequal += 1
            continue
        assert matrix.columns == expected.columns, (m, n, diag)
        assert [list(c) for c in matrix.columns] == [list(c) for c in expected.columns]
    assert len(cases) == 1388 and unequal > 0


def test_reciprocity_free_matches_theorem_on_windows(monkeypatch):
    from residue_tilings import kasteleyn

    # every pivot of these B is +1 or -1, so no Fraction is made
    fractions = []
    monkeypatch.setattr(kasteleyn, "_fraction",
                        lambda *args: fractions.append(args) or Fraction(*args))
    start = time.perf_counter()
    pairs = _window_pairs(31)
    for m, n in pairs:
        assert reciprocity_free_sum(m, n) == theorem_rhs(m, n), (m, n)
    assert len(pairs) == 212
    assert time.perf_counter() - start < 3
    assert fractions == []


def test_reciprocity_free_reach(monkeypatch):
    import residue_tilings.decomp as decomp

    # (301, 101) is the largest window board of n = 101: B has d = 7500
    start = time.perf_counter()
    assert reciprocity_free_sum(301, 101) == theorem_rhs(301, 101)
    assert time.perf_counter() - start < 5
    # B has (m - 1)(n - 1)/4 columns: at n = 1039, (1041, 1039) with
    # d = 269880 is within MAX_DIM and (1043, 1039) with d = 270399 is
    # not; (1267, 423), d = 133563, is admitted.  Widths past the window
    # land in it first, (3119, 1039) on 1041
    monkeypatch.setattr(decomp, "_half_board_matrix", trip)
    for m, n in ((1267, 423), (1041, 1039), (3119, 1039)):
        with pytest.raises(Built):
            reciprocity_free_sum(m, n)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="B at m = 1043, n = 1039 has dimension "
                                             "270399, over the dimension limit 270000"):
        reciprocity_free_sum(1043, 1039)
    assert time.perf_counter() - start < 0.1


def test_half_board_refused_before_the_build(monkeypatch):
    import residue_tilings.decomp as decomp

    # the dimension checked from (m, n) and the diagonal, before the build,
    # is that of the B built, on every window and on diagonals of every size
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(limits, "check_dim", lambda what, dim: seen.append(dim))
        patch.setattr(decomp, "_eliminate", lambda columns: seen.append(len(columns)) or 0)
        for m, n in _window_pairs(31):
            half_board_square(m, n, admissible_diagonal(m, n))
            assert seen[-2:] == [(m - 1) * (n - 1) // 4] * 2, (m, n)
        for m, n in [(5, 3), (7, 3), (7, 5), (9, 5), (9, 7), (11, 7)]:
            for diag in _subsets(n):
                del seen[:]
                half_board_square(m, n, diag)
                assert len(seen) == 1 or seen[0] == seen[1], (m, n, diag)
    # past MAX_DIM neither the (n - 1)/2 marks of the diagonal nor B get
    # built, at n = 10**9 + 1 as well
    monkeypatch.setattr(decomp, "admissible_diagonal", trip)
    monkeypatch.setattr(decomp, "_half_board_matrix", trip)
    start = time.perf_counter()
    for refuse in (lambda: reciprocity_free_sum(1043, 1039),
                   lambda: half_board_square(1043, 1039, range(1, 520)),
                   lambda: reciprocity_free_sum(10**9, 10**9 + 1)):
        with pytest.raises(SizeLimitError, match="over the dimension limit 270000"):
            refuse()
    assert time.perf_counter() - start < 0.1


def test_reciprocity_free_stays_independent(monkeypatch):
    import residue_tilings.decomp as decomp
    import residue_tilings.kasteleyn as kasteleyn
    import residue_tilings.residue as residue
    import residue_tilings.tiling as tiling

    # the route shares only the elimination with the det route, and reproves
    # the symbol rather than evaluating it
    for name in ("jacobi", "build_kasteleyn", "det_sign"):
        assert name not in vars(decomp)
    pairs = [(m, n) for n in range(1, 16, 2) for m in range(1, 3 * n + 4)]
    expected = {pair: theorem_rhs(*pair) for pair in pairs}
    assert expected[7, 5] == -1

    def trip(*args, **kwargs):
        raise AssertionError("the reciprocity-free route left its own path")

    for module, name in ((residue, "jacobi"), (tiling, "signed_sum"),
                         (decomp, "signed_sum"), (kasteleyn, "build_kasteleyn"),
                         (kasteleyn, "det_sign")):
        monkeypatch.setattr(module, name, trip)
    assert {pair: reciprocity_free_sum(*pair) for pair in pairs} == expected


def test_reciprocity_free_invariant_raises(monkeypatch):
    import residue_tilings.decomp as decomp

    monkeypatch.setattr(decomp, "_eliminate", lambda columns: 2)
    with pytest.raises(InvariantError, match="out of range"):
        reciprocity_free_sum(7, 5)
    # a unit determinant is in range, but not at a diagonal outside the
    # support; (1, 3) leaves both colour classes the same size
    monkeypatch.setattr(decomp, "_eliminate", lambda columns: 1)
    assert not half_board_support(7, 5, (1, 3))
    with pytest.raises(InvariantError, match="unsupported"):
        half_board_square(7, 5, (1, 3))


def test_invariant_checks_survive_optimize_flag(src_env):
    script = (
        "import residue_tilings.decomp as d\n"
        "d._column_step = lambda states, windows: {0: 2}\n"
        "d._eliminate = lambda columns: 2\n"
        "for check in (lambda: d.half_board_sum(7, 5, d.admissible_diagonal(7, 5)),\n"
        "              lambda: d.reciprocity_free_sum(7, 5)):\n"
        "    try:\n"
        "        check()\n"
        "    except d.InvariantError:\n"
        "        print('raised')\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=src_env)
    assert result.stdout == "raised\nraised\n", result.stderr
