import json

import pytest
from conftest import l_board_reference, l_chain_specs

from residue_tilings.board import half_board, l_board
from residue_tilings.decomp import l_signed_sum_closed
from residue_tilings.lemmas import (
    LEMMAS,
    _rounds_to,
    _window_pairs,
    decomposition_corpus,
    run_decomposition,
    run_eisenstein,
    run_gauss,
    run_h_even,
    run_half_board,
    run_coprime_vanishing,
    run_l_closed_form,
    run_parity,
    run_periodicity,
    run_y_decomposition,
)
from residue_tilings.limits import SizeLimitError
from residue_tilings.tiling import enumerate_tilings, signed_sum_bruteforce


def test_registry_names():
    assert set(LEMMAS) == {
        "flip-connectivity", "h-even", "kasteleyn-det", "norm-bridge",
        "gauss", "gauss-even", "l-closed-form", "decomposition",
        "periodicity", "coprime-vanishing", "y-decomposition",
        "half-board", "parity", "eisenstein", "ktf",
    }


def test_rounds_to_is_false_on_non_finite_values():
    # a lemma case with a non-finite float fails instead of crashing
    assert _rounds_to(1.0000000001, 1)
    for value in (float("nan"), float("inf"), float("-inf")):
        assert not _rounds_to(value, 0)


def test_report_shape():
    report = run_gauss(bound=9)
    assert report["lemma"] == "gauss"
    assert report["total"] == len(report["cases"])
    assert report["failed"] == 0
    assert report["pass"] is True
    case = report["cases"][0]
    assert set(case) == {"inputs", "lhs", "rhs", "pass"}
    json.dumps(report)


def test_corpus_is_large_enough():
    corpus = decomposition_corpus()
    assert len(corpus) >= 50
    names = [name for name, _, _ in corpus]
    assert len(names) == len(set(names))
    for _, board, subset in corpus:
        assert subset <= board


def test_default_ranges_pass_quickly():
    # every runner must be green at its CLI default range
    for name, runner in LEMMAS.items():
        report = runner()
        assert report["pass"], name


def test_parity_sweeps_keep_their_cell_limits(monkeypatch):
    # the sweeps count through the profile DP, but still refuse the boards
    # that enumeration would have refused
    with pytest.raises(SizeLimitError, match="enumeration limit is 20"):
        run_parity(m_max=11, limit=20)
    assert run_parity(m_max=7, limit=20)["pass"]
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "10")
    with pytest.raises(SizeLimitError):
        run_h_even()


@pytest.mark.parametrize("runner, search", [("run_flip_connectivity", "_flip_search"),
                                            ("run_h_even", "parity_counts")])
def test_even_rectangle_suites_refuse_the_range_before_they_search(monkeypatch, runner, search):
    # 19 x 2 is the first rectangle of the range past the limit; the
    # eighteen before it used to be searched first.  search is the function
    # the suite calls per board, so patching it records every search
    import residue_tilings.lemmas as lemmas

    monkeypatch.delenv("RESIDUE_TILINGS_LIMIT", raising=False)
    calls = []
    monkeypatch.setattr(lemmas, search, lambda *args: calls.append(args))
    with pytest.raises(SizeLimitError, match="^board has 38 cells, enumeration limit is 36$"):
        getattr(lemmas, runner)(40)
    assert calls == []


def test_a_report_sweeps_as_much_whatever_report_ran_before(monkeypatch):
    """A report leaves the DP's memos empty, so periodicity steps as many
    columns after coprime-vanishing, which sweeps rectangles of the same
    heights, as it does on its own."""
    import residue_tilings.tiling as tiling

    tiling._forget_memos()
    steps, step = [], tiling._orbit_step
    monkeypatch.setattr(tiling, "_orbit_step", lambda *args: steps.append(1) or step(*args))
    assert run_periodicity(m_max=4, n_max=6)["pass"]
    alone = len(steps)
    assert run_coprime_vanishing(bound=9)["pass"]
    steps.clear()
    assert run_periodicity(m_max=4, n_max=6)["pass"]
    assert len(steps) == alone > 0
    for memo in (tiling._plan, tiling._window_table, tiling._reversals):
        assert memo.cache_info().currsize == 0
    assert not tiling._SNAPSHOTS
    assert tiling._held == 0


def test_parity_sweeps_make_one_sweep_per_board_or_window(monkeypatch):
    import residue_tilings.lemmas as lemmas
    import residue_tilings.tiling as tiling

    signs = []
    sweep = tiling._profile_sum

    def counted(board, signed):
        signs.append(signed)
        return sweep(board, signed)

    monkeypatch.setattr(tiling, "_profile_sum", counted)
    report = run_h_even()
    assert (len(signs), set(signs)) == (report["total"], {False})
    signs.clear()
    # one unsigned branching sweep per window pair gives every subset of
    # 1..n-1, tilable or not, and no board is swept on its own
    windows = []
    branching = lemmas.half_board_sums

    def branched(m, n, signed=True, diag=None):
        windows.append((m, n, signed, diag))
        return branching(m, n, signed, diag)

    monkeypatch.setattr(lemmas, "half_board_sums", branched)
    assert run_parity()["pass"]
    assert signs == []
    assert windows == [(m, n, False, None) for m, n in _window_pairs(9)]


@pytest.mark.parametrize("arms, boards", [(2, 121), (3, 1331)])
def test_l_closed_form_searches_each_chain_once(monkeypatch, arms, boards):
    # a position of the chain is empty or holds one of the 10 non-empty
    # arm pairs of length <= 4, so 11**arms distinct boards; those with as
    # many cells of i + j odd as even, 57 at arms 2 and 511 at arms 3, are
    # each searched once, from the cells of its first spec's board, in the
    # order of the specs, and no other chain has its cells built
    import residue_tilings.lemmas as lemmas

    searched = []
    search, chain_cells = lemmas._tilings, lemmas._l_chain_cells

    def counted(cells, limit=None):
        searched.append(cells)
        return search(cells, limit)

    def built(chain):
        cells = chain_cells(chain)
        assert 2 * sum((i + j) % 2 for i, j in cells) == len(cells), chain
        return cells

    monkeypatch.setattr(lemmas, "_tilings", counted)
    monkeypatch.setattr(lemmas, "_l_chain_cells", built)
    report = run_l_closed_form(arms=arms, length=4)
    specs = l_chain_specs(arms, 4)
    assert report["pass"] and report["total"] == len(specs)
    distinct = list(dict.fromkeys(l_board_reference(spec).cells for spec in specs))
    assert len(distinct) == boards
    balanced = [cells for cells in distinct
                if 2 * sum((i + j) % 2 for i, j in cells) == len(cells)]
    assert len(balanced) == {2: 57, 3: 511}[arms]
    assert searched == balanced


def test_l_closed_form_reads_the_cell_limit_once_per_call(monkeypatch):
    import residue_tilings.limits as limits

    reads = []
    cell_limit = limits.cell_limit

    def counted(limit=None):
        if limit is None:
            reads.append(limit)
        return cell_limit(limit)

    monkeypatch.setattr(limits, "cell_limit", counted)
    assert run_l_closed_form(arms=3, length=4)["total"] == 2380
    assert len(reads) == 1
    # a limit set between two calls holds from the next call on
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "6")
    with pytest.raises(SizeLimitError, match="^board has 7 cells, enumeration limit is 6$"):
        run_l_closed_form(arms=1, length=4)
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "7")
    assert run_l_closed_form(arms=1, length=4)["pass"]
    assert len(reads) == 3


def test_decomposition_sees_a_limit_set_between_calls(monkeypatch):
    # the cell limit is read at each call, so a limit set between two
    # calls holds from the next call on; the largest corpus board has 32
    # cells
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "31")
    with pytest.raises(SizeLimitError, match="^board has 32 cells, enumeration limit is 31$"):
        run_decomposition()
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "32")
    assert run_decomposition()["pass"]


@pytest.mark.parametrize("arms, length, limit, text", [
    (6, 4, None, "^board has 42 cells, enumeration limit is 36$"),
    (3, 4, "20", "^board has 21 cells, enumeration limit is 20$"),
])
def test_l_closed_form_refuses_the_range_before_it_searches(monkeypatch, arms, length,
                                                             limit, text):
    # the largest chain has arms * (2 * length - 1) cells; (6, 4) used to
    # search for about a minute before it met its first chain of 37 cells
    import residue_tilings.lemmas as lemmas

    def searched(*args):
        raise AssertionError("a chain was searched")

    monkeypatch.setattr(lemmas, "_tilings", searched)
    if limit:
        monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", limit)
    with pytest.raises(SizeLimitError, match=text):
        run_l_closed_form(arms=arms, length=length)


def test_l_closed_form_ranges_with_no_chunk_are_never_refused(monkeypatch):
    # with no arm or no arm length, or a negative one, every chain is empty
    # (or there is none), so even the smallest limit refuses nothing
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "1")
    assert run_l_closed_form(arms=5, length=0)["total"] == 6
    assert run_l_closed_form(arms=0, length=9)["total"] == 1
    assert run_l_closed_form(arms=-3, length=-2)["total"] == 0


def test_l_closed_form_chains_are_exactly_the_boards():
    # the chain key splits the 2380 specs exactly as their boards do, and
    # each case holds its spec's closed form against the search of its board
    specs = l_chain_specs(3, 4)
    assert len(specs) == 2380
    assert len({l_board(spec) for spec in specs}) == 1331
    values = {}
    cases = run_l_closed_form(arms=3, length=4)["cases"]
    for spec, case in zip(specs, cases, strict=True):
        board = l_board_reference(spec)
        if board not in values:
            values[board] = str(signed_sum_bruteforce(board))
        assert case["inputs"] == {"a": list(spec.a), "b": list(spec.b)}
        assert (case["lhs"], case["rhs"]) == (str(l_signed_sum_closed(spec)), values[board])


@pytest.mark.parametrize("runner", [run_y_decomposition, run_half_board, run_parity])
def test_half_board_suites_refuse_the_range_before_they_sweep(monkeypatch, runner):
    # (21, 19) has 2**18 diagonals, past MAX_STATES; the windows before it
    # used to be swept first, and (21, 19) itself for hours
    import residue_tilings.decomp as decomp

    def swept(*args):
        raise AssertionError("a window was swept")

    monkeypatch.setattr(decomp, "_column_step", swept)
    with pytest.raises(SizeLimitError, match="^262144 diagonals exceed limit 65536$"):
        runner(21)
    with pytest.raises(SizeLimitError, match="^262144 diagonals exceed limit 65536$"):
        decomp.half_board_sums(21, 19)


def test_parity_tiling_counts_match_enumeration():
    report = run_parity(m_max=9)
    for case in report["cases"]:
        inputs = case["inputs"]
        board = half_board(inputs["m"], inputs["n"], inputs["diag"])
        assert inputs["tilings"] == len(enumerate_tilings(board))


def test_eisenstein_beyond_the_float_range_of_its_scale():
    # the scale 4**((p-1)/2 * (q-1)/2) alone overflows a float from
    # (41, 53) on, though the product is +-1
    assert run_eisenstein(bound=60)["pass"]
