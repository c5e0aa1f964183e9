"""Exit codes, golden outputs, and report shapes for the CLI."""

import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from conftest import Built, trip

from residue_tilings import cli, kasteleyn, limits, spectral
from residue_tilings.gaussian import GaussianInt
from residue_tilings.lemmas import LEMMAS

GOLDEN_CSV = (
    "m,n,S,jacobi,agree\n"
    "1,1,1,1,true\n"
    "2,1,1,1,true\n"
    "3,1,1,1,true\n"
    "4,1,1,1,true\n"
    "1,3,1,1,true\n"
    "2,3,1,1,true\n"
    "3,3,0,0,true\n"
    "4,3,-1,-1,true\n"
)


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_sum(capsys):
    code, out, _ = run_cli(["sum", "--width", "2", "--height", "4"], capsys)
    assert (code, out) == (0, "-1\n")
    code, out, _ = run_cli(["sum", "--width", "0", "--height", "0"], capsys)
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(["sum", "--width", "3", "--height", "3"], capsys)
    assert (code, out) == (0, "0\n")


def test_sum_hits_profile_limit(capsys):
    code, _, err = run_cli(["sum", "--width", "30", "--height", "30"], capsys)
    assert code == 2
    assert "limit" in err


def test_count(capsys):
    code, out, _ = run_cli(["count", "--width", "4", "--height", "4"], capsys)
    assert (code, out) == (0, "36\n")


def test_count_past_the_int_to_str_cap(src_env):
    # a count of more digits than the interpreter converts to str used to
    # exit 4, as if the arguments were at fault; a child interpreter keeps
    # this process's own cap
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter does not cap int-to-str conversion")
    result = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "residue_tilings.cli",
         "count", "--width", "1000", "--height", "6"],
        capture_output=True, text=True, env=src_env, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert len(result.stdout) == 703 + 1
    assert result.stdout.strip().isdigit()


def test_jacobi(capsys):
    code, out, _ = run_cli(["jacobi", "--m", "3", "--n", "5"], capsys)
    assert (code, out) == (0, "-1\n")
    code, _, _ = run_cli(["jacobi", "--m", "3", "--n", "4"], capsys)
    assert code == 4


def test_detk(capsys):
    code, out, _ = run_cli(["detk", "--m", "2", "--n", "3"], capsys)
    assert (code, out) == (0, "-1\n")
    code, out, _ = run_cli(["detk", "--m", "2", "--n", "3", "--matrix"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj == {"m": 2, "n": 3, "matrix": [[-1]], "det": -1}
    assert list(obj) == ["m", "n", "matrix", "det"]


def test_detk_matrix_refused_before_the_dense_rows(monkeypatch, capsys):
    # past 10**9 bytes of JSON, at 3 bytes per entry, the dense rows are
    # refused before the first byte: (18258, 3), d = 18257, is the last K
    # admitted, and (18259, 3) the first refused.  (377, 61), d = 11280,
    # writes 381782487 bytes
    monkeypatch.setattr(cli, "_json_row", trip)
    for m, n in ((377, 61), (18258, 3)):
        with pytest.raises(Built):
            cli.main(["detk", "--m", str(m), "--n", str(n), "--matrix"])
        capsys.readouterr()
    code, out, err = run_cli(["detk", "--m", "18259", "--n", "3", "--matrix"], capsys)
    assert (code, out) == (cli.EXIT_LIMIT, "")
    assert err == "detk: the dense JSON of a 18258 x 18258 matrix exceeds 10^9 bytes\n"
    # without --matrix the same K is eliminated
    code, out, _ = run_cli(["detk", "--m", "18259", "--n", "3"], capsys)
    assert (code, out) == (0, "1\n")
    # K past MAX_DIM is refused before it is built, with or without --matrix
    monkeypatch.setattr(kasteleyn, "range", trip, raising=False)
    for args in (["--m", "1024", "--n", "529", "--matrix"], ["--m", "1024", "--n", "529"]):
        code, out, err = run_cli(["detk", *args], capsys)
        assert (code, out) == (cli.EXIT_LIMIT, "")
        assert err == ("detk: K at m = 1024, n = 529 has dimension 270072, "
                       "over the dimension limit 270000\n")


def test_detk_refuses_long_thin_boards_at_once(monkeypatch, capsys):
    # d = 999999 took 40 s and 423 MB to refuse when K was built first;
    # (270001, 3), d = 270000, is the widest 2 x N board admitted
    monkeypatch.setattr(kasteleyn, "range", trip, raising=False)
    with pytest.raises(Built):
        cli.main(["detk", "--m", "270001", "--n", "3"])
    capsys.readouterr()
    start = time.perf_counter()
    for m, n in ((270002, 3), (1000000, 3), (10**9, 10**9 + 1)):
        code, out, err = run_cli(["detk", "--m", str(m), "--n", str(n)], capsys)
        assert (code, out) == (cli.EXIT_LIMIT, "")
        assert "over the dimension limit 270000" in err
    assert time.perf_counter() - start < 0.1


def test_detk_matrix_streams_the_dense_rows(capsys):
    for n in range(1, 14, 2):
        for m in range(1, 21):
            matrix = kasteleyn.build_kasteleyn(m, n)
            rows = [[column.get(r, 0) for column in matrix.columns] for r in range(matrix.dim)]
            det = kasteleyn.det_exact(matrix)
            expected = json.dumps({"m": m, "n": n, "matrix": rows, "det": det}) + "\n"
            code, out, _ = run_cli(["detk", "--m", str(m), "--n", str(n), "--matrix"], capsys)
            assert (code, out) == (0, expected), (m, n)


def test_detk_matrix_memory(monkeypatch):
    # d = 1485: all d * d entries held at once take about 36 MB
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli.main(["detk", "--m", "100", "--n", "31", "--matrix"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 12 * 2**20


# sha256 of stdout for outputs that must stay byte-identical
GOLDEN_DIGESTS = {
    ("detk", "--m", "2", "--n", "3"):
        "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28",
    ("detk", "--m", "2", "--n", "3", "--matrix"):
        "ebace3b0b3b9d6af28b61fee291fddf54172f3d3bcee636bb0af9c6e98447568",
    ("detk", "--m", "13", "--n", "9", "--matrix"):
        "693bdd787c3d86b7091e07839275e4679d9077d50a3ae6d4f94a60966125d1d2",
    ("lemma", "norm-bridge"):
        "eba8e2c70e73a01ede3a2925cace536902062e74091f595dca96cecf9cd27bb3",
    ("lemma", "kasteleyn-det"):
        "ad7d418337600539dc751c4b9e25fb37684712a07f53026efbeac6eaf0d238fe",
    ("lemma", "decomposition"):
        "0f582dc9d3bbb89e7e26831a4a99eac95455135f591a541ab364af333650d9fd",
    ("lemma", "half-board"):
        "96b04446479476b0287af759906cef108ae8c434182cb8406256497cb7b9229d",
    ("lemma", "y-decomposition"):
        "e0662ad6c8063bc639e874690b9248105b7e3ace7afc581bb76f41179c3071a2",
    ("lemma", "parity"):
        "8111aa0f51cbd3da85ddb5aae6f42826fc6afce8103b5541e4beba16c135d39e",
    ("lemma", "eisenstein"):
        "f52d0e8ce6c75c03d9c10050fcc460e4c1432e55966ccef436e1db32fbadefb8",
    ("lemma", "periodicity"):
        "8980e1f52004582904b1db6f2467d57d43b4a0e2fcc11fa7bfd5714974e77e5b",
    ("lemma", "l-closed-form"):
        "97417713d67731a77fbf36c4ecc0e360aef925e3542f49d1d211d335ecfbc635",
    # acceptance criterion 9's L-chain report, over 2380 boards
    ("lemma", "l-closed-form", "--arms", "3", "--length", "4"):
        "af2880db6e71d1d16db11371c0dd8e014ad5a3ec3deb2f1dafbe669d7ec98378",
    ("lemma", "flip-connectivity"):
        "5cab31e40d83284a31151da94660d899a8bcb18a9d3317ad2e49d106334d3ffc",
    ("lemma", "gauss"):
        "56d02e26135abee042fce717b962be146b8dd6a86fc20483d647e3c01526d726",
    ("lemma", "gauss-even"):
        "70fb4329099a13481f1ed8e6f7f6404540b14b6a7c0236e542912524c2e3885e",
    ("lemma", "coprime-vanishing"):
        "935492b9ce2698ee8916631cf0844e920ad7a0bccd4b92e7894f408b1f8a6dad",
    ("lemma", "ktf"):
        "7f3a544f29a21b9f7cef8ec216bbfd40ad82a89707c96ae5d2f98bd0b35453a7",
    ("lemma", "h-even"):
        "cc26c02c7953454347b03c44fc13fc3cf5b053a95cf4768b9e8f2c845738e74f",
    ("verify", "--m-max", "20", "--n-max", "13",
     "--methods", "dp,det,reciprocity-free,spectral"):
        "abb7a4516de7ef237f8dc549eecdf7bee4f969e00fb9d34893e078d53f19d865",
}


def test_golden_digests(capsys):
    for argv, digest in GOLDEN_DIGESTS.items():
        code, out, _ = run_cli(list(argv), capsys)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_every_lemma_is_pinned_at_its_defaults():
    assert {argv[1] for argv in GOLDEN_DIGESTS if argv[0] == "lemma" and len(argv) == 2} == set(LEMMAS)


def test_usage_errors(capsys):
    assert run_cli([], capsys)[0] == 4
    assert run_cli(["sum", "--width", "2"], capsys)[0] == 4
    assert run_cli(["sum", "--width", "x", "--height", "1"], capsys)[0] == 4
    assert run_cli(["nope"], capsys)[0] == 4


def test_verify_report(capsys):
    code, out, err = run_cli(
        ["verify", "--m-max", "6", "--n-max", "5", "--methods", "dp,det"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {
        "total": 36, "failed": 0, "limit": 0,
        "m_max": 6, "n_max": 5, "methods": ["dp", "det"],
    }
    # cases arrive sorted by (n, m)
    keys = [(c["n"], c["m"]) for c in report["cases"]]
    assert keys == sorted(keys)
    assert "cases in" in err


def test_verify_single_case(capsys):
    code, out, _ = run_cli(["verify", "--m-max", "1", "--n-max", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["cases"]) == 2
    assert report["cases"][0]["lhs"] == "1"
    assert report["cases"][0]["rhs"] == 1


def test_verify_all_methods(capsys):
    code, out, _ = run_cli(
        ["verify", "--m-max", "7", "--n-max", "7",
         "--methods", "dp,det,reciprocity-free,spectral"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0


def test_verify_unknown_method(capsys):
    # each message is one line naming verify, not the top-level usage line
    code, _, err = run_cli(
        ["verify", "--m-max", "2", "--n-max", "1", "--methods", "magic"],
        capsys,
    )
    assert code == 4
    assert err == "verify: unknown method 'magic'\n"
    # an empty method list used to run 0 cases and exit 0
    code, out, err = run_cli(
        ["verify", "--m-max", "3", "--n-max", "3", "--methods", ","], capsys
    )
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "names no method" in err
    assert err.startswith("verify: ") and err.count("\n") == 1
    # a repeated method used to be run and counted twice: 4 cases for 2
    code, out, err = run_cli(
        ["verify", "--m-max", "2", "--n-max", "1", "--methods", "dp,dp"], capsys
    )
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "names a method twice" in err
    assert err.startswith("verify: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "--m-max", "-3", "--n-max", "3"], "--m-max must be a positive int, got -3"),
    (["verify", "--m-max", "3", "--n-max", "0"], "--n-max must be a positive int, got 0"),
    (["table", "--m-max", "-1", "--n-max", "3"], "--m-max must be a positive int, got -1"),
], ids=["verify-m", "verify-n", "table-m"])
def test_empty_range_is_a_usage_error(argv, message, capsys):
    # a range that holds no case used to pass on nothing and exit 0
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"{argv[0]}: {message}\n"


def test_verify_failure_exit(monkeypatch, capsys):
    # force a wrong DP answer to exercise the failure path
    monkeypatch.setattr(cli, "signed_sum", lambda board: GaussianInt(5, 0))
    code, out, _ = run_cli(
        ["verify", "--m-max", "2", "--n-max", "1", "--methods", "dp"], capsys
    )
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["failed"] == 2
    assert all(not c["pass"] for c in report["cases"])


def test_verify_limit_exit(monkeypatch, capsys):
    # a case past a limit is reported as such and exits 2, unless another
    # case failed outright
    monkeypatch.setattr(limits, "MAX_DIM", 5)
    argv = ["verify", "--m-max", "6", "--n-max", "5", "--methods", "dp,det"]
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_LIMIT
    report = json.loads(out)
    assert [report["summary"][k] for k in ("total", "failed", "limit")] == [36, 3, 3]
    (case,) = [c for c in report["cases"] if (c["m"], c["n"], c["method"]) == (4, 5, "det")]
    assert case["lhs"] == "limit: K at m = 4, n = 5 has dimension 6, over the dimension limit 5"
    assert (case["pass"], case["limit"]) == (False, True)
    monkeypatch.setattr(cli, "signed_sum", lambda board: GaussianInt(5, 0))
    code, _, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_FAIL


def test_verify_spectral_failure(monkeypatch, capsys):
    # a product that does not round reports the refused value and fails
    monkeypatch.setattr(spectral, "norm_product", lambda m, n: 0.5)
    code, out, _ = run_cli(
        ["verify", "--m-max", "2", "--n-max", "1", "--methods", "spectral"], capsys
    )
    assert code == 1
    cases = json.loads(out)["cases"]
    assert [(c["lhs"], c["pass"]) for c in cases] == [("(0.5+0j)", False)] * 2
    assert not any("limit" in c for c in cases)


def test_verify_spectral_nan_is_a_failure(monkeypatch, capsys):
    # a NaN product used to escape round_signed as a plain ValueError, which
    # verify reported as a usage error with exit 4
    monkeypatch.setattr(spectral, "norm_product", lambda m, n: float("nan"))
    code, out, _ = run_cli(
        ["verify", "--m-max", "2", "--n-max", "1", "--methods", "spectral"], capsys
    )
    assert code == 1
    cases = json.loads(out)["cases"]
    assert [(c["lhs"], c["pass"]) for c in cases] == [("(nan+0j)", False)] * 2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_jobs_not_positive(jobs, capsys):
    # --jobs 0 and --jobs -2 used to run serially and exit 0
    code, out, err = run_cli(
        ["verify", "--m-max", "3", "--n-max", "3", "--jobs", jobs], capsys
    )
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"verify: --jobs must be a positive int, got {jobs}\n"


@pytest.mark.parametrize("argv", [
    ["--m-max", "6", "--n-max", "5", "--methods", "spectral", "--tol", "nan"],
    ["--m-max", "6", "--n-max", "5", "--methods", "spectral", "--tol", "-1"],
    ["--m-max", "3", "--n-max", "3", "--methods", "dp", "--tol", "nan"],
    ["--m-max", "0", "--n-max", "5", "--methods", "spectral", "--tol", "nan"],
    ["--m-max", "3", "--n-max", "3", "--methods", "spectral", "--tol", "0.4"],
], ids=["nan", "-1", "no-spectral-method", "no-case", "0.4"])
def test_verify_refuses_a_tolerance_outside_the_gate(argv, capsys):
    # --tol nan used to turn the spectral gate off and exit 0, and --tol -1
    # reported every case as a verification failure; without a spectral
    # case to run, --tol nan was not checked at all and exited 0.  The
    # spectral route now rounds at the fixed FLOAT_GATE, and verify takes
    # no --tol, not even one inside the gate
    code, out, err = run_cli(["verify", *argv], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert f"unrecognized arguments: --tol {argv[-1]}" in err


def test_table_golden_csv(capsys):
    code, out, _ = run_cli(["table", "--m-max", "4", "--n-max", "3"], capsys)
    assert code == 0
    assert out == GOLDEN_CSV


def test_table_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["table", "--m-max", "4", "--n-max", "3", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == GOLDEN_CSV


def test_table_json(capsys):
    code, out, _ = run_cli(
        ["table", "--m-max", "2", "--n-max", "1", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out) == [
        {"m": 1, "n": 1, "S": "1", "jacobi": 1, "agree": True},
        {"m": 2, "n": 1, "S": "1", "jacobi": 1, "agree": True},
    ]


def test_table_io_error(capsys):
    code, _, err = run_cli(
        ["table", "--m-max", "2", "--n-max", "1",
         "--out", "/nonexistent-dir/t.csv"],
        capsys,
    )
    assert code == 3
    assert "table" in err


def test_lemma_report(capsys):
    code, out, _ = run_cli(
        ["lemma", "periodicity", "--n-max", "3", "--m-max", "8"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["lemma"] == "periodicity"
    assert report["params"] == {"m_max": 8, "n_max": 3}
    assert report["total"] == 24
    assert report["pass"] is True


@pytest.mark.parametrize("n_max", ["5", "0"])
def test_lemma_periodicity_refuses_n_with_n_max(n_max, capsys):
    # --n-max used to be dropped without a word when --n was given; --n
    # is gone, and --n-max alone sets the heights
    code, out, err = run_cli(["lemma", "periodicity", "--n", "3", "--n-max", n_max], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.endswith("error: unrecognized arguments: --n 3\n")


@pytest.mark.parametrize("argv", [["--n", "3"], ["--n", "-2"], ["--n", "0"], ["--n-m", "3"]],
                         ids=["3", "-2", "0", "abbreviated"])
def test_lemma_periodicity_takes_no_n_flag(argv, capsys):
    # a bad --n used to be reported under rectangle's name; --n is gone,
    # and --n-m, which argparse would read as --n-max, is not a flag either
    code, out, err = run_cli(["lemma", "periodicity", *argv], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv)}\n")


@pytest.mark.parametrize("argv", [
    ["sum", "--wid", "2", "--height", "2"],
    ["detk", "--m", "2", "--n", "3", "--mat"],
    ["verify", "--m-max", "3", "--n-max", "3", "--meth", "dp"],
    ["table", "--m-max", "2", "--n-max", "1", "--form", "json"],
    ["lemma", "gauss", "--ma", "21"],
], ids=["sum", "detk", "verify", "table", "lemma"])
def test_no_flag_is_read_from_its_prefix(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "usage: residue-tilings" in err
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert not any(p.allow_abbrev for p in (parser, *commands.choices.values()))


def test_lemma_gauss_max_flag(capsys):
    code, out, _ = run_cli(["lemma", "gauss", "--max", "21"], capsys)
    assert code == 0
    assert json.loads(out)["params"] == {"bound": 21}


@pytest.mark.parametrize("argv", [["gauss", "--max", "-5"], ["periodicity", "--m-max", "0"]],
                         ids=["gauss", "periodicity"])
def test_lemma_over_an_empty_range_is_a_usage_error(argv, capsys):
    # a range that holds no case used to pass on nothing and exit 0
    code, out, err = run_cli(["lemma", *argv], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"lemma: {argv[0]!r} checks no case over this range\n"


def test_lemma_unknown(capsys):
    code, _, err = run_cli(["lemma", "unknown"], capsys)
    assert code == 4
    assert "unknown lemma" in err
    assert err.startswith("lemma: ") and err.count("\n") == 1


def test_lemma_inapplicable_flag(capsys):
    code, _, err = run_cli(["lemma", "gauss", "--arms", "2"], capsys)
    assert code == 4
    assert "--arms" in err


def test_lemma_flags_match_runner_keywords():
    # the CLI reads each runner's parameters from its code object; they are
    # every keyword of the runners' signatures, in order of first use
    signatures = [inspect.signature(runner).parameters for runner in LEMMAS.values()]
    assert cli._lemma_keywords() == list(dict.fromkeys(k for s in signatures for k in s))
    # every runner keyword parses as its flag, with the type of its default
    parser = cli._build_parser()
    for name, runner in LEMMAS.items():
        for keyword, param in inspect.signature(runner).parameters.items():
            flag = "--max" if keyword == "bound" else "--" + keyword.replace("_", "-")
            value = 0.5 if isinstance(param.default, float) else 7
            parsed = getattr(parser.parse_args(["lemma", name, flag, str(value)]), keyword)
            assert (parsed, type(parsed)) == (value, type(value)), (name, flag)


def test_lemma_flag_of_another_runner(capsys):
    code, _, err = run_cli(["lemma", "decomposition", "--limit", "5"], capsys)
    assert code == 4
    assert "lemma 'decomposition' does not take --limit" in err
    assert err.startswith("lemma: ") and err.count("\n") == 1


def test_lemma_env_limit(monkeypatch, capsys):
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "1")
    code, out, err = run_cli(["lemma", "decomposition"], capsys)
    assert (code, out) == (cli.EXIT_LIMIT, "")
    assert err == "lemma: board has 2 cells, enumeration limit is 1\n"


def test_lemma_env_limit_not_an_int(monkeypatch, capsys):
    monkeypatch.setenv("RESIDUE_TILINGS_LIMIT", "abc")
    code, out, err = run_cli(["lemma", "decomposition"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "lemma: RESIDUE_TILINGS_LIMIT must be a positive int, got 'abc'\n"


@pytest.mark.parametrize("limit, extra", [("-1", []), ("0", []), ("-1", ["--m-max", "3"])],
                         ids=["-1", "0", "-1-empty-range"])
def test_lemma_limit_not_positive(limit, extra, capsys):
    # --limit -1 used to be reported as a resource limit, with exit 2, and
    # with --m-max 3, a range without a board, it was never checked
    code, out, err = run_cli(["lemma", "parity", "--limit", limit, *extra], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"lemma: enumeration limit must be a positive int, got {limit}\n"


@pytest.mark.parametrize("argv", [["ktf", "--rel-tol", "1e9"], ["norm-bridge", "--tol", "0.4"]],
                         ids=["ktf", "norm-bridge"])
def test_lemma_float_gates_take_no_flag(argv, capsys):
    # --rel-tol 1e9 used to let every ktf case pass
    code, out, err = run_cli(["lemma", *argv], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


def test_console_script_end_to_end(src_env):
    result = subprocess.run(
        [sys.executable, "-c",
         "from residue_tilings.cli import run; run()",
         "table", "--m-max", "4", "--n-max", "3"],
        capture_output=True, text=True, env=src_env,
    )
    # argv[0] is the -c script, the rest are CLI args
    assert result.returncode == 0
    assert result.stdout == GOLDEN_CSV


def test_module_entry_point(src_env):
    result = subprocess.run(
        [sys.executable, "-m", "residue_tilings.cli", "jacobi", "--m", "3", "--n", "5"],
        capture_output=True, text=True, env=src_env,
    )
    assert (result.returncode, result.stdout) == (0, "-1\n")


def test_import_leaves_the_process_pool_unloaded(src_env):
    # only verify --jobs above 1 needs multiprocessing; every other command
    # would pay its import time and memory for nothing
    script = ("import sys, residue_tilings.cli; "
              "print('concurrent.futures.process' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=src_env)
    assert (result.returncode, result.stdout) == (0, "False\n")


def test_startup_imports_no_dataclasses_inspect_or_typing(src_env):
    # each of these modules cost milliseconds of every interpreter start;
    # fractions, with decimal, is loaded only for a pivot other than +1 or
    # -1.  -S keeps site from importing anything the package does not
    script = ("import sys, residue_tilings, residue_tilings.cli as cli; "
              "cli._build_parser(); code = cli.main(['jacobi', '--m', '3', '--n', '5']); "
              "print(code, sorted({'dataclasses', 'inspect', 'typing', 'fractions', 'decimal'}"
              " & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", script],
                            capture_output=True, text=True, env=src_env)
    assert (result.returncode, result.stdout, result.stderr) == (0, "-1\n0 []\n", "")


def test_verify_jobs_deterministic(src_env):
    base = [sys.executable, "-c", "from residue_tilings.cli import run; run()",
            "verify", "--m-max", "5", "--n-max", "5"]
    one = subprocess.run(base + ["--jobs", "1"], capture_output=True, text=True,
                         env=src_env)
    two = subprocess.run(base + ["--jobs", "2"], capture_output=True, text=True,
                         env=src_env)
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def recording_pool(started, groups):
    """A stand-in for ProcessPoolExecutor that starts no process: it runs
    each task here, and records the size of each pool and the set of
    (m, n) of each task's cases."""

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            for task in tasks:
                cases = fn(task)
                groups.append({(c["m"], c["n"]) for c in cases})
                yield cases

    return RecordingPool


def test_verify_jobs_clamped(monkeypatch, capsys):
    started = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording_pool(started, []))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)

    def verify(n_max):
        argv = ["verify", "--m-max", "2", "--n-max", str(n_max), "--jobs", "1000"]
        return run_cli(argv, capsys)[0]

    assert verify(7) == 0  # 4 tasks, one per n, on 3 cpus: 3 workers
    assert verify(3) == 0  # 2 tasks: 2 workers
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert verify(7) == 0  # unknown cpu count: no pool at all
    assert started == [3, 2]


def test_verify_jobs_give_each_n_to_one_task(monkeypatch, capsys):
    # each worker keeps the DP columns it sweeps, so an n split across two
    # tasks would be swept by both workers
    seen = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording_pool([], seen))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["verify", "--m-max", "6", "--n-max", "9", "--methods", "dp,det", "--jobs", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(seen) == 5
    ns = [{n for _, n in pairs} for pairs in seen]
    assert all(len(group) == 1 for group in ns)
    assert sorted(n for group in ns for n in group) == [1, 3, 5, 7, 9]
    assert set().union(*seen) == {(m, n) for m in range(1, 7) for n in (1, 3, 5, 7, 9)}
    code, serial, _ = run_cli(argv[:-2], capsys)
    assert (code, serial) == (0, out)


def test_closed_pipe_exits_io_without_traceback(src_env):
    # with stdout block-buffered, a short answer fails at the final flush,
    # a long report inside print and a 13 kB table inside the csv writer
    env = {k: v for k, v in src_env.items() if k != "PYTHONUNBUFFERED"}
    for argv in (["jacobi", "--m", "3", "--n", "5"],
                 ["verify", "--m-max", "300", "--n-max", "3", "--methods", "det"],
                 ["table", "--m-max", "300", "--n-max", "5"]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            result = subprocess.run(
                [sys.executable, "-m", "residue_tilings.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (cli.EXIT_IO, "")


def test_reader_leaving_mid_report_exits_io_without_traceback(src_env):
    # the reader takes the first bytes of a 1.2 MB report and leaves while
    # verify is still writing: the write that fails raises BrokenPipeError
    # inside print, and nothing, not the wall time either, goes to stderr
    with subprocess.Popen(
        [sys.executable, "-m", "residue_tilings.cli", "verify",
         "--m-max", "300", "--n-max", "61", "--methods", "spectral"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env,
    ) as child:
        try:
            head = child.stdout.read(10)
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()  # a no-op once the child has exited
    assert (head, child.returncode, err) == (b'{\n  "cases', cli.EXIT_IO, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_full_device_exits_io_without_traceback(buffered, src_env):
    # a write to a full stdout used to exit 1, a verification failure, with
    # a traceback; buffered, a short answer fails at the flush in main and a
    # long one inside print, and unbuffered every one fails inside print
    env = {k: v for k, v in src_env.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["jacobi", "--m", "3", "--n", "5"],
                 ["verify", "--m-max", "6", "--n-max", "5"],
                 ["detk", "--m", "13", "--n", "9", "--matrix"]):
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "residue_tilings.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert result.returncode == cli.EXIT_IO, argv
        assert result.stderr == f"{argv[0]}: [Errno 28] No space left on device\n", argv
