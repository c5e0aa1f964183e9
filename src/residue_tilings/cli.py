"""Command-line front end.

Single-value queries (sum, count, jacobi, detk), verification sweeps over
(m, n) ranges (verify), table emission (table), and named property suites
(lemma).  Exit codes: 0 all-pass, 1 verification failure, 2 resource
limit, 3 I/O, 4 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .board import rectangle
from .decomp import reciprocity_free_sum
from .kasteleyn import _eliminate, build_kasteleyn, det_exact, signed_sum_via_det
from .lemmas import LEMMAS, _grid
from .limits import MAX_JSON_BYTES, SizeLimitError, check
from .residue import jacobi, theorem_rhs
from .spectral import ToleranceError, _check_tol, signed_sum_via_spectral
from .tiling import count_tilings, signed_sum

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_LIMIT = 2
EXIT_IO = 3
EXIT_USAGE = 4

# Each route maps (m, n, tol) to the signed sum of the (m-1) x (n-1)
# rectangle.  The lambdas look the functions up at call time, so that a
# patched module attribute takes effect.
ROUTES = {
    "dp": lambda m, n, tol: signed_sum(rectangle(m - 1, n - 1)),
    "det": lambda m, n, tol: signed_sum_via_det(m, n),
    "reciprocity-free": lambda m, n, tol: reciprocity_free_sum(m, n),
    "spectral": lambda m, n, tol: signed_sum_via_spectral(m, n, tol),
}
METHODS = tuple(ROUTES)

class _Parser(argparse.ArgumentParser):
    """argparse's own parse errors exit 4: exit 2 means a resource limit here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _lemma_keywords() -> list[str]:
    """Every keyword of a lemma runner, in order of first use; each takes
    an int, and so does its flag."""
    return list(dict.fromkeys(
        name
        for runner in LEMMAS.values()
        for name in _parameters(runner)
    ))


def _parameters(runner) -> tuple[str, ...]:
    """The names of a lemma runner's parameters, all positional, in order."""
    return runner.__code__.co_varnames[:runner.__code__.co_argcount]


def _lemma_flag(keyword: str) -> str:
    return "--max" if keyword == "bound" else "--" + keyword.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="residue-tilings")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, text in (("sum", "signed tiling sum of a rectangle"),
                       ("count", "number of tilings of a rectangle")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--width", type=int, required=True)
        p.add_argument("--height", type=int, required=True)

    p = sub.add_parser("jacobi", help="Jacobi symbol (m / n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("detk", help="determinant of the folded adjacency matrix")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix", action="store_true",
                   help="emit the matrix and determinant as JSON")

    p = sub.add_parser("verify", help="sweep the main identity over a range")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--methods", default="dp,det",
                   help="comma list from: " + ", ".join(METHODS))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("table", help="emit S and Jacobi values over a range")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("lemma", help="run a named property suite")
    p.add_argument("name")
    for keyword in _lemma_keywords():
        p.add_argument(_lemma_flag(keyword), dest=keyword, type=int, default=None)

    return parser


def _cmd_sum(args) -> int:
    print(signed_sum(rectangle(args.width, args.height)).render())
    return EXIT_OK


def _cmd_count(args) -> int:
    # a count may pass CPython's 4300-digit cap on int-to-str (3.10.7+)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    print(count_tilings(rectangle(args.width, args.height)))
    return EXIT_OK


def _cmd_jacobi(args) -> int:
    print(jacobi(args.m, args.n))
    return EXIT_OK


def _cmd_detk(args) -> int:
    # the size limits apply before anything is printed
    matrix = build_kasteleyn(args.m, args.n)
    if not args.matrix:
        print(_eliminate(matrix.columns))  # K is not read again
        return EXIT_OK
    # each of the d * d dense entries takes at least 3 bytes ("0, ")
    check(3 * matrix.dim ** 2, MAX_JSON_BYTES,
          f"the dense JSON of a {matrix.dim} x {matrix.dim} matrix exceeds 10^9 bytes")
    det = det_exact(matrix)  # on a copy, as K is streamed after it
    # the bytes of json.dumps on the dense rows, written one row at a time;
    # K is symmetric, so each column is its row
    out = sys.stdout
    out.write(f'{{"m": {args.m}, "n": {args.n}, "matrix": [')
    for row, entries in enumerate(matrix.columns):
        out.write((", " if row else "") + _json_row(entries, matrix.dim))
    out.write(f'], "det": {det}}}\n')
    return EXIT_OK


def _json_row(entries: dict[int, int], dim: int) -> str:
    """json.dumps of the dense row of length dim with the given nonzero
    entries, joined from runs of zeros instead of one string per zero."""
    parts, start = [], 0
    for col in sorted(entries):
        parts.append("0, " * (col - start) + f"{entries[col]}, ")
        start = col + 1
    parts.append("0, " * (dim - start))
    return "[" + "".join(parts)[:-2] + "]"


def _verify_n(task: tuple[int, int, tuple[str, ...], float]) -> list[dict]:
    """Every case of one n, for m = 1 .. m_max.  A worker of verify --jobs
    takes all of an n, so that the DP's kept columns of its profile height
    are swept by that worker alone."""
    n, m_max, methods, tol = task
    out = []
    for m in range(1, m_max + 1):
        rhs = theorem_rhs(m, n)
        for method in methods:
            case = {"m": m, "n": n, "lhs": None, "rhs": rhs,
                    "method": method, "pass": False}
            try:
                lhs = ROUTES[method](m, n, tol)
                case["lhs"], case["pass"] = str(lhs), lhs == rhs
            except ToleranceError as exc:
                case["lhs"] = repr(complex(exc.value))  # the published form
            except SizeLimitError as exc:
                case["lhs"] = f"limit: {exc}"
                case["limit"] = True
            out.append(case)
    return out


def _cmd_verify(args) -> int:
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    if not methods:
        raise ValueError("--methods names no method")
    if len(set(methods)) < len(methods):
        raise ValueError("--methods names a method twice")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    _check_tol(args.tol)  # whatever the methods, so a bad --tol never exits 0
    _check_range(args)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be a positive int, got {args.jobs}")
    # one task per n, widest first, so that the longest task starts first
    tasks = [(n, args.m_max, methods, args.tol)
             for n in reversed(range(1, args.n_max + 1, 2))]
    start = time.perf_counter()
    jobs = min(args.jobs, os.cpu_count() or 1, len(tasks))
    if jobs > 1:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_verify_n, tasks))
    else:
        chunks = [_verify_n(t) for t in tasks]
    elapsed = time.perf_counter() - start
    cases = [case for chunk in chunks for case in chunk]
    cases.sort(key=lambda c: (c["n"], c["m"], METHODS.index(c["method"])))
    failed = sum(1 for c in cases if not c["pass"])
    limits = sum(1 for c in cases if c.get("limit"))
    report = {
        "cases": cases,
        "summary": {"total": len(cases), "failed": failed, "limit": limits,
                    "m_max": args.m_max, "n_max": args.n_max,
                    "methods": list(methods)},
    }
    # wall time goes to stderr so stdout stays byte-deterministic; a failed
    # write to stdout shows before it
    print(json.dumps(report, indent=2), flush=True)
    print(f"verify: {len(cases)} cases in {elapsed:.2f}s", file=sys.stderr)
    return EXIT_FAIL if failed > limits else EXIT_LIMIT if limits else EXIT_OK


def _check_range(args) -> None:
    """Refuse an (m, n) range that holds no case, so it never passes on nothing."""
    for flag, value in (("--m-max", args.m_max), ("--n-max", args.n_max)):
        if value < 1:
            raise ValueError(f"{flag} must be a positive int, got {value}")


def _cmd_table(args) -> int:
    _check_range(args)
    rows = []
    for m, n in _grid(args.m_max, args.n_max):
        value = signed_sum(rectangle(m - 1, n - 1))
        rhs = theorem_rhs(m, n)
        rows.append((m, n, value.render(), rhs, value == rhs))
    if not args.out:
        _write_table(sys.stdout, rows, args.format)
        return EXIT_OK
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        _write_table(handle, rows, args.format)
    return EXIT_OK


def _write_table(target, rows, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(["m", "n", "S", "jacobi", "agree"])
        for m, n, s, rhs, agree in rows:
            writer.writerow([m, n, s, rhs, "true" if agree else "false"])
    else:
        json.dump([{"m": m, "n": n, "S": s, "jacobi": rhs, "agree": agree}
                   for m, n, s, rhs, agree in rows], target, indent=2)
        target.write("\n")


def _cmd_lemma(args) -> int:
    runner = LEMMAS.get(args.name)
    if runner is None:
        raise ValueError(f"unknown lemma {args.name!r}")
    accepted = _parameters(runner)
    kwargs = {}
    for keyword in _lemma_keywords():
        value = getattr(args, keyword)
        if value is None:
            continue
        if keyword not in accepted:
            raise ValueError(f"lemma {args.name!r} does not take {_lemma_flag(keyword)}")
        kwargs[keyword] = value
    report = runner(**kwargs)
    if not report["total"]:
        raise ValueError(f"{args.name!r} checks no case over this range")
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["pass"] else EXIT_FAIL


def main(argv=None) -> int:
    """Run one command; here alone a failure it raises becomes an exit code."""
    args = _build_parser().parse_args(argv)
    commands = {"sum": _cmd_sum, "count": _cmd_count, "jacobi": _cmd_jacobi,
                "detk": _cmd_detk, "verify": _cmd_verify, "table": _cmd_table,
                "lemma": _cmd_lemma}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a write that fails shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        return EXIT_IO  # the reader has left: there is no one to tell
    except SizeLimitError as exc:
        error, code = exc, EXIT_LIMIT
    except OSError as exc:
        error, code = exc, EXIT_IO
    except ValueError as exc:
        error, code = exc, EXIT_USAGE
    print(f"{args.command}: {error}", file=sys.stderr)
    return code


def run() -> None:
    code = main()
    if code == EXIT_IO:
        # drop what stdout could not write, or the interpreter's final
        # flush fails on it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
