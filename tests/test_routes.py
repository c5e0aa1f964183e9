"""The four routes to the rectangle sum agree exactly on random cases,
share one (m, n) contract, and share no other code than the few pieces
listed, each with the reason the cross-check still holds."""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residue_tilings import (
    board, cli, decomp, gaussian, kasteleyn, lemmas, limits, residue, spectral, tiling,
)
from residue_tilings.board import rectangle
from residue_tilings.decomp import reciprocity_free_sum
from residue_tilings.gaussian import GaussianInt
from residue_tilings.kasteleyn import signed_sum_via_det
from residue_tilings.residue import theorem_rhs
from residue_tilings.spectral import signed_sum_via_spectral
from residue_tilings.tiling import signed_sum


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(0, 7).map(lambda k: 2 * k + 1))
def test_four_routes_agree(m, n):
    dp = signed_sum(rectangle(m - 1, n - 1))
    det = GaussianInt(signed_sum_via_det(m, n))
    free = GaussianInt(reciprocity_free_sum(m, n))
    spectral = GaussianInt(signed_sum_via_spectral(m, n))
    assert dp == det == free == spectral == theorem_rhs(m, n)


# the DP takes a board, not (m, n), so it is outside this contract
@pytest.mark.parametrize(
    "route", [signed_sum_via_det, reciprocity_free_sum, signed_sum_via_spectral,
              theorem_rhs],
)
@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (3, 4), (3.0, 3), (3, -1)])
def test_routes_share_one_contract(route, m, n):
    with pytest.raises(ValueError):
        route(m, n)


def test_readme_library_sketch_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    sketch = readme.read_text(encoding="utf-8").split("## Library sketch\n", 1)[1]
    block = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    # the comment on the DP's line shows the repr of its value
    assert f"# {namespace['s']!r}\n" in block


# The package functions each route calls, as module.qualname, apart from
# the shared ones below.  A route that starts to call another route's code
# fails test_routes_call_only_their_own_code until this list is edited.
OWN_CODE = {
    "dp": {
        # a rectangle is read by its size, never by its cells
        "board.Board.__len__", "board.Board.bounds", "board.rectangle",
        "gaussian.GaussianInt.__init__",
        "tiling._fold_states", "tiling._orbit_step", "tiling._plan",
        "tiling._profile_sum", "tiling._reversals", "tiling._window_step",
        "tiling._window_table", "tiling._window_ways",
        "tiling.signed_sum",
    },
    "det": {"kasteleyn.build_kasteleyn", "kasteleyn.signed_sum_via_det"},
    "reciprocity-free": {
        "board._half_board_diag",
        "decomp._check_half_board", "decomp._check_window", "decomp._half_board_matrix",
        "decomp._window_residue", "decomp.admissible_diagonal", "decomp.half_board_parity",
        "decomp.half_board_square", "decomp.half_board_support",
        "decomp.periodicity_factor", "decomp.reciprocity_free_sum", "gaussian.i_power",
    },
    "spectral": {
        "spectral._check_tol", "spectral._fold", "spectral._half_sines",
        "spectral._scaled_product", "spectral.norm_product", "spectral.round_signed",
        "spectral.signed_sum_via_spectral",
    },
}

_CHECK = ("det", "reciprocity-free", "spectral"), (
    "the one (m, n) validator; it only raises, so it can refuse a case "
    "but cannot move a value")
_LIMIT = ("det", "reciprocity-free"), (
    "the resource limits' check; it only raises, so it can refuse a case "
    "but cannot move a value")
_DET = ("det", "reciprocity-free"), (
    "the exact determinant: reciprocity-free reads det B only as zero or "
    "not, since |det B| <= 1, so a sign fault moves det alone, and a false "
    "zero, which moves both, is caught by dp and spectral")
# each shared function: (the routes that call it, why the cross-check holds)
SHARED_CODE = {
    "residue._check_pair": _CHECK,
    "residue._check_odd_modulus": _CHECK,
    "kasteleyn._eliminate": _DET,
    "kasteleyn._is_odd": _DET,
    "kasteleyn.SparseMatrix.__init__": _DET,
    "limits.check": _LIMIT,
    "limits.check_dim": _LIMIT,
    "kasteleyn.det_sign": (("det", "spectral"), (
        "the sign between det K and the sum, one convention for both "
        "routes: a wrong sign moves det and spectral together, and dp and "
        "reciprocity-free, which do not read it, catch it")),
}


def _qualnames():
    """module.qualname of every function of the package, by its code
    object, a cached one by the function it wraps; a code object carries
    no qualname of its own before 3.11."""
    names = {}
    for module in (board, cli, decomp, gaussian, kasteleyn, lemmas, limits, residue, spectral,
                   tiling):
        short = module.__name__.rpartition(".")[2]
        for value in vars(module).values():
            for member in vars(value).values() if isinstance(value, type) else (value,):
                func = getattr(member, "fget", None) or getattr(member, "__func__", member)
                func = getattr(func, "__wrapped__", func)
                code = getattr(func, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    names[code] = f"{short}.{func.__qualname__}"
    return names


def _calls(route, names, files):
    """The package functions route calls over m < 30 and odd n < 16;
    lambdas and comprehensions count as part of the function around them."""
    seen = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in files and not code.co_name.startswith("<"):
            seen.add(names.get(code, f"unlisted {code.co_filename}:{code.co_name}"))

    sys.setprofile(record)
    try:
        for n in range(1, 16, 2):
            for m in range(1, 30):
                route(m, n)
    finally:
        sys.setprofile(None)
    return seen


def test_routes_call_only_their_own_code():
    # empty memos, so that the DP sweeps every column it reads and builds
    # every plan and window table
    tiling._forget_memos()
    names = _qualnames()
    files = {code.co_filename for code in names}
    called = {method: _calls(route, names, files) for method, route in cli.ROUTES.items()}
    for method in cli.ROUTES:
        shared = {name for name, (routes, _) in SHARED_CODE.items() if method in routes}
        assert called[method] == OWN_CODE[method] | shared, method
    # the shared list names exactly what two routes call
    twice = {name for a in called for b in called if a < b for name in called[a] & called[b]}
    assert twice == set(SHARED_CODE)


# module -> the package modules it must not import: the det and spectral
# routes' modules import neither the DP's nor the reciprocity-free route's,
# and the DP's imports none of the other routes'
FORBIDDEN_IMPORTS = {
    kasteleyn: {"tiling", "decomp"},
    spectral: {"tiling", "decomp"},
    tiling: {"kasteleyn", "decomp", "spectral"},
}


def _package_imports(module):
    """The package modules that module's relative imports name: x for
    `from .x import ...`, and each name of `from . import ...`."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


@pytest.mark.parametrize("module", FORBIDDEN_IMPORTS, ids=lambda module: module.__name__)
def test_routes_import_no_other_route(module):
    assert _package_imports(module) & FORBIDDEN_IMPORTS[module] == set()
