"""The four routes to the rectangle sum agree exactly on random cases and
share one (m, n) contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
