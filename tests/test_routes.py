"""The four routes to the rectangle sum agree exactly on random cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from residue_tilings.board import rectangle
from residue_tilings.decomp import reciprocity_free_sum
from residue_tilings.gaussian import GaussianInt
from residue_tilings.kasteleyn import signed_sum_via_det
from residue_tilings.residue import theorem_rhs
from residue_tilings.spectral import norm_product, round_signed
from residue_tilings.tiling import signed_sum


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(0, 7).map(lambda k: 2 * k + 1))
def test_four_routes_agree(m, n):
    dp = signed_sum(rectangle(m - 1, n - 1))
    det = GaussianInt(signed_sum_via_det(m, n))
    free = GaussianInt(reciprocity_free_sum(m, n))
    # the raw eigenvalue product differs from the sum by this sign (as in
    # the CLI's spectral method)
    sign = -1 if m % 2 == 0 and (n * n - 1) // 8 % 2 else 1
    spectral = GaussianInt(sign * round_signed(norm_product(m, n)))
    assert dp == det == free == spectral == theorem_rhs(m, n)
