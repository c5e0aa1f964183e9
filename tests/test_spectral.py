"""Floating-point eigenvalue products and their tolerance gates."""

import cmath
import math

import pytest

from residue_tilings.board import rectangle
from residue_tilings.kasteleyn import build_kasteleyn, det_exact, det_sign
from residue_tilings.spectral import (
    ToleranceError,
    _sin_pi,
    eisenstein_product,
    ktf_count,
    norm_product,
    round_signed,
)
from residue_tilings.residue import jacobi, theorem_rhs
from residue_tilings.tiling import count_tilings


def norm_product_by_factors(m, n):
    """The eigenvalue product one factor (i, j) at a time, in O(m n)."""
    if any(n * (m - i) % (2 * m) == 0 for i in range(1, m)):
        return 0.0  # the factor with j = n(m - i)/2m vanishes
    acc, shift = 1.0, 0
    for i in range(1, m):
        for j in range(1, (n - 1) // 2 + 1):
            acc *= 2 * math.cos(math.pi * i / m) + 2 * math.cos(2 * math.pi * j / n)
            exp = math.frexp(acc)[1]
            acc, shift = acc / 2.0**exp, shift + exp
    return math.ldexp(acc, shift)


def test_norm_product_known_values():
    assert round_signed(norm_product(2, 3)) == -1
    assert abs(norm_product(3, 3)) < 1e-12
    assert round_signed(norm_product(1, 7)) == 1


def test_norm_product_matches_det():
    for n in range(1, 12, 2):
        for m in range(1, 12):
            det = det_exact(build_kasteleyn(m, n))
            assert round_signed(norm_product(m, n)) == det


def test_norm_vanishes_iff_not_coprime():
    for n in range(1, 100, 2):
        for m in range(1, 200):
            z = norm_product(m, n)
            if math.gcd(m, n) > 1:
                assert z == 0, (m, n)
            else:
                assert abs(z) > 0.5, (m, n)


def test_geometric_ratio_has_unit_modulus():
    # with xi a primitive n-th root of unity and gcd(m, n) = 1 the map
    # j -> mj permutes the nonzero residues, so the product of
    # (xi^(mj) - 1) / (xi^j - 1) over j = 1..n-1 has modulus 1
    for n in range(3, 24, 2):
        for m in range(1, n):
            if math.gcd(m, n) != 1:
                continue
            acc = 1.0 + 0j
            for j in range(1, n):
                xi_mj = cmath.exp(2j * cmath.pi * (m * j % n) / n)
                xi_j = cmath.exp(2j * cmath.pi * j / n)
                acc *= (xi_mj - 1) / (xi_j - 1)
            assert abs(abs(acc) - 1.0) < 1e-9


def test_round_signed():
    assert round_signed(1.0000001, 1e-3) == 1
    assert round_signed(-0.9999999, 1e-3) == -1
    assert round_signed(2.0) == 2
    assert round_signed(3.0, 0.0) == 3
    assert round_signed(1.25, 0.4999) == 1
    with pytest.raises(ToleranceError) as info:
        round_signed(0.4)
    assert info.value.residual == pytest.approx(0.4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_round_signed_refuses_a_non_finite_value(value):
    # NaN used to raise a plain ValueError, read as a usage error, and an
    # infinity an OverflowError that ended in a traceback
    with pytest.raises(ToleranceError, match="is not finite") as info:
        round_signed(value)
    assert info.value.value is value
    assert info.value.residual == math.inf


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300, 0.5, 1.0, float("inf")])
def test_round_signed_refuses_a_tolerance_outside_the_gate(tol):
    # NaN compares false, so it would pass every value; 1/2 passes every real
    with pytest.raises(ValueError, match="0 <= tol < 1/2") as info:
        round_signed(0.5, tol)
    assert not isinstance(info.value, ToleranceError)


def test_ktf_known_counts():
    assert ktf_count(3, 3) == pytest.approx(2)
    assert ktf_count(5, 5) == pytest.approx(36)
    assert ktf_count(1, 9) == pytest.approx(1)


def test_ktf_matches_enumeration():
    for m in range(1, 10, 2):
        for n in range(1, 10, 2):
            exact = count_tilings(rectangle(m - 1, n - 1))
            assert ktf_count(m, n) == pytest.approx(exact, rel=1e-9)


def test_eisenstein_known():
    assert round_signed(eisenstein_product(3, 5)) == jacobi(5, 3)
    assert round_signed(eisenstein_product(5, 3)) == jacobi(3, 5)


def test_eisenstein_requires_distinct_odd_primes():
    with pytest.raises(ValueError):
        eisenstein_product(3, 3)
    with pytest.raises(ValueError):
        eisenstein_product(9, 5)
    with pytest.raises(ValueError):
        eisenstein_product(2, 5)


def test_argument_validation():
    with pytest.raises(ValueError):
        norm_product(3, 4)
    with pytest.raises(ValueError):
        norm_product(0, 3)
    with pytest.raises(ValueError):
        ktf_count(2, 3)


def test_norm_product_no_underflow_on_large_coprime_pair():
    # the running product once dropped below 1e-300 on the way and came
    # back as 1.9e-114 instead of 1
    assert round_signed(norm_product(1401, 701)) == 1


def test_norm_product_exact_zero_when_not_coprime():
    assert norm_product(15, 9) == 0
    assert norm_product(1000, 15) == 0


def test_norm_product_matches_the_factor_by_factor_product():
    for n in range(1, 60, 2):
        for m in range(1, 60):
            z = norm_product(m, n)
            reference = norm_product_by_factors(m, n)
            assert isinstance(z, float), (m, n)
            assert z.imag == 0.0
            assert abs(z.real - reference) <= 1e-9 * abs(reference), (m, n)


@pytest.mark.parametrize("m, n", [(800, 399), (1700, 849), (2000, 999)])
def test_norm_product_accuracy_at_large_sizes(m, n):
    # the factor-by-factor product drifts to errors of 2e-10 to 5e-9 here
    exact = theorem_rhs(m, n) * det_sign(m, n)
    assert abs(norm_product(m, n) - exact) < 1e-12


def test_norm_product_reach():
    m, n = 100001, 50001
    assert round_signed(norm_product(m, n)) == theorem_rhs(m, n) * det_sign(m, n)


def test_sin_pi_reduces_the_argument():
    for q in (1, 2, 3, 8, 2 * 849):
        for r in range(-3 * q, 3 * q + 1):
            assert _sin_pi(r, q) == pytest.approx(math.sin(math.pi * r / q), abs=1e-12)
    # the argument is folded in integers, so the symmetric values agree
    # exactly and keep their relative accuracy near the zeros of sine
    q = 10**6
    tiny = _sin_pi(1, q)
    assert tiny == pytest.approx(math.pi / q, rel=1e-15)
    assert _sin_pi(q - 1, q) == _sin_pi(q + 1, q) * -1 == tiny
    assert _sin_pi(2 * q - 1, q) == _sin_pi(-1, q) == -tiny
    assert _sin_pi(4 * q + 1, q) == tiny
