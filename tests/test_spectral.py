"""Floating-point eigenvalue products and their tolerance gates."""

import cmath
import math

import pytest

from residue_tilings.board import rectangle
from residue_tilings.kasteleyn import build_kasteleyn, det_exact
from residue_tilings.spectral import (
    ToleranceError,
    eisenstein_product,
    ktf_count,
    norm_product,
    round_signed,
)
from residue_tilings.residue import jacobi
from residue_tilings.tiling import count_tilings


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
    for n in range(1, 14, 2):
        for m in range(1, 14):
            modulus = abs(norm_product(m, n))
            if math.gcd(m, n) > 1:
                assert modulus <= 1e-6
            else:
                assert modulus > 0.5


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
    assert round_signed(-0.9999999 + 1e-9j, 1e-3) == -1
    assert round_signed(2.0) == 2
    with pytest.raises(ToleranceError) as info:
        round_signed(0.4)
    assert info.value.real_residual == pytest.approx(0.4)
    with pytest.raises(ToleranceError) as info:
        round_signed(1 + 0.5j)
    assert info.value.imag_residual == pytest.approx(0.5)


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
