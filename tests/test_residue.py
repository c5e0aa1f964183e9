import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residue_tilings.residue import (
    gauss_sign,
    gauss_sign_even_half,
    jacobi,
    theorem_rhs,
)


def legendre(a, p):
    """Euler's criterion, valid for odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r > 1 else r


SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_jacobi_against_legendre():
    for p in SMALL_PRIMES:
        for a in range(0, 2 * p):
            assert jacobi(a, p) == legendre(a, p)


def test_jacobi_prime_factorization():
    # (a / n1*n2) = (a / n1)(a / n2)
    for n1 in [3, 5, 7, 9]:
        for n2 in [3, 5, 11]:
            for a in range(0, 30):
                assert jacobi(a, n1 * n2) == jacobi(a, n1) * jacobi(a, n2)


def test_jacobi_known_values():
    assert jacobi(3, 5) == -1
    assert jacobi(3, 3) == 0
    assert jacobi(1, 1) == 1
    assert jacobi(0, 1) == 1
    assert jacobi(0, 9) == 0
    assert jacobi(1000001, 2000003) == jacobi(1000001 % 2000003, 2000003)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -5)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=300, derandomize=True)
def test_jacobi_periodic_and_multiplicative(a, b):
    n = 2 * (b % 1000) + 1
    assert jacobi(a + n, n) == jacobi(a, n)
    assert jacobi(a * a, n) == (1 if math.gcd(a, n) == 1 else 0)


def test_gauss_sign_matches_jacobi():
    for n in range(1, 60, 2):
        for m in range(1, 60):
            if math.gcd(m, n) == 1:
                assert gauss_sign(m, n) == jacobi(m, n)


def test_gauss_sign_known():
    # m = 3, n = 5: the residues 3, 6 mod 5 = 3, 1; one lands above 5/2
    assert gauss_sign(3, 5) == -1


def test_gauss_sign_even_half_matches_jacobi():
    for n in range(1, 60, 2):
        for t in range(1, 60):
            if math.gcd(t, n) == 1:
                assert gauss_sign_even_half(t, n) == jacobi(t, n)


def test_gauss_sign_even_half_known():
    assert gauss_sign_even_half(2, 5) == -1
    assert gauss_sign_even_half(3, 5) == -1


def test_counters_need_coprime_args():
    with pytest.raises(ValueError):
        gauss_sign(3, 9)
    with pytest.raises(ValueError):
        gauss_sign_even_half(3, 9)


def test_theorem_rhs():
    # odd widths use (m / n), even widths use (m/2 / n)
    assert theorem_rhs(5, 3) == jacobi(5, 3) == -1
    assert theorem_rhs(4, 3) == jacobi(2, 3) == -1
    assert theorem_rhs(1, 1) == 1
    assert theorem_rhs(6, 9) == 0
