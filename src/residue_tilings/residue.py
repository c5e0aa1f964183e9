"""Jacobi symbols and Gauss-lemma sign counters."""

from __future__ import annotations

import math


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd positive n, by reduce and flip."""
    _check_odd_modulus(n)
    if not isinstance(a, int) or a < 0:
        raise ValueError("numerator must be a non-negative int")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def gauss_sign(m: int, n: int) -> int:
    """(-1) raised to the number of j in 1..(n-1)/2 whose product m*j has a
    negative representative mod n, i.e. m*j mod n > n/2.  Equals jacobi(m, n)
    for coprime arguments, which is how the tests pin it down."""
    _check_coprime_pair(m, n)
    flips = sum(1 for j in range(1, (n + 1) // 2) if (m * j) % n > n // 2)
    return -1 if flips % 2 else 1


def gauss_sign_even_half(t: int, n: int) -> int:
    """Same counting argument over the even half-system 2, 4, ..., n-1:
    counts i with t*i odd mod n.  Also equals jacobi(t, n) when coprime."""
    _check_coprime_pair(t, n)
    flips = sum(1 for i in range(2, n, 2) if (t * i) % n % 2 == 1)
    return -1 if flips % 2 else 1


def theorem_rhs(m: int, n: int) -> int:
    """The closed form for the signed tiling sum of the (m-1) x (n-1)
    rectangle: jacobi(m, n) for odd m, jacobi(m/2, n) for even m."""
    _check_pair(m, n)
    return jacobi(m if m % 2 else m // 2, n)


def _check_odd_modulus(n: int) -> None:
    if not isinstance(n, int) or n < 1 or n % 2 == 0:
        raise ValueError("modulus must be an odd positive int")


def _check_pair(m: int, n: int) -> None:
    """The (m, n) contract of every route: m a positive int, n an odd
    positive int."""
    _check_odd_modulus(n)
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive int")


def _check_coprime_pair(m: int, n: int) -> None:
    _check_pair(m, n)
    if math.gcd(m, n) != 1:
        raise ValueError("arguments must be coprime")
