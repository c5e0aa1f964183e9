"""Floating-point product formulas: eigenvalue norms and cosine products.

Everything here is approximate by nature; results are bridged back to the
exact integer quantities via round_signed at an explicit tolerance.
"""

from __future__ import annotations

import cmath
import math

from .kasteleyn import det_sign
from .residue import _check_pair

RENORM_GUARD = 1e12
RENORM_FLOOR = 1 / RENORM_GUARD


class ToleranceError(ValueError):
    """A floating value failed to round to an integer within tolerance; the
    value is kept as .value."""

    def __init__(self, message: str, value: complex, real_residual: float,
                 imag_residual: float):
        super().__init__(message)
        self.value = value
        self.real_residual = real_residual
        self.imag_residual = imag_residual


def _root(order: int, k: int) -> complex:
    # One cos/sin evaluation per exponent; no iterated multiplication drift.
    return cmath.exp(2j * math.pi * k / order)


def norm_product(m: int, n: int) -> complex:
    """Product over i in 1..m-1 and j in 1..(n-1)/2 of
    z_2m^i + z_2m^-i + z_n^j + z_n^-j, where z_N is exp(2 pi i / N).

    Equals the determinant of the folded adjacency matrix up to floating
    error; the product is 0 exactly when gcd(m, n) > 1.  The running
    product is rescaled by powers of two to stay within [RENORM_FLOOR,
    RENORM_GUARD], so it neither overflows nor underflows.
    """
    _check_pair(m, n)
    # factor (i, j) is 0 when i/m + 2j/n = 1, i.e. j = n(m - i)/2m is whole
    if any(n * (m - i) % (2 * m) == 0 for i in range(1, m)):
        return 0j
    cols = [(_root(n, j), _root(n, -j)) for j in range(1, (n - 1) // 2 + 1)]
    acc = complex(1.0)
    shift = 0
    for i in range(1, m):
        row = _root(2 * m, i) + _root(2 * m, -i)
        for col, col_conj in cols:
            acc *= row + col + col_conj
            size = abs(acc)
            if size > RENORM_GUARD or size < RENORM_FLOOR:
                exp = math.frexp(size)[1]
                acc /= 2.0**exp
                shift += exp
    return acc * 2.0**shift


def signed_sum_via_spectral(m: int, n: int, tol: float = 1e-6) -> int:
    """Signed tiling sum of the (m-1) x (n-1) rectangle from the eigenvalue
    product, rounded at tol; raises ToleranceError when it does not round."""
    return round_signed(norm_product(m, n), tol) * det_sign(m, n)


def ktf_count(m: int, n: int) -> float:
    """Closed-form tiling count of the (m-1) x (n-1) rectangle for odd m, n:
    4^((m-1)/2 * (n-1)/2) times the product of
    cos^2(2 pi j / m) + cos^2(2 pi k / n)."""
    _check_pair(m, n)
    if m % 2 == 0:
        raise ValueError("m must be odd")
    return _cos_sq_product(m, n, 1.0)


def eisenstein_product(p: int, q: int) -> float:
    """4^((p-1)/2 * (q-1)/2) times the product of
    cos^2(2 pi j / p) - cos^2(2 pi k / q) over the half ranges.

    For distinct odd primes this is exactly the Jacobi symbol (q / p);
    the floating product rounds to it.
    """
    if not _is_odd_prime(p) or not _is_odd_prime(q) or p == q:
        raise ValueError("p and q must be distinct odd primes")
    return _cos_sq_product(p, q, -1.0)


def _cos_sq_product(a: int, b: int, sign: float) -> float:
    """4^((a-1)/2 * (b-1)/2) times the product over j in 1..(a-1)/2 and k
    in 1..(b-1)/2 of cos^2(2 pi j / a) + sign * cos^2(2 pi k / b).

    The running product is rescaled by powers of two, as in norm_product,
    so neither it nor the power of 4 overflows or underflows on the way;
    only a result beyond the float range raises OverflowError.
    """
    rows = [math.cos(2 * math.pi * j / a) ** 2 for j in range(1, (a - 1) // 2 + 1)]
    cols = [sign * math.cos(2 * math.pi * k / b) ** 2 for k in range(1, (b - 1) // 2 + 1)]
    acc = 1.0
    shift = 2 * len(rows) * len(cols)
    for row in rows:
        for col in cols:
            acc *= row + col
            size = abs(acc)
            if size > RENORM_GUARD or size < RENORM_FLOOR:
                exp = math.frexp(size)[1]
                acc /= 2.0**exp
                shift += exp
    return math.ldexp(acc, shift)


def round_signed(value: complex, tol: float = 1e-6) -> int:
    """Round a floating value to the nearest integer, requiring both the
    imaginary part and the rounding residual to be within tol."""
    z = complex(value)
    nearest = round(z.real)
    real_residual = abs(z.real - nearest)
    imag_residual = abs(z.imag)
    if real_residual > tol or imag_residual > tol:
        raise ToleranceError(
            f"value {z!r} does not round to an integer within {tol:g} "
            f"(real residual {real_residual:.3e}, imag residual {imag_residual:.3e})",
            z,
            real_residual,
            imag_residual,
        )
    return int(nearest)


def _is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, math.isqrt(p) + 1, 2))
