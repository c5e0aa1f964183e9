"""Floating-point product formulas: eigenvalue norms and cosine products.

Everything here is approximate by nature; results are bridged back to the
exact integer quantities via round_signed at an explicit tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .kasteleyn import det_sign
from .residue import _check_pair

RENORM_GUARD = 1e12
RENORM_FLOOR = 1 / RENORM_GUARD


class ToleranceError(ValueError):
    """A floating value failed to round to an integer within tolerance; it
    is kept as .value, and its distance to the nearest integer as .residual."""

    def __init__(self, message: str, value: float, residual: float):
        super().__init__(message)
        self.value = value
        self.residual = residual


def norm_product(m: int, n: int) -> float:
    """Product over i in 1..m-1 and j in 1..(n-1)/2 of the real eigenvalues
    2cos(pi i/m) + 2cos(2 pi j/n): det K up to rounding, and 0.0 exactly
    when gcd(m, n) > 1.

    For odd n, prod_j (2cos t - 2cos(2 pi j/n)) = sin(n t/2) / sin(t/2): both
    sides are monic of degree (n-1)/2 in 2cos t with the same roots.  With
    t = pi a/m for a = m - i, each row is one factor, and the product is
    (-1)**((m-1)(n-1)/2) * prod_a sin(pi n a/2m) / sin(pi a/2m).  If math.sin
    is within 1 ulp, each factor is within a few ulps (_sin_pi), so the
    relative error is at most a few times m ulps.  The running product is
    rescaled by _scaled_product.
    """
    _check_pair(m, n)
    if math.gcd(m, n) > 1:
        return 0.0  # the factor of row a = 2m/gcd(m, n) is sin(pi n/gcd) = 0
    sign = -1.0 if (m - 1) * (n - 1) // 2 % 2 else 1.0
    factors = (_sin_pi(n * a, 2 * m) / _sin_pi(a, 2 * m) for a in range(1, m))
    return sign * _scaled_product(factors, 0)


def _sin_pi(r: int, q: int) -> float:
    """sin(pi r/q), its argument reduced in integers into [0, pi/2]."""
    r %= 2 * q
    s = r % q
    x = math.sin(math.pi * (s if 2 * s <= q else q - s) / q)
    return x if r < q else -x


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
    in 1..(b-1)/2 of cos^2(2 pi j / a) + sign * cos^2(2 pi k / b)."""
    rows = [math.cos(2 * math.pi * j / a) ** 2 for j in range(1, (a - 1) // 2 + 1)]
    cols = [sign * math.cos(2 * math.pi * k / b) ** 2 for k in range(1, (b - 1) // 2 + 1)]
    factors = (row + col for row in rows for col in cols)
    return _scaled_product(factors, 2 * len(rows) * len(cols))


def _scaled_product(factors: Iterable[float], shift: int) -> float:
    """The product of factors times 2**shift.  The running product is
    rescaled by powers of two into [RENORM_FLOOR, RENORM_GUARD], so neither
    it nor the power of two overflows or underflows on the way; only a
    result beyond the float range raises OverflowError."""
    acc = 1.0
    for factor in factors:
        acc *= factor
        if not RENORM_FLOOR <= abs(acc) <= RENORM_GUARD:
            exp = math.frexp(acc)[1]
            acc /= 2.0**exp
            shift += exp
    return math.ldexp(acc, shift)


def _check_tol(tol: float) -> None:
    """Raise ValueError unless 0 <= tol < 1/2: a NaN tol would pass every
    value, and at 1/2 or more every value passes."""
    if not 0 <= tol < 0.5:
        raise ValueError(f"tol must satisfy 0 <= tol < 1/2, got {tol!r}")


def round_signed(value: float, tol: float = 1e-6) -> int:
    """Round value to the nearest integer; ToleranceError if the residual
    exceeds tol or value is not finite (its residual is then inf),
    ValueError if tol fails _check_tol."""
    _check_tol(tol)
    if not math.isfinite(value):
        raise ToleranceError(f"value {value!r} is not finite", value, math.inf)
    nearest = round(value)
    residual = abs(value - nearest)
    if residual > tol:
        raise ToleranceError(f"value {value!r} does not round to an integer within "
                             f"{tol:g} (residual {residual:.3e})", value, residual)
    return nearest


def _is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, math.isqrt(p) + 1, 2))
