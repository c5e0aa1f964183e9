"""Floating-point product formulas: eigenvalue norms and cosine products.

Everything here is approximate by nature; results are bridged back to the
exact integer quantities via round_signed at an explicit tolerance.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator
from itertools import islice, repeat
from operator import floordiv, getitem, mod, sub, truediv

from .kasteleyn import det_sign
from .residue import _check_pair

# The tolerance of every floating-point claim, fixed so that no argument
# can widen a gate until it passes anything.
FLOAT_GATE = 1e-6


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
    (-1)**((m-1)(n-1)/2) * prod_a sin(pi n a/2m) / sin(pi a/2m).  Both sines
    come from one table (_half_sines, _fold) at some s in 1..m-1, each in
    [1/m, 1] by Jordan's inequality, so each factor lies in [1/m, m].  As
    rounding is odd, _scaled_product multiplies the magnitudes and the sign
    comes last.  With math.sin within 1 ulp, the relative error is O(m) ulps.
    """
    _check_pair(m, n)
    if math.gcd(m, n) > 1:
        return 0.0  # the factor of row a = 2m/gcd(m, n) is sin(pi n/gcd) = 0
    sines = _half_sines(m)
    numerators, odd = _fold(sines, range(n, n * m, n))
    sign = -1.0 if ((m - 1) * (n - 1) // 2 + odd) % 2 else 1.0
    return sign * _scaled_product(map(truediv, numerators, islice(sines, 1, m)), m.bit_length())


def _half_sines(m: int) -> array:
    """sin(pi s/2m), s = 0..m, as math.sin(math.pi * s / (2 * m)), in lists of 4096."""
    sines, q = array("d"), 2.0 * m
    for lo in range(0, m + 1, 4096):
        sines.fromlist([math.sin(math.pi * s / q) for s in range(m + 1)[lo:lo + 4096]])
    return sines


def _fold(sines: array, rs: range) -> tuple[Iterator[float], int]:
    """|sin(pi r/2m)| for each r in rs, read from sines = _half_sines(m) at
    |(r + m) mod 2m - m|, and the parity of the negative sines (at odd r // 2m)."""
    m = len(sines) - 1
    folded = map(abs, map(sub, map(mod, range(rs.start + m, rs.stop + m, rs.step),
                                   repeat(2 * m)), repeat(m)))
    return map(getitem, repeat(sines), folded), sum(map(floordiv, rs, repeat(2 * m))) % 2


def signed_sum_via_spectral(m: int, n: int) -> int:
    """Signed tiling sum of the (m-1) x (n-1) rectangle from the eigenvalue
    product, rounded at FLOAT_GATE; raises ToleranceError when it does not round."""
    return round_signed(norm_product(m, n)) * det_sign(m, n)


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
    in 1..(b-1)/2 of cos^2(2 pi j / a) + sign * cos^2(2 pi k / b).  A
    factor is at most 2 and at least 1/max(a, b)^2 (|cos(2 pi j/a)| >= 1/a)
    or, for distinct odd primes, 4/(ab)^2 (cos^2 x - cos^2 y = sin(y + x)
    sin(y - x), each sine at least 2/ab).  Rounding moves it by under 1e-14,
    so it stays above 1/(ab)^2 > 2**-bits while ab < 10^7."""
    rows = [math.cos(2 * math.pi * j / a) ** 2 for j in range(1, (a - 1) // 2 + 1)]
    cols = [sign * math.cos(2 * math.pi * k / b) ** 2 for k in range(1, (b - 1) // 2 + 1)]
    factors = (row + col for row in rows for col in cols)
    return _scaled_product(factors, 2 * (a * b).bit_length(), 2 * len(rows) * len(cols))


def _scaled_product(factors: Iterable[float], bits: int, shift: int = 0) -> float:
    """The product of factors, left to right, times 2**shift.  As 2**-bits <=
    |factor| <= 2**bits, math.prod takes 1000 // bits factors at a time onto
    acc, rescaled into [1/2, 1) by frexp, so partial products stay normal
    (2**-1001 to 2**1000) and each rounds as unscaled: the result is bit for
    bit that of a product rescaled after each factor, or OverflowError."""
    factors, acc = iter(factors), 1.0
    while chunk := tuple(islice(factors, 1000 // bits)):
        acc, exp = math.frexp(math.prod(chunk, start=acc))
        shift += exp
    return math.ldexp(acc, shift)


def _check_tol(tol: float) -> None:
    """Raise ValueError unless 0 <= tol < 1/2: a NaN tol would pass every
    value, and at 1/2 or more every value passes."""
    if not 0 <= tol < 0.5:
        raise ValueError(f"tol must satisfy 0 <= tol < 1/2, got {tol!r}")


def round_signed(value: float, tol: float = FLOAT_GATE) -> int:
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
