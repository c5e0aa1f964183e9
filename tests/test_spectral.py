"""Floating-point eigenvalue products and their tolerance gates."""

import cmath
import math

import pytest

from residue_tilings.board import rectangle
from residue_tilings.kasteleyn import build_kasteleyn, det_exact, det_sign
from residue_tilings.spectral import (
    ToleranceError,
    _fold,
    _half_sines,
    _is_odd_prime,
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


def _signed_sine(sines, r):
    """sin(pi r/2m) from the table sines = _half_sines(m), by _fold."""
    magnitudes, odd = _fold(sines, range(r, r + 1))
    return -next(magnitudes) if odd else next(magnitudes)


def test_the_sine_table_reduces_the_argument():
    for m in (1, 2, 3, 4, 849):
        q, sines = 2 * m, _half_sines(m)
        for r in range(-3 * q, 3 * q + 1):
            assert _signed_sine(sines, r) == pytest.approx(math.sin(math.pi * r / q), abs=1e-12)
        # over a whole range, the parity counts the negative sines; the
        # odd r skip the zeros of sine, as q is even
        odds = range(1 - 3 * q, 3 * q, 2)
        magnitudes, odd = _fold(sines, odds)
        assert list(magnitudes) == [abs(_signed_sine(sines, r)) for r in odds]
        assert odd == sum(math.sin(math.pi * r / q) < 0 for r in odds) % 2
    # the table is built in lists of 4096, and ends at sin(pi/2) = 1
    for m in (4095, 4096, 4097, 8192):
        assert len(_half_sines(m)) == m + 1 and _half_sines(m)[m] == 1.0
    # the argument is folded in integers, so the symmetric values agree
    # exactly and keep their relative accuracy near the zeros of sine
    q = 10**6
    sines = _half_sines(q // 2)
    tiny = _signed_sine(sines, 1)
    assert tiny == pytest.approx(math.pi / q, rel=1e-15)
    assert _signed_sine(sines, q - 1) == _signed_sine(sines, q + 1) * -1 == tiny
    assert _signed_sine(sines, 2 * q - 1) == _signed_sine(sines, -1) == -tiny
    assert _signed_sine(sines, 4 * q + 1) == tiny


# A frozen copy of the stepwise evaluation that the sine table and the
# chunked product replaced: two reduced sines per factor, and a rescale
# check after every factor.  The new code must match it bit for bit.
def _sin_pi_stepwise(r, q):
    """sin(pi r/q), its argument reduced in integers into [0, pi/2]."""
    r %= 2 * q
    s = r % q
    x = math.sin(math.pi * (s if 2 * s <= q else q - s) / q)
    return x if r < q else -x


def _product_stepwise(factors, shift):
    """The product of factors times 2**shift, rescaled by a power of two
    whenever the running product leaves [1e-12, 1e12]."""
    acc = 1.0
    for factor in factors:
        acc *= factor
        if not 1e-12 <= abs(acc) <= 1e12:
            exp = math.frexp(acc)[1]
            acc /= 2.0**exp
            shift += exp
    return math.ldexp(acc, shift)


def norm_product_stepwise(m, n):
    if math.gcd(m, n) > 1:
        return 0.0
    sign = -1.0 if (m - 1) * (n - 1) // 2 % 2 else 1.0
    factors = (_sin_pi_stepwise(n * a, 2 * m) / _sin_pi_stepwise(a, 2 * m) for a in range(1, m))
    return sign * _product_stepwise(factors, 0)


def cos_sq_product_stepwise(a, b, sign):
    rows = [math.cos(2 * math.pi * j / a) ** 2 for j in range(1, (a - 1) // 2 + 1)]
    cols = [sign * math.cos(2 * math.pi * k / b) ** 2 for k in range(1, (b - 1) // 2 + 1)]
    factors = (row + col for row in rows for col in cols)
    return _product_stepwise(factors, 2 * len(rows) * len(cols))


def _odd_coprime_near_half(m):
    """The odd n > 1 coprime to m nearest m/2, the lower one first."""
    half = m // 2
    return next(n for d in range(half) for n in (half - d, half + d)
                if n > 1 and n % 2 and math.gcd(m, n) == 1)


def test_norm_product_equals_the_stepwise_product():
    for m in range(1, 300):
        for n in range(1, 160, 2):
            assert norm_product(m, n) == norm_product_stepwise(m, n), (m, n)


@pytest.mark.parametrize("band", [(800, 1200), (1400, 2000)], ids=["low", "high"])
def test_norm_product_equals_the_stepwise_product_in_the_benchmark_bands(band):
    for m in range(band[0], band[1] + 1):
        n = _odd_coprime_near_half(m)
        assert norm_product(m, n) == norm_product_stepwise(m, n), (m, n)


def test_norm_product_equals_the_stepwise_product_at_reach():
    assert norm_product(100001, 50001) == norm_product_stepwise(100001, 50001)


def _outcome(function, *args):
    try:
        return function(*args)
    except OverflowError as error:
        return type(error), str(error)


def test_ktf_count_equals_the_stepwise_product():
    for a in range(1, 80, 2):
        for b in range(1, 80, 2):
            assert _outcome(ktf_count, a, b) == _outcome(cos_sq_product_stepwise, a, b, 1.0)


def test_eisenstein_product_equals_the_stepwise_product():
    primes = [p for p in range(3, 200) if _is_odd_prime(p)]
    pairs = [(p, q) for p in primes for q in primes if p != q]
    assert len(pairs) == 1980
    for p, q in pairs:
        assert eisenstein_product(p, q) == cos_sq_product_stepwise(p, q, -1.0), (p, q)
