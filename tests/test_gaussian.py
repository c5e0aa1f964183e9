"""Exact Gaussian integer arithmetic against Python's complex type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residue_tilings.gaussian import GaussianInt, I, ONE, ZERO, i_power

small = st.integers(-50, 50)
gaussians = st.builds(GaussianInt, small, small)


def test_known_values():
    assert GaussianInt(0, 0) == ZERO
    assert GaussianInt(1, 0) == ONE
    assert GaussianInt(0, 1) == I
    assert I * I == GaussianInt(-1, 0)
    assert I * I * I * I == ONE
    assert (ONE + I) * GaussianInt(1, -1) == GaussianInt(2, 0)
    assert GaussianInt(2, 3) * GaussianInt(4, -1) == GaussianInt(11, 10)


def test_int_mixing():
    assert GaussianInt(3, 0) == 3
    assert 3 == GaussianInt(3, 0)
    assert GaussianInt(3, 1) != 3
    assert 2 + I == GaussianInt(2, 1)
    assert I + 2 == GaussianInt(2, 1)
    assert 5 * I == GaussianInt(0, 5)


def test_hash_agrees_with_int():
    # real Gaussian integers must hash like their int value so mixed-key
    # dicts behave
    assert hash(GaussianInt(7, 0)) == hash(7)
    d = {GaussianInt(7, 0): "a"}
    assert d[7] == "a"
    # and be truthy exactly when that int is; GaussianInt(0, 0) == 0 once
    # was truthy
    for k in (-2, 0, 1, 7):
        assert bool(GaussianInt(k)) == bool(k)
    assert GaussianInt(0, 1)


def test_i_power_cycle():
    # i**k by repeated multiplication by I, starting from i**-8 = 1
    power = ONE
    for k in range(-8, 9):
        assert i_power(k) == power
        power = power * I


def test_render():
    cases = [
        (GaussianInt(0, 0), "0"),
        (GaussianInt(3, 0), "3"),
        (GaussianInt(-1, 0), "-1"),
        (GaussianInt(0, 1), "i"),
        (GaussianInt(0, -1), "-i"),
        (GaussianInt(0, 2), "2i"),
        (GaussianInt(1, 1), "1+i"),
        (GaussianInt(1, -1), "1-i"),
        (GaussianInt(-2, 3), "-2+3i"),
        (GaussianInt(-2, -3), "-2-3i"),
    ]
    for value, text in cases:
        assert value.render() == text
        assert str(value) == text


def test_rejects_non_ints():
    with pytest.raises(ValueError):
        GaussianInt(1.5, 0)
    assert GaussianInt(1, 0).__add__(1.5) is NotImplemented


@given(gaussians, gaussians)
@settings(max_examples=200, derandomize=True)
def test_arithmetic_matches_complex(a, b):
    for op in ("__add__", "__mul__"):
        exact = getattr(a, op)(b)
        approx = getattr(complex(a.re, a.im), op)(complex(b.re, b.im))
        assert complex(exact.re, exact.im) == approx


@given(gaussians, gaussians, gaussians)
@settings(max_examples=100, derandomize=True)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
