"""Exact Gaussian-integer arithmetic.

Signed tiling sums are sums of fourth roots of unity, so every quantity in
this package that is not a plain integer lives in Z[i].  Python's built-in
``complex`` is float-backed and therefore unsuitable; this tiny ring class
keeps both components as arbitrary-precision ints.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GaussianInt:
    """An element re + im*i of the Gaussian integers."""

    re: int
    im: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.re, int) or not isinstance(self.im, int):
            raise ValueError("components must be ints")

    def __add__(self, other: "GaussianInt | int") -> "GaussianInt":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianInt | int") -> "GaussianInt":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: "GaussianInt | int") -> "GaussianInt":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: "GaussianInt | int") -> "GaussianInt":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianInt):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # Must agree with int hashing because GaussianInt(k, 0) == k.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def render(self) -> str:
        """Canonical compact rendering: "0", "a", "bi", "a+bi" or "a-bi"."""
        if self.re == 0 and self.im == 0:
            return "0"
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        coeff = "" if mag == 1 else str(mag)
        return f"{self.re}{sign}{coeff}i"

    def __str__(self) -> str:
        return self.render()


def _coerce(value: "GaussianInt | int") -> "GaussianInt | None":
    if isinstance(value, GaussianInt):
        return value
    if isinstance(value, int):
        return GaussianInt(value, 0)
    return None


def _imag_str(im: int) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)

_I_CYCLE = (ONE, I, GaussianInt(-1, 0), GaussianInt(0, -1))


def i_power(exponent: int) -> GaussianInt:
    """i**exponent for any integer exponent (negative allowed)."""
    return _I_CYCLE[exponent % 4]
