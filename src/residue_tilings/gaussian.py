"""Exact Gaussian-integer arithmetic.

Signed tiling sums are sums of fourth roots of unity, so every quantity in
this package that is not a plain integer lives in Z[i].  Python's built-in
``complex`` is float-backed and therefore unsuitable; this tiny ring class
keeps both components as arbitrary-precision ints.
"""

from __future__ import annotations

_set = object.__setattr__


class _Frozen:
    """An immutable record: its __init__ sets its __slots__ once, through
    _set, and copy and pickle rebuild it through __init__.  It equals a
    record of its own class with equal fields, and hashes by its fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


class GaussianInt(_Frozen):
    """An element re + im*i of the Gaussian integers."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0) -> None:
        if not isinstance(re, int) or not isinstance(im, int):
            raise ValueError("components must be ints")
        _set(self, "re", re)
        _set(self, "im", im)

    def __add__(self, other: "GaussianInt | int") -> "GaussianInt":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

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
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def render(self) -> str:
        """Canonical compact rendering: "0", "a", "bi", "a+bi" or "a-bi"."""
        if self.im == 0:
            return str(self.re)
        coeff = "" if self.im == 1 else "-" if self.im == -1 else str(self.im)
        sign = "+" if self.re and self.im > 0 else ""
        return f"{self.re or ''}{sign}{coeff}i"

    __str__ = render


def _coerce(value: "GaussianInt | int") -> "GaussianInt | None":
    if isinstance(value, GaussianInt):
        return value
    if isinstance(value, int):
        return GaussianInt(value, 0)
    return None


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)

_I_CYCLE = (ONE, I, GaussianInt(-1, 0), GaussianInt(0, -1))


def i_power(exponent: int) -> GaussianInt:
    """i**exponent for any integer exponent (negative allowed)."""
    return _I_CYCLE[exponent % 4]
