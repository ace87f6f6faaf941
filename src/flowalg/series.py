"""Truncated formal q-series with rational exponents and integer
coefficients.

A :class:`QSeries` stores a finite table exponent -> coefficient together
with an inclusive truncation bound N; every exponent is a nonnegative
rational <= N and zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import InputError, require_bound


class QSeries(NamedTuple):
    terms: tuple[tuple[Fraction, int], ...]  # sorted by exponent
    bound: Fraction

    @staticmethod
    def from_dict(coeffs: dict[Fraction, int], bound) -> "QSeries":
        """The nonzero terms up to the bound (see ``require_bound``)."""
        require_bound("truncation bound", bound)
        bound = Fraction(bound)
        items = []
        for e, c in coeffs.items():
            e = Fraction(e)
            if c == 0 or e > bound:
                continue
            if e < 0:
                raise InputError("negative exponent in q-series")
            items.append((e, c))
        items.sort()
        return QSeries(tuple(items), bound)

    def coefficient(self, exponent) -> int:
        exponent = Fraction(exponent)
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    def has_integer_exponents(self) -> bool:
        return all(e.denominator == 1 for e, _ in self.terms)

    def first_difference(self, other: "QSeries") -> Fraction | None:
        """Smallest exponent (up to the common bound) where the two series
        have different coefficients, or None if they agree."""
        bound = min(self.bound, other.bound)
        mine = {e: c for e, c in self.terms if e <= bound}
        theirs = {e: c for e, c in other.terms if e <= bound}
        diff = [e for e in set(mine) | set(theirs)
                if mine.get(e, 0) != theirs.get(e, 0)]
        return min(diff) if diff else None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{e}")
        return " + ".join(parts)


def _int_range_sq(center: Fraction, bound: Fraction):
    """All integers t with (t + center)^2 <= bound (bound >= 0)."""
    a, b = center.numerator, center.denominator
    p, q = bound.numerator, bound.denominator
    s = isqrt(p * b * b // q) + 1
    lo = -(s + a) // b - 1
    hi = (s - a) // b + 1
    return [t for t in range(lo, hi + 1)
            if (t * b + a) ** 2 * q <= p * b * b]


def psi_series(alpha, w: int, bound) -> QSeries:
    """The translated one-dimensional theta sum q^{w(n+alpha)^2} over all
    integers n, truncated at exponents <= bound.

    The coefficient at exponent x counts the integers n with
    w(n+alpha)^2 = x.  alpha must be an int or a ``Fraction`` and w a
    positive int; ``errors.require_bound`` checks the bound.
    """
    if not isinstance(w, int) or w < 1:
        raise InputError(f"weight {w!r} is not a positive int")
    if not isinstance(alpha, (int, Fraction)):
        raise InputError(f"translation {alpha!r} is not an int or a Fraction")
    require_bound("truncation bound", bound)
    alpha = Fraction(alpha)
    acc: dict[Fraction, int] = {}
    for n in _int_range_sq(alpha, Fraction(bound, w)):
        e = w * (n + alpha) ** 2
        acc[e] = acc.get(e, 0) + 1
    return QSeries.from_dict(acc, bound)
