"""Exact rational polynomial division and the quartic remainder table.

Polynomials are dense ascending-degree tuples of fractions; degrees here
never exceed 5, so no sparse cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

__all__ = [
    "DivisionResult",
    "RationalPoly",
    "divmod_poly",
    "eval_poly",
    "geometric_poly",
    "lemma41_division",
    "lemma41_remainder",
    "lemma41_scaled_remainder",
    "remainder_at_half",
]


@dataclass(frozen=True)
class RationalPoly:
    """Rational-coefficient polynomial, coefficients ascending by degree."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero; build with RationalPoly.of")
        for c in self.coeffs:
            if not isinstance(c, Fraction):
                raise TypeError("coefficients must be Fractions; build with RationalPoly.of")

    @classmethod
    def of(cls, *coeffs) -> "RationalPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> Fraction:
        """The value of a constant (degree <= 0) polynomial."""
        if len(self.coeffs) > 1:
            raise ValueError(f"polynomial of degree {len(self.coeffs) - 1} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)


@dataclass(frozen=True)
class DivisionResult:
    """Quotient and remainder with dividend = divisor * quotient + remainder."""

    quotient: RationalPoly
    remainder: RationalPoly


def divmod_poly(f: RationalPoly, g: RationalPoly) -> DivisionResult:
    """Exact division of f by g over the rationals; deg(remainder) < deg(g)."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    rem = list(f.coeffs)
    dg = len(g.coeffs) - 1
    lead = g.coeffs[-1]
    quot = [Fraction(0)] * max(0, len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = c / lead
        quot[i - dg] = q
        for j, gc in enumerate(g.coeffs):
            rem[i - dg + j] -= q * gc
    return DivisionResult(
        quotient=RationalPoly.of(*quot),
        remainder=RationalPoly.of(*rem[:dg]),
    )


def eval_poly(f: RationalPoly, x) -> Fraction:
    """Exact evaluation at a rational (or integer) point, by Horner."""
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def geometric_poly(k: int) -> RationalPoly:
    """1 + x + ... + x**(k-1)."""
    if k < 1:
        raise ValueError(f"term count must be >= 1, got {k}")
    return RationalPoly.of(*([1] * k))


def remainder_at_half(k: int) -> Fraction:
    """Constant remainder of 1 + x + ... + x**(k-1) by x/2 - 1.

    Always equals 2**k - 1: the divisor vanishes at x = 2, so the
    remainder is the dividend's value there.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    g = RationalPoly.of(-1, Fraction(1, 2))
    return divmod_poly(geometric_poly(k), g).remainder.constant_value()


def lemma41_division(k1: int) -> DivisionResult:
    """Division of x**4 + x**3 + x**2 + x + 1 by k1*x/4 - 1, for k1 in 1..5."""
    if not 1 <= k1 <= 5:
        raise ValueError(f"k1 must be in 1..5, got {k1}")
    g = RationalPoly.of(-1, Fraction(k1, 4))
    return divmod_poly(geometric_poly(5), g)


def lemma41_remainder(k1: int) -> Fraction:
    """The constant remainder from lemma41_division.

    The five values, in order of k1, are 341, 31, 781/81, 5, 2101/625.
    """
    return lemma41_division(k1).remainder.constant_value()


def lemma41_scaled_remainder(k1: int) -> tuple[int, int]:
    """(scale, integer remainder) clearing all denominators in the division.

    scale * f(x0) = (scale * quotient)(x0) * g(x0) + remainder * scale holds
    with integer coefficients throughout, so searches can take residues of
    the integer remainder directly (e.g. 81 f(x0) = 781 mod g(x0) for
    k1 = 3).
    """
    division = lemma41_division(k1)
    denominators = [c.denominator for c in division.quotient.coeffs]
    denominators.append(division.remainder.constant_value().denominator)
    scale = lcm(*denominators)
    scaled = division.remainder.constant_value() * scale
    return scale, int(scaled)
