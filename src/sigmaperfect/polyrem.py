"""Exact remainders of geometric polynomials by linear divisors, and the
quartic remainder table.

Every division the package needs is of 1 + x + ... + x**(m-1) by c*x - 1,
so one synthetic division at the root x = 1/c serves them all.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "lemma41_division",
    "lemma41_remainder",
    "lemma41_scaled_remainder",
    "remainder_at_half",
]


def _divide_geometric(m: int, c: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    """Divide 1 + x + ... + x**(m-1) by c*x - 1, for m >= 2 and c != 0.

    Horner's rule at the root x = 1/c: its partial values are the
    coefficients of the quotient by x - 1/c, highest degree first, and its
    final value, the dividend at the root, is the remainder. Since
    c*x - 1 = c * (x - 1/c), dividing those coefficients by c gives the
    quotient by c*x - 1. Returns (quotient ascending by degree, remainder).
    """
    root = 1 / c
    partial = [Fraction(1)]
    for _ in range(m - 1):
        partial.append(partial[-1] * root + 1)
    remainder = partial.pop()
    return tuple(b / c for b in reversed(partial)), remainder


def remainder_at_half(k: int) -> Fraction:
    """Constant remainder of 1 + x + ... + x**(k-1) by x/2 - 1.

    Always equals 2**k - 1: the divisor vanishes at x = 2, so the
    remainder is the dividend's value there.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return _divide_geometric(k, Fraction(1, 2))[1]


def lemma41_division(k1: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """(quotient ascending by degree, remainder) of x**4 + x**3 + x**2 + x + 1
    by k1*x/4 - 1, for k1 in 1..5."""
    if not 1 <= k1 <= 5:
        raise ValueError(f"k1 must be in 1..5, got {k1}")
    return _divide_geometric(5, Fraction(k1, 4))


def lemma41_remainder(k1: int) -> Fraction:
    """The constant remainder from lemma41_division.

    The five values, in order of k1, are 341, 31, 781/81, 5, 2101/625.
    """
    return lemma41_division(k1)[1]


def lemma41_scaled_remainder(k1: int) -> tuple[int, int]:
    """(scale, integer remainder) clearing all denominators in the division.

    scale * f(x0) = (scale * quotient)(x0) * g(x0) + remainder * scale holds
    with integer coefficients throughout, so searches can take residues of
    the integer remainder directly (e.g. 81 f(x0) = 781 mod g(x0) for
    k1 = 3).
    """
    quotient, remainder = lemma41_division(k1)
    scale = lcm(*(c.denominator for c in quotient), remainder.denominator)
    return scale, int(remainder * scale)
