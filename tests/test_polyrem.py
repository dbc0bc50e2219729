from fractions import Fraction

import pytest

from sigmaperfect import polyrem
from sigmaperfect.exactint import geometric_sum
from sigmaperfect.polyrem import (
    lemma41_division,
    lemma41_remainder,
    lemma41_scaled_remainder,
    remainder_at_half,
)

# k1 -> (quotient ascending by degree, remainder) of x^4 + ... + 1 by k1*x/4 - 1
FROZEN_DIVISIONS = {
    1: ((340, 84, 20, 4), 341),
    2: ((30, 14, 6, 2), 31),
    3: (
        (Fraction(700, 81), Fraction(148, 27), Fraction(28, 9), Fraction(4, 3)),
        Fraction(781, 81),
    ),
    4: ((4, 3, 2, 1), 5),
    5: (
        (Fraction(1476, 625), Fraction(244, 125), Fraction(36, 25), Fraction(4, 5)),
        Fraction(2101, 625),
    ),
}


def _assert_reconstructs(m, c, quotient, remainder):
    # (c*x - 1)*q(x) + r and 1 + x + ... + x^(m-1) both have degree m - 1,
    # so agreeing at m + 1 distinct points makes them the same polynomial
    assert len(quotient) == m - 1
    for x in range(2, m + 3):
        q_at_x = sum(coeff * x**i for i, coeff in enumerate(quotient))
        assert (c * x - 1) * q_at_x + remainder == geometric_sum(x, m)


def test_quartic_divisions_frozen():
    for k1, (quotient, remainder) in FROZEN_DIVISIONS.items():
        assert lemma41_division(k1) == (quotient, remainder)
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            lemma41_division(bad)


def test_division_reconstructs_dividend():
    for k1 in range(1, 6):
        _assert_reconstructs(5, Fraction(k1, 4), *lemma41_division(k1))
    for k in range(2, 21):
        quotient, remainder = polyrem._divide_geometric(k, Fraction(1, 2))
        assert remainder == remainder_at_half(k)
        _assert_reconstructs(k, Fraction(1, 2), quotient, remainder)


def test_remainder_at_half_full_range():
    assert remainder_at_half(2) == 3  # (1 + x) = (x/2 - 1) * 2 + 3
    for k in range(2, 21):
        assert remainder_at_half(k) == (1 << k) - 1
    with pytest.raises(ValueError):
        remainder_at_half(1)


def test_quartic_remainder_table():
    expected = {
        1: Fraction(341),
        2: Fraction(31),
        3: Fraction(781, 81),
        4: Fraction(5),
        5: Fraction(2101, 625),
    }
    for k1, value in expected.items():
        assert lemma41_remainder(k1) == value
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            lemma41_remainder(bad)


def test_scaled_remainders():
    assert lemma41_scaled_remainder(1) == (1, 341)
    assert lemma41_scaled_remainder(2) == (1, 31)
    assert lemma41_scaled_remainder(3) == (81, 781)
    assert lemma41_scaled_remainder(4) == (1, 5)
    assert lemma41_scaled_remainder(5) == (625, 2101)


def test_scaled_quotient_has_integer_coefficients():
    # the documented identity: scale * quotient is integral, e.g.
    # 81 f(x0) = (108 x0^3 + 252 x0^2 + 444 x0 + 700) g(x0) + 781
    quotient, _ = lemma41_division(3)
    assert [c * 81 for c in quotient] == [700, 444, 252, 108]
    quotient5, _ = lemma41_division(5)
    assert [c * 625 for c in quotient5] == [1476, 1220, 900, 500]


def test_congruence_transfer():
    # scale * f(2^alpha) is congruent to the integer remainder mod g(2^alpha)
    for k1 in range(1, 6):
        scale, remainder = lemma41_scaled_remainder(k1)
        for alpha in range(3, 13):
            x0 = 1 << alpha
            g_at_x0 = k1 * (1 << (alpha - 2)) - 1
            assert (scale * geometric_sum(x0, 5) - remainder) % g_at_x0 == 0
