from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sigmaperfect.polyrem import (
    RationalPoly,
    divmod_poly,
    eval_poly,
    geometric_poly,
    lemma41_division,
    lemma41_remainder,
    lemma41_scaled_remainder,
    remainder_at_half,
)


def test_canonical_form():
    p = RationalPoly.of(1, 2, 0, 0)
    assert p.coeffs == (Fraction(1), Fraction(2))
    zero = RationalPoly.of(0, 0)
    assert zero.is_zero and zero.coeffs == ()
    with pytest.raises(ValueError):
        RationalPoly((Fraction(1), Fraction(0)))


def test_divmod_frozen_case_341():
    f = geometric_poly(5)
    g = RationalPoly.of(-1, Fraction(1, 4))
    result = divmod_poly(f, g)
    assert result.remainder == RationalPoly.of(341)
    assert result.quotient == RationalPoly.of(340, 84, 20, 4)


def test_divmod_frozen_case_781_over_81():
    f = geometric_poly(5)
    g = RationalPoly.of(-1, Fraction(3, 4))
    result = divmod_poly(f, g)
    assert result.remainder.constant_value() == Fraction(781, 81)


def test_divmod_trivial_and_zero_divisor():
    x = RationalPoly.of(0, 1)
    result = divmod_poly(x, x)
    assert result.quotient == RationalPoly.of(1)
    assert result.remainder.is_zero
    with pytest.raises(ZeroDivisionError):
        divmod_poly(x, RationalPoly.of())


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@given(
    st.lists(small_fractions, min_size=0, max_size=9),
    st.lists(small_fractions, min_size=1, max_size=9),
)
def test_division_reconstructs_dividend(fc, gc):
    f = RationalPoly.of(*fc)
    g = RationalPoly.of(*gc)
    if g.is_zero:
        return
    result = divmod_poly(f, g)
    q, r = result.quotient, result.remainder
    # deg(g*q + r) <= max(deg f, deg g - 1), so agreeing at this many
    # distinct points makes f and g*q + r the same polynomial
    assert q.is_zero or len(q.coeffs) == len(f.coeffs) - len(g.coeffs) + 1
    assert len(r.coeffs) < len(g.coeffs)
    for x in range(max(len(f.coeffs), len(g.coeffs))):
        assert eval_poly(f, x) == eval_poly(g, x) * eval_poly(q, x) + eval_poly(r, x)


def test_eval_poly():
    f = geometric_poly(5)
    assert eval_poly(f, 2) == 31
    for alpha in range(2, 9):
        g = RationalPoly.of(-1, Fraction(1, 2))
        assert eval_poly(g, 1 << alpha) == (1 << (alpha - 1)) - 1
    assert eval_poly(RationalPoly.of(9, 4, 7), 0) == 9
    assert eval_poly(RationalPoly.of(), Fraction(3, 2)) == 0


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


def test_quartic_quotients_for_integer_cases():
    # each quotient is pinned by the reconstruction identity; e.g. for k1 = 2:
    # (x/2 - 1)(2x^3 + 6x^2 + 14x + 30) + 31 = x^4 + x^3 + x^2 + x + 1
    assert lemma41_division(1).quotient == RationalPoly.of(340, 84, 20, 4)
    assert lemma41_division(2).quotient == RationalPoly.of(30, 14, 6, 2)
    assert lemma41_division(4).quotient == RationalPoly.of(4, 3, 2, 1)


def test_scaled_remainders():
    assert lemma41_scaled_remainder(1) == (1, 341)
    assert lemma41_scaled_remainder(2) == (1, 31)
    assert lemma41_scaled_remainder(3) == (81, 781)
    assert lemma41_scaled_remainder(4) == (1, 5)
    assert lemma41_scaled_remainder(5) == (625, 2101)


def test_scaled_quotient_has_integer_coefficients():
    # the documented identity: scale * quotient is integral, e.g.
    # 81 f(x0) = (108 x0^3 + 252 x0^2 + 444 x0 + 700) g(x0) + 781
    division = lemma41_division(3)
    scaled = [c * 81 for c in division.quotient.coeffs]
    assert scaled == [700, 444, 252, 108]
    division5 = lemma41_division(5)
    assert [c * 625 for c in division5.quotient.coeffs] == [1476, 1220, 900, 500]


def test_congruence_transfer():
    # scale * f(2^alpha) is congruent to the integer remainder mod g(2^alpha)
    f = geometric_poly(5)
    for k1 in range(1, 6):
        scale, remainder = lemma41_scaled_remainder(k1)
        for alpha in range(3, 13):
            x0 = 1 << alpha
            g_at_x0 = k1 * (1 << (alpha - 2)) - 1
            assert (scale * eval_poly(f, x0) - remainder) % g_at_x0 == 0
