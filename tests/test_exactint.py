import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import sigmaperfect.exactint as exactint
from sigmaperfect.exactint import (
    OperandSizeError,
    checked_pow,
    geometric_sum,
    v_exact,
)
from sigmaperfect.primality import is_prime


def naive_valuation(q: int, x: int) -> int:
    # independent oracle: repeated division only
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


def naive_geometric(b: int, m: int) -> int:
    return sum(b**i for i in range(m))


def test_v_exact_frozen_values():
    assert v_exact(2, 48) == 4
    assert v_exact(3, 1) == 0
    # must agree with the v + k = 1 + 3 valuation identity for k=3, beta=2
    assert v_exact(2, 7**6 - 1) == naive_valuation(2, 7**6 - 1) == 4


def test_v_exact_matches_oracle_on_grid():
    rng = random.Random(7)
    for q in (2, 3, 5, 7, 13):
        for _ in range(50):
            x = rng.randrange(1, 10**9)
            assert v_exact(q, x) == naive_valuation(q, x)


def test_v_exact_proves_only_odd_bases_prime(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return is_prime(q)

    monkeypatch.setattr(exactint, "is_prime", counting)
    assert [v_exact(2, x) for x in (48, 7**6 - 1, 1)] == [4, 4, 0]
    assert calls == []
    assert v_exact(3, 54) == 3 and calls == [3]


def test_v_exact_rejects_zero_and_composite_base():
    with pytest.raises(ValueError):
        v_exact(2, 0)
    with pytest.raises(ValueError):
        v_exact(6, 12)
    with pytest.raises(ValueError):
        v_exact(1, 12)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(min_value=1, max_value=10**12))
def test_v_exact_divisibility_property(q, x):
    e = v_exact(q, x)
    assert x % q**e == 0
    assert x % q ** (e + 1) != 0


def test_geometric_sum_frozen_values():
    assert geometric_sum(2, 1) == 1
    assert geometric_sum(32, 2) == naive_geometric(32, 2) == 33
    assert geometric_sum(2, 5) == 31


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=120))
def test_geometric_sum_identity(b, m):
    assert geometric_sum(b, m) * (b - 1) + 1 == b**m


def test_geometric_sum_rejects_bad_inputs():
    with pytest.raises(ValueError):
        geometric_sum(1, 4)
    with pytest.raises(ValueError):
        geometric_sum(2, 0)


def test_checked_pow_guard():
    assert checked_pow(2, 100) == 2**100
    with pytest.raises(OperandSizeError):
        checked_pow(2, 100, bit_cap=50)
    with pytest.raises(ValueError):
        checked_pow(2, -1)
    # bases 0 and 1 never grow, whatever the exponent
    assert checked_pow(1, 10**9, bit_cap=8) == 1
    assert checked_pow(0, 5, bit_cap=8) == 0


def test_guard_names_an_exponent_past_64_bits_by_its_width():
    # str() of an int past 4,300 digits raises; up to 64 bits the decimal stays
    with pytest.raises(OperandSizeError) as exc:
        checked_pow(2, (1 << 64) - 1, bit_cap=10)
    assert str(exc.value) == "2-bit base raised to 18446744073709551615 exceeds the 10-bit cap"
    with pytest.raises(OperandSizeError) as exc:
        checked_pow(3, 1 << 20000, bit_cap=10)
    assert str(exc.value) == "2-bit base raised to a 20001-bit exponent exceeds the 10-bit cap"


@pytest.mark.parametrize("kind, passed, refused, message", [
    ("any", (1, 2, 4), (0, -3), "exponent k={} is below 1 in the scan's exponents"),
    ("odd", (3, 9, 200000001), (-3, 1, 2, 4), "k must be odd and >= 3, got {}"),
    ("prime", (2, 3, 9973), (-5, 0, 1, 4, 200000001), "k must be prime, got {}"),
    ("mersenne", (3, 5, 127, 1279), (-5, 2, 4, 11, 1277, 200000001),
     "k must be a prime > 2 with 2**k - 1 prime, got {}"),
])
def test_require_k_refuses_each_kind_with_its_message(kind, passed, refused, message):
    for k in passed:
        assert exactint._require_k(k, kind) == k
    for k in refused:
        with pytest.raises(ValueError) as exc:
            exactint._require_k(k, kind)
        assert str(exc.value) == message.format(k)
    # a prime past the Mersenne bound is refused before Lucas-Lehmer
    if kind == "mersenne":
        with pytest.raises(ValueError, match="Mersenne exponent 1283 is beyond the limit 1279"):
            exactint._require_k(1283, kind)


def test_rational_is_reduced_eagerly():
    # the properties the package relies on from fractions.Fraction
    r = Fraction(6, 4)
    assert (r.numerator, r.denominator) == (3, 2)
    assert Fraction(-6, 4).denominator == 2  # denominator stays positive
    assert Fraction(8, 4) == 2 and Fraction(8, 4).denominator == 1


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_rational_arithmetic_is_exact(a, b, c, d):
    assert (Fraction(a, b) + Fraction(c, d)) * (b * d) == a * d + c * b

