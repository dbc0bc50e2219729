import random
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

import sigmaperfect.sigma as sigma
from sigmaperfect.primality import is_prime, mersenne_exponents_upto, primes_upto
from sigmaperfect.sigma import (
    SpecialForm,
    divides_sigma,
    factorize,
    is_even_perfect,
    sigma_k,
    sigma_k_special,
)


def sigma_by_enumeration(n: int, k: int) -> int:
    # independent oracle: walk every divisor
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def trial_division_factorize(n: int) -> dict[int, int]:
    # the slow reference: trial division by 2, 3 and 6j +- 1 up to sqrt(n)
    out: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# products of two factors past the trial-division bound, where rho must split
_rho_products = st.tuples(
    st.integers(min_value=1025, max_value=99_999), st.integers(min_value=1025, max_value=99_999)
).map(lambda t: t[0] * t[1])


@given(st.one_of(st.integers(min_value=1, max_value=10**10 - 1), _rho_products))
@example(1031 * 1033)
def test_factorize_matches_trial_division(n):
    fac = factorize(n)
    assert fac == trial_division_factorize(n)
    assert list(fac) == sorted(fac)


@pytest.mark.parametrize(
    "n",
    [
        10**18 + 3,
        (2**31 - 1) ** 2,
        2**60 * (2**61 - 1),
        (2**89 - 1) * 3,  # the cofactor is proved prime by Lucas-Lehmer
        1000003 * 1000033 * (10**13 + 37),  # a composite cofactor past 2**64
        1021**2,  # the table's last prime, squared
        1021 * 1031,  # 1031 is the first prime past the table
        (2**61 - 1) * 1031,  # rho must find the first prime past the table
    ],
)
def test_factorize_frozen_cases(n):
    fac = factorize(n)
    assert list(fac) == sorted(fac)
    assert all(is_prime(q) for q in fac)
    prod = 1
    for q, e in fac.items():
        prod *= q**e
    assert prod == n


def test_factorize_proves_cofactors_below_2_64_by_miller_rabin_alone(monkeypatch):
    # factorize has divided out every prime in the small-prime table, so
    # is_prime's trial division would walk that table a second time
    def no_is_prime(x):
        raise AssertionError(f"is_prime({x}) called on a trial-divided cofactor")

    monkeypatch.setattr(sigma, "is_prime", no_is_prime)
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert factorize(1031 * 5000000000053) == {1031: 1, 5000000000053: 1}
    assert factorize((2**61 - 1) * 1033) == {1033: 1, 2**61 - 1: 1}


def test_factorize_round_trips():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        fac = factorize(n)
        prod = 1
        for q, e in fac.items():
            prod *= q**e
        assert prod == n
    with pytest.raises(ValueError):
        factorize(0)


def test_sigma_k_frozen_values():
    assert sigma_k(22, 5) == sigma_by_enumeration(22, 5) == 5314716
    assert sigma_k(22, 5) % 22 == 0
    for k in (1, 2, 9):
        assert sigma_k(1, k) == 1
    assert sigma_k(28, 3) == sigma_by_enumeration(28, 3) == 25112
    assert sigma_k(28, 3) % 28 == 24
    assert sigma_k(86, 7) % 86 == 0


def test_sigma_k_rejects_zero():
    with pytest.raises(ValueError):
        sigma_k(0, 3)


def test_sigma_k_against_enumeration():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(1, 3000)
        k = rng.choice((1, 2, 3, 5))
        assert sigma_k(n, k) == sigma_by_enumeration(n, k)


def test_sigma_k_multiplicative():
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        a = rng.randrange(1, 400)
        b = rng.randrange(1, 400)
        if gcd(a, b) != 1:
            continue
        k = rng.choice((1, 3, 5))
        assert sigma_k(a * b, k) == sigma_k(a, k) * sigma_k(b, k)
        checked += 1


def test_special_form_validation_and_convention():
    f = SpecialForm(alpha=2, p=3, beta=2, k=5)
    assert f.n() == 6  # beta = 2 means a single factor of p
    assert SpecialForm(alpha=4, p=11, beta=4, k=5).n() == 2**3 * 11**3
    # a NamedTuple: it unpacks and equals the plain tuple of its fields
    alpha, p, beta, k = f
    assert (alpha, p, beta, k) == f == (2, 3, 2, 5)
    for bad, message in (
        (dict(alpha=1, p=3, beta=2, k=5), "alpha must be > 1, got 1"),
        (dict(alpha=2, p=3, beta=1, k=5), "beta must be >= 2, got 1"),
        (dict(alpha=2, p=2, beta=2, k=5), "p must be an odd prime, got 2"),
        (dict(alpha=2, p=9, beta=2, k=5), "p must be an odd prime, got 9"),
        (dict(alpha=2, p=3, beta=2, k=4), "k must be prime, got 4"),
    ):
        with pytest.raises(ValueError) as built:
            SpecialForm(**bad)
        with pytest.raises(ValueError) as replaced:  # a copy is validated the same way
            f._replace(**bad)
        assert str(built.value) == str(replaced.value) == message


def test_p_bound_witnesses():
    assert SpecialForm(alpha=2, p=3, beta=2, k=5).satisfies_p_bound()
    assert not SpecialForm(alpha=2, p=11, beta=2, k=5).satisfies_p_bound()  # n = 22
    assert not SpecialForm(alpha=2, p=43, beta=2, k=7).satisfies_p_bound()  # n = 86


def test_sigma_k_special_frozen_values():
    f = SpecialForm(alpha=2, p=3, beta=2, k=5)
    assert sigma_k_special(f) == 33 * 244 == 8052 == sigma_by_enumeration(6, 5)
    g = SpecialForm(alpha=3, p=7, beta=2, k=5)
    assert sigma_k_special(g) == 1057 * 16808 == sigma_by_enumeration(28, 5)


def test_sigma_k_special_agrees_on_random_forms():
    rng = random.Random(17)
    small_odd_primes = [p for p in primes_upto(60) if p > 2]
    for _ in range(100):
        f = SpecialForm(
            alpha=rng.randrange(2, 6),
            p=rng.choice(small_odd_primes),
            beta=rng.randrange(2, 5),
            k=rng.choice((2, 3, 5, 7)),
        )
        assert sigma_k_special(f) == sigma_k(f.n(), f.k)


def test_sigma_k_special_agrees_with_divisor_enumeration_to_1e6():
    # every form with n <= 1e6, against a sum over explicitly listed divisors
    limit = 10**6
    rng = random.Random(41)
    primes = primes_upto(limit // 2)
    checked = 0
    alpha = 2
    while (1 << (alpha - 1)) * 3 <= limit:
        odd_limit = limit >> (alpha - 1)
        for p in primes:
            if p == 2 or p > odd_limit:
                continue
            p_power, beta = p, 2
            while p_power <= odd_limit:
                divisors = [
                    (1 << i) * p**j for i in range(alpha) for j in range(beta)
                ]
                f5 = SpecialForm(alpha, p, beta, 5)
                assert sigma_k_special(f5) == sum(d**5 for d in divisors)
                if rng.random() < 0.03:  # spot-check the other exponents
                    k = rng.choice((2, 3, 7, 13))
                    fk = SpecialForm(alpha, p, beta, k)
                    assert sigma_k_special(fk) == sum(d**k for d in divisors)
                checked += 1
                p_power *= p
                beta += 1
        alpha += 1
    assert checked > 80_000


def test_divides_sigma_frozen_values():
    assert divides_sigma(SpecialForm(alpha=2, p=3, beta=2, k=5))  # n = 6
    assert not divides_sigma(SpecialForm(alpha=5, p=31, beta=2, k=5))  # n = 496
    assert divides_sigma(SpecialForm(alpha=2, p=11, beta=2, k=5))  # n = 22


def test_is_even_perfect_frozen_values():
    assert is_even_perfect(6)
    assert is_even_perfect(28)
    assert not is_even_perfect(12)
    assert not is_even_perfect(1)
    assert is_even_perfect(33550336)
    assert not is_even_perfect(2096128)  # 2^10 * (2^11 - 1), but 2047 composite


def test_is_even_perfect_equivalent_to_sigma_condition():
    N = 100_000
    divisor_sum = [0] * (N + 1)
    for d in range(1, N + 1):
        for multiple in range(d, N + 1, d):
            divisor_sum[multiple] += d
    for n in range(1, N + 1):
        assert is_even_perfect(n) == (n % 2 == 0 and divisor_sum[n] == 2 * n)


def test_forward_implication_all_perfect_upto_1e8():
    perfect = [
        (q, (1 << (q - 1)) * ((1 << q) - 1)) for q in mersenne_exponents_upto(13)
    ]
    assert [n for _, n in perfect] == [6, 28, 496, 8128, 33550336]
    for k in (3, 5, 7, 13):
        for q, n in perfect:
            if q == k:
                continue
            f = SpecialForm(alpha=q, p=(1 << q) - 1, beta=2, k=k)
            assert divides_sigma(f), (q, k)


def test_perfect_witness():
    # n = 2**(q-1) * (2**q - 1) is perfect exactly when 2**q - 1 is prime
    assert sigma_k(496, 1) == 2 * 496 and is_even_perfect(496)
    for q in mersenne_exponents_upto(13):
        n = (1 << (q - 1)) * ((1 << q) - 1)
        assert sigma_k(n, 1) == 2 * n and is_even_perfect(n)
    n11 = (1 << 10) * ((1 << 11) - 1)
    assert sigma_k(n11, 1) != 2 * n11 and not is_even_perfect(n11)
    assert not is_even_perfect(497)
