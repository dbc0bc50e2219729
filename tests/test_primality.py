import tracemalloc
from array import array
from bisect import bisect_right
from math import isqrt

import pytest

from sigmaperfect.primality import (
    MAX_MERSENNE_BOUND,
    is_mersenne_prime_exponent,
    is_prime,
    lucas_lehmer,
    mersenne_exponents_upto,
    primes_upto,
)


def trial_prime(x: int) -> bool:
    # independent oracle, pure trial division
    if x < 2:
        return False
    for d in range(2, isqrt(x) + 1):
        if x % d == 0:
            return False
    return True


def test_is_prime_frozen_values():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(8191) and trial_prime(8191)


def test_is_prime_small_range_against_sieve():
    flags = set(primes_upto(2000))
    for n in range(2001):
        assert is_prime(n) == (n in flags)


def test_is_prime_across_miller_rabin_threshold():
    # 1021 is the small-prime table's last prime and 1031 the first past it:
    # between their squares, around 2**20, trial division hands over to
    # Miller-Rabin
    primes = set(primes_upto(1031**2))
    for n in range(1021**2, 1031**2 + 1):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_mersenne_path():
    assert is_prime((1 << 89) - 1)  # known Mersenne prime
    assert not is_prime((1 << 83) - 1)  # 83 prime but 2^83 - 1 composite
    assert not is_prime((1 << 77) - 1)  # 77 composite forces compositeness


def test_is_prime_refuses_large_general_input():
    x = ((1 << 61) - 1) ** 2  # odd, no small factors, 122 bits, not Mersenne
    with pytest.raises(ValueError):
        is_prime(x)
    assert not is_prime(1 << 70)  # small-factor screen still answers


def test_lucas_lehmer_frozen_values():
    assert lucas_lehmer(3)  # 7
    assert not lucas_lehmer(11) and 2047 == 23 * 89
    assert lucas_lehmer(13) and trial_prime(8191)


def test_lucas_lehmer_agrees_with_trial_division_upto_31():
    for k in range(3, 32, 2):
        if not trial_prime(k):
            continue
        assert lucas_lehmer(k) == trial_prime((1 << k) - 1)


def test_lucas_lehmer_rejects_bad_exponents():
    for k in (2, 4, 6, 1, 0, 9, 15):
        with pytest.raises(ValueError):
            lucas_lehmer(k)


def test_mersenne_exponents_frozen_values():
    assert mersenne_exponents_upto(10) == [2, 3, 5, 7]
    assert mersenne_exponents_upto(2) == [2]
    assert mersenne_exponents_upto(15) == [2, 3, 5, 7, 13]
    with pytest.raises(ValueError):
        mersenne_exponents_upto(1)
    with pytest.raises(ValueError, match=f"K <= {MAX_MERSENNE_BOUND}"):
        mersenne_exponents_upto(MAX_MERSENNE_BOUND + 1)


def test_mersenne_exponents_complete_upto_31():
    got = mersenne_exponents_upto(31)
    assert got == [2, 3, 5, 7, 13, 17, 19, 31]
    for k in got:
        assert trial_prime(k)
    omitted = [k for k in range(3, 32, 2) if trial_prime(k) and k not in got]
    for k in omitted:
        assert not trial_prime((1 << k) - 1)


def test_is_mersenne_prime_exponent():
    assert is_mersenne_prime_exponent(2)
    assert is_mersenne_prime_exponent(7)
    assert not is_mersenne_prime_exponent(11)
    assert not is_mersenne_prime_exponent(9)
    assert not is_mersenne_prime_exponent(4)


def test_primes_upto_edges():
    assert list(primes_upto(1)) == []
    assert list(primes_upto(2)) == [2]
    assert list(primes_upto(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_upto_matches_is_prime_for_every_bound():
    expected = []
    for n in range(5001):  # n = 0 .. 4 included
        if is_prime(n):
            expected.append(n)
        assert list(primes_upto(n)) == expected, n


def test_primes_upto_is_a_packed_array():
    # as a list, the 78,498 primes below 10**6 take about 3 MiB (a pointer
    # and an int object each); packed, 4 bytes each, with the 0.5 MB sieve
    tracemalloc.start()
    try:
        primes = primes_upto(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(primes, array) and primes.itemsize == 4
    assert len(primes) == 78_498 and primes[-1] == 999_983
    assert peak < 1.5 * 2**20, peak


def trial_primes_upto(n: int) -> list[int]:
    # independent oracle: each x is tried against the primes found up to isqrt(x)
    found = []
    for x in range(2, n + 1):
        root = isqrt(x)
        for q in found:
            if q > root:
                found.append(x)
                break
            if x % q == 0:
                break
        else:
            found.append(x)  # no prime found so far exceeds isqrt(x) or divides x
    return found


def test_odd_only_sieve_matches_trial_division():
    small = trial_primes_upto(2000)
    for n in range(-1, 2000):
        assert list(primes_upto(n)) == small[: bisect_right(small, n)], n
    # an odd and an even bound next to 3 * 2**14, and the equivalence scan's sieve
    large = trial_primes_upto(1_500_000)
    for n in (49_151, 49_152, 1_500_000):
        assert list(primes_upto(n)) == large[: bisect_right(large, n)], n
