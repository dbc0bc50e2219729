"""Primality testing for search ranges and Mersenne exponent validation.

Everything here is deterministic and exact: trial division by one table of
the primes below 2**10, a strong-pseudoprime battery whose base set is
proven correct for the whole 64-bit range, and the Lucas-Lehmer recurrence
for numbers of the form 2**k - 1 beyond that. General inputs past 64 bits
are refused rather than answered probabilistically.
"""

from __future__ import annotations

from array import array
from itertools import compress
from math import isqrt

__all__ = [
    "MAX_MERSENNE_BOUND",
    "is_mersenne_prime_exponent",
    "is_prime",
    "lucas_lehmer",
    "mersenne_exponents_upto",
    "primes_upto",
]

# _SMALL_PRIMES, the primes below this bound, is the one table every trial
# division in the package walks; an x that none of them divides and that is
# below _TRIAL_BOUND**2 is prime.
_TRIAL_BOUND = 1 << 10
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_U64 = 1 << 64

# mersenne_exponents_upto(K) runs Lucas-Lehmer on every prime up to K: about
# half a second at K = 1279 (a Mersenne exponent), seven times that at 2203.
MAX_MERSENNE_BOUND = 1279


def primes_upto(n: int) -> array:
    """All primes <= n, by sieve of Eratosthenes, ascending in a packed
    array: 4-byte items ('I') below 2**32, 8-byte ('Q') from there on."""
    out = array("I" if n < 1 << 32 else "Q")
    if n < 2:
        return out
    # One flag per odd number 2*i + 1 <= n; only odd multiples are struck,
    # so the odd multiples of p from p*p on sit p indices apart.
    sieve = bytearray([1]) * ((n + 1) // 2)
    sieve[0] = 0
    for p in range(3, isqrt(n) + 1, 2):
        if sieve[p >> 1]:
            start = p * p >> 1
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    out.append(2)
    out.extend(compress(range(1, n + 1, 2), sieve))
    return out


_SMALL_PRIMES = tuple(primes_upto(_TRIAL_BOUND))


def is_prime(x: int) -> bool:
    """Exact primality for x below 2**64, plus Mersenne numbers of any size.

    Raises ValueError for inputs past 64 bits that are not of the form
    2**k - 1 and have no factor in the small-prime table (no probabilistic
    answers; desk-scale searches never need them).
    """
    if x < 2:
        return False
    for q in _SMALL_PRIMES:
        if q * q > x:
            return True
        if x % q == 0:
            return x == q
    if x < _U64:
        return _miller_rabin(x)
    if (x + 1) & x == 0:
        return is_mersenne_prime_exponent(x.bit_length())  # x = 2**j - 1
    raise ValueError(
        f"is_prime: {x.bit_length()}-bit non-Mersenne input is beyond the supported range"
    )


def _miller_rabin(n: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def lucas_lehmer(k: int) -> bool:
    """Whether 2**k - 1 is prime, by Lucas-Lehmer, for an odd prime k.

    The recurrence s(0) = 4, s(i+1) = s(i)**2 - 2 (mod 2**k - 1) reaches 0
    at step k - 2 exactly when 2**k - 1 is prime. k = 2 is rejected; handle
    2**2 - 1 = 3 as a constant where it matters.
    """
    if k == 2:
        raise ValueError("lucas_lehmer starts at k = 3; 2**2 - 1 = 3 is prime by inspection")
    if not is_prime(k):
        raise ValueError(f"lucas_lehmer requires an odd prime exponent, got {k}")
    m = (1 << k) - 1
    s = 4
    for _ in range(k - 2):
        s = (s * s - 2) % m
    return s == 0


def is_mersenne_prime_exponent(q: int) -> bool:
    """True iff 2**q - 1 is prime (q = 2 included)."""
    if q == 2:
        return True
    return is_prime(q) and lucas_lehmer(q)


def mersenne_exponents_upto(K: int) -> list[int]:
    """All prime k <= K with 2**k - 1 prime, ascending, for 2 <= K <= MAX_MERSENNE_BOUND."""
    if K < 2:
        raise ValueError(f"bound must be >= 2, got {K}")
    if K > MAX_MERSENNE_BOUND:
        raise ValueError(f"Mersenne exponent bound {K} is beyond the limit K <= {MAX_MERSENNE_BOUND}")
    return [k for k in range(2, K + 1) if is_mersenne_prime_exponent(k)]
