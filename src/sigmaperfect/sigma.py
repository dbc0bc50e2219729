"""Divisor-power sums, even perfect numbers, and the two-prime special form.

The central object is n = 2**(alpha-1) * p**(beta-1) with p an odd prime.
NOTE THE OFF-BY-ONE CONVENTION: alpha and beta each count one more than
the exponent they produce, so beta = 2 means n = 2**(alpha-1) * p. Every
field named alpha or beta in this package follows it; SpecialForm.n() is
the single place the shift is applied.

sigma_k on general n factors by trial division and exists for fixtures and
cross-checks; the special-form path never factors anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactint import checked_pow, geometric_sum
from .primality import is_mersenne_prime_exponent, is_prime

__all__ = [
    "SpecialForm",
    "divides_sigma",
    "factorize",
    "is_even_perfect",
    "sigma_k",
    "sigma_k_special",
]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division. Desk scale only."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
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


def sigma_k(n: int, k: int) -> int:
    """Sum of the k-th powers of all positive divisors of n.

    Multiplicative across coprime factors; on a prime power q**e the value
    is the geometric sum 1 + q**k + ... + q**(e*k).
    """
    if n < 1:
        raise ValueError(f"sigma_k is defined for n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    total = 1
    for q, e in factorize(n).items():
        total *= geometric_sum(q**k, e + 1)
    return total


@dataclass(frozen=True)
class SpecialForm:
    """Parameters (alpha, p, beta, k) for n = 2**(alpha-1) * p**(beta-1).

    beta uses the exponent-plus-one convention spelled out in the module
    docstring. k is the (prime) power the divisor sum is taken at.
    """

    alpha: int
    p: int
    beta: int
    k: int

    def __post_init__(self) -> None:
        if self.alpha <= 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if self.beta < 2:
            raise ValueError(f"beta must be >= 2, got {self.beta}")
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if not is_prime(self.k):
            raise ValueError(f"k must be prime, got {self.k}")

    def n(self) -> int:
        return (1 << (self.alpha - 1)) * self.p ** (self.beta - 1)

    def satisfies_p_bound(self) -> bool:
        """Whether p < 3 * 2**(alpha-1) - 1, the hypothesis that excludes
        sporadic cases like n = 22 and n = 86."""
        return self.p < 3 * (1 << (self.alpha - 1)) - 1


def sigma_k_special(f: SpecialForm, bit_cap: int | None = None) -> int:
    """sigma_k(f.n()) computed from the two geometric sums, no factoring.

    Equals geometric_sum(2**k, alpha) * geometric_sum(p**k, beta), i.e.
    (2**(alpha*k) - 1)/(2**k - 1) * (p**(beta*k) - 1)/(p**k - 1).
    """
    two_part = geometric_sum(1 << f.k, f.alpha, bit_cap)
    p_part = geometric_sum(checked_pow(f.p, f.k, bit_cap), f.beta, bit_cap)
    return two_part * p_part


def divides_sigma(f: SpecialForm, bit_cap: int | None = None) -> bool:
    """True iff f.n() divides sigma_k(f.n())."""
    return sigma_k_special(f, bit_cap) % f.n() == 0


def is_even_perfect(n: int) -> bool:
    """Euclid-Euler test: n = 2**(q-1) * (2**q - 1) with the odd part prime."""
    if n < 6 or n % 2:
        return False
    a = (n & -n).bit_length() - 1
    q = a + 1
    if (n >> a) != (1 << q) - 1:
        return False
    return is_mersenne_prime_exponent(q)
