"""Divisor-power sums, even perfect numbers, and the two-prime special form.

The central object is n = 2**(alpha-1) * p**(beta-1) with p an odd prime.
NOTE THE OFF-BY-ONE CONVENTION: alpha and beta each count one more than
the exponent they produce, so beta = 2 means n = 2**(alpha-1) * p. Every
field named alpha or beta in this package follows it; SpecialForm.n() is
the single place the shift is applied.

sigma_k on general n factors with trial division by small primes, then
Brent's variant of Pollard's rho, proving every prime factor with
primality.is_prime. A cofactor past 64 bits that is neither a Mersenne
number nor proved composite is refused rather than guessed prime. The
special-form path never factors anything.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .exactint import _require_k, checked_pow, geometric_sum
from .primality import _SMALL_PRIMES, _miller_rabin, is_mersenne_prime_exponent, is_prime

__all__ = [
    "SpecialForm",
    "divides_sigma",
    "factorize",
    "is_even_perfect",
    "sigma_k",
    "sigma_k_special",
]


# Rho iterations allowed for splitting one composite cofactor, over all its
# restarts, counted in 128-bit iterations: one on a b-bit cofactor is
# charged ceil(b/128)**2, at least its cost against a 128-bit one. The least
# prime factor p takes about sqrt(p) iterations: about 2**16 for any
# composite below 2**64, whose least factor is below 2**32. Running out
# takes about 3 s at 128 bits and less on wider cofactors: 0.4 s at 1,024
# bits and 0.3 s at 4,096 on a 2-vCPU x86-64 VM.
_RHO_BUDGET = 1 << 22
# Differences multiplied together per gcd in Brent's rho.
_RHO_BATCH = 128


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent}, in ascending order of prime.

    Primes in primality's small-prime table come out by trial division.
    Every other cofactor is proved prime by is_prime (Miller-Rabin below
    2**64, Lucas-Lehmer for 2**j - 1) or split by Brent's rho, and the parts
    go round again. Raises ValueError, naming the cofactor's bit length, for a
    cofactor past 64 bits that passes every Miller-Rabin base (a probable
    prime nothing here can prove) and for a composite one that rho does not
    split within _RHO_BUDGET iterations.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    # n is now free of every prime in the table, or it stopped the loop as 1
    # or a prime below q**2: either way a cofactor below the square of the
    # table's last prime is prime.
    small = _SMALL_PRIMES[-1] ** 2
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < small or _proved_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _brent_split(m)
            pending += (f, m // f)
    return dict(sorted(out.items()))


def _proved_prime(m: int) -> bool:
    """is_prime(m) for m free of the small-prime table, where a non-Mersenne
    m past 64 bits must fail a Miller-Rabin base, a proof that it is composite."""
    if m.bit_length() <= 64:
        return _miller_rabin(m)
    if (m + 1) & m == 0:
        return is_prime(m)
    if _miller_rabin(m):
        raise ValueError(
            f"cannot factor: a {m.bit_length()}-bit cofactor passes every "
            f"Miller-Rabin base but is beyond the range where it can be proved prime"
        )
    return False


def _brent_split(n: int) -> int:
    """A proper factor of the odd composite n with no prime factor in the
    small-prime table, by Brent's cycle-finding form of Pollard's rho on
    y -> y**2 + c, trying c = 1, 2, ... in turn.

    Each round steps x r times ahead, then multiplies up to _RHO_BATCH
    differences per gcd over the next r steps, and doubles r. A batch whose
    gcd reaches n is replayed one step at a time; a cycle that still gives n
    moves on to the next c. Raises ValueError once a round would take the
    iterations, each charged by the width of n, past _RHO_BUDGET.
    """
    charge = ((n.bit_length() + 127) // 128) ** 2
    spent = 0
    c = 0
    while True:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1:
            if spent + 2 * r * charge > _RHO_BUDGET:
                raise ValueError(
                    f"cannot factor: a {n.bit_length()}-bit composite cofactor was not "
                    f"split within {_RHO_BUDGET} rho iterations (one at its width "
                    f"counts {charge})"
                )
            spent += 2 * r * charge
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                q = 1
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


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
        total *= geometric_sum(checked_pow(q, k), e + 1)
    return total


class _SpecialFormFields(NamedTuple):
    alpha: int
    p: int
    beta: int
    k: int


class SpecialForm(_SpecialFormFields):
    """Parameters (alpha, p, beta, k) for n = 2**(alpha-1) * p**(beta-1).

    beta uses the exponent-plus-one convention spelled out in the module
    docstring. k is the (prime) power the divisor sum is taken at.
    """

    __slots__ = ()

    def __new__(cls, alpha: int, p: int, beta: int, k: int) -> SpecialForm:
        if alpha <= 1:
            raise ValueError(f"alpha must be > 1, got {alpha}")
        if beta < 2:
            raise ValueError(f"beta must be >= 2, got {beta}")
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        _require_k(k, "prime")
        return super().__new__(cls, alpha, p, beta, k)

    @classmethod
    def _make(cls, iterable) -> SpecialForm:  # so _replace validates too
        return cls(*iterable)

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
