"""Exact integer arithmetic primitives: guarded powers, valuations and
geometric sums.

Python's built-in int is the arbitrary-precision integer used throughout
the package. No mathematical claim anywhere in the package is ever
evaluated in floating point.

A configurable operand-size cap (default one million bits) guards the
power computations so runaway parameter choices fail loudly instead of
hanging, and every engine's exponent k passes one rule, _require_k.
"""

from __future__ import annotations

from .primality import MAX_MERSENNE_BOUND, is_mersenne_prime_exponent, is_prime

__all__ = [
    "DEFAULT_BIT_CAP",
    "CrossCheckError",
    "OperandSizeError",
    "checked_pow",
    "geometric_sum",
    "v_exact",
]

DEFAULT_BIT_CAP = 1_000_000


class OperandSizeError(ValueError):
    """A computation would exceed the configured operand bit cap."""


# Here rather than in classify, so that the CLI catches it without loading the engine.
class CrossCheckError(RuntimeError):
    """Two supposedly equivalent evaluation routes disagreed."""


def checked_pow(base: int, exp: int, bit_cap: int | None = None) -> int:
    """base ** exp with a conservative size guard (see _guard_pow)."""
    _guard_pow(base, exp, bit_cap)
    return base**exp


def _guard_pow(base: int, exp: int, bit_cap: int | None) -> None:
    """Refuse base ** exp when exp * bit_length(base) exceeds the cap.

    Every accepted power is then under the cap; rejection may trigger up
    to a factor of two early, which is fine for a runaway guard. Callers
    that reduce the power modulo a small number guard it all the same, so
    an oracle refuses exactly the grids the full power would.
    """
    if exp < 0:
        raise ValueError(f"exponent must be non-negative, got {exp}")
    if base < 0:
        raise ValueError(f"base must be non-negative, got {base}")
    _guard_bits(base.bit_length(), exp, bit_cap)


def _guard_bits(bits: int, exp: int, bit_cap: int | None) -> None:
    """_guard_pow on a base read only through its bit length, so that a base
    built from k is refused without being built."""
    if bits > 1 and exp * bits > (DEFAULT_BIT_CAP if bit_cap is None else bit_cap):
        _refuse(bits, f"a {exp.bit_length()}-bit exponent" if exp >> 64 else exp, bit_cap)


def _refuse(bits: int, exp, bit_cap: int | None) -> None:
    """Raise the cap's refusal of a bits-wide base raised to exp: an int, or a
    text naming the width of one past 64 bits (str() raises past 4,300 digits)."""
    cap = DEFAULT_BIT_CAP if bit_cap is None else bit_cap
    raise OperandSizeError(f"{bits}-bit base raised to {exp} exceeds the {cap}-bit cap")


def _guard_all(powers, bit_cap: int | None) -> None:
    """_guard_bits on each (bits, exp) of powers in order, so that a refusal
    names the first refused one; a lazy powers builds each only once the
    one before has passed."""
    for bits, exp in powers:
        _guard_bits(bits, exp, bit_cap)


# Kind -> (whether k is of it, the refusal if not): the scans and f take a
# Mersenne exponent, SpecialForm and trichotomy a prime, the other lemma tags
# an odd k >= 3, the equivalence scan any k >= 1. is_prime is looked up per call.
_K_RULES = {
    "any": (lambda k: k >= 1, "exponent k={} is below 1 in the scan's exponents"),
    "odd": (lambda k: k >= 3 and k % 2 == 1, "k must be odd and >= 3, got {}"),
    "prime": (lambda k: is_prime(k), "k must be prime, got {}"),
    "mersenne": (lambda k: k > 2 and is_prime(k), "k must be a prime > 2 with 2**k - 1 prime, got {}"),
}


def _require_k(k: int, kind: str) -> int:
    """k, refused unless it is of kind, before any number is built from it; a
    prime past MAX_MERSENNE_BOUND is refused before Lucas-Lehmer runs."""
    holds, refusal = _K_RULES[kind]
    if kind == "mersenne" and k > MAX_MERSENNE_BOUND and holds(k):
        raise ValueError(f"Mersenne exponent {k} is beyond the limit {MAX_MERSENNE_BOUND}")
    if not holds(k) or kind == "mersenne" and not is_mersenne_prime_exponent(k):
        raise ValueError(refusal.format(k))
    return k


def v_exact(q: int, x: int) -> int:
    """The q-adic valuation of x: the unique e with q**e | x, q**(e+1) ∤ x.

    q must be prime and x >= 1 (the valuation of 0 is undefined).
    """
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if x < 0:
        raise ValueError(f"subject must be positive, got {x}")
    if q == 2:  # before the primality check: the oracles call this on every row
        return (x & -x).bit_length() - 1
    if q < 2 or not is_prime(q):
        raise ValueError(f"valuation base must be prime, got {q}")
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


def geometric_sum(b: int, m: int, bit_cap: int | None = None) -> int:
    """1 + b + ... + b**(m-1), i.e. (b**m - 1) // (b - 1), exactly."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if m < 1:
        raise ValueError(f"term count must be >= 1, got {m}")
    return (checked_pow(b, m, bit_cap) - 1) // (b - 1)
