"""Exact integer arithmetic primitives: guarded powers, valuations and
geometric sums.

Python's built-in int is the arbitrary-precision integer used throughout
the package. No mathematical claim anywhere in the package is ever
evaluated in floating point.

A configurable operand-size cap (default one million bits) guards the
power computations so runaway parameter choices fail loudly instead of
hanging.
"""

from __future__ import annotations

from .primality import is_prime

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
    cap = DEFAULT_BIT_CAP if bit_cap is None else bit_cap
    if base > 1 and exp * base.bit_length() > cap:
        raise OperandSizeError(
            f"{base.bit_length()}-bit base raised to {exp} exceeds the {cap}-bit cap"
        )


def _guard_widest(widest, rows, bit_cap: int | None) -> None:
    """_guard_pow on rows, a block's (base, exp) powers in row order, so that
    a refusal names its first refused row. widest holds rows' widest powers,
    which pass only if every row's does, and is tried first: rows, which
    callers pass lazily, are walked only when one of widest is refused."""
    try:
        for base, exp in widest:
            _guard_pow(base, exp, bit_cap)
    except ValueError:  # OperandSizeError included; some row raises it again
        for base, exp in rows:
            _guard_pow(base, exp, bit_cap)


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
