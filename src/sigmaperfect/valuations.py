"""Exact-valuation oracles and search-pruning bounds.

Each check_* function evaluates one proved identity pinning the exact
power d**e of 2 (or of 2**k - 1) dividing a number of the form a**m - 1.
The claimed exponent e comes from small numbers; the number itself is
computed only modulo d**(e+1), which decides exact divisibility exactly
(exactly_divides). The identities are theorems, so a False return from
any check_* is an implementation bug, never new mathematics; the bound_*
and trichotomy functions evaluate inequalities whose truth legitimately
depends on the parameters and are used to prune searches.

check-lemma decides its vs1, cando, tv, tv2 and sl3 grids one block of
rows at a time (_exact_flags): every row of a block claims a power of 2
dividing the same base raised to c * 2**v * beta1, so one modulus and one
pow serve the block, each further residue is one multiplication and each
row is a bit test. Beside each function whose powers a grid row builds
is its row lister (_flag_powers, _bound_powers, _scenario_powers and
_appr_powers), which reads a base by its bit length alone, so 2**k - 1 and
2**k are refused without being built. A grid is admitted from its corner,
its lister's powers at the grid's extremes, and the listers are walked row
by row only under a refused corner; the grid is then walked once, to decide
it. _exact_flags, _bound_row and _scenarios check no cap again, and the
search's pruners call the last two unguarded, as at its limits no power
passes 64,000 bits.
The public check_*, bound_* and trichotomy functions keep their own guards
and input validation and, through exactly_divides, one pow per row: they
are the per-row reference those grids are tested against.

Where 2**k - 1 itself is the divisor (check_appr), "exactly divides" is
decided from the residue modulo a power of 2**k - 1, not via prime
valuations, so the identity also holds verbatim when 2**k - 1 is
composite.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .exactint import _guard_all, _guard_bits, _guard_pow, _refuse, _require_k, v_exact
from .primality import is_prime

__all__ = [
    "LEMMA_TAGS",
    "LemmaGrid",
    "Scenario",
    "appr_exponent",
    "bound_u1",
    "bound_v3",
    "check_appr",
    "check_appr2_bound",
    "check_cando",
    "check_sl3",
    "check_tv",
    "check_tv2",
    "check_vs1",
    "exactly_divides",
    "trichotomy_3mod4",
    "v2",
]


def v2(beta: int) -> int:
    """v in beta = 2**v * beta1 with beta1 odd; beta must be even and >= 2."""
    if beta < 2 or beta % 2:
        raise ValueError(f"beta must be even and >= 2, got {beta}")
    return v_exact(2, beta)


def _require_prime_mod4(p: int, r: int) -> None:
    if p % 4 != r or not is_prime(p):
        raise ValueError(f"p must be a prime that is {r} mod 4, got {p}")


def exactly_divides(d: int, e: int, base: int, exp: int, bit_cap: int | None = None) -> bool:
    """d**e | base**exp - 1 and d**(e+1) ∤ base**exp - 1 (d may be composite).

    Decided from y = (base**exp - 1) mod d**(e+1): the number is exactly
    divisible when y is a nonzero multiple of d**e. Only the residue is
    computed, but the operand cap refuses exactly where checked_pow would.
    """
    if d < 2:
        raise ValueError(f"divisor must be >= 2, got {d}")
    _guard_pow(base, exp, bit_cap)
    q = d**e
    y = (pow(base, exp, q * d) - 1) % (q * d)
    return y != 0 and y % q == 0


def _flag_powers(bits: int, c: int, vs: range, beta1s: range) -> Iterator[tuple[int, int]]:
    """The (bits, exp) power of each row of an _exact_flags block, in row
    order: a bits-wide base raised to c * 2**v * beta1, v over vs, beta1
    over beta1s. Every exponent grows with bits, c, v and beta1."""
    return ((bits, (c << v) * beta1) for v in vs for beta1 in beta1s)


def _exact_flags(e: int, base: int, c: int, v_max: int, beta1_max: int) -> list[bool]:
    """exactly_divides(2, e + v, base, c * 2**v * beta1) for each row of a
    block, v-major over v = 1 .. v_max and odd beta1 <= beta1_max (e >= 0,
    c >= 1), once the block's powers (_flag_powers) are admitted.

    One modulus 2**(e + v_max + 1) and one pow serve the block: a row's
    residue is the one before times the square of its v's first power, and
    that square is the next v's first power. A row is then a bit test.
    """
    beta1s = range(1, beta1_max + 1, 2)
    if v_max < 1 or not beta1s:
        return []
    modulus = 2 << (e + v_max)
    flags = []
    first = pow(base, 2 * c, modulus)
    for v in range(1, v_max + 1):
        step, bit = first * first % modulus, 1 << (e + v)
        mask, y = 2 * bit - 1, first
        for _ in beta1s:
            flags.append(((y - 1) & mask) == bit)
            y = y * step % modulus
        first = step
    return flags


def check_vs1(k: int) -> bool:
    """2**(k+1) || (2**k - 1)**(2k) - 1 for odd k >= 3: check_cando at beta = 2."""
    return check_cando(k, 2)


def check_cando(k: int, beta: int, bit_cap: int | None = None) -> bool:
    """With beta = 2**v * beta1 even: 2**(v+k) || (2**k - 1)**(beta * k) - 1.

    Odd beta is rejected; the search context always forces 2 | beta.
    """
    _require_k(k, "odd")
    v = v2(beta)
    _guard_bits(k, beta * k, bit_cap)  # 2**k - 1, k bits wide, before it is built
    return exactly_divides(2, v + k, (1 << k) - 1, beta * k, bit_cap)


def appr_exponent(k: int, bit_cap: int | None = None) -> int:
    """The exact m with (2**k - 1)**m || 2**((2**k - 1) * k) - 1, the power
    check_appr takes at u = 0, alpha1 = 1."""
    _guard_all(_appr_powers(_require_k(k, "odd"), ((0, 1),), bit_cap), bit_cap)
    d = (1 << k) - 1
    m = 0
    while pow(2, d * k, d ** (m + 1)) == 1:
        m += 1
    return m


def _appr_powers(k: int, rows: Iterable[tuple[int, int]], bit_cap: int | None) -> Iterator[tuple]:
    """The power of 2 check_appr(k, u, alpha1) builds for each (u, alpha1)
    of rows in order; none for k < 1, which its rule refuses. For k past 64
    and the cap's bit length, k alone refuses, as (2**k - 1) * k has k +
    bit_length(k) bits (k is odd) and twice it passes the cap, so 2**k - 1
    is never built."""
    if k < 1:
        return
    if k > max(64, (bit_cap or 0).bit_length()):
        _refuse(2, f"a {k + k.bit_length()}-bit exponent", bit_cap)
    d = (1 << k) - 1
    for u, alpha1 in rows:
        yield 2, d ** (u + 1) * k * alpha1


def check_appr(k: int, u: int, alpha1: int, bit_cap: int | None = None) -> bool:
    """(2**k - 1)**(u+m) || 2**((2**k - 1)**(u+1) * k * alpha1) - 1.

    Requires gcd(alpha1, 2**k - 1) = 1. The tower exponent grows fast in
    u, so large u hits the operand size cap.
    """
    _require_k(k, "odd")
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")
    if alpha1 < 1 or not _coprime_to_2k_minus_1(alpha1, k):
        raise ValueError(f"alpha1 must be positive and coprime to 2**{k} - 1, got {alpha1}")
    m = appr_exponent(k, bit_cap)
    d = (1 << k) - 1
    return exactly_divides(d, u + m, 2, d ** (u + 1) * k * alpha1, bit_cap)


def _coprime_to_2k_minus_1(alpha1: int, k: int) -> bool:
    """gcd(alpha1, 2**k - 1) == 1 for alpha1 >= 1, from 2**k - 1 mod alpha1."""
    return gcd(alpha1, pow(2, k, alpha1) - 1) == 1


def check_appr2_bound(k: int, bit_cap: int | None = None) -> bool:
    """The exponent m from appr_exponent satisfies m < 2**k."""
    return appr_exponent(k, bit_cap) < (1 << k)


def _require_positive(name: str, value: int, odd: bool = False) -> None:
    if value < 1 or odd and value % 2 == 0:
        raise ValueError(f"{name} must be {'odd and ' if odd else ''}>= 1, got {value}")


def check_tv(p: int, k: int, v: int, beta1: int, bit_cap: int | None = None) -> bool:
    """For p = 1 (mod 4): 2**(t+v) || p**(2**v * beta1 * k) - 1, t = v2(p - 1)."""
    _require_k(k, "odd")
    _require_positive("v", v)
    _require_positive("beta1", beta1, odd=True)
    _require_prime_mod4(p, 1)
    return exactly_divides(2, v_exact(2, p - 1) + v, p, (1 << v) * beta1 * k, bit_cap)


def check_tv2(p: int, k: int, v: int, beta1: int, bit_cap: int | None = None) -> bool:
    """For p = 3 (mod 4): 2**(v+s-1) || p**(k * 2**v * beta1) - 1, s = v2(p**2 - 1)."""
    _require_k(k, "odd")
    _require_positive("v", v)
    _require_positive("beta1", beta1, odd=True)
    _require_prime_mod4(p, 3)
    return exactly_divides(2, v + v_exact(2, p * p - 1) - 1, p, k * (1 << v) * beta1, bit_cap)


def check_sl3(lam: int, p1: int, v: int, beta1: int, bit_cap: int | None = None) -> bool:
    """2**(lam+v) || (2**lam * p1 - 1)**(2**v * beta1) - 1 for lam >= 2, p1 odd.

    A pure binomial-expansion fact: the base 2**lam * p1 - 1 need not be
    prime for the identity to hold.
    """
    if lam < 2:
        raise ValueError(f"lam must be >= 2, got {lam}")
    _require_positive("p1", p1, odd=True)
    _require_positive("v", v)
    _require_positive("beta1", beta1, odd=True)
    return exactly_divides(2, lam + v, (1 << lam) * p1 - 1, (1 << v) * beta1, bit_cap)


def bound_u1(p: int, k: int, v: int, bit_cap: int | None = None) -> bool:
    """p**(2**v - 1) <= (2**(k(v+1)) - 1) / (2**k - 1), exactly in integers.

    Holds whenever some n = 2**(alpha-1) * p**(beta-1) with p = 1 (mod 4)
    and v = v2(beta) divides its own k-th divisor-power sum; a failure
    therefore prunes (p, v) for good.
    """
    _require_prime_mod4(p, 1)
    _require_k(k, "odd")
    _require_positive("v", v)
    _guard_all(_bound_powers(p, k, (v,)), bit_cap)
    return _bound_row(p, k, v)


def bound_v3(p: int, k: int, v: int, bit_cap: int | None = None) -> bool:
    """p**(2**v - 2k - 1) < 2**(k(v-1)) / (2**k - 1), exactly in integers.

    The exponent e on the left goes negative for small v, so the sides are
    cross-multiplied: p**e * (2**k - 1) < 2**(k(v-1)) for e >= 0, and
    2**k - 1 < p**(-e) * 2**(k(v-1)) for e < 0. Powers of p go through the
    operand cap. Same pruning contract as bound_u1, for p = 3 (mod 4).
    """
    _require_prime_mod4(p, 3)
    _require_k(k, "odd")
    _require_positive("v", v)
    _guard_all(_bound_powers(p, k, (v,)), bit_cap)
    return _bound_row(p, k, v)


def _bound_row(p: int, k: int, v: int) -> bool:
    """bound_u1 for p = 1 (mod 4), else bound_v3, on arguments known valid,
    once its powers (_bound_powers) are admitted."""
    if p % 4 == 1:
        return p ** ((1 << v) - 1) <= ((1 << (k * (v + 1))) - 1) // ((1 << k) - 1)
    e = (1 << v) - 2 * k - 1
    if e >= 0:
        return p**e * ((1 << k) - 1) < 1 << (k * (v - 1))
    return (1 << k) - 1 < p**-e << (k * (v - 1))


def _bound_powers(p: int, k: int, vs: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The powers _bound_row(p, k, v) builds, v over vs in order:
    p**(2**v - 1), then (2**k)**(v + 1) for p = 1 (mod 4), else
    p**|2**v - 2k - 1|. The u1 pair grows with p, k and v; the v3 exponent
    only with p, and it is widest at an end of v and an end of k."""
    for v in vs:
        if p % 4 == 1:
            yield p.bit_length(), (1 << v) - 1
            yield k + 1, v + 1
        else:
            yield p.bit_length(), abs((1 << v) - 2 * k - 1)


class Scenario(Enum):
    """Trichotomy outcomes for p = 3 (mod 4); an empty result set prunes."""

    P_EQUALS_K = "p=k"
    SCENARIO_2 = "scenario-2"
    SCENARIO_3 = "scenario-3"


def trichotomy_3mod4(
    p: int, k: int, beta: int, bit_cap: int | None = None
) -> frozenset[Scenario]:
    """All scenarios that hold for (p, k, beta) with p = 3 (mod 4), beta even.

    With lam = v2(p + 1) and v = v2(beta), the scenarios are
      (1) p = k,
      (2) (2**lam - 1)**(beta-1) <= 2**(lam+v) - 1,
      (3) (2**lam - 1)**(beta-1) <= sum of 2**(i(lam+v)) for i < k.
    At least one must hold whenever n | sigma_k(n) is possible, so an
    empty set means the parameters are pruned.
    """
    _require_k(k, "prime")
    _require_prime_mod4(p, 3)
    lam = v_exact(2, p + 1)
    _guard_all(_scenario_powers(lam, k, (beta,)), bit_cap)
    return _scenarios(lam, k, beta, p == k)


def _scenarios(lam: int, k: int, beta: int, p_is_k: bool) -> frozenset[Scenario]:
    """trichotomy_3mod4 from all it reads of p, lam = v2(p + 1) and whether
    p = k, on arguments known valid, once its powers (_scenario_powers) are
    admitted."""
    v = v2(beta)
    out = set()
    if p_is_k:
        out.add(Scenario.P_EQUALS_K)
    lhs = ((1 << lam) - 1) ** (beta - 1)
    if lhs <= (1 << (lam + v)) - 1:
        out.add(Scenario.SCENARIO_2)
    if lhs <= ((1 << ((lam + v) * k)) - 1) // ((1 << (lam + v)) - 1):
        out.add(Scenario.SCENARIO_3)
    return frozenset(out)


def _scenario_powers(lam: int, k: int, betas: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The powers _scenarios(lam, k, beta, ...) builds, beta over betas in
    order, v2 validating each first: (2**lam - 1)**(beta - 1), then
    (2**(lam + v2(beta)))**k. Both grow with lam, k and beta, for betas
    that are powers of 2."""
    for beta in betas:
        v = v2(beta)
        yield lam, beta - 1
        yield lam + v + 1, k


# check-lemma's tags, in the parser's order; classify pairs each with its rows.
LEMMA_TAGS = ("vs1", "cando", "appr", "appr2", "tv", "tv2", "sl3", "f", "v10", "u1", "v3", "trichotomy")


class LemmaGrid(NamedTuple):
    """Sampled parameter domain for the lemma oracle suites.

    The identities hold universally; these defaults trade coverage for
    runtime and match the stock acceptance grid.
    """

    k_values: tuple[int, ...] = (3, 5, 7)
    p_max: int = 500
    v_max: int = 5
    beta1_max: int = 9
    u_max: int = 1
    alpha1_max: int = 4
    lambda_max: int = 5
    p1_max: int = 9
    alpha_max: int = 8
    beta_max: int = 6
    bit_cap: int | None = None
