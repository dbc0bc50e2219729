"""Exhaustive classification of n = 2**(alpha-1) * p**(beta-1) against n | sigma_k(n).

Every grid point is evaluated along independent routes: the direct
divisor-power-sum divisibility, the pair of derived divisibility
conditions, and the lemma-based pruners. The pruners encode proved
implications, so any disagreement between routes is an implementation
bug and raises CrossCheckError instead of being smoothed over. That
cross-checking, not speed, is the point of the engine.

Searches scan odd-beta grid points too: the parity argument predicts they
all fail through the first condition, and the engine checks that instead
of assuming it.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import cache, partial
from itertools import chain, compress, product, repeat, starmap, takewhile
from operator import and_, floordiv, not_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .exactint import CrossCheckError, OperandSizeError, _guard_all, _guard_pow
from .exactint import _require_k, checked_pow, geometric_sum
from .primality import mersenne_exponents_upto, primes_upto
from .sigma import SpecialForm, divides_sigma, factorize, is_even_perfect, sigma_k
from .valuations import (
    LEMMA_TAGS,
    LemmaGrid,
    _appr_powers,
    _bound_powers,
    _bound_row,
    _exact_flags,
    _flag_powers,
    _scenario_powers,
    _scenarios,
    bound_u1,
    bound_v3,
    _coprime_to_2k_minus_1,
    check_appr,
    check_appr2_bound,
    trichotomy_3mod4,
    v2,
)

__all__ = [
    "ClassificationReport",
    "CrossCheckError",
    "DivisibilityConditions",
    "GridRow",
    "GridStats",
    "SearchOutcome",
    "check_lemma_f",
    "classify_point",
    "derive_conditions",
    "equivalence_scan",
    "expected_even_perfect",
    "lemma41_candidates",
    "lemma_blocks",
    "run_lemma_grid",
    "scan_special_forms",
    "search",
    "search_mode",
    "verify_lemma410",
]

# Tags a pruner may stamp on a grid point, in the order they are tried.
PRUNE_ORDER = ("parity", "f", "u1", "v3", "trichotomy", "v10")


class DivisibilityConditions(NamedTuple):
    """The two conditions whose conjunction is equivalent to n | sigma_k(n).

    cond_k1: 2**(alpha-1) divides (p**(beta*k) - 1)/(p**k - 1)
    cond_k2: p**(beta-1) divides (2**(alpha*k) - 1)/(2**k - 1)

    cond_k1 forces beta even (the quotient is a sum of beta odd terms).
    """

    cond_k1_holds: bool
    cond_k2_holds: bool


def derive_conditions(f: SpecialForm, bit_cap: int | None = None) -> DivisibilityConditions:
    p_quotient = geometric_sum(checked_pow(f.p, f.k, bit_cap), f.beta, bit_cap)
    two_quotient = geometric_sum(1 << f.k, f.alpha, bit_cap)
    return DivisibilityConditions(
        cond_k1_holds=p_quotient % (1 << (f.alpha - 1)) == 0,
        cond_k2_holds=two_quotient % f.p ** (f.beta - 1) == 0,
    )


class ClassificationReport(NamedTuple):
    """Per-point verdict of classify_point."""

    form: SpecialForm
    divides: bool
    perfect: bool
    excluded_perfect: bool
    pruned_by: str | None = None


def _pruned_by(f: SpecialForm) -> str | None:
    """First pruner (in PRUNE_ORDER) predicting non-divisibility, if any.

    Callers guarantee k is a Mersenne exponent > 2. All pruners except
    "v10" are derived without the p-bound and apply to any form; the
    quartic pruner needs the bound (its case split rests on it), so it is
    gated on satisfies_p_bound().
    """
    if f.beta % 2:
        return "parity"
    if f.p == (1 << f.k) - 1:
        return "f"
    v = v2(f.beta)
    if f.p % 4 == 1:
        if not bound_u1(f.p, f.k, v):
            return "u1"
    else:
        if not bound_v3(f.p, f.k, v):
            return "v3"
        if not trichotomy_3mod4(f.p, f.k, f.beta):
            return "trichotomy"
        if f.k == 5 and f.beta == 4 and f.satisfies_p_bound():
            return "v10"
    return None


def classify_point(f: SpecialForm, bit_cap: int | None = None) -> ClassificationReport:
    """Evaluate one grid point along all routes, raising on any disagreement."""
    conditions = derive_conditions(f, bit_cap)
    divides = divides_sigma(f, bit_cap)
    _raise_route_failure(
        f.k, [(f.p, f.beta, f.alpha, divides, conditions.cond_k1_holds, conditions.cond_k2_holds)]
    )
    pruned = _pruned_by(f)
    if pruned is not None and divides:
        raise _pruned_solution(pruned, f.alpha, f.p, f.beta, f.k)
    n = f.n()
    perfect = is_even_perfect(n)
    return ClassificationReport(
        form=f,
        divides=divides,
        perfect=perfect,
        excluded_perfect=n == (1 << (f.k - 1)) * ((1 << f.k) - 1),
        pruned_by=pruned,
    )


class GridStats(NamedTuple):
    points_scanned: int
    pruned_points: int
    scenario1_points: int


def _p_bound_primes(alpha: int) -> array:
    """The odd primes p < 3 * 2**(alpha-1) - 1, for alpha >= 2, in
    primes_upto's packed array."""
    return primes_upto(3 * (1 << (alpha - 1)) - 2)[1:]


# The exhaustive scan sieves every prime under the p-bound of alpha_max, and
# each further alpha doubles the sieve and the table. At 24 the odd-only sieve
# takes 12.6 MB and primes_upto's packed table of 1,575,660 odd primes 6.3 MB:
# search --k 5 --alpha-max 24 --beta-max 2 peaks at 39 MiB RSS, and
# equivalence_scan(3 << 24), whose sieve is as large, at 38 MiB (93 and 92
# MiB when the table was a list of ints; 2-vCPU x86-64 VM).
MAX_SCAN_ALPHA = 24

# beta_max, and check-lemma's beta1_max, lambda_max and p1_max, set both how
# many rows a grid has and how wide their operands grow (to about beta * k *
# log2(p) bits), while the operand cap bounds only single operands. At 64,
# search --k 5 --alpha-max 13 takes about 0.7 s, and check-lemma sl3 with
# --beta1-max, --lambda-max and --p1-max at 64 (322,560 rows, written a
# (lam, p1) block of 160 rows at a time) 0.2-0.3 s and 17.0 MiB RSS, compiling
# the package from source, on a 2-vCPU x86-64 VM. check-lemma's v_max shares it.
MAX_SCAN_BETA = 64

# _pool_map's pool forks min(workers, tasks) processes as it starts, so on a
# grid of many tasks the worker count sets how many processes a run forks at once.
MAX_WORKERS = 64

_ROW_WORK = "no operand cap bounds the work it adds to every row"
_ROW_COUNT = "the operand cap bounds each row's power, not how many rows there are"

# Grid parameter or worker count -> (its limit, why the limit is there at a
# given value). Each sieve limit keeps its sieve near the exhaustive scan's;
# a sieve's reason names the largest number it would cover.
_GRID_LIMITS = {
    "alpha_max": (
        MAX_SCAN_ALPHA,
        lambda a: f"its p-bound sieve would cover the numbers up to {3 * (1 << (a - 1)) - 2}",
    ),
    "n_limit": (3 << MAX_SCAN_ALPHA, lambda n: f"its sieve would cover the numbers up to {n >> 1}"),
    "p_max": (3 << MAX_SCAN_ALPHA, lambda p: f"its sieve would cover the numbers up to {p - 1}"),
    "beta_max": (MAX_SCAN_BETA, lambda _: _ROW_WORK),
    "beta1_max": (MAX_SCAN_BETA, lambda _: _ROW_WORK),
    "lambda_max": (MAX_SCAN_BETA, lambda _: _ROW_WORK),
    "p1_max": (MAX_SCAN_BETA, lambda _: _ROW_WORK),
    "u_max": (MAX_SCAN_BETA, lambda _: _ROW_COUNT),
    "alpha1_max": (MAX_SCAN_BETA, lambda _: _ROW_COUNT),
    "v_max": (MAX_SCAN_BETA, lambda _: "each v doubles its rows' exponents, and the grid's "
              "per-v labels and powers of 2 are made before the operand cap can refuse a row"),
    "workers": (MAX_WORKERS, lambda w: f"its pool would fork {w} processes at once"),
}


def _refuse_oversized(scope: str, **values: int) -> None:
    """Raise ValueError, before any sieving or scanning, when a grid
    parameter or the worker count is past its limit in _GRID_LIMITS."""
    for name, value in values.items():
        limit, why = _GRID_LIMITS[name]
        if value > limit:
            raise ValueError(
                f"{name}={value} exceeds the {scope}'s limit of {limit}: {why(value)}"
            )


def _refuse_repeated(ks: Sequence[int], where: str) -> None:
    """Raise ValueError for the smallest exponent that is repeated in ks:
    each copy would be checked again and counted again."""
    seen: set[int] = set()  # seen.add returns None: a k's first copy only joins seen
    if repeated := {k for k in ks if k in seen or seen.add(k)}:
        raise ValueError(f"exponent k={min(repeated)} is repeated in {where}")


# The most points a task holds (_split); a task is one
# kernel batch, all its rows held at once. On a 2-vCPU x86-64 VM, caps from
# 1,024 to 8,192 moved neither scan's time past the host's noise, while
# search --k 5 --alpha-max 15 --beta-max 16 peaked at 17.2, 17.7, 18.1 and
# 19.5 MiB (1,024, 2,560, 4,096, 8,192) and equivalence_scan(3 * 10**6) at
# 23.1 MiB up to 4,096 and 23.9 at 8,192. 2,560 stays within 0.5 MiB of the
# smallest cap with 66 tasks for that search and 96 per exponent there.
_BATCH_POINTS = 2_560


def _pool_map(fn, tasks, workers):
    """fn over tasks, in order: in-process for one worker or one task, else
    on a pool of min(workers, len(tasks)) forked processes, a task at a time.

    A forked pool starts no helper process (a spawned one starts a
    resource tracker that lives until the interpreter exits), and leaving
    the with-block ends every worker. Fork copies only the calling
    thread, and the package starts no threads. Output still buffered at
    the fork is flushed first, so that no worker can write it a second
    time.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing  # only a pooled scan needs it

    sys.stdout.flush()
    sys.stderr.flush()
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(fn, tasks, chunksize=1)


def _point(alpha: int, p: int, beta: int, k: int) -> str:
    return f"(alpha, p, beta, k) = ({alpha}, {p}, {beta}, {k})"


class _Block(NamedTuple):
    """A block spec with q = p**k: every prime of ps, each held once, at
    every beta of betas, over alphas, and qs[i] = ps[i]**k, the one value
    both routes read. Each route builds its own columns from these, rows
    beta-major (every prime at betas[0], then at betas[1], ...), and flags
    a block's points alpha-major: every row at alphas[0], ..."""

    alphas: range
    ps: Sequence[int]
    betas: range
    qs: Sequence[int]


def _block(k: int, alphas: range, ps: Sequence[int], betas: range) -> _Block:
    ps = list(ps)  # ints made once, in C: both routes walk the primes several times
    return _Block(alphas, ps, betas, [p**k for p in ps])


def _two_part(k: int, alpha: int) -> int:  # G(alpha) = (2**(alpha*k) - 1)/(2**k - 1)
    return ((1 << k * alpha) - 1) // ((1 << k) - 1)


def _direct_block(k: int, blocks: list[_Block]) -> list[bool]:
    """Direct route over one batch: n | sigma_k(n) at each point, where
    sigma_k(n) = G(alpha) * p_part and n = p**(beta-1) * 2**(alpha-1); a
    block's 2-part is built at its first alpha and stepped by G(alpha + 1) =
    G(alpha) * 2**k + 1. The p-parts 1 + q + ... + q**(beta-1) and the powers
    p**(beta-1) are stepped from beta = 2 by Horner's rule, one comprehension
    per beta. Each p-part is kept modulo its row's own M_p = p**(beta-1) *
    2**(top-1), which each n of the row divides: a p-part known modulo
    p**(beta-2) * 2**s fixes q times it modulo p**(beta-1) * 2**s."""
    divides: list[bool] = []
    for b in blocks:
        s = b.alphas[-1] - 1
        powers, parts = b.ps, [(q + 1) % (p << s) for q, p in zip(b.qs, b.ps)]
        row_parts: list[int] = []
        row_powers: list[int] = []
        for beta in range(2, b.betas[-1] + 1):
            if beta > 2:
                powers = [power * p for power, p in zip(powers, b.ps)]
                parts = [(part * q + 1) % (w << s) for part, q, w in zip(parts, b.qs, powers)]
            if beta >= b.betas[0]:
                row_parts += parts
                row_powers += powers
        t = _two_part(k, b.alphas[0])  # uncapped: _guard has admitted (2**k)**alpha
        for s in range(b.alphas[0] - 1, b.alphas[-1]):  # s = alpha - 1
            divides += [t * part % (power << s) == 0 for part, power in zip(row_parts, row_powers)]
            t = (t << k) + 1
    return divides


# _PLANES[j] maps a row's condition-1 count c to its flag at its block's alphas[j]: c > j
_PLANES = [bytes(j + 1) + b"\x01" * (255 - j) for j in range(256)]


def _conditions_block(k: int, blocks: list[_Block]) -> tuple[bytearray, bytearray]:
    """Condition route over one batch, by modular arithmetic only, from each
    prime's p and q, its residues stepped across the block's betas by
    Horner's rule; its flags are byte planes, a byte per point, alpha-major.
    Condition 1 is 2**(alpha-1) | (q**beta - 1)/(q - 1), or with v = v2(q -
    1), q**beta = 1 (mod 2**(alpha-1+v)): a row keeps x = q**beta modulo h,
    a multiple of 2**(top-1+v), holds for alpha - 1 <= v2(x - 1) - v (every
    alpha when x = 1) and keeps the count of those alphas, a byte while the
    block's alphas and spread of v add up to under 256. Condition 2 is
    2**(alpha*k) = 1 (mod m2 * p**(beta-1)) with m2 = 2**k - 1; a block's
    residues advance from one alpha to the next by one multiplication by
    2**k each, and an alpha where none is 1 gets a zero plane."""
    # Every modulus exceeds 1, so a residue of 1 is exact divisibility.
    t = 1 << k
    m2 = t - 1
    cond1, cond2 = bytearray(), bytearray()
    for b in blocks:
        s_top, s0 = b.alphas[-1] - 1, b.alphas[0] - 1
        # per row, w = v2(q - 1) + s0: q ^ (q - 2) is 2**(v+1) - 2 for odd q
        ws = [(q ^ q - 2).bit_length() + s0 - 1 for q in b.qs]
        h = 1 << s_top + max(ws, default=s0) - s0  # every row's 2**(top-1+v) divides h
        xs, mask = b.qs, h - 1
        moduli = [m2] * len(b.ps)
        counts: list[int] = []
        row_moduli: list[int] = []
        for beta in range(2, b.betas[-1] + 1):
            xs = [x * q & mask for x, q in zip(xs, b.qs)]  # q**beta modulo h, a small int
            moduli = [m * p for m, p in zip(moduli, b.ps)]
            if beta >= b.betas[0]:
                # (x - 1) & (1 - x) is 2**v2(x - 1), or h at x = 1; past w, the count
                counts += [((x - 1 & 1 - x or h) >> w).bit_length() for x, w in zip(xs, ws)]
                row_moduli += moduli
        counts = bytes(counts)
        # 2**((alpha-1)*k) at the first alpha, reduced by the first step
        ys = [1 << s0 * k] * len(row_moduli)
        for plane in _PLANES[: len(b.alphas)]:
            cond1 += counts.translate(plane)
            ys = [y * t % m for y, m in zip(ys, row_moduli)]
            cond2 += bytes([y == 1 for y in ys]) if 1 in ys else bytes(len(ys))
    return cond1, cond2


def _verdict_row(k: int, beta: int, key: tuple) -> str | None:
    """_pruned_by at every point of a row under the p-bound, from nothing but
    its prime's key (p % 4, p == 2**k - 1, p == k, v2(p + 1), bounds), where
    bounds[v - 1] is the u1 or v3 bound at v."""
    residue, is_f, is_k, lam, bounds = key
    if beta % 2:
        return "parity"
    if is_f:
        return "f"
    holds = bounds[v2(beta) - 1]
    if residue == 1:
        return None if holds else "u1"
    if not holds:
        return "v3"
    if not _scenarios(lam, k, beta, is_k):
        return "trichotomy"
    if k == 5 and beta == 4:
        return "v10"
    return None


def _prime_verdicts(
    k: int, beta_max: int, primes: Sequence[int]
) -> Iterator[tuple[list[str | None], int]]:
    """For each of the search's ascending primes, in turn, the verdicts of
    its rows beta = 2 .. beta_max and how many of them prune, taken once per
    key (see _verdict_row) and shared by every prime with that key.

    Within a residue class mod 4 the bound at v is monotone in p: u1, and v3
    with 2**v > 2k + 1, can only go from holding to failing as p grows, and
    v3 below that only from failing to holding. Once a class reaches that
    later value at v, its later primes take it unevaluated; once all its v
    have, they take the class's settled tuple whole."""
    betas = range(2, beta_max + 1)
    vs = range(1, beta_max.bit_length())  # v2 of every even beta up to beta_max
    later = {(1, v): False for v in vs} | {(3, v): 1 << v < 2 * k + 1 for v in vs}
    final = {residue: tuple(later[residue, v] for v in vs) for residue in (1, 3)}
    settled: dict[int, set[int]] = {1: set(), 3: set()}  # per class, its settled vs
    table: dict[tuple, tuple[list[str | None], int]] = {}
    mersenne = (1 << k) - 1
    for p in primes:
        residue = p & 3
        bounds, done = final[residue], settled[residue]
        if len(done) < len(vs):
            bounds = tuple(later[residue, v] if v in done else _bound_row(p, k, v) for v in vs)
            done.update(v for v, holds in zip(vs, bounds) if holds == later[residue, v])
        lam = (p + 1 & ~p).bit_length() - 1 if residue == 3 else 0  # v2(p + 1)
        key = (residue, p == mersenne, p == k, lam, bounds)
        entry = table.get(key)
        if entry is None:
            verdicts = [_verdict_row(k, beta, key) for beta in betas]
            table[key] = entry = verdicts, len(verdicts) - verdicts.count(None)
        yield entry


def _raise_route_failure(k: int, checks: Iterable[tuple[int, int, int, bool, bool, bool]]) -> None:
    """Raise for the first of the checked points (p, beta, alpha, divides,
    cond1, cond2) failing a route check: routes disagree, then condition 1
    at odd beta. classify_point passes one point."""
    for p, beta, alpha, d, c1, c2 in checks:
        if d != (c1 and c2):
            raise CrossCheckError(
                f"conditions disagree with direct divisibility at "
                f"{_point(alpha, p, beta, k)}: divides={d}, cond1={c1}, cond2={c2}"
            )
        if c1 and beta % 2:
            raise CrossCheckError(
                f"first condition held with odd beta at "
                f"{_point(alpha, p, beta, k)}: cond1={c1}, cond2={c2}"
            )


def _pruned_solution(verdict: str, alpha: int, p: int, beta: int, k: int) -> CrossCheckError:
    return CrossCheckError(
        f"pruner {verdict!r} contradicts a found solution at "
        f"{_point(alpha, p, beta, k)}: divides=True"
    )


def _block_points(blocks: list[_Block]) -> Iterator[tuple[int, int, int]]:
    """(p, beta, alpha) of every point of a batch, in the routes' flag order."""
    for b in blocks:
        for a, beta, p in product(b.alphas, b.betas, b.ps):
            yield p, beta, a


def _found(blocks: list[_Block], divides: list[bool]) -> list[tuple[int, int, int]]:
    """(p, beta, alpha) of each point of a batch that the direct route finds
    dividing, sorted. Most batches hold none, and need no second pass."""
    return sorted(compress(_block_points(blocks), divides)) if True in divides else []


def _recheck_solution(alpha: int, p: int, beta: int, k: int) -> None:
    """Raise unless n, rebuilt from a found solution's labels, divides
    sigma_k(n) on sigma's own route, which factors n and shares nothing with
    the kernel."""
    n = p ** (beta - 1) << (alpha - 1)
    if r := sigma_k(n, k) % n:
        raise CrossCheckError(
            f"sigma_k rejects a found solution at {_point(alpha, p, beta, k)}: "
            f"sigma_k(n) % n = {r} for n = {n}"
        )


def _check_block(k: int, blocks: list[_Block]) -> list[bool]:
    """Run both routes over one batch, each building what it reads from k
    and the blocks; check that each flags every point and that they agree
    at each, reading each flag list as one int, a flag to a byte; return the
    direct route's flags. Only a failed check builds the points: it names
    the first failing one in (p, beta, alpha) order."""
    divides = _direct_block(k, blocks)
    cond1, cond2 = _conditions_block(k, blocks)
    points = sum(len(b.alphas) * len(b.ps) * len(b.betas) for b in blocks)
    if not len(divides) == len(cond1) == len(cond2) == points:
        raise CrossCheckError(
            f"the routes flag {len(divides)}, {len(cond1)} and {len(cond2)} points "
            f"(direct, condition 1, condition 2) of a batch of {points}"
        )
    bits1 = int.from_bytes(cond1, "big")
    failed = int.from_bytes(divides, "big") != bits1 & int.from_bytes(cond2, "big")
    # any odd beta: a range of two or more holds one; most equivalence batches have none
    if not failed and any(len(b.betas) > 1 or b.betas[0] % 2 for b in blocks):
        odd = b"".join(bytes(beta % 2 for beta in b.betas for _ in b.ps) * len(b.alphas) for b in blocks)
        failed = bits1 & int.from_bytes(odd, "big") != 0
    if failed:
        checks = zip(_block_points(blocks), divides, cond1, cond2)
        _raise_route_failure(k, sorted((*point, *map(bool, flags)) for point, *flags in checks))
    return divides


# A block spec, the one unit of kernel work: _block's arguments (alphas, ps,
# betas). Until _split slices the prime table, ps is a range of indices into it.
_Spec = tuple[range, Sequence[int], range]


def _guard(k: int, table: Sequence[int], specs: Iterable[_Spec], bit_cap: int | None) -> None:
    """Refuse the first point of specs, in flag order, whose unreduced
    operands pass the cap: p**k, (p**k)**beta, then (2**k)**alpha, as
    derive_conditions builds them. Each check is monotone in alpha, p and
    beta, so only a spec whose corner is refused has its (alpha, beta)
    pairs tried at its largest prime, and only a refused pair its primes."""

    def point(alpha: int, p: int, beta: int) -> None:
        _guard_pow(p, k, bit_cap)
        _guard_pow(p**k, beta, bit_cap)
        _guard_pow(1 << k, alpha, bit_cap)

    for alphas, ps, betas in specs:
        top = table[ps[-1]]
        try:
            point(alphas[-1], top, betas[-1])
        except OperandSizeError:
            for alpha, beta in product(alphas, betas):
                try:
                    point(alpha, top, beta)
                except OperandSizeError:
                    for i in ps:
                        point(alpha, table[i], beta)


def _split(table: Sequence[int], specs: Iterable[_Spec]) -> list[list[_Spec]]:
    """Cut the ordered specs into tasks of at most _BATCH_POINTS points, a
    prime holding len(alphas) * len(betas). A task ends before the prime that
    would pass the cap, so only one prime's rows of one spec can pass it. A
    task's specs hold slices of the table, the only copy of it made."""
    tasks, task, acc = [], [], 0
    for alphas, ps, betas in specs:
        w = len(alphas) * len(betas)
        i = ps.start
        while i < ps.stop:
            if acc and acc + w > _BATCH_POINTS:
                tasks.append(task)
                task, acc = [], 0
            n = min(ps.stop - i, max(1, (_BATCH_POINTS - acc) // w))  # one, if acc is 0
            task.append((alphas, table[i : i + n], betas))
            i, acc = i + n, acc + n * w
    return tasks + [task] if task else tasks


def _check_task(task: tuple[int, list[_Spec]]) -> tuple[list[_Block], list[bool], list[tuple]]:
    """The kernel runner and the one place its checks run: _check_block over
    a task (k, specs), a block per spec, then sigma_k on each point found
    dividing; return the blocks, their flags and the found (p, beta, alpha)."""
    k, specs = task
    blocks = [_block(k, *spec) for spec in specs]
    divides = _check_block(k, blocks)
    found = _found(blocks, divides)
    for p, beta, alpha in found:
        _recheck_solution(alpha, p, beta, k)
    return blocks, divides, found


def _scan_task(task: tuple[int, list[_Spec]]) -> tuple[list[tuple[int, int, int]], int, int]:
    """One task of either scan, run by _check_task, as much as the scan keeps
    of it: the found (p, beta, alpha), the point count and the sum of beta
    over the points, from the blocks' shape."""
    blocks, divides, found = _check_task(task)
    return found, len(divides), sum(len(b.alphas) * len(b.ps) * sum(b.betas) for b in blocks)


def _run_scan(scope: str, tasks: list, workers: int, expected: Sequence[int]) -> tuple[list, int]:
    """The kernel stage of both scans: every task (k, specs) through
    _scan_task on _pool_map, then a check that the kernel checked exactly the
    points the grid holds and that their betas sum to the grid's, expected
    being (points, beta total) counted another way. Returns every found (p,
    beta, alpha), sorted, and the point count."""
    results = _pool_map(_scan_task, tasks, workers)
    points, betas = (sum(r[i] for r in results) for i in (1, 2))
    want, want_betas = expected
    if points != want:
        raise CrossCheckError(f"the kernel checked {points} points, but the {scope} has {want}")
    if betas != want_betas:
        raise CrossCheckError(
            f"the kernel's points sum to beta = {betas}, but the {scope}'s to {want_betas}"
        )
    return sorted(point for r in results for point in r[0]), points


def _pruner_stage(
    k: int, beta_max: int, primes: Sequence[int], specs: list[_Spec], found: list[tuple]
) -> tuple[int, int]:
    """The search's pruners, run once over its grid after the kernel stage:
    one walk of _prime_verdicts over the ascending p-bound primes counts the
    pruned rows times each prime's alphas and the scenario-1 points (p = k =
    3 mod 4 at even beta), and holds each found solution, which _check_task
    has had sigma_k accept, against its row's verdict. Returns (pruned,
    scenario-1) points."""
    widths = chain.from_iterable(repeat(len(alphas), len(ps)) for alphas, ps, _ in specs)
    rows = dict.fromkeys(p for p, _, _ in found)  # each found prime's verdicts
    pruned = scenario1 = 0
    for p, width, (verdicts, count) in zip(primes, widths, _prime_verdicts(k, beta_max, primes)):
        pruned += width * count
        if p == k and k % 4 == 3:
            scenario1 = beta_max // 2 * width
        if p in rows:
            rows[p] = verdicts
    for p, beta, alpha in found:
        if verdict := rows[p][beta - 2]:
            raise _pruned_solution(verdict, alpha, p, beta, k)
    return pruned, scenario1


def scan_special_forms(
    k: int, alpha_max: int, beta_max: int = 2, workers: int = 1, bit_cap: int | None = None
) -> tuple[list[ClassificationReport], GridStats]:
    """Scan every (alpha, p, beta) with 2 <= alpha <= alpha_max, p an odd
    prime under the p-bound, 2 <= beta <= beta_max; return the solutions
    sorted by n, plus scan statistics.

    Every point is checked along the direct route, the two conditions and
    the pruners, with the same cross-checks as classify_point, the tested
    reference. The grid is one spec per least alpha, the primes its p-bound
    first admits; _guard refuses a point past the operand cap before any
    kernel work. The kernel stage (_run_scan) runs each task of _split and
    checks its coverage against counts made alpha by alpha from the
    p-bound's primes; the pruner stage (_pruner_stage) then runs once, in
    this process. The split ignores the worker count and the merge is a
    sort, so worker count never changes the result.
    """
    _require_k(k, "mersenne")
    if alpha_max < 2 or beta_max < 2:
        raise ValueError("alpha_max and beta_max must be >= 2")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _refuse_oversized("exhaustive scan", alpha_max=alpha_max, beta_max=beta_max, workers=workers)
    primes = _p_bound_primes(alpha_max)
    # cuts[i]: how many primes the p-bound of alpha = i + 1 admits
    cuts = [bisect_left(primes, 3 * (1 << (a - 1)) - 1) for a in range(1, alpha_max + 1)]
    betas = range(2, beta_max + 1)
    alphas = range(2, alpha_max + 1)
    specs = [(range(a, alpha_max + 1), range(i, j), betas) for a, i, j in zip(alphas, cuts, cuts[1:])]
    _guard(k, primes, specs, bit_cap)
    tasks = [(k, task) for task in _split(primes, specs)]
    under_bound = sum(cuts[1:])
    expected = len(betas) * under_bound, sum(betas) * under_bound
    found, points = _run_scan("search grid", tasks, workers, expected)
    stats = GridStats(points, *_pruner_stage(k, beta_max, primes, specs, found))
    excluded = (1 << (k - 1)) * ((1 << k) - 1)
    forms = [SpecialForm(alpha, p, beta, k) for p, beta, alpha in found]
    reports = [ClassificationReport(f, True, is_even_perfect(f.n()), f.n() == excluded) for f in forms]
    return sorted(reports, key=lambda r: r.form.n()), stats


def expected_even_perfect(k: int, alpha_max: int) -> list[int]:
    """Even perfect numbers reachable by the grid, minus the excluded one.

    These are 2**(q-1) * (2**q - 1) for Mersenne exponents q <= alpha_max
    with q != k; each such p = 2**q - 1 automatically satisfies the
    p-bound.
    """
    return [
        (1 << (q - 1)) * ((1 << q) - 1)
        for q in mersenne_exponents_upto(alpha_max)
        if q != k
    ]


def search_mode(k: int, beta_max: int) -> str:
    """The mode of a search: "theorem" where it is proved, else "conjecture".

    beta = 2 is proved for every Mersenne k > 2, and every beta for
    k in {3, 5}; elsewhere the statement is open, so a mismatch would be a
    finding about it rather than a bug.
    """
    return "theorem" if k in (3, 5) or beta_max == 2 else "conjecture"


class SearchOutcome(NamedTuple):
    """One exponent's search: the solutions sorted by n, the scan
    statistics, the predicted even perfect set, the mode from search_mode
    and whether the solutions are exactly the predicted set."""

    k: int
    reports: list[ClassificationReport]
    stats: GridStats
    expected: list[int]
    mode: str
    matches: bool


def search(
    k: int, alpha_max: int, beta_max: int, workers: int = 1, bit_cap: int | None = None
) -> SearchOutcome:
    """Scan the grid for one exponent and compare with the prediction.

    A mismatch is returned, never raised: the caller decides whether it is
    an implementation bug (theorem mode) or a finding (conjecture mode).
    Internal route disagreements still raise CrossCheckError.
    """
    reports, stats = scan_special_forms(k, alpha_max, beta_max, workers, bit_cap)
    expected = expected_even_perfect(k, alpha_max)
    return SearchOutcome(
        k=k,
        reports=reports,
        stats=stats,
        expected=expected,
        mode=search_mode(k, beta_max),
        matches=[r.form.n() for r in reports] == expected,
    )


def check_lemma_f(k: int, alpha: int, beta: int, bit_cap: int | None = None) -> bool:
    """n = 2**(alpha-1) * (2**k - 1)**(beta-1) never divides sigma_k(n).

    Always true when 2**k - 1 is prime; a False return, like the
    CrossCheckError of a solution sigma_k rejects, is an implementation bug.
    """
    _require_k(k, "mersenne")
    if alpha < 2 or beta < 2:
        raise ValueError(f"alpha and beta must be >= 2, got {alpha} and {beta}")
    ps, alphas, betas = [(1 << k) - 1], range(alpha, alpha + 1), range(beta, beta + 1)
    _guard(k, ps, [(alphas, range(1), betas)], bit_cap)
    return not _check_task((k, [(alphas, ps, betas)]))[1][0]


def lemma41_candidates() -> list[SpecialForm]:
    """The only beta = 4, p = 3 (mod 4) forms the quartic remainder table
    cannot dismiss outright; each must still fail the divisibility check.

    Derived, not hardcoded: a surviving p must divide the scaled remainder
    for its case and satisfy p = k1 * 2**(alpha-2) - 1, which pins alpha.
    The p**3 | 2**alpha - 1 route contributes (alpha, p) = (4, 3).
    """
    from .polyrem import lemma41_scaled_remainder  # and with it fractions, for this table only

    out = [SpecialForm(alpha=4, p=3, beta=4, k=5)]
    for k1 in range(1, 6):
        _, remainder = lemma41_scaled_remainder(k1)
        for p in sorted(factorize(remainder)):
            if p % 4 != 3:
                continue
            if (p + 1) % k1:
                continue
            power_of_two = (p + 1) // k1
            if power_of_two < 1 or power_of_two & (power_of_two - 1):
                continue
            alpha = power_of_two.bit_length() + 1
            form = SpecialForm(alpha=alpha, p=p, beta=4, k=5)
            if form.satisfies_p_bound():
                out.append(form)
    return out


def verify_lemma410(alpha_max: int) -> bool:
    """No n = 2**(alpha-1) * p**3 with p = 3 (mod 4) under the p-bound
    divides sigma_5(n), over 2 <= alpha <= alpha_max; the remainder-table
    candidates are re-checked explicitly as well."""
    return all(all(oks) for _, _, oks in lemma_blocks("v10", LemmaGrid(alpha_max=alpha_max))[1])


# ---------------------------------------------------------------------------
# Equivalence sweep: conditions vs direct divisibility over all small forms.
# ---------------------------------------------------------------------------


def _equivalence_specs(n_limit: int, primes: Sequence[int]) -> Iterator[_Spec]:
    """One spec per slice primes[i:j] whose rows at beta = 2, 3, ... share
    top = bit_length(n_limit // p**(beta-1)), over alpha = 2 .. top. As p grows, so
    does p**(beta-1): the primes with p**(beta-1) <= n_limit >> (top-1) are a prefix."""
    beta = 2
    while end := bisect_right(primes, n_limit >> 1, key=lambda p: p ** (beta - 1)):
        i = 0
        while i < end:
            top = (n_limit // primes[i] ** (beta - 1)).bit_length()
            j = bisect_right(primes, n_limit >> (top - 1), i, end, key=lambda p: p ** (beta - 1))
            yield range(2, top + 1), range(i, j), range(beta, beta + 1)
            i = j
        beta += 1


def _form_count(n_limit: int, primes: Sequence[int]) -> tuple[int, int]:
    """How many special forms n <= n_limit the ascending primes make, and
    the sum of their betas, each prime's counted on its own: at each beta
    with m = n_limit // p**(beta-1) >= 2, the alphas 2 .. bit_length(m).
    Every prime, at most n_limit // 2, has beta = 2, counted as a stream; m
    shrinks as p grows, so each later beta's primes are a prefix of the
    last beta's."""
    width = sum(map(int.bit_length, map(n_limit.__floordiv__, primes))) - len(primes)
    count, betas, beta = width, 2 * width, 2
    ms = map(n_limit.__floordiv__, primes)
    while ms := list(takewhile((1).__lt__, map(floordiv, ms, primes))):
        width, beta = sum(map(int.bit_length, ms)) - len(ms), beta + 1
        count, betas = count + width, betas + beta * width
    return count, betas


def equivalence_scan(n_limit: int, ks: Iterable[int] = (3, 5, 7), workers: int = 1) -> int:
    """Check n | sigma_k(n) against the pair of derived conditions on every
    special form with n <= n_limit, once per exponent in ks, through the
    search's kernel stage (_run_scan) and no pruner stage. derive_conditions
    and divides_sigma are its tested reference. Returns the number of (form,
    k) pairs checked; raises CrossCheckError on any disagreement, on a found
    solution that sigma_k rejects, and when the kernel's point total or the
    sum of beta over its points is not the forms', counted prime by prime.
    The specs of _equivalence_specs and their split are made once, for every
    exponent, and _guard refuses a point past the default operand cap before
    any kernel work.

    The p-bound is deliberately not applied here: the equivalence is an
    identity about the factored shape, not about the bounded search grid.
    n_limit above 3 * 2**MAX_SCAN_ALPHA is refused before sieving, since
    its sieve up to n_limit // 2 would exceed the exhaustive scan's, and
    so are a worker count above MAX_WORKERS, an exponent below 1 and a
    repeated exponent, which would be counted twice.
    """
    ks = tuple(ks)
    if n_limit < 6 or not ks:
        raise ValueError("need n_limit >= 6 and at least one exponent")
    _require_k(min(ks), "any")
    _refuse_repeated(ks, "the scan's exponents")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _refuse_oversized("equivalence scan", n_limit=n_limit, workers=workers)
    primes = primes_upto(n_limit >> 1)[1:]
    specs = list(_equivalence_specs(n_limit, primes))
    split = _split(primes, specs)
    tasks = []
    for k in ks:
        _guard(k, primes, specs, None)
        tasks += [(k, task) for task in split]
    expected = [len(ks) * c for c in _form_count(n_limit, primes)]
    return _run_scan("equivalence scan", tasks, workers, expected)[1]


# ---------------------------------------------------------------------------
# Lemma grid runner backing the check-lemma command.
# ---------------------------------------------------------------------------


class GridRow(NamedTuple):
    """One grid point of a lemma suite. ok is None for informational rows."""

    label: str
    outcome: str
    ok: bool | None


def _odd_values(limit: int) -> range:
    return range(1, limit + 1, 2)


def _residue_primes(table: array, residue: int) -> array:
    """The primes of table, a packed array as primes_upto returns, that are
    residue mod 4, in an array of the same type."""
    return array(table.typecode, compress(table, map(residue.__eq__, map(and_, table, repeat(3)))))


# A lemma grid runs as blocks of rows, one kernel call each. Each tag's maker
# takes a grid and rule, its tag's k rule, makes any sieve once and returns,
# lazily: the corner, its row lister's powers at the grid's extremes; the k
# values whose rules run past a passing corner, or for f and v10 their _guard
# walk; its rows' powers in row order, each k through rule at its first block,
# read only under a refused corner; and its one walk, the blocks in row order
# as (labels, values), values bools for a proved tag, else outcome strings.
_Rows = tuple[list[str], list]


def _vs(g: LemmaGrid) -> range:
    return range(1, g.v_max + 1)


def _block_tails(g: LemmaGrid) -> list[str]:
    """The label tail " v=.. beta1=.." of each row of a block, in row order."""
    return [f" v={v} beta1={b}" for v in _vs(g) for b in _odd_values(g.beta1_max)]


def _flag_block(head: str, tails: list[str], e: int, base: int, c: int, g: LemmaGrid) -> _Rows:
    """An _exact_flags block of vs1, cando, tv, tv2 or sl3; row i is
    labelled head + tails[i]."""
    return [head + tail for tail in tails], _exact_flags(e, base, c, g.v_max, g.beta1_max)


def _kernel_walk(specs: Callable[[], Iterable[tuple]], bit_cap: int | None) -> tuple:
    """f or v10 over specs(), (template, k, table, spec) in row order, which
    takes each k through its rule. Its corner and rows are empty: its
    admission is one walk of _guard, which lists no power and refuses a
    spec's first refused point itself, run in place of the k rules and
    yielding no k. Its blocks run the batch kernel, which re-checks what it
    finds, a _split task at a time. A row passes when its point does not
    divide; its label is template with k, alpha, p and beta filled in by
    position (by keyword, they cost v10 about a tenth of its time)."""

    def guarded() -> Iterator[int]:
        for _, k, table, spec in specs():
            _guard(k, table, [spec], bit_cap)
        yield from ()

    def blocks() -> Iterator[_Rows]:
        for template, k, table, spec in specs():
            label = template.format(k=k, p="{0}", beta="{1}", alpha="{2}")
            for task in _split(table, [spec]):
                points, flags, _ = _check_task((k, task))
                yield list(starmap(label.format, _block_points(points))), list(map(not_, flags))

    return (), guarded(), (), blocks()


def _prime_walk(g: LemmaGrid, rule, residue: int, has_rows, powers, blocks_of, wide=None) -> tuple:
    """tv, tv2, u1, v3 or trichotomy over the primes below p_max that are
    residue mod 4, sieved once unless a block has no rows, p-major; p's own
    work is done once, in blocks_of(p), which gives its block at each k. The
    powers(p, k) grow with p and are widest at an end of k, so the corner is
    the largest prime's at both ends, or what wide(p, k) bounds them by."""
    primes = _residue_primes(primes_upto(g.p_max - 1), residue) if has_rows else ()
    ks = g.k_values if primes else ()
    corner = (pw for k in (min(ks), max(ks)) for pw in (wide or powers)(primes[-1], k)) if ks else ()
    rows = (pw for p in primes for k in map(rule, ks) for pw in powers(p, k))
    return corner, ks, rows, (block(k) for block in map(blocks_of, primes) for k in ks)


def _cando_rows(g: LemmaGrid, rule, tails: list[str] | None = None) -> tuple:
    # check_cando: 2**(v+k) || (2**k - 1)**(beta * k) - 1 at beta = 2**v * beta1,
    # the base k bits wide; vs1, its beta = 2 row, passes its label tails
    vs, beta1s = _vs(g), _odd_values(g.beta1_max)
    if tails is None:
        tails = [f" beta={b << v}" for v in vs for b in beta1s]
    ks = g.k_values if tails else ()
    corner = _flag_powers(max(ks), max(ks), vs[-1:], beta1s[-1:]) if ks else ()
    rows = (pw for k in map(rule, ks) for pw in _flag_powers(k, k, vs, beta1s))
    return corner, ks, rows, (_flag_block(f"k={k}", tails, k, (1 << k) - 1, k, g) for k in ks)


def _appr_rows(g: LemmaGrid, rule, appr2: bool = False) -> tuple:
    # check_appr at each u and each alpha1 coprime to 2**k - 1, one k block
    # each; appr2's check_appr2_bound, one row per k, is check_appr's u = 0, alpha1 = 1
    us, alpha1s = (range(1), range(1, 2)) if appr2 else (range(g.u_max + 1), range(1, g.alpha1_max + 1))
    ks = g.k_values if us and alpha1s else ()

    def pairs(k: int) -> list[tuple[int, int]]:
        return list(product(us, [a for a in alpha1s if _coprime_to_2k_minus_1(a, k)]))

    def block(k: int) -> _Rows:
        if appr2:
            return [f"k={k}"], [check_appr2_bound(k, g.bit_cap)]
        cells = pairs(k)
        labels = [f"k={k} u={u} alpha1={alpha1}" for u, alpha1 in cells]
        return labels, [check_appr(k, u, alpha1, g.bit_cap) for u, alpha1 in cells]

    corner = _appr_powers(max(ks), [(us[-1], alpha1s[-1])], g.bit_cap) if ks else ()
    rows = (pw for k in map(rule, ks) for pw in _appr_powers(k, pairs(k), g.bit_cap))
    return corner, ks, rows, map(block, ks)


def _tv_rows(g: LemmaGrid, rule, residue: int) -> tuple:
    # check_tv (residue 1): 2**(t+v) || p**(2**v * beta1 * k) - 1, t = v2(p - 1);
    # check_tv2 (residue 3): 2**(v+s-1) || the same, s = v2(p**2 - 1)
    tails, vs, beta1s = _block_tails(g), _vs(g), _odd_values(g.beta1_max)

    def blocks_of(p: int):
        e = v2(p - 1) if residue == 1 else v2(p * p - 1) - 1
        return lambda k: _flag_block(f"p={p} k={k}", tails, e, p, k, g)

    powers = lambda p, k: _flag_powers(p.bit_length(), k, vs, beta1s)
    return _prime_walk(g, rule, residue, tails, powers, blocks_of)


def _sl3_rows(g: LemmaGrid, rule) -> tuple:
    # check_sl3: 2**(lam+v) || (2**lam * p1 - 1)**(2**v * beta1) - 1
    tails, vs, beta1s = _block_tails(g), _vs(g), _odd_values(g.beta1_max)
    heads = list(product(range(2, g.lambda_max + 1), _odd_values(g.p1_max)))
    bits = [((p1 << lam) - 1).bit_length() for lam, p1 in heads]
    corner = _flag_powers(max(bits), 1, vs[-1:], beta1s[-1:]) if bits else ()
    rows = (pw for b in bits for pw in _flag_powers(b, 1, vs, beta1s))
    blocks = (_flag_block(f"lam={lam} p1={p1}", tails, lam, (p1 << lam) - 1, 1, g) for lam, p1 in heads)
    return corner, (), rows, blocks


def _f_rows(g: LemmaGrid, rule) -> tuple:
    # one spec per k, at its one prime p = 2**k - 1
    alphas, betas = range(2, g.alpha_max + 1), range(2, g.beta_max + 1)
    ks, spec = g.k_values if alphas and betas else (), (alphas, range(1), betas)
    label = "k={k} alpha={alpha} beta={beta}"
    return _kernel_walk(lambda: ((label, k, [(1 << k) - 1], spec) for k in map(rule, ks)), g.bit_cap)


def _v10_rows(g: LemmaGrid, rule) -> tuple:
    # one sieve at alpha_max, made once the remainder-table candidates are
    # past; each alpha's p-bound primes are a prefix
    candidates = lemma41_candidates()
    residue3 = cache(lambda: _residue_primes(_p_bound_primes(g.alpha_max), 3))
    alphas, beta4 = range(2, g.alpha_max + 1), range(4, 5)

    def specs() -> Iterator[tuple]:
        for f in candidates:
            spec = (range(f.alpha, f.alpha + 1), range(1), beta4)
            yield "candidate alpha={alpha} p={p}", 5, [f.p], spec
        for alpha in alphas:  # none, and no sieve, below alpha_max 2
            table = residue3()
            cut = bisect_right(table, (3 << alpha - 1) - 2)
            yield "alpha={alpha} p={p}", 5, table, (range(alpha, alpha + 1), range(cut), beta4)

    return _kernel_walk(specs, g.bit_cap)


def _bound_rows(g: LemmaGrid, rule, residue: int) -> tuple:
    # bound_u1 (residue 1) or bound_v3 (residue 3), one (p, k) block of v's each
    vs, tails = _vs(g), [f" v={v}" for v in _vs(g)]

    def block(p: int, k: int) -> _Rows:
        values = ["holds" if _bound_row(p, k, v) else "fails" for v in vs]
        return [f"p={p} k={k}" + tail for tail in tails], values

    powers = lambda p, k: _bound_powers(p, k, vs)
    return _prime_walk(g, rule, residue, vs, powers, lambda p: partial(block, p))


def _trichotomy_rows(g: LemmaGrid, rule) -> tuple:
    # trichotomy_3mod4 at beta = 2**v, one (p, k) block of v's each; a
    # block's scenarios depend only on (v2(p + 1), k, p == k), and v2(p + 1)
    # is at most p's bit length, reached at a Mersenne p
    betas, tails = [1 << v for v in _vs(g)], [f" beta={1 << v}" for v in _vs(g)]

    @cache
    def outcomes(lam: int, k: int, p_is_k: bool) -> list[str]:
        sets = (_scenarios(lam, k, beta, p_is_k) for beta in betas)
        return [",".join(sorted(s.value for s in ss)) or "NONE" for ss in sets]

    def blocks_of(p: int):
        lam = v2(p + 1)
        return lambda k: ([f"p={p} k={k}" + tail for tail in tails], outcomes(lam, k, p == k))

    powers = lambda p, k: _scenario_powers(v2(p + 1), k, betas)
    wide = lambda p, k: _scenario_powers(p.bit_length(), k, betas)
    return _prime_walk(g, rule, 3, betas, powers, blocks_of, wide)


# tag -> (maker, proved, the _require_k kind of its k rule), in LEMMA_TAGS
# order; sl3 and v10 take no k; vs1 is cando's beta = 2 row, labelled by k
# alone. Makers look checkers up at call time, so rebinding a global reaches them.
_LEMMAS = dict(zip(LEMMA_TAGS, (
    (lambda g, rule: _cando_rows(g._replace(v_max=1, beta1_max=1), rule, [""]), True, "odd"),  # vs1
    (_cando_rows, True, "odd"),
    (_appr_rows, True, "odd"),
    (lambda g, rule: _appr_rows(g, rule, appr2=True), True, "odd"),  # appr2
    (lambda g, rule: _tv_rows(g, rule, 1), True, "odd"),  # tv
    (lambda g, rule: _tv_rows(g, rule, 3), True, "odd"),  # tv2
    (_sl3_rows, True, None),
    (_f_rows, True, "mersenne"),
    (_v10_rows, True, None),
    (lambda g, rule: _bound_rows(g, rule, 1), False, "odd"),  # u1
    (lambda g, rule: _bound_rows(g, rule, 3), False, "odd"),  # v3
    (_trichotomy_rows, False, "prime"),
), strict=True))


def _outcomes(tag: str, proved: bool, blocks: Iterator[_Rows]) -> Iterator[tuple]:
    """blocks with their outcomes, refusing at their end a grid that had no
    rows: nothing has been written then."""
    empty = True
    for labels, values in blocks:
        empty = empty and not values
        if proved:
            yield labels, ["pass" if ok else "FAIL" for ok in values], values
        else:
            yield labels, values, [None] * len(values)
    if empty:
        raise ValueError(f"the {tag} grid has no rows; widen its parameters")


def lemma_blocks(tag: str, grid: LemmaGrid) -> tuple[bool, Iterator[tuple]]:
    """Whether tag is a proved statement, and its grid as a stream of
    blocks (labels, outcomes, oks) in row order, the rows of one kernel call
    each: a proved tag's rows pass or FAIL, with oks their bools; an
    informational tag's outcome is its value, with oks None.

    Every refusal comes before the first block: a repeated exponent in
    k_values, unless the tag takes no k; grids past the limits in
    _GRID_LIMITS (prime sieves, and beta1_max, lambda_max, p1_max, beta_max,
    u_max, alpha1_max and v_max), before any sieving; then admission from
    the grid's corner: past a passing corner only each k's tag rule runs,
    once, in k_values order (for f and v10, the scans' _guard over each
    spec), and only a refused one has the rows checked, in row order, each
    k's rule at its first block, for the refusal a row-by-row check would
    raise first. The stream is the grid's one walk; a grid with no rows is
    refused at its end, and only a cross-check failure can stop it midway.
    """
    if tag not in _LEMMAS:
        raise ValueError(f"unknown lemma tag {tag!r}; expected one of {', '.join(LEMMA_TAGS)}")
    make, proved, kind = _LEMMAS[tag]
    if kind:
        _refuse_repeated(grid.k_values, "the grid's k values")
    _refuse_oversized("lemma grid", **{n: getattr(grid, n) for n in _GRID_LIMITS if n in grid._fields})
    rule = cache(partial(_require_k, kind=kind))
    corner, ks, rows, blocks = make(grid, rule)
    try:
        _guard_all(corner, grid.bit_cap)
    except OperandSizeError:  # the first refused row raises; none may, as the corner only bounds them
        _guard_all(rows, grid.bit_cap)
    else:
        for k in ks:
            rule(k)
    return proved, _outcomes(tag, proved, blocks)


def run_lemma_grid(tag: str, grid: LemmaGrid) -> list[GridRow]:
    """Evaluate one lemma tag over its sampled grid: every row of
    lemma_blocks, refused as it refuses.

    Tags vs1, cando, appr, appr2, tv, tv2, sl3, f and v10 are proved
    statements: every row must pass. Tags u1, v3 and trichotomy evaluate
    parameter-dependent bounds and are informational.
    """
    _, blocks = lemma_blocks(tag, grid)
    return [row for block in blocks for row in map(GridRow, *block)]
