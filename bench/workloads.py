"""The four benchmark workloads: inputs, one pass of work, and output checks.

The parent process (run.py) imports this module to build commands and
check outputs. Run as a script, it is the child that performs one pass of
a workload in a fresh interpreter, optionally traced, and prints one JSON
object as its last stdout line:

    python3 bench/workloads.py --workload equivalence --seed 1 --workers 1

A request is the unit a client waits on and the unit failures are counted
in: one `sigmaperfect search` run, one `equivalence_scan` call, one
`check-lemma TAG` run or one `sigmaperfect sigma N K` query. Requests are
timed with time.perf_counter (CLOCK_MONOTONIC, shared with the parent),
so that the parent can take out the time it held the child stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# ---------------------------------------------------------------------------
# search-k5: the headline classification, run through the CLI.
# ---------------------------------------------------------------------------

SEARCH_ARGS = ("search", "--k", "5", "--alpha-max", "15", "--beta-max", "16")
SEARCH_SOLUTIONS = ["6", "28", "8128", "33550336"]
SEARCH_POINTS = 165_240
SEARCH_PRUNED = 149_664

# ---------------------------------------------------------------------------
# equivalence: derive_conditions against divides_sigma on every small form.
# ---------------------------------------------------------------------------

EQ_LIMIT = 3_000_000
EQ_KS = (3, 5, 7)
EQ_PAIRS = 731_910

# ---------------------------------------------------------------------------
# lemma-oracles: every check-lemma tag over a widened grid. appr and appr2
# stop at k = 7 because k = 13 exceeds the default operand bit cap.
# ---------------------------------------------------------------------------

LEMMA_FLAGS = (
    "--p-max", "1500", "--v-max", "6", "--beta1-max", "11", "--lambda-max", "8",
    "--p1-max", "31", "--alpha-max", "12", "--beta-max", "10",
)
LEMMA_SMALL_K = ("appr", "appr2")
# tag -> outcome histogram over its rows, pinned at the seed commit.
LEMMA_EXPECTED = {
    "vs1": {"pass": 4},
    "cando": {"pass": 144},
    "appr": {"pass": 24},
    "appr2": {"pass": 3},
    "tv": {"pass": 16704},
    "tv2": {"pass": 17568},
    "sl3": {"pass": 4032},
    "f": {"pass": 396},
    "v10": {"pass": 916},
    "u1": {"holds": 185, "fails": 2599},
    "v3": {"holds": 1614, "fails": 1314},
    "trichotomy": {
        "p=k,scenario-2,scenario-3": 2,
        "p=k,scenario-3": 3,
        "p=k": 7,
        "scenario-2,scenario-3": 486,
        "scenario-3": 1157,
        "NONE": 1273,
    },
}
LEMMA_TAGS = tuple(LEMMA_EXPECTED)
LEMMA_ROWS = sum(sum(h.values()) for h in LEMMA_EXPECTED.values())

# ---------------------------------------------------------------------------
# sigma-queries: the `sigmaperfect sigma N K` path, the only user of
# sigma.factorize. Trial division makes a prime or balanced semiprime near
# 5 * 10**12 the worst case (about 0.1-0.2 s); n near 10**18 would take
# minutes and is deliberately out of range.
# ---------------------------------------------------------------------------

QUERY_COUNT = 500
QUERY_MIX = {"prime": 5, "semiprime": 5, "perfect": 15}  # the rest are random
HEAVY_LO, HEAVY_HI = 49 * 10**11, 51 * 10**11
# Random n stay below 10**11 so that they never reach the worst-case band:
# otherwise the number of random 12- and 13-digit primes, which changes with
# the seed, would move the pass time and the tail latency.
RANDOM_DIGITS = 11
PERFECT_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31)
ENUMERATION_LIMIT = 10**6


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with bases that are exact below 3.3 * 10**24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    if n % 2 == 0:
        return 2
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factor(n: int, rng: random.Random) -> dict[int, int]:
    """Factorization by Pollard rho, independent of the program's factorize."""
    out: dict[int, int] = {}
    pending = [n]
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        pending += [d, m // d]
    return out


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        x = rng.randrange(lo, hi) | 1
        if _is_probable_prime(x):
            return x


def sigma_queries(seed: int) -> list[tuple[int, int, dict[int, int] | None]]:
    """(n, k, known factorization or None) for one pass, fixed by the seed.

    The mix has a fixed composition and the worst-case band is narrow, so
    every seed puts inputs of the same cost in the tail: 5 primes and 5
    balanced semiprimes between 4.9 * 10**12 and 5.1 * 10**12, 15 even
    perfect numbers, and random n below 10**11 with a uniformly drawn digit
    count (so about half are at most 10**6).
    """
    rng = random.Random(seed)
    kinds = ["random"] * (QUERY_COUNT - sum(QUERY_MIX.values()))
    for kind, count in QUERY_MIX.items():
        kinds += [kind] * count
    rng.shuffle(kinds)
    root_lo, root_hi = math.isqrt(HEAVY_LO) + 1, math.isqrt(HEAVY_HI)
    out = []
    for kind in kinds:
        k = rng.randint(1, 7)
        if kind == "prime":
            n = _random_prime(rng, HEAVY_LO, HEAVY_HI)
            out.append((n, k, {n: 1}))
        elif kind == "semiprime":
            p, q = _random_prime(rng, root_lo, root_hi), _random_prime(rng, root_lo, root_hi)
            out.append((p * q, k, {p: 2} if p == q else {p: 1, q: 1}))
        elif kind == "perfect":
            e = rng.choice(PERFECT_EXPONENTS)
            out.append(((1 << (e - 1)) * ((1 << e) - 1), k, {2: e - 1, (1 << e) - 1: 1}))
        else:
            digits = rng.randint(1, RANDOM_DIGITS)
            out.append((rng.randrange(10 ** (digits - 1), 10**digits), k, None))
    return out


def expected_sigma(n: int, k: int, factors: dict[int, int] | None, rng: random.Random) -> int:
    """sigma_k(n) by divisor enumeration up to 10**6, else from factors."""
    if n <= ENUMERATION_LIMIT:
        total = 0
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                total += d**k
                if d * d != n:
                    total += (n // d) ** k
        return total
    if factors is None:
        factors = factor(n, rng)
    for q in factors:
        if not _is_probable_prime(q):
            raise RuntimeError(f"factor {q} of {n} is not prime")
    if math.prod(q**e for q, e in factors.items()) != n:
        raise RuntimeError(f"factors of {n} do not multiply back")
    return math.prod(sum(q ** (i * k) for i in range(e + 1)) for q, e in factors.items())


def sigma_output(n: int, k: int, value: int) -> str:
    residue = value % n
    return (
        f"sigma_{k}({n}) = {value}\n"
        f"sigma_{k}({n}) mod {n} = {residue}\n"
        f"{n} divides sigma_{k}({n}): {'yes' if residue == 0 else 'no'}\n"
    )


# ---------------------------------------------------------------------------
# Workload table.
# ---------------------------------------------------------------------------

WORKLOADS = {
    "search-k5": {
        "items": SEARCH_POINTS,
        "roots": {"classify.classify_point"},
        "two_clients": False,
    },
    "equivalence": {
        "items": EQ_PAIRS,
        "roots": {"classify.derive_conditions", "sigma.divides_sigma"},
        "two_clients": False,
    },
    "lemma-oracles": {
        "items": LEMMA_ROWS,
        "roots": {
            "classify.check_lemma_f",
            "classify.lemma41_candidates",
            "sigma.divides_sigma",
            *(f"valuations.{name}" for name in (
                "check_vs1", "check_cando", "check_appr", "check_appr2_bound", "check_tv",
                "check_tv2", "check_sl3", "bound_u1", "bound_v3", "trichotomy_3mod4",
            )),
        },
        "two_clients": True,
    },
    "sigma-queries": {
        "items": QUERY_COUNT,
        "roots": {"cli.main"},
        "two_clients": True,
    },
}

# Spans are kept for about this many requests per traced pass.
TRACE_SAMPLE_REQUESTS = 2000


def trace_sample_rate(workload: str) -> float:
    items = WORKLOADS[workload]["items"]
    return min(1.0, TRACE_SAMPLE_REQUESTS / items)


# ---------------------------------------------------------------------------
# Child side: one pass in this process.
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    from sigmaperfect import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_pass(workload: str, seed: int, workers: int, part: int, parts: int) -> dict:
    """Do one pass (or one client's share of it) and return raw outputs."""
    if workload == "search-k5":
        rc, text = _cli([*SEARCH_ARGS, "--workers", str(workers)])
        return {"rc": rc, "stdout": text}
    if workload == "equivalence":
        from sigmaperfect.classify import CrossCheckError, equivalence_scan
        from sigmaperfect.exactint import OperandSizeError

        try:
            return {"pairs": equivalence_scan(EQ_LIMIT, EQ_KS, workers=workers)}
        except (CrossCheckError, OperandSizeError) as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
    if workload == "lemma-oracles":
        tags = []
        for tag in LEMMA_TAGS[part::parts]:
            ks = "3,5,7" if tag in LEMMA_SMALL_K else "3,5,7,13"
            start = time.perf_counter()
            rc, text = _cli(["check-lemma", tag, "--k", ks, *LEMMA_FLAGS])
            end = time.perf_counter()
            lines = text.splitlines()
            outcomes = Counter(line.rsplit(": ", 1)[-1] for line in lines[:-1])
            tags.append({
                "tag": tag, "rc": rc, "t0": start, "t1": end, "outcomes": outcomes,
                "summary": lines[-1] if lines else "",
            })
        return {"tags": tags}
    if workload == "sigma-queries":
        queries = []
        for n, k, _ in sigma_queries(seed)[part::parts]:
            start = time.perf_counter()
            rc, text = _cli(["sigma", str(n), str(k)])
            queries.append({"rc": rc, "t0": start, "t1": time.perf_counter(), "out": text})
        return {"queries": queries}
    raise ValueError(f"unknown workload {workload!r}")


def _child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="run one pass of a benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import sigmaperfect

    if Path(sigmaperfect.__file__).resolve().parent != (SRC / "sigmaperfect").resolve():
        print(f"imported sigmaperfect from {sigmaperfect.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(WORKLOADS[args.workload]["roots"], trace_sample_rate(args.workload), args.seed)
        tracer.install()
    result = run_pass(args.workload, args.seed, args.workers, args.part, args.parts)
    if tracer is not None:
        result["trace"] = tracer.summary()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        result["trace"]["spans_path"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
