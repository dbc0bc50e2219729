import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from array import array
from collections.abc import Iterator
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import sigmaperfect.classify as classify
import sigmaperfect.primality as primality
import sigmaperfect.valuations as valuations
from sigmaperfect.classify import (
    PRUNE_ORDER,
    CrossCheckError,
    GridStats,
    classify_point,
    check_lemma_f,
    derive_conditions,
    equivalence_scan,
    expected_even_perfect,
    lemma41_candidates,
    run_lemma_grid,
    scan_special_forms,
    search,
    verify_lemma410,
)
from sigmaperfect.cli import main
from sigmaperfect.exactint import DEFAULT_BIT_CAP, OperandSizeError, _guard_all, checked_pow, geometric_sum
from sigmaperfect.primality import primes_upto
from sigmaperfect.sigma import SpecialForm, divides_sigma, is_even_perfect, sigma_k
from sigmaperfect.valuations import (
    LemmaGrid,
    bound_u1,
    bound_v3,
    check_appr,
    check_appr2_bound,
    check_cando,
    check_sl3,
    check_tv,
    check_tv2,
    trichotomy_3mod4,
    v2,
)

SRC = str(Path(classify.__file__).resolve().parents[1])


def _run_python(code: str) -> str:
    """Run code in a fresh interpreter that imports this sigmaperfect;
    return its stdout, which goes to a pipe and so is block-buffered."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return proc.stdout


def test_derive_conditions_frozen_values():
    both = derive_conditions(SpecialForm(alpha=3, p=7, beta=2, k=5))  # n = 28
    assert both.cond_k1_holds and both.cond_k2_holds

    failing = derive_conditions(SpecialForm(alpha=5, p=31, beta=2, k=5))  # n = 496
    assert failing.cond_k1_holds and not failing.cond_k2_holds
    assert geometric_sum(1 << 5, 5) % 31 == 5  # (2^25 - 1)/31 = 1082401 = 5 mod 31

    odd_beta = derive_conditions(SpecialForm(alpha=3, p=7, beta=3, k=5))
    assert not odd_beta.cond_k1_holds


def test_conditions_equal_direct_divisibility_sampled():
    rng = random.Random(99)
    odd_primes = [p for p in primes_upto(80) if p > 2]
    for _ in range(150):
        f = SpecialForm(
            alpha=rng.randrange(2, 7),
            p=rng.choice(odd_primes),
            beta=rng.randrange(2, 6),
            k=rng.choice((2, 3, 5, 7, 13)),
        )
        conditions = derive_conditions(f)
        assert (conditions.cond_k1_holds and conditions.cond_k2_holds) == divides_sigma(f)
        if conditions.cond_k1_holds:
            assert f.beta % 2 == 0


def test_equivalence_scan_small():
    assert equivalence_scan(10**4, ks=(3, 5)) > 0
    with pytest.raises(ValueError):
        equivalence_scan(4)


def _block_points(blocks):
    """(alpha, p, beta) of every point of a kernel batch, in its flag order:
    block by block, and alpha-major within a block."""
    return [
        (alpha, p, beta) for b in blocks for alpha in b.alphas for beta in b.betas for p in b.ps
    ]


_SMALL_PRIMES = primes_upto(400)[1:]


@settings(max_examples=60, deadline=None)
# solutions at (2, 3, 2, 5), n = 6, and at (5, 31, 2, 3), n = 496
@example(k=5, first=2, width=3, ps=[3, 5], beta_lo=2, beta_count=3)
@example(k=3, first=2, width=4, ps=[3, 7, 31], beta_lo=2, beta_count=3)
@given(
    k=st.sampled_from((2, 3, 5, 7, 13)),
    first=st.integers(2, 9),
    width=st.integers(1, 5),
    ps=st.lists(st.sampled_from(_SMALL_PRIMES), max_size=6, unique=True).map(sorted),
    beta_lo=st.integers(2, 9),
    beta_count=st.integers(1, 6),
)
def test_block_builder_matches_the_reference_at_every_point(
    k, first, width, ps, beta_lo, beta_count
):
    alphas, betas = range(first, first + width), range(beta_lo, beta_lo + beta_count)
    block = classify._block(k, alphas, ps, betas)
    assert block == (alphas, ps, betas, [p**k for p in ps])
    divides = classify._direct_block(k, [block])
    cond1, cond2 = classify._conditions_block(k, [block])
    flags = zip(_block_points([block]), divides, cond1, cond2, strict=True)
    for (alpha, p, beta), d, c1, c2 in flags:
        f = SpecialForm(alpha=alpha, p=p, beta=beta, k=k)
        reference = derive_conditions(f)
        assert (d, c1, c2) == (
            divides_sigma(f), reference.cond_k1_holds, reference.cond_k2_holds
        ), f


# primes with a large v2(p - 1), where condition 1's 2-adic modulus is
# widest, and Mersenne primes, where v2(p + 1) is
_TWO_ADIC_PRIMES = (17, 257, 65537, 40961, 3, 7, 31, 127, 8191, 131071, 524287)


@settings(max_examples=80, deadline=None)
@example(k=1, p=65537, beta=64, top=7)  # q**64 = 1 modulo 2**(6 + 16): the residue is 1
@example(k=1, p=65537, beta=64, top=8)  # and 1 + 2**22 modulo 2**(7 + 16)
@example(k=4, p=40961, beta=32, top=24)
@example(k=13, p=524287, beta=64, top=24)
@given(
    k=st.sampled_from((1, 2, 3, 4, 5, 7, 13)),
    p=st.sampled_from(_SMALL_PRIMES) | st.sampled_from(_TWO_ADIC_PRIMES),
    beta=st.integers(2, 64),
    top=st.integers(2, 24),
)
def test_condition1_on_two_adic_residues_matches_the_full_modulus(k, p, beta, top):
    # one row over alpha = 2 .. top; SpecialForm refuses k = 1 and even k,
    # which equivalence_scan accepts, and derive_conditions reads only the
    # four fields
    alphas = range(2, top + 1)
    block = classify._block(k, alphas, [p], range(beta, beta + 1))
    cond1, _ = classify._conditions_block(k, [block])
    for alpha, c1 in zip(alphas, cond1, strict=True):
        full = pow(p, beta * k, (p**k - 1) << (alpha - 1)) == 1
        reference = derive_conditions(SimpleNamespace(alpha=alpha, p=p, beta=beta, k=k))
        assert c1 == full == reference.cond_k1_holds, (alpha, p, beta, k)


def test_condition1_residues_are_two_adic():
    # q = 65537 has v = v2(q - 1) = 16, so q**beta is kept modulo 2**(top - 1 + 16):
    # q**64 is 1 modulo 2**22, and condition 1 holds at every alpha to 7 ...
    block = classify._block(1, range(2, 8), [65537], range(64, 65))
    assert list(map(bool, classify._conditions_block(1, [block])[0])) == [True] * 6
    # ... but 1 + 2**22 modulo 2**23, and it fails at alpha = 8 alone
    block = classify._block(1, range(2, 9), [65537], range(64, 65))
    assert list(map(bool, classify._conditions_block(1, [block])[0])) == [True] * 6 + [False]
    # at k = 5, condition 1 holds exactly where alpha - 1 <= v2(x - 1) - v,
    # with x = q**beta modulo 2**(14 + v), from beta 2 and from beta 9 on
    blocks = [
        classify._block(5, range(2, 16), [3, 5, 7], range(2, 17)),
        classify._block(5, range(2, 16), [3, 5, 7], range(9, 17)),
    ]
    cond1, _ = classify._conditions_block(5, blocks)
    for (alpha, p, beta), c1 in zip(_block_points(blocks), cond1, strict=True):
        v = v2(p**5 - 1)
        x = p ** (5 * beta) % (1 << 14 + v)
        assert c1 == (x == 1 or alpha - 1 <= v2(x - 1) - v), (alpha, p, beta)


# Mersenne primes keep condition 1 past alpha 255 at even beta: 2**(alpha-1)
# divides (q**beta - 1)/(q - 1) up to alpha = 521 + v2(beta) for odd k
_WIDE_PRIMES = [*_SMALL_PRIMES[:20], 257, 65537, (1 << 127) - 1, (1 << 521) - 1]


@settings(max_examples=60, deadline=None)
@example(k=5, first=250, width=12, ps=[3, 17, (1 << 521) - 1], beta_lo=2, beta_count=3)
@example(k=4, first=2, width=8, ps=[3, 65537, (1 << 127) - 1], beta_lo=2, beta_count=4)
@given(
    k=st.sampled_from((1, 2, 3, 4, 5, 7, 13)),
    first=st.integers(2, 300),
    width=st.integers(2, 12),
    ps=st.lists(st.sampled_from(_WIDE_PRIMES), min_size=1, max_size=4, unique=True).map(sorted),
    beta_lo=st.integers(2, 9),
    beta_count=st.integers(2, 4),
)
def test_condition_planes_match_the_reference_at_wide_alphas(k, first, width, ps, beta_lo, beta_count):
    # a block's condition-1 counts are measured from its first alpha, so they
    # stay bytes wherever it starts; every flag is a 0 or 1 byte
    alphas, betas = range(first, first + width), range(beta_lo, beta_lo + beta_count)
    blocks = [classify._block(k, alphas, ps, betas)]
    cond1, cond2 = classify._conditions_block(k, blocks)
    assert type(cond1) is type(cond2) is bytearray and set(cond1 + cond2) <= {0, 1}
    for (alpha, p, beta), c1, c2 in zip(_block_points(blocks), cond1, cond2, strict=True):
        reference = derive_conditions(SimpleNamespace(alpha=alpha, p=p, beta=beta, k=k))
        assert (c1, c2) == (reference.cond_k1_holds, reference.cond_k2_holds), (alpha, p, beta, k)


@pytest.mark.parametrize(
    "scan, point, message",
    [
        (
            lambda: scan_special_forms(5, 4, 2),
            (3, 5, 2),
            "(3, 5, 2, 5): sigma_k(n) % n = 2 for n = 20",
        ),
        (
            lambda: equivalence_scan(1000, ks=(5,)),
            (2, 3, 4),
            "(2, 3, 4, 5): sigma_k(n) % n = 6 for n = 54",
        ),
        (  # the quartic pruner rules this point out, but sigma_k runs first
            lambda: scan_special_forms(5, 4, 6),
            (2, 3, 4),
            "(2, 3, 4, 5): sigma_k(n) % n = 6 for n = 54",
        ),
        (  # a caller that runs one task itself gets the re-check for free
            lambda: classify._check_task((5, [(range(2, 3), [3], range(4, 5))])),
            (2, 3, 4),
            "(2, 3, 4, 5): sigma_k(n) % n = 6 for n = 54",
        ),
    ],
    ids=["search", "equivalence", "search-pruned-point", "kernel-runner"],
)
def test_scans_recheck_each_found_solution_with_sigma_k(scan, point, message):
    # both routes claim a point divides, so they agree; sigma_k, from the
    # point's labels, rejects it before any pruner verdict is read
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_direct_block", point, [True])
        _lie_at(m, "_conditions_block", point, [True, True])
        with pytest.raises(CrossCheckError) as exc:
            scan()
    assert str(exc.value) == "sigma_k rejects a found solution at (alpha, p, beta, k) = " + message


@pytest.mark.parametrize(
    "scan, message",
    [
        (lambda: scan_special_forms(5, 12, 8), "10206 points, but the search grid has 12418"),
        (lambda: equivalence_scan(20_000), "7680 points, but the equivalence scan has 8610"),
    ],
    ids=["search", "equivalence"],
)
def test_scans_check_their_point_total(scan, message, monkeypatch):
    real = classify._split
    monkeypatch.setattr(classify, "_split", lambda table, specs: real(table, specs)[:-1])
    with pytest.raises(CrossCheckError) as exc:
        scan()
    assert str(exc.value) == "the kernel checked " + message


@pytest.mark.parametrize(
    "scan, message",
    [
        (lambda: scan_special_forms(5, 12, 8), "74508, but the search grid's to 62090"),
        (lambda: equivalence_scan(20_000), "26649, but the equivalence scan's to 18039"),
    ],
    ids=["search", "equivalence"],
)
def test_scans_check_their_beta_total(scan, message, monkeypatch):
    # every spec one beta up: the point totals hold, and each point is labelled
    # as the routes decide it, so only the beta total can catch it
    real = classify._split

    def shifted(table, specs):
        tasks = real(table, specs)
        return [[(a, ps, range(b.start + 1, b.stop + 1)) for a, ps, b in t] for t in tasks]

    monkeypatch.setattr(classify, "_split", shifted)
    with pytest.raises(CrossCheckError) as exc:
        scan()
    assert str(exc.value) == "the kernel's points sum to beta = " + message


def test_equivalence_scan_trips_on_lying_direct_route(monkeypatch):
    monkeypatch.setattr(
        classify, "_direct_block", lambda k, blocks: [True] * len(_block_points(blocks))
    )
    with pytest.raises(
        CrossCheckError,
        match=r"disagree .* \(alpha, p, beta, k\) = \(3, 3, 2, 5\): "
        r"divides=True, cond1=True, cond2=False",
    ):
        equivalence_scan(100, ks=(5,))


def test_equivalence_scan_trips_on_odd_beta_first_condition(odd_beta_first_condition_row):
    with pytest.raises(
        CrossCheckError,
        match=r"odd beta at \(alpha, p, beta, k\) = \(2, 3, 3, 5\): cond1=True, cond2=False",
    ):
        equivalence_scan(100, ks=(5,))


def test_equivalence_scan_refuses_oversized_limit_before_sieving(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(classify, "primes_upto", no_sieve)
    for n_limit in ((3 << classify.MAX_SCAN_ALPHA) + 1, 10**10):
        with pytest.raises(ValueError, match="equivalence scan's limit"):
            equivalence_scan(n_limit)


def test_equivalence_scan_refuses_repeated_and_nonpositive_exponents_before_sieving(
    monkeypatch,
):
    # a repeated exponent would be counted twice; k = 0 and k < 0 used to
    # fail after the sieve, inside geometric_sum and on a negative shift
    assert equivalence_scan(100, (5,)) == 36

    def no_sieve(limit):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(classify, "primes_upto", no_sieve)
    for ks, message in (
        ((5, 5), "exponent k=5 is repeated in the scan's exponents"),
        ((3, 7, 3, 7), "exponent k=3 is repeated in the scan's exponents"),
        ((0,), "exponent k=0 is below 1 in the scan's exponents"),
        ((5, -3), "exponent k=-3 is below 1 in the scan's exponents"),
    ):
        with pytest.raises(ValueError) as exc:
            equivalence_scan(100, ks)
        assert str(exc.value) == message, ks


def test_a_repeated_exponent_is_found_in_linear_time():
    # counting each k in the list took 3.0 s at 16,000 exponents and 13.5 s
    # at 32,000, all before check-lemma's operand-cap refusal
    ks = tuple(range(3, 40_003, 2))  # 20,000 distinct odd exponents
    start = time.perf_counter()
    with pytest.raises(OperandSizeError, match="3-bit base raised to 6 exceeds the 1-bit cap"):
        classify.lemma_blocks("vs1", LemmaGrid(k_values=ks, bit_cap=1))
    repeated = (*ks, 39_999, 17)
    with pytest.raises(ValueError, match="^exponent k=17 is repeated in the grid's k values$"):
        classify.lemma_blocks("vs1", LemmaGrid(k_values=repeated, bit_cap=1))
    with pytest.raises(ValueError, match="^exponent k=17 is repeated in the scan's exponents$"):
        equivalence_scan(100, repeated)
    assert time.perf_counter() - start < 0.5


def test_scans_refuse_bad_grids_and_worker_counts_before_sieving(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(classify, "primes_upto", no_sieve)
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        equivalence_scan(10**4, workers=0)
    for alpha_max, beta_max in ((1, 4), (4, 1)):
        with pytest.raises(ValueError, match="alpha_max and beta_max must be >= 2"):
            scan_special_forms(5, alpha_max, beta_max)
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        scan_special_forms(5, 4, 2, workers=0)


def _forms_upto(n_limit, ks):
    """Every (alpha, p, beta, k) with n = 2**(alpha-1) * p**(beta-1) <= n_limit."""
    forms = set()
    for k in ks:
        for p in primes_upto(n_limit)[1:]:
            beta, p_power = 2, p
            while 2 * p_power <= n_limit:
                alpha = 2
                while (1 << (alpha - 1)) * p_power <= n_limit:
                    forms.add((alpha, p, beta, k))
                    alpha += 1
                beta, p_power = beta + 1, p_power * p
    return forms


@settings(max_examples=25, deadline=None)
@example(n_limit=28, ks=[5], batch_points=classify._BATCH_POINTS)  # exactly on n = 28 = 2**2 * 7
@example(n_limit=27, ks=[5], batch_points=classify._BATCH_POINTS)
@example(n_limit=496, ks=[3], batch_points=5)  # exactly on n = 496 = 2**4 * 31
@example(n_limit=495, ks=[3], batch_points=classify._BATCH_POINTS)
# exactly on n = 8128 = 2**6 * 127
@example(n_limit=8128, ks=[2, 13], batch_points=classify._BATCH_POINTS)
@example(n_limit=8127, ks=[2, 13], batch_points=9)
@given(
    n_limit=st.integers(min_value=6, max_value=30_000),
    ks=st.lists(st.sampled_from((2, 3, 5, 7, 13)), min_size=1, max_size=5, unique=True),
    # a small cap puts batch edges between the small primes, which have several rows
    batch_points=st.integers(min_value=1, max_value=40) | st.just(classify._BATCH_POINTS),
)
def test_equivalence_rows_match_reference(n_limit, ks, batch_points):
    batches = []
    real_direct, real_conditions = classify._direct_block, classify._conditions_block

    def direct(k, blocks):
        divides = real_direct(k, blocks)
        batches.append([divides])
        return divides

    def conditions(k, blocks):
        cond1, cond2 = real_conditions(k, blocks)
        batches[-1] += [k, blocks, cond1, cond2]
        return cond1, cond2

    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "_direct_block", direct)
        m.setattr(classify, "_conditions_block", conditions)
        m.setattr(classify, "_BATCH_POINTS", batch_points)
        count = equivalence_scan(n_limit, ks)
    visited = []
    for divides, k, blocks, cond1, cond2 in batches:
        points = _block_points(blocks)
        for (alpha, p, beta), d, c1, c2 in zip(points, divides, cond1, cond2, strict=True):
            f = SpecialForm(alpha=alpha, p=p, beta=beta, k=k)
            reference = derive_conditions(f)
            assert (d, c1, c2) == (
                divides_sigma(f), reference.cond_k1_holds, reference.cond_k2_holds
            ), f
            visited.append((alpha, p, beta, k))
    forms = _forms_upto(n_limit, ks)
    assert len(visited) == len(set(visited)) and set(visited) == forms
    assert count == len(forms)


def test_equivalence_scan_worker_count_does_not_change_count(monkeypatch):
    solo = equivalence_scan(10**5, ks=(3, 5))
    monkeypatch.setattr(classify, "_BATCH_POINTS", 1000)  # 12 batches per exponent, not 5
    for workers in (1, 2, 3):
        assert equivalence_scan(10**5, ks=(3, 5), workers=workers) == solo


def test_worker_pool_leaves_no_child_process():
    code = """
import os
from sigmaperfect.classify import equivalence_scan
equivalence_scan(10**4, workers=2)
try:
    print(os.waitpid(-1, os.WNOHANG))  # a live or unreaped child
except ChildProcessError:
    print("no child")
"""
    out = _run_python(code)
    assert out.splitlines()[-1] == "no child"


def test_output_before_a_pooled_search_is_written_once():
    # two tasks, so that two workers fork a pool
    code = """
from sigmaperfect.cli import main
print("before the search")
main(["search", "--k", "5", "--alpha-max", "10", "--beta-max", "6", "--workers", "2"])
"""
    lines = _run_python(code).splitlines()
    assert lines.count("before the search") == 1
    assert json.loads(lines[-1])["record"] == "summary"


def test_pool_forks_no_more_workers_than_tasks(monkeypatch):
    context = multiprocessing.get_context("fork")
    sizes = []

    def recording(processes, _real=context.Pool):
        sizes.append(processes)
        return _real(processes)

    monkeypatch.setattr(context, "Pool", recording)
    # one task each, so they run in-process
    assert scan_special_forms(5, 3, 2, workers=64) == scan_special_forms(5, 3, 2)
    assert equivalence_scan(1000, (5,), workers=64) == equivalence_scan(1000, (5,))
    assert sizes == []
    # one task per exponent
    assert equivalence_scan(1000, (3, 5, 7), workers=64) == equivalence_scan(1000, (3, 5, 7))
    assert sizes == [3]


def test_classify_point_cross_check_trips_on_bad_oracle(monkeypatch):
    # force the direct route to lie; the engine must refuse to continue
    monkeypatch.setattr(classify, "divides_sigma", lambda f, bit_cap=None: True)
    with pytest.raises(
        CrossCheckError,
        match=r"disagree .* \(alpha, p, beta, k\) = \(3, 5, 2, 5\): "
        r"divides=True, cond1=False, cond2=False",
    ):
        classify_point(SpecialForm(alpha=3, p=5, beta=2, k=5))


def test_classify_point_trips_on_odd_beta_first_condition(odd_beta_first_condition):
    with pytest.raises(
        CrossCheckError,
        match=r"first condition held with odd beta at "
        r"\(alpha, p, beta, k\) = \(3, 7, 3, 5\): cond1=True, cond2=False",
    ):
        classify_point(SpecialForm(alpha=3, p=7, beta=3, k=5))


def test_classify_point_trips_on_pruned_solution(monkeypatch):
    monkeypatch.setattr(classify, "_pruned_by", lambda f: "u1")
    with pytest.raises(
        CrossCheckError,
        match=r"pruner 'u1' contradicts .* \(alpha, p, beta, k\) = \(3, 7, 2, 5\): divides=True",
    ):
        classify_point(SpecialForm(alpha=3, p=7, beta=2, k=5))


def test_classify_point_outside_p_bound_is_sound():
    # n = 22 is a genuine solution beyond the p-bound: no pruner may fire
    report = classify_point(SpecialForm(alpha=2, p=11, beta=2, k=5))
    assert report.divides and not report.perfect and report.pruned_by is None
    # the quartic pruner is gated on the bound, so this point just evaluates
    report4 = classify_point(SpecialForm(alpha=2, p=11, beta=4, k=5))
    assert report4.pruned_by != "v10"


def test_check_lemma_f_frozen_values():
    assert check_lemma_f(3, 3, 2)  # n = 28 at k = 3
    assert sigma_k(28, 3) % 28 != 0
    assert check_lemma_f(5, 5, 2)  # n = 496 at k = 5
    assert check_lemma_f(3, 4, 4)  # n = 2^3 * 7^3
    assert sigma_k(2**3 * 7**3, 3) % (2**3 * 7**3) != 0
    with pytest.raises(ValueError):
        check_lemma_f(11, 3, 2)  # 2047 is not prime


def test_check_lemma_f_grid():
    for k in (3, 5):
        for alpha in range(2, 7):
            for beta in range(2, 5):
                assert check_lemma_f(k, alpha, beta), (k, alpha, beta)


def test_check_lemma_f_builds_only_its_own_alphas_two_part():
    # one 300,000-bit sum; every alpha from 2 up would hold about 1.9 GB
    tracemalloc.start()
    try:
        assert check_lemma_f(3, 100000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_check_lemma_f_builds_its_2_part_at_the_runs_cap(monkeypatch):
    # (2**3)**400000 is 1,200,000 bits: admitted at a 10**7-bit cap, and the
    # kernel builds its 2-part under that cap, not under the default one
    assert check_lemma_f(3, 400000, 2, bit_cap=10**7)

    def no_kernel(task):
        raise AssertionError("the kernel ran past the default cap")

    monkeypatch.setattr(classify, "_check_task", no_kernel)
    with pytest.raises(OperandSizeError, match="4-bit base raised to 400000 exceeds the 1000000-bit cap"):
        check_lemma_f(3, 400000, 2)


def test_expected_even_perfect():
    assert expected_even_perfect(5, 13) == [6, 28, 8128, 33550336]
    assert expected_even_perfect(3, 13) == [6, 496, 8128, 33550336]
    assert expected_even_perfect(7, 10) == [6, 28, 496]


def test_theorem_beta2_searches():
    for k, alpha_max, ns in (
        (5, 13, [6, 28, 8128, 33550336]),
        (3, 13, [6, 496, 8128, 33550336]),
        (7, 10, [6, 28, 496]),
    ):
        outcome = search(k, alpha_max, 2)
        assert outcome.mode == "theorem" and outcome.matches
        assert [r.form.n() for r in outcome.reports] == ns
    with pytest.raises(ValueError):
        search(11, 8, 2)  # k must give a Mersenne prime


def test_excluded_perfect_never_reported_for_own_k():
    for k, alpha_max in ((3, 8), (5, 8), (7, 8)):
        ns = {r.form.n() for r in search(k, alpha_max, 2).reports}
        assert (1 << (k - 1)) * ((1 << k) - 1) not in ns


def test_theorem_full_beta_search_small():
    outcome = search(5, 8, 8)
    assert outcome.mode == "theorem" and outcome.matches
    reports = outcome.reports
    assert [r.form.n() for r in reports] == [6, 28, 8128]
    assert all(r.form.beta == 2 for r in reports)
    assert all(r.perfect and not r.excluded_perfect for r in reports)
    assert all(r.pruned_by is None for r in reports)


def test_full_scan_statistics_and_slices():
    reports, stats = scan_special_forms(5, 8, beta_max=8)
    assert stats.points_scanned > 0
    assert stats.pruned_points > 0
    # the beta = 4, p = 3 (mod 4) slice and the p = 1 (mod 4) slice are empty
    assert not [r for r in reports if r.form.beta == 4 and r.form.p % 4 == 3]
    assert not [r for r in reports if r.form.p % 4 == 1]
    # solutions are never points a pruner rejected
    assert all(r.pruned_by is None for r in reports)


def test_explore_conjecture_small_grids():
    # k = 3 reproduces the proven statement on its grid
    for k, alpha_max, beta_max, mode in (
        (7, 8, 6, "conjecture"),
        (13, 6, 4, "conjecture"),
        (3, 8, 6, "theorem"),
    ):
        outcome = search(k, alpha_max, beta_max)
        assert outcome.mode == mode and outcome.matches
        assert [r.form.n() for r in outcome.reports] == expected_even_perfect(k, alpha_max)


def test_worker_count_does_not_change_results(monkeypatch):
    monkeypatch.setattr(classify, "_BATCH_POINTS", 100)  # five tasks, not one
    solo, stats_solo = scan_special_forms(5, 7, beta_max=6, workers=1)
    def dump(reports):
        return json.dumps(
            [
                [r.form.alpha, r.form.p, r.form.beta, r.form.k, r.divides, r.perfect]
                for r in reports
            ]
        )
    for workers in (2, 3):
        many, stats_many = scan_special_forms(5, 7, beta_max=6, workers=workers)
        assert dump(solo) == dump(many)
        assert solo == many
        assert stats_solo == stats_many


def _grid(alpha_max, beta_max):
    """(alpha, p, beta) over the scan grid, p under the p-bound of alpha."""
    for alpha in range(2, alpha_max + 1):
        for p in primes_upto(3 * (1 << (alpha - 1)) - 2)[1:]:
            for beta in range(2, beta_max + 1):
                yield alpha, p, beta


def reference_scan(k, alpha_max, beta_max, bit_cap=None):
    """scan_special_forms as a plain classify_point loop: the reference."""
    reports = []
    points = pruned = scenario1 = 0
    for alpha, p, beta in _grid(alpha_max, beta_max):
        report = classify_point(SpecialForm(alpha=alpha, p=p, beta=beta, k=k), bit_cap)
        points += 1
        pruned += report.pruned_by is not None
        scenario1 += p == k and beta % 2 == 0 and p % 4 == 3
        if report.divides:
            reports.append(report)
    return sorted(reports, key=lambda r: r.form.n()), GridStats(points, pruned, scenario1)


@settings(max_examples=50, deadline=None)
# f row p = 7, scenario-1 points p = k = 3
@example(k=3, alpha_max=6, beta_max=6, batch_points=classify._BATCH_POINTS)
@example(k=5, alpha_max=7, beta_max=5, batch_points=30)  # f row p = 31, the v10 row beta = 4
# f row p = 127, scenario-1 points p = k = 7
@example(k=7, alpha_max=8, beta_max=4, batch_points=classify._BATCH_POINTS)
@given(
    k=st.sampled_from((3, 5, 7, 13)),
    alpha_max=st.integers(min_value=2, max_value=9),
    beta_max=st.integers(min_value=2, max_value=8),
    # a small cap puts batch edges between the small primes, which have the widest rows
    batch_points=st.integers(min_value=1, max_value=60) | st.just(classify._BATCH_POINTS),
)
def test_scan_matches_classify_point_reference(k, alpha_max, beta_max, batch_points):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "_BATCH_POINTS", batch_points)
        scanned = scan_special_forms(k, alpha_max, beta_max)
    assert scanned == reference_scan(k, alpha_max, beta_max)


class _Captured(Exception):
    """Stops a scan at its pool, once its tasks are taken: a scan whose
    kernel checks no point fails its coverage check."""


def _task_specs(scan, *args):
    """The block specs (alphas, primes, betas) of every task a scan hands
    its pool, taken without running any of them."""
    tasks = []

    def capture(fn, scan_tasks, workers):
        tasks.extend(scan_tasks)
        raise _Captured

    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "_pool_map", capture)
        with pytest.raises(_Captured):
            scan(*args)
    return [task[-1] for task in tasks]


def test_scan_tasks_carry_packed_prime_arrays():
    for scan, args in ((scan_special_forms, (5, 15, 16)), (equivalence_scan, (10**5, (3, 5)))):
        tasks = _task_specs(scan, *args)
        assert len(tasks) > 1
        for specs in tasks:
            assert all(isinstance(ps, array) and ps.itemsize == 4 for _, ps, _ in specs)
            # a pooled task sends its primes as raw bytes, 4 a prime, and
            # each block spec its two ranges and the array's header
            primes = sum(len(ps) for _, ps, _ in specs)
            assert len(pickle.dumps(specs)) < 4 * primes + 100 * len(specs) + 100


def test_scans_and_the_v10_grid_sieve_once(monkeypatch):
    bounds = []

    def counting(n, _real=classify.primes_upto):
        bounds.append(n)
        return _real(n)

    monkeypatch.setattr(classify, "primes_upto", counting)
    # each grid is admitted from its corner and walked once, on one sieve
    per_prime = ("tv", "tv2", "u1", "v3", "trichotomy")
    for run in (
        lambda: run_lemma_grid("v10", LemmaGrid(alpha_max=13)),
        *(lambda tag=tag: run_lemma_grid(tag, LemmaGrid()) for tag in per_prime),
        lambda: search(5, 13, 4),
        lambda: equivalence_scan(10**5),
    ):
        bounds.clear()
        run()
        assert len(bounds) == 1, bounds


def test_each_lemma_grid_is_walked_once(monkeypatch):
    # a prime's own work, tv's t, tv2's s and trichotomy's lam, is one v2
    # call; admitting the grid from its corner walks none of its primes
    calls = []

    def counting(x, _real=classify.v2):
        calls.append(x)
        return _real(x)

    monkeypatch.setattr(classify, "v2", counting)
    g = LemmaGrid(k_values=(3, 5), p_max=200)
    assert len([p for p in primes_upto(g.p_max - 1) if p % 4 == 1]) == 21  # 42 calls when walked twice
    for tag, residue in (("tv", 1), ("tv2", 3), ("trichotomy", 3)):
        calls.clear()
        primes = [p for p in primes_upto(g.p_max - 1) if p % 4 == residue]
        _, blocks = classify.lemma_blocks(tag, g)
        assert sum(len(oks) for _, _, oks in blocks) > 0
        assert len(calls) == len(primes), (tag, len(calls), len(primes))


def test_verify_lemma410_refuses_past_the_grid_limits_before_sieving(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"primes_upto({n}) before the grid limits were checked")

    monkeypatch.setattr(classify, "primes_upto", no_sieve)
    refused = "alpha_max=30 exceeds the lemma grid's limit of 24: its p-bound sieve would cover"
    with pytest.raises(ValueError, match=refused):
        verify_lemma410(30)
    with pytest.raises(ValueError, match=refused):
        run_lemma_grid("v10", LemmaGrid(alpha_max=30))


def test_wieferich_point_keeps_condition_two_exact():
    # v_1093(2**364 - 1) = 2, as 1093 is a Wieferich prime: condition 2 holds
    # at beta = 3 and fails at beta = 4, so no route may assume that
    # p**2 never divides 2**(alpha * k) - 1
    assert pow(2, 364, 1093**2) == 1 and pow(2, 364, 1093**3) != 1
    assert derive_conditions(SpecialForm(alpha=28, p=1093, beta=3, k=13)).cond_k2_holds
    assert not derive_conditions(SpecialForm(alpha=28, p=1093, beta=4, k=13)).cond_k2_holds
    blocks = [classify._block(13, range(28, 29), [1093], range(3, 5))]
    assert list(map(bool, classify._conditions_block(13, blocks)[1])) == [True, False]


def test_v10_streams_one_kernel_task_at_a_time(monkeypatch):
    # the residue tables are packed, and the stream runs the kernel only as
    # each block is taken, a task of at most _BATCH_POINTS rows at a time
    for residue in (1, 3):
        table = classify._residue_primes(primes_upto((3 << 16) - 1), residue)
        assert isinstance(table, array) and table.itemsize == 4
        assert list(table) == [p for p in primes_upto((3 << 16) - 1) if p % 4 == residue]
    tasks = []

    def counting(task, _real=classify._check_task):
        tasks.append(task)
        return _real(task)

    monkeypatch.setattr(classify, "_check_task", counting)
    proved, blocks = classify.lemma_blocks("v10", LemmaGrid(alpha_max=16))
    assert proved and tasks == []  # the guard pass runs no kernel
    sizes = []
    for labels, outcomes, oks in blocks:
        sizes.append(len(oks))
        assert len(tasks) == len(sizes) and len(labels) == len(outcomes) == len(oks)
    assert max(sizes) == classify._BATCH_POINTS and len(sizes) > 4 + 15


def _search_grid_rows(alpha_max, beta_max):
    """The rows (alphas, p, betas) of the search grid in flag order: the
    primes ascending, each over the alphas whose p-bound admits it."""
    alphas_of = {}
    for alpha, p, _ in _grid(alpha_max, 2):
        alphas_of.setdefault(p, []).append(alpha)
    betas = range(2, beta_max + 1)
    return [(range(a[0], a[-1] + 1), p, betas) for p, a in sorted(alphas_of.items())]


def _equivalence_grid_rows(n_limit):
    """The rows (alphas, p, betas) of equivalence_scan(n_limit) in flag
    order: beta-major, the primes ascending within a beta."""
    top = {}
    for alpha, p, beta, _ in _forms_upto(n_limit, [3]):
        top[beta, p] = max(top.get((beta, p), 0), alpha)
    return [(range(2, t + 1), p, range(beta, beta + 1)) for (beta, p), t in sorted(top.items())]


def _assert_split(tasks, rows):
    """The tasks' specs hold rows, the expected (alphas, p, betas), each once
    and in order, so they cover every grid point once in flag order. A
    task passes _BATCH_POINTS only when it holds one prime's rows of one
    spec, and each task ends only where the next prime would pass it."""
    assert [(a, p, b) for specs in tasks for a, ps, b in specs for p in ps] == rows
    cap = classify._BATCH_POINTS
    points = [sum(len(a) * len(ps) * len(b) for a, ps, b in specs) for specs in tasks]
    for specs, n in zip(tasks, points):
        assert n <= cap or (len(specs) == 1 and len(specs[0][1]) == 1)
    for n, (a, _, b) in zip(points, (specs[0] for specs in tasks[1:])):
        assert n + len(a) * len(b) > cap


@settings(max_examples=60, deadline=None)
@example(alpha_max=9, beta_max=8, n_limit=3000, batch_points=1)
@given(
    alpha_max=st.integers(2, 9),
    beta_max=st.integers(2, 8),
    n_limit=st.integers(6, 3000),
    batch_points=st.integers(1, 60),
)
def test_split_covers_every_point_once_in_flag_order(alpha_max, beta_max, n_limit, batch_points):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "_BATCH_POINTS", batch_points)
        _assert_split(
            _task_specs(scan_special_forms, 5, alpha_max, beta_max),
            _search_grid_rows(alpha_max, beta_max),
        )
        _assert_split(_task_specs(equivalence_scan, n_limit, (3,)), _equivalence_grid_rows(n_limit))


def _streaming_split(rows):
    """The split of rows (alphas, p, betas) taken one prime at a time in flag
    order: a task ends before the row that would take it past _BATCH_POINTS."""
    tasks, task, acc = [], [], 0
    for row in rows:
        w = len(row[0]) * len(row[2])
        if acc and acc + w > classify._BATCH_POINTS:
            tasks.append(task)
            task, acc = [], 0
        task.append(row)
        acc += w
    return tasks + [task]


def _form_rows(n_limit):
    """The rows of equivalence_scan(n_limit) built prime by prime from its
    powers: at beta, alpha = 2 .. bit_length(n_limit // p**(beta-1))."""
    rows = []
    for p in primes_upto(n_limit >> 1)[1:]:
        beta, p_power = 2, p
        while 2 * p_power <= n_limit:
            rows.append((range(2, (n_limit // p_power).bit_length() + 1), p, range(beta, beta + 1)))
            beta, p_power = beta + 1, p_power * p
    return sorted(rows, key=lambda row: (row[2][0], row[1]))


def _task_rows(tasks):
    return [[(a, p, b) for a, ps, b in specs for p in ps] for specs in tasks]


@pytest.mark.parametrize("batch_points", [1, 2, 7, 40, 1000, classify._BATCH_POINTS])
def test_split_by_runs_equals_the_streaming_split(monkeypatch, batch_points):
    # _split cuts runs of primes (the specs) at once; its tasks must be the
    # ones a prime-by-prime split of the same rows makes
    monkeypatch.setattr(classify, "_BATCH_POINTS", batch_points)
    for n_limit in (6, 7, 28, 1000, 10**4, 123_457, 10**6):
        tasks = _task_specs(equivalence_scan, n_limit, (3,))
        assert _task_rows(tasks) == _streaming_split(_form_rows(n_limit)), n_limit
    for alpha_max, beta_max in ((2, 2), (9, 5), (15, 16)):
        tasks = _task_specs(scan_special_forms, 5, alpha_max, beta_max)
        assert _task_rows(tasks) == _streaming_split(_search_grid_rows(alpha_max, beta_max)), (
            alpha_max,
            beta_max,
        )


def test_search_batches_stay_near_the_point_cap_on_large_grids():
    for alpha_max, beta_max in ((15, 16), (20, 16), (20, 64)):
        tasks = _task_specs(scan_special_forms, 5, alpha_max, beta_max)
        _assert_split(tasks, _search_grid_rows(alpha_max, beta_max))


def test_equivalence_batches_stay_near_the_point_cap():
    for n_limit in (10**4, 3 * 10**6):
        tasks = _task_specs(equivalence_scan, n_limit, (3, 5))
        # one split, shared by every exponent
        half = len(tasks) // 2
        assert all(a is b for a, b in zip(tasks[:half], tasks[half:], strict=True))
        _assert_split(tasks[:half], _equivalence_grid_rows(n_limit))


def _recording(m, name):
    """Patch classify's name to log (args, result) of every call; return the
    log. A generator's stream is logged, and handed on, as a list."""
    log = []

    def recording(*args, _real=getattr(classify, name)):
        result = _real(*args)
        if isinstance(result, Iterator):
            result = list(result)
        log.append((args, result))
        return result

    m.setattr(classify, name, recording)
    return log


def _verdicts_of(log):
    """{(p, beta): verdict} from the logged _prime_verdicts calls of one scan,
    asserting that every row gets its verdict once and that each pruned
    count is its list's."""
    verdicts = {}
    for (k, beta_max, primes), lists in log:
        assert len(lists) == len(primes)
        for p, (row_verdicts, pruned_rows) in zip(primes, lists, strict=True):
            assert len(row_verdicts) == beta_max - 1
            assert pruned_rows == sum(v is not None for v in row_verdicts)
            for beta, verdict in enumerate(row_verdicts, start=2):
                assert (p, beta) not in verdicts
                verdicts[p, beta] = verdict
    return verdicts


# The kernel's callers: the search, the equivalence scan and the f and v10
# lemma grids, each with the exponents it runs.
_KERNEL_CALLERS = {
    "search": ((5,), lambda: scan_special_forms(5, 11, 10)),
    "equivalence": ((3, 5), lambda: equivalence_scan(10**4, (3, 5))),
    "f": ((3, 5), lambda: run_lemma_grid("f", LemmaGrid(k_values=(3, 5), alpha_max=9, beta_max=9))),
    "v10": ((5,), lambda: run_lemma_grid("v10", LemmaGrid(alpha_max=9))),
}


def test_kernel_routes_once_per_task_and_verdicts_equal_pruned_by():
    # every caller reaches both routes once per task of its _split, with one
    # block per spec of the task, an exponent's tasks in turn
    for caller, (ks, run) in _KERNEL_CALLERS.items():
        with pytest.MonkeyPatch.context() as m:
            calls = {name: _recording(m, name) for name in ("_direct_block", "_conditions_block")}
            splits = _recording(m, "_split")
            run()
        tasks = [task for _, tasks in splits for task in tasks]
        if caller == "equivalence":  # one split, run once per exponent
            assert len(splits) == 1
            tasks *= len(ks)
        assert len(tasks) > 1, caller
        assert len(calls["_conditions_block"]) == len(calls["_direct_block"]) == len(tasks)
        for ((k, blocks), _), ((_, d_blocks), divides), specs in zip(
            calls["_conditions_block"], calls["_direct_block"], tasks, strict=True
        ):
            assert k in ks and d_blocks is blocks
            assert blocks == [
                (alphas, list(ps), betas, [p**k for p in ps]) for alphas, ps, betas in specs
            ]
            assert len(divides) == len(_block_points(blocks))
        called = [k for (k, _), _ in calls["_conditions_block"]]
        assert called == sorted(called), caller
    # in a search task, one block per alpha range; the verdict of every row
    alpha_max, beta_max = 11, 10
    tags = set()
    for k in (3, 5, 7):
        with pytest.MonkeyPatch.context() as m:
            calls = _recording(m, "_conditions_block")
            verdict_log = _recording(m, "_prime_verdicts")
            scan_special_forms(k, alpha_max, beta_max)
        grid = list(_grid(alpha_max, beta_max))
        alphas_of = {}
        for alpha, p, _ in grid:
            alphas_of.setdefault(p, set()).add(alpha)
        for (_, blocks), _ in calls:
            assert len({b.alphas for b in blocks}) == len(blocks)
            assert all(set(b.alphas) == alphas_of[p] for b in blocks for p in b.ps)
        verdicts = _verdicts_of(verdict_log)
        assert set(verdicts) == {(p, beta) for _, p, beta in grid}
        for alpha, p, beta in grid:
            assert verdicts[p, beta] == classify._pruned_by(SpecialForm(alpha, p, beta, k))
        tags |= set(verdicts.values())
    assert tags == {None, *PRUNE_ORDER}


@settings(max_examples=40, deadline=None)
@example(k=5, alpha_max=12, beta_max=16, batch_points=1)
@given(
    k=st.sampled_from((3, 5, 7, 13)),
    alpha_max=st.integers(min_value=2, max_value=12),
    beta_max=st.integers(min_value=2, max_value=16),
    # a cap as low as 1 point puts a task edge at almost every prime: the
    # kernel's split varies while the pruner stage walks the whole table
    batch_points=st.integers(min_value=1, max_value=200) | st.just(classify._BATCH_POINTS),
)
def test_scan_verdict_equals_pruned_by_at_every_point(k, alpha_max, beta_max, batch_points):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "_BATCH_POINTS", batch_points)
        log = _recording(m, "_prime_verdicts")
        scan_special_forms(k, alpha_max, beta_max)
    verdicts = _verdicts_of(log)
    grid = list(_grid(alpha_max, beta_max))
    assert set(verdicts) == {(p, beta) for _, p, beta in grid}
    for alpha, p, beta in grid:
        assert verdicts[p, beta] == classify._pruned_by(SpecialForm(alpha, p, beta, k)), (
            alpha, p, beta, k
        )


@pytest.mark.parametrize("batch_points, workers", [(100, 1), (100, 2), (1, 1)])
def test_search_runs_its_pruners_once_in_the_calling_process(batch_points, workers, monkeypatch):
    # 144 tasks at 100 points, one per prime (799) at 1: the pruner stage
    # walks the whole p-bound table once, after the kernel stage, whatever
    # the split and the worker count; a call in a forked worker would not
    # reach calls
    calls = []
    real = classify._prime_verdicts

    def once(k, beta_max, primes):
        calls.append((os.getpid(), k, beta_max, list(primes)))
        return real(k, beta_max, primes)

    monkeypatch.setattr(classify, "_BATCH_POINTS", batch_points)
    monkeypatch.setattr(classify, "_prime_verdicts", once)
    splits = _recording(monkeypatch, "_split")
    assert scan_special_forms(5, 12, 8, workers) == reference_scan(5, 12, 8)
    assert len(splits[0][1]) == (144 if batch_points == 100 else 799)
    assert calls == [(os.getpid(), 5, 8, list(classify._p_bound_primes(12)))]


def test_search_pruners_pass_the_default_cap_at_the_search_limits():
    # _prime_verdicts runs _bound_row and _scenarios with no cap check: at
    # k = 1279, the widest prime of each residue class under the alpha = 24
    # p-bound and the largest v2(p + 1) there, every power they build at
    # every v and even beta <= 64 passes the default cap
    k, bound = primality.MAX_MERSENNE_BOUND, 3 * (1 << (classify.MAX_SCAN_ALPHA - 1)) - 1
    betas = range(2, classify.MAX_SCAN_BETA + 1, 2)
    for residue in (1, 3):
        p = next(q for q in range(bound - 1, 2, -1) if q % 4 == residue and primality.is_prime(q))
        for v in range(1, classify.MAX_SCAN_BETA.bit_length()):
            _guard_all(valuations._bound_powers(p, k, (v,)), DEFAULT_BIT_CAP)
    lam = next(
        lam for lam in range(bound.bit_length(), 1, -1)
        if any(primality.is_prime(p) for p in range((1 << lam) - 1, bound, 2 << lam))
    )
    assert lam == 21
    for beta in betas:
        _guard_all(valuations._scenario_powers(lam, k, (beta,)), DEFAULT_BIT_CAP)


def _refuses(scan, *args) -> bool:
    try:
        scan(*args)
    except OperandSizeError:
        return True
    return False


@pytest.mark.parametrize("k, alpha_max, beta_max", [(3, 6, 6), (5, 7, 5), (13, 5, 3)])
def test_bit_cap_preflight_refuses_exactly_when_reference_does(k, alpha_max, beta_max):
    # the widest operand a point builds: p**k, (p**k)**beta and (2**k)**alpha
    widest = max(
        max(k * p.bit_length(), beta * (p**k).bit_length(), alpha * (k + 1))
        for alpha, p, beta in _grid(alpha_max, beta_max)
    )
    for cap in (widest // 2, widest - 1, widest, widest + 1):
        refused = _refuses(reference_scan, k, alpha_max, beta_max, cap)
        assert refused == (cap < widest)
        assert _refuses(scan_special_forms, k, alpha_max, beta_max, 1, cap) == refused


def test_bit_cap_preflight_on_the_k5_benchmark_grid(monkeypatch):
    # refused without scanning at 1000 and 1200; accepted at 1300, where
    # the scan itself is stubbed out, counting its points and their betas
    # so that the coverage check passes
    for cap in (1000, 1200):
        with pytest.raises(OperandSizeError):
            scan_special_forms(5, 15, 16, bit_cap=cap)

    def counting(task):
        specs = task[1]
        points = sum(len(a) * len(ps) * len(b) for a, ps, b in specs)
        return [], points, sum(len(a) * len(ps) * sum(b) for a, ps, b in specs)

    monkeypatch.setattr(classify, "_scan_task", counting)
    # the pruner stage runs after the stubbed kernel stage, in this process
    assert scan_special_forms(5, 15, 16, bit_cap=1300) == ([], GridStats(165_240, 149_664, 0))


def test_equivalence_scan_refuses_past_the_operand_cap_before_the_kernel(monkeypatch):
    # at k = 60013 the forms up to 1000 pass the default cap from p = 331 on:
    # (p**k)**2 is 2 * 502351 bits wide there, and 2 * 498606 at p = 317
    def no_block(*args):
        raise AssertionError("kernel work before the operand cap refused")

    refused = "502351-bit base raised to 2 exceeds the 1000000-bit cap"
    with pytest.raises(OperandSizeError, match=refused):
        derive_conditions(SpecialForm(alpha=2, p=331, beta=2, k=60013))
    derive_conditions(SpecialForm(alpha=2, p=317, beta=2, k=60013))
    # the reference refuses too, here at its first form, the largest p
    forms = sorted(_forms_upto(1000, [60013]), key=lambda f: -f[1])
    with pytest.raises(OperandSizeError):
        for alpha, p, beta, k in forms:
            derive_conditions(SpecialForm(alpha, p, beta, k))
    monkeypatch.setattr(classify, "_block", no_block)
    with pytest.raises(OperandSizeError) as exc:
        equivalence_scan(1000, ks=(5, 60013))
    assert str(exc.value) == refused


def test_operand_guard_costs_per_spec_not_per_point(monkeypatch):
    # scan_special_forms(5, 20, 64) has one spec per least alpha 2 .. 20;
    # the guard tries a refused spec's (alpha, beta) pairs and a refused
    # pair's primes, never the grid's 12 million points one by one
    alpha_max, beta_max = 20, 64
    primes = classify._p_bound_primes(alpha_max)
    bound = 3 * ((alpha_max - 1) ** 2 * (beta_max - 1) + len(primes))
    calls = 0

    def counting(base, exp, bit_cap, _real=classify._guard_pow):
        nonlocal calls
        calls += 1
        assert calls <= bound
        _real(base, exp, bit_cap)

    def no_pool(fn, tasks, workers):
        raise _Captured

    monkeypatch.setattr(classify, "_guard_pow", counting)
    monkeypatch.setattr(classify, "_pool_map", no_pool)
    widest = (primes[-1] ** 5).bit_length() * beta_max  # (p**5)**64 at the largest prime
    for cap in (100, widest - 1):  # refused in the first spec, then in the last
        calls = 0
        with pytest.raises(OperandSizeError):
            scan_special_forms(5, alpha_max, beta_max, bit_cap=cap)
    calls = 0
    with pytest.raises(_Captured):  # admitted: the scan reaches its pool
        scan_special_forms(5, alpha_max, beta_max, bit_cap=widest)
    assert calls == 3 * (alpha_max - 1)  # each spec's corner


def test_kernel_cross_checks_name_point_and_values(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(
            classify, "_direct_block", lambda k, blocks: [False] * len(_block_points(blocks))
        )
        with pytest.raises(
            CrossCheckError,
            match=r"disagree .* \(alpha, p, beta, k\) = \(2, 3, 2, 5\): "
            r"divides=False, cond1=True, cond2=True",
        ):
            scan_special_forms(5, 4, 2)
    with monkeypatch.context() as m:
        m.setattr(classify, "_verdict_row", lambda *args: "u1")
        with pytest.raises(
            CrossCheckError,
            match=r"pruner 'u1' contradicts .* \(alpha, p, beta, k\) = \(2, 3, 2, 5\): divides=True",
        ):
            scan_special_forms(5, 4, 2)


def test_kernel_odd_beta_check_names_point_and_values(odd_beta_first_condition_row):
    with pytest.raises(
        CrossCheckError,
        match=r"odd beta at \(alpha, p, beta, k\) = \(2, 3, 3, 5\): cond1=True, cond2=False",
    ):
        scan_special_forms(5, 4, 3)


def _lie_at(m, route, point, values):
    """Make one batch route return values (one per flag list it returns) at
    the single point (alpha, p, beta), in whichever batch holds it, leaving
    every other point as computed."""
    real = getattr(classify, route)

    def lying(*args):
        out = real(*args)
        points = _block_points(args[-1])
        if point in points:
            i = points.index(point)
            for flags, value in zip([out] if route == "_direct_block" else out, values):
                flags[i] = value
        return out

    m.setattr(classify, route, lying)


@pytest.mark.parametrize(
    "scan",
    [lambda: scan_special_forms(5, 4, 6), lambda: equivalence_scan(1000, ks=(5,))],
    ids=["search", "equivalence"],
)
def test_kernel_names_a_fault_in_a_later_row_of_a_block(scan):
    # p = 3's block holds rows beta = 2 .. 6 in both scans; each fault sits
    # past the block's first row, the odd-beta one past its first odd row
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_direct_block", (2, 3, 4), [True])
        with pytest.raises(
            CrossCheckError,
            match=r"disagree .* \(alpha, p, beta, k\) = \(2, 3, 4, 5\): "
            r"divides=True, cond1=True, cond2=False",
        ):
            scan()
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_conditions_block", (3, 3, 5), [True, False])
        with pytest.raises(
            CrossCheckError,
            match=r"odd beta at \(alpha, p, beta, k\) = \(3, 3, 5, 5\): cond1=True, cond2=False",
        ):
            scan()


def _sigma_k_accepts_everything(m):
    """The kernel's sigma_k re-check, which runs before any pruner verdict, made
    a no-op, so that a point both routes lie at reaches its row's verdict."""
    m.setattr(classify, "_recheck_solution", lambda *point: None)


def test_kernel_names_a_pruned_solution_in_a_later_row_of_a_block():
    # both routes claim (alpha, p, beta) = (2, 3, 4) divides, so they agree,
    # and the row's real verdict, the quartic pruner, contradicts them
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_direct_block", (2, 3, 4), [True])
        _lie_at(m, "_conditions_block", (2, 3, 4), [True, True])
        _sigma_k_accepts_everything(m)
        with pytest.raises(
            CrossCheckError,
            match=r"pruner 'v10' contradicts .* \(alpha, p, beta, k\) = \(2, 3, 4, 5\): "
            r"divides=True",
        ):
            scan_special_forms(5, 4, 6)


@pytest.mark.parametrize("point, k, grid", [
    ((2, 7, 2), 3, lambda: check_lemma_f(3, 2, 2)),
    ((2, 7, 2), 3, lambda: run_lemma_grid("f", LemmaGrid(k_values=(3,), alpha_max=3, beta_max=2))),
    ((2, 3, 4), 5, lambda: run_lemma_grid("v10", LemmaGrid(alpha_max=4))),
], ids=["check_lemma_f", "f", "v10"])
def test_kernel_grids_recheck_a_found_solution_on_sigma(point, k, grid):
    # both routes claim the point divides, so they agree; f once printed a
    # FAIL row and check_lemma_f returned False, while sigma_k(n) % n != 0
    alpha, p, beta = point
    n = p ** (beta - 1) << (alpha - 1)
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_direct_block", point, [True])
        _lie_at(m, "_conditions_block", point, [True, True])
        with pytest.raises(CrossCheckError) as exc:
            grid()
    assert str(exc.value) == (
        f"sigma_k rejects a found solution at (alpha, p, beta, k) = ({alpha}, {p}, {beta}, {k}): "
        f"sigma_k(n) % n = {sigma_k(n, k) % n} for n = {n}"
    )


@pytest.mark.parametrize("tag, specs", [("f", 3), ("v10", len(lemma41_candidates()) + 7)])
def test_kernel_grids_admit_through_one_guard_per_spec(tag, specs, monkeypatch):
    # f and v10 take no corner of their own: the scans' guard, once per spec
    # (a k for f; a candidate or an alpha for v10), is their admission
    calls = []
    real = classify._guard

    def counting(k, table, specs, bit_cap):
        calls.extend(specs)
        real(k, table, specs, bit_cap)

    def no_kernel(task):
        raise AssertionError("the kernel ran during admission")

    monkeypatch.setattr(classify, "_guard", counting)
    monkeypatch.setattr(classify, "_check_task", no_kernel)
    classify.lemma_blocks(tag, LemmaGrid())  # k_values (3, 5, 7), alpha_max 8
    assert len(calls) == specs


@pytest.mark.parametrize(
    "tag, grid, specs, refused",
    [
        # the four candidates, then alpha = 2 .. 15, whose p**5 is 76 bits wide
        ("v10", LemmaGrid(alpha_max=20, bit_cap=300), 18, "76-bit base raised to 4"),
        # k = 3's spec: 7**3 is 9 bits wide, and (7**3)**34 passes 300 bits
        ("f", LemmaGrid(k_values=(3, 5), alpha_max=20, beta_max=40, bit_cap=300), 1,
         "9-bit base raised to 34"),
    ],
    ids=["v10", "f"],
)
def test_a_refused_kernel_grid_walks_its_guard_once(tag, grid, specs, refused, monkeypatch):
    # the guard walk that admits f and v10 is also the one that refuses:
    # it stops at the first refused spec, and no second walk raises again
    calls = []
    real = classify._guard

    def counting(k, table, specs, bit_cap):
        calls.extend(specs)
        real(k, table, specs, bit_cap)

    monkeypatch.setattr(classify, "_guard", counting)
    with pytest.raises(OperandSizeError) as exc:
        classify.lemma_blocks(tag, grid)
    assert str(exc.value) == refused + " exceeds the 300-bit cap"
    assert len(calls) == specs


# p = 7 is the third prime of a batch of more in both scans: the first
# prime range of each.
_LATER_PRIME_SCANS = {
    "search": lambda: scan_special_forms(5, 13, 6),
    "equivalence": lambda: equivalence_scan(1000, ks=(5,)),
}


def test_later_prime_scans_put_p7_mid_batch():
    first = [p for _, ps, _ in _task_specs(scan_special_forms, 5, 13, 6)[0] for p in ps]
    assert first[:3] == [3, 5, 7] and len(first) > 3
    # equivalence_scan(1000) is one task, whose beta = 2 blocks hold every
    # prime up to 500 and whose beta = 3 blocks start at 3, 5, 7
    (task,) = _task_specs(equivalence_scan, 1000, (5,))
    assert [p for _, ps, betas in task if betas == range(2, 3) for p in ps] == list(
        primes_upto(500)[1:]
    )
    assert [p for _, ps, betas in task if betas == range(3, 4) for p in ps][:3] == [3, 5, 7]


@pytest.mark.parametrize("scan", _LATER_PRIME_SCANS.values(), ids=_LATER_PRIME_SCANS)
def test_kernel_names_a_fault_at_a_later_prime_of_a_batch(scan):
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_direct_block", (4, 7, 3), [True])
        with pytest.raises(
            CrossCheckError,
            match=r"disagree .* \(alpha, p, beta, k\) = \(4, 7, 3, 5\): "
            r"divides=True, cond1=False, cond2=False",
        ):
            scan()
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_conditions_block", (5, 7, 3), [True, False])
        with pytest.raises(
            CrossCheckError,
            match=r"odd beta at \(alpha, p, beta, k\) = \(5, 7, 3, 5\): cond1=True, cond2=False",
        ):
            scan()


def test_kernel_names_the_first_of_several_faults_in_p_beta_alpha_order():
    # p = 11 and p = 13 share the block of first alpha 4, whose flags run
    # alpha-major, so the fault at alpha 4 comes first in flag order; the
    # kernel still names the fault at the smaller p, as a row-by-row scan would
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_direct_block", (5, 11, 2), [True])
        _lie_at(m, "_direct_block", (4, 13, 2), [True])
        with pytest.raises(
            CrossCheckError,
            match=r"disagree .* \(alpha, p, beta, k\) = \(5, 11, 2, 5\): divides=True",
        ):
            _LATER_PRIME_SCANS["search"]()


def test_kernel_names_a_pruned_solution_at_a_later_prime_of_a_batch():
    # both routes claim (alpha, p, beta) = (4, 13, 4) divides, so they agree,
    # and the row's real verdict contradicts them: u1, which no other prime
    # of the batch has at beta = 4
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_direct_block", (4, 13, 4), [True])
        _lie_at(m, "_conditions_block", (4, 13, 4), [True, True])
        _sigma_k_accepts_everything(m)
        with pytest.raises(
            CrossCheckError,
            match=r"pruner 'u1' contradicts .* \(alpha, p, beta, k\) = \(4, 13, 4, 5\): "
            r"divides=True",
        ):
            _LATER_PRIME_SCANS["search"]()


def test_verify_lemma410_and_candidates():
    assert verify_lemma410(10)
    candidate_pairs = {(f.alpha, f.p) for f in lemma41_candidates()}
    # the remainder table singles out exactly the four named spot checks
    assert candidate_pairs == {(4, 3), (7, 31), (6, 31), (4, 11)}
    for alpha, p in sorted(candidate_pairs):
        n = 2 ** (alpha - 1) * p**3
        assert sigma_k(n, 5) % n != 0


def _refuse_divides_sigma(m):
    """Make the reference divisibility route raise wherever it is looked up."""
    def refuse(f, bit_cap=None):
        raise AssertionError("the lemma checks must decide on the batch kernel")

    m.setattr("sigmaperfect.sigma.divides_sigma", refuse)
    m.setattr(classify, "divides_sigma", refuse)


def test_lemma_checks_decide_without_the_reference_route(monkeypatch):
    _refuse_divides_sigma(monkeypatch)
    assert verify_lemma410(10)
    for k in (3, 5, 7):
        for alpha in range(2, 7):
            for beta in range(2, 6):
                assert check_lemma_f(k, alpha, beta), (k, alpha, beta)
    with pytest.raises(ValueError, match="alpha and beta must be >= 2"):
        check_lemma_f(5, 1, 2)
    with pytest.raises(ValueError, match="alpha and beta must be >= 2"):
        check_lemma_f(5, 2, 1)


def test_check_lemma_f_refuses_exactly_where_the_reference_does(monkeypatch):
    reference = divides_sigma  # bound before the patch
    _refuse_divides_sigma(monkeypatch)
    refused = 0
    for k in (3, 5, 7):
        for alpha in range(2, 9):
            for beta in range(2, 7):
                for bit_cap in (8, 16, 24, 32, 48, 64, 96, 128):
                    form = SpecialForm(alpha=alpha, p=(1 << k) - 1, beta=beta, k=k)
                    try:
                        expected = not reference(form, bit_cap)
                    except OperandSizeError:
                        expected = OperandSizeError
                    try:
                        got = check_lemma_f(k, alpha, beta, bit_cap)
                    except OperandSizeError:
                        got = OperandSizeError
                    assert got == expected, (k, alpha, beta, bit_cap)
                    refused += expected is OperandSizeError
    assert 0 < refused < 3 * 7 * 5 * 8  # the caps both refuse and admit


def _v10_point_ok(k, p, alpha, beta, bit_cap):
    """One v10 row by the reference route, its operands built and capped one
    by one as a per-row check builds them: p**k, (p**k)**beta, (2**k)**alpha."""
    geometric_sum(checked_pow(p, k, bit_cap), beta, bit_cap)
    geometric_sum(1 << k, alpha, bit_cap)
    return not divides_sigma(SpecialForm(alpha=alpha, p=p, beta=beta, k=k))


def _per_row_f(g):
    for k in g.k_values:
        for alpha in range(2, g.alpha_max + 1):
            for beta in range(2, g.beta_max + 1):
                yield f"k={k} alpha={alpha} beta={beta}", check_lemma_f(k, alpha, beta, g.bit_cap)


def _per_row_v10(g):
    for f in lemma41_candidates():
        yield f"candidate alpha={f.alpha} p={f.p}", _v10_point_ok(5, f.p, f.alpha, 4, g.bit_cap)
    for alpha in range(2, g.alpha_max + 1):
        for p in primes_upto(3 * (1 << (alpha - 1)) - 2)[1:]:
            if p % 4 == 3:
                yield f"alpha={alpha} p={p}", _v10_point_ok(5, p, alpha, 4, g.bit_cap)


@settings(max_examples=40, deadline=None)
@example(k_values=[3, 5, 7, 13], alpha_max=12, beta_max=30, bit_cap=100)  # refused mid-grid
@example(k_values=[3, 4], alpha_max=5, beta_max=3, bit_cap=None)  # an invalid exponent
@example(k_values=[4], alpha_max=1, beta_max=3, bit_cap=None)  # no f rows, so k is unchecked
@example(k_values=[5], alpha_max=11, beta_max=2, bit_cap=60)  # refused at a v10 row
@given(
    k_values=st.lists(st.sampled_from((3, 4, 5, 7, 13)), min_size=1, max_size=3, unique=True),
    alpha_max=st.integers(1, 11),
    beta_max=st.integers(1, 24),
    bit_cap=st.one_of(st.none(), st.integers(8, 600)),
)
def test_f_and_v10_grids_match_per_row_checks(k_values, alpha_max, beta_max, bit_cap):
    # the grids decide a block at a time; one check per row must give the
    # same rows, or refuse with the same first error
    g = LemmaGrid(k_values=tuple(k_values), alpha_max=alpha_max, beta_max=beta_max, bit_cap=bit_cap)
    for tag, per_row in (("f", _per_row_f), ("v10", _per_row_v10)):
        expected = _rows_or_refusal(lambda: per_row(g))
        if expected == []:
            expected = (ValueError, f"the {tag} grid has no rows; widen its parameters")
        bulk = _rows_or_refusal(lambda: ((r.label, r.ok) for r in run_lemma_grid(tag, g)))
        assert bulk == expected, tag


@pytest.mark.parametrize(
    "argv, point",
    [
        (("f", "--k", "5"), (3, 31, 2)),
        (("v10",), (3, 7, 4)),
        (("v10", "--alpha-max", "6"), (7, 31, 4)),  # a remainder-table candidate only
    ],
)
def test_check_lemma_exits_on_a_lying_direct_route(argv, point, capsys):
    with pytest.MonkeyPatch.context() as m:
        _lie_at(m, "_direct_block", point, [True])
        code = main(["check-lemma", *argv])
    err = capsys.readouterr().err
    alpha, p, beta = point
    assert code == 2 and err.startswith("cross-check failure: conditions disagree")
    assert f"at (alpha, p, beta, k) = ({alpha}, {p}, {beta}, 5): divides=True" in err


def test_forward_implication_frozen_values():
    def perfect_form(q, k):
        return SpecialForm(alpha=q, p=(1 << q) - 1, beta=2, k=k)

    assert divides_sigma(perfect_form(2, 5))  # 6 | sigma_5(6) = 8052 = 6 * 1342
    assert sigma_k(6, 5) == 8052
    assert divides_sigma(perfect_form(3, 5))
    assert divides_sigma(perfect_form(5, 3))  # 496 is included at k = 3
    assert not divides_sigma(perfect_form(5, 5))  # and excluded at k = 5


def test_counterexample_localization():
    # every non-perfect solution n = 2^(alpha-1) p <= 1e5 violates the p-bound
    limit = 100_000
    for k, witness in ((5, 22), (7, 86)):
        violators = []
        alpha = 2
        while (1 << (alpha - 1)) * 3 <= limit:
            w = 1 << (alpha - 1)
            for p in primes_upto(limit // w):
                if p == 2:
                    continue
                n = w * p
                sigma = geometric_sum(1 << k, alpha) * (1 + p**k)
                if sigma % n == 0 and not is_even_perfect(n):
                    assert p >= 3 * w - 1, (k, alpha, p)
                    violators.append(n)
            alpha += 1
        assert witness in violators


def test_run_lemma_grid_smoke_and_unknown_tag():
    small = LemmaGrid(k_values=(3,), p_max=60, v_max=2, beta1_max=3, alpha_max=4, beta_max=3)
    for tag in ("vs1", "cando", "appr", "appr2", "tv", "tv2", "sl3", "f", "v10"):
        rows = run_lemma_grid(tag, small)
        assert rows and all(r.ok for r in rows), tag
    for tag in ("u1", "v3", "trichotomy"):
        rows = run_lemma_grid(tag, small)
        assert rows and all(r.ok is None for r in rows)
    tri = {r.outcome for r in run_lemma_grid("trichotomy", small)}
    assert any("p=k" in o for o in tri)
    with pytest.raises(ValueError):
        run_lemma_grid("nope", small)


def _reference_rows(tag, g):
    """The grid of tag, one public check_* or bound_* call per row, in row order."""
    vs, beta1s = range(1, g.v_max + 1), range(1, g.beta1_max + 1, 2)
    if tag in ("vs1", "appr2"):
        check = check_appr2_bound if tag == "appr2" else lambda k, bit_cap: check_cando(k, 2, bit_cap)
        for k in g.k_values:
            yield f"k={k}", check(k, g.bit_cap)
    elif tag == "appr":
        for k in g.k_values:
            for u in range(g.u_max + 1):
                for alpha1 in range(1, g.alpha1_max + 1):
                    # the row u = 0, alpha1 = 1 comes first and validates k
                    if alpha1 == 1 or gcd(alpha1, (1 << k) - 1) == 1:
                        yield f"k={k} u={u} alpha1={alpha1}", check_appr(k, u, alpha1, g.bit_cap)
    elif tag == "f":
        yield from _per_row_f(g)
    elif tag == "v10":
        yield from _per_row_v10(g)
    elif tag == "cando":
        for k in g.k_values:
            for v in vs:
                for beta1 in beta1s:
                    beta = (1 << v) * beta1
                    yield f"k={k} beta={beta}", check_cando(k, beta, g.bit_cap)
    elif tag == "sl3":
        for lam in range(2, g.lambda_max + 1):
            for p1 in range(1, g.p1_max + 1, 2):
                for v in vs:
                    for beta1 in beta1s:
                        args = (lam, p1, v, beta1)
                        yield "lam={} p1={} v={} beta1={}".format(*args), check_sl3(*args, g.bit_cap)
    else:
        residue = 1 if tag in ("tv", "u1") else 3
        for p in primes_upto(g.p_max - 1):
            if p % 4 != residue:
                continue
            for k in g.k_values:
                for v in vs:
                    if tag == "trichotomy":
                        scenarios = trichotomy_3mod4(p, k, 1 << v, g.bit_cap)
                        outcome = ",".join(sorted(s.value for s in scenarios)) or "NONE"
                        yield f"p={p} k={k} beta={1 << v}", outcome
                        continue
                    if tag in ("u1", "v3"):
                        bound = bound_u1 if residue == 1 else bound_v3
                        holds = bound(p, k, v, g.bit_cap)
                        yield f"p={p} k={k} v={v}", "holds" if holds else "fails"
                        continue
                    check = check_tv if residue == 1 else check_tv2
                    for beta1 in beta1s:
                        yield f"p={p} k={k} v={v} beta1={beta1}", check(p, k, v, beta1, g.bit_cap)


def _rows_or_refusal(rows):
    try:
        return list(rows())
    except ValueError as exc:  # OperandSizeError included
        return type(exc), str(exc)


@settings(max_examples=20, deadline=None)
@given(
    k_values=st.lists(st.sampled_from((3, 5, 7, 9, 13)), min_size=1, max_size=3, unique=True),
    p_max=st.integers(6, 400),
    v_max=st.integers(1, 8),
    beta1_max=st.integers(1, 15),
    lambda_max=st.integers(2, 5),
    p1_max=st.integers(1, 7),
    bit_cap=st.one_of(st.none(), st.integers(8, 4096)),
)
@example(k_values=[13, 4], p_max=6, v_max=12, beta1_max=9, lambda_max=2, p1_max=1, bit_cap=None)
@example(k_values=[3, 4], p_max=6, v_max=1, beta1_max=1, lambda_max=2, p1_max=1, bit_cap=None)
def test_lemma_grid_bulk_rows_match_the_per_row_oracles(
    k_values, p_max, v_max, beta1_max, lambda_max, p1_max, bit_cap
):
    # the bulk grid decides whole columns; the public oracles, one call per
    # row, must give the same rows, or refuse with the same first error
    g = LemmaGrid(k_values=tuple(k_values), p_max=p_max, v_max=v_max, beta1_max=beta1_max,
                  lambda_max=lambda_max, p1_max=p1_max, bit_cap=bit_cap)
    for tag in ("cando", "tv", "tv2", "sl3", "u1", "v3", "trichotomy"):
        bulk = _rows_or_refusal(lambda: (
            (r.label, r.outcome if r.ok is None else r.ok) for r in run_lemma_grid(tag, g)
        ))
        assert bulk == _rows_or_refusal(lambda: _reference_rows(tag, g)), tag


@settings(max_examples=40, deadline=None)
@given(
    k_values=st.lists(st.sampled_from((3, 4, 5, 7, 13)), min_size=1, max_size=3, unique=True),
    p_max=st.integers(1, 140),
    v_max=st.integers(0, 6),
    beta1_max=st.integers(0, 7),
    u_max=st.integers(0, 2),
    alpha1_max=st.integers(0, 4),
    lambda_max=st.integers(1, 4),
    p1_max=st.integers(0, 7),
    alpha_max=st.integers(0, 7),
    beta_max=st.integers(0, 5),
    bit_cap=st.one_of(st.none(), st.integers(4, 3000)),
)
# v3 at k = 13 has 2**v < 2k + 1 up to v = 4, so its exponent is widest at v = 1
@example(k_values=[13, 3], p_max=20, v_max=5, beta1_max=1, u_max=0, alpha1_max=1, lambda_max=2,
         p1_max=1, alpha_max=2, beta_max=2, bit_cap=100)
# trichotomy at the Mersenne p = 7, 31 and 127, where lam = v2(p + 1) is p's bit length
@example(k_values=[3, 5], p_max=128, v_max=3, beta1_max=1, u_max=1, alpha1_max=4, lambda_max=3,
         p1_max=3, alpha_max=4, beta_max=3, bit_cap=120)
@example(k_values=[13], p_max=128, v_max=2, beta1_max=1, u_max=0, alpha1_max=1, lambda_max=2,
         p1_max=1, alpha_max=2, beta_max=2, bit_cap=125)
# no prime below 100 has v2(p + 1) = 7, so trichotomy's corner over-estimates
# every row's powers, and at this cap is refused while every row passes
@example(k_values=[13], p_max=100, v_max=2, beta1_max=1, u_max=0, alpha1_max=1, lambda_max=2,
         p1_max=1, alpha_max=2, beta_max=2, bit_cap=120)
# sl3's base 2**lam * p1 - 1 is widest at the largest lam, f's p**k at k = 13
@example(k_values=[13], p_max=6, v_max=1, beta1_max=1, u_max=0, alpha1_max=1, lambda_max=4,
         p1_max=7, alpha_max=2, beta_max=3, bit_cap=12)
@example(k_values=[3, 13], p_max=6, v_max=1, beta1_max=1, u_max=0, alpha1_max=1, lambda_max=2,
         p1_max=1, alpha_max=2, beta_max=3, bit_cap=400)
# appr's corner passes no k past 64 and the cap's bit length, yet k = 3's rows pass
@example(k_values=[3, 5], p_max=6, v_max=1, beta1_max=1, u_max=2, alpha1_max=4, lambda_max=2,
         p1_max=1, alpha_max=2, beta_max=2, bit_cap=3000)
# appr's corner at k = 67 under caps wider than 2**64, which admit a k up to
# their bit length: at 2**70 the grid is refused at k = 67; at 2**140 a grid
# up to u = 0 passes whole, and one up to u = 1 is refused at k = 67, u = 1
@example(k_values=[3, 67], p_max=6, v_max=1, beta1_max=1, u_max=0, alpha1_max=2, lambda_max=2,
         p1_max=1, alpha_max=2, beta_max=2, bit_cap=2**70)
@example(k_values=[3, 67], p_max=6, v_max=1, beta1_max=1, u_max=1, alpha1_max=2, lambda_max=2,
         p1_max=1, alpha_max=2, beta_max=2, bit_cap=2**140)
@example(k_values=[67, 3], p_max=6, v_max=1, beta1_max=1, u_max=0, alpha1_max=2, lambda_max=2,
         p1_max=1, alpha_max=2, beta_max=2, bit_cap=2**140)
def test_lemma_grids_refuse_exactly_where_the_per_row_oracles_do(
    k_values, p_max, v_max, beta1_max, u_max, alpha1_max, lambda_max, p1_max, alpha_max, beta_max,
    bit_cap,
):
    # every tag admits its grid from its corner and walks its rows only under
    # a refused corner; the public oracles, one call per row in row order
    # with the same cap, must give the same rows, or the same first refusal
    g = LemmaGrid(k_values=tuple(k_values), p_max=p_max, v_max=v_max, beta1_max=beta1_max,
                  u_max=u_max, alpha1_max=alpha1_max, lambda_max=lambda_max, p1_max=p1_max,
                  alpha_max=alpha_max, beta_max=beta_max, bit_cap=bit_cap)
    for tag in classify.LEMMA_TAGS:
        expected = _rows_or_refusal(lambda: _reference_rows(tag, g))
        if expected == []:
            expected = (ValueError, f"the {tag} grid has no rows; widen its parameters")
        bulk = _rows_or_refusal(lambda: (
            (r.label, r.outcome if r.ok is None else r.ok) for r in run_lemma_grid(tag, g)
        ))
        assert bulk == expected, tag


def test_check_lemma_trichotomy_proves_each_k_once_and_no_sieved_prime(monkeypatch, capsys):
    proved = []

    def recording(x, _real=primality.is_prime):
        proved.append(x)
        return _real(x)

    for module in ("primality", "exactint", "valuations", "sigma"):
        monkeypatch.setattr(f"sigmaperfect.{module}.is_prime", recording)
    argv = ["check-lemma", "trichotomy", "--k", "3,5,13", "--p-max", "300", "--v-max", "4"]
    assert main(argv) == 0
    assert proved == [3, 5, 13] and capsys.readouterr().err == ""


def test_check_lemma_tv_never_reproves_a_sieved_prime(monkeypatch, capsys):
    def no_is_prime(x):
        raise AssertionError(f"is_prime({x}) called on a lemma grid row")

    for module in ("primality", "exactint", "valuations", "sigma"):
        monkeypatch.setattr(f"sigmaperfect.{module}.is_prime", no_is_prime)
    for tag in ("tv", "tv2"):
        assert main(["check-lemma", tag, "--k", "3,5,13", "--p-max", "300", "--v-max", "4"]) == 0
    assert capsys.readouterr().err == ""
