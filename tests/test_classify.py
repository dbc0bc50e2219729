import json
import random

import pytest

import sigmaperfect.classify as classify
from sigmaperfect.classify import (
    CrossCheckError,
    classify_point,
    check_lemma_f,
    derive_conditions,
    equivalence_scan,
    expected_even_perfect,
    forward_implication,
    lemma41_candidates,
    run_lemma_grid,
    scan_special_forms,
    search,
    verify_lemma410,
)
from sigmaperfect.exactint import geometric_sum
from sigmaperfect.primality import primes_upto
from sigmaperfect.sigma import SpecialForm, divides_sigma, is_even_perfect, sigma_k
from sigmaperfect.valuations import LemmaGrid


def test_derive_conditions_frozen_values():
    both = derive_conditions(SpecialForm(alpha=3, p=7, beta=2, k=5))  # n = 28
    assert both.cond_k1_holds and both.cond_k2_holds and both.beta_even

    failing = derive_conditions(SpecialForm(alpha=5, p=31, beta=2, k=5))  # n = 496
    assert failing.cond_k1_holds and not failing.cond_k2_holds
    assert geometric_sum(1 << 5, 5) % 31 == 5  # (2^25 - 1)/31 = 1082401 = 5 mod 31

    odd_beta = derive_conditions(SpecialForm(alpha=3, p=7, beta=3, k=5))
    assert not odd_beta.cond_k1_holds and not odd_beta.beta_even


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
            assert conditions.beta_even


def test_equivalence_scan_small():
    assert equivalence_scan(10**4, ks=(3, 5)) > 0
    with pytest.raises(ValueError):
        equivalence_scan(4)


def test_equivalence_scan_trips_on_lying_direct_route(monkeypatch):
    monkeypatch.setattr(classify, "divides_sigma", lambda f, bit_cap=None: True)
    with pytest.raises(CrossCheckError, match="equivalence failed"):
        equivalence_scan(100, ks=(5,))


def test_equivalence_scan_trips_on_odd_beta_first_condition(odd_beta_first_condition):
    with pytest.raises(CrossCheckError, match="odd beta"):
        equivalence_scan(100, ks=(5,))


def test_classify_point_cross_check_trips_on_bad_oracle(monkeypatch):
    # force the direct route to lie; the engine must refuse to continue
    monkeypatch.setattr(classify, "divides_sigma", lambda f, bit_cap=None: True)
    with pytest.raises(CrossCheckError):
        classify_point(SpecialForm(alpha=3, p=5, beta=2, k=5))


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


def test_worker_count_does_not_change_results():
    solo, stats_solo = scan_special_forms(5, 7, beta_max=6, workers=1)
    duo, stats_duo = scan_special_forms(5, 7, beta_max=6, workers=2)
    def dump(reports):
        return json.dumps(
            [
                [r.form.alpha, r.form.p, r.form.beta, r.form.k, r.divides, r.perfect]
                for r in reports
            ]
        )
    assert dump(solo) == dump(duo)
    assert solo == duo
    assert stats_solo == stats_duo


def test_verify_lemma410_and_candidates():
    assert verify_lemma410(10)
    candidate_pairs = {(f.alpha, f.p) for f in lemma41_candidates()}
    # the remainder table singles out exactly the four named spot checks
    assert candidate_pairs == {(4, 3), (7, 31), (6, 31), (4, 11)}
    for alpha, p in sorted(candidate_pairs):
        n = 2 ** (alpha - 1) * p**3
        assert sigma_k(n, 5) % n != 0


def test_forward_implication_frozen_values():
    assert forward_implication(2, 5)  # 6 | sigma_5(6) = 8052 = 6 * 1342
    assert sigma_k(6, 5) == 8052
    assert forward_implication(3, 5)
    assert forward_implication(5, 3)  # 496 is included at k = 3
    with pytest.raises(ValueError):
        forward_implication(5, 5)
    with pytest.raises(ValueError):
        forward_implication(4, 5)


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

