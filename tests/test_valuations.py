import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

import sigmaperfect.valuations as valuations
from sigmaperfect.exactint import OperandSizeError, _guard_all, checked_pow, v_exact
from sigmaperfect.primality import primes_upto
from sigmaperfect.valuations import (
    Scenario,
    _bound_row,
    _exact_flags,
    _flag_powers,
    appr_exponent,
    bound_u1,
    bound_v3,
    check_appr,
    check_appr2_bound,
    check_cando,
    check_sl3,
    check_tv,
    check_tv2,
    check_vs1,
    exactly_divides,
    trichotomy_3mod4,
    v2,
    LemmaGrid,
)


def divide_out_twos(x: int) -> int:
    # independent oracle: repeated division, no bit tricks
    e = 0
    while x % 2 == 0:
        x //= 2
        e += 1
    return e


# --- decompositions ---------------------------------------------------------


def test_beta_split():
    assert v2(12) == 2 and 12 >> v2(12) == 3
    assert v2(2) == 1
    for beta in range(2, 200, 2):
        assert v2(beta) == divide_out_twos(beta)
    with pytest.raises(ValueError):
        v2(7)
    with pytest.raises(ValueError):
        v2(0)


def test_p_split_residue_classes():
    # each p-dependent check takes only primes of its own class mod 4
    by_class = {
        1: (lambda p: check_tv(p, 3, 1, 1), lambda p: bound_u1(p, 3, 1)),
        3: (
            lambda p: check_tv2(p, 3, 1, 1),
            lambda p: bound_v3(p, 3, 1),
            lambda p: trichotomy_3mod4(p, 3, 2),
        ),
    }
    composites = [9, 21, 25, 45]
    for p in list(primes_upto(500)[1:]) + composites:
        for r, checks in by_class.items():
            for check in checks:
                if p % 4 == r and p not in composites:
                    check(p)
                else:
                    with pytest.raises(ValueError):
                        check(p)


def test_exactly_divides_handles_composite_divisors():
    assert exactly_divides(6, 2, 181, 1)  # 180 = 6^2 * 5
    assert not exactly_divides(6, 1, 181, 1)
    assert not exactly_divides(6, 3, 181, 1)
    # 2047 = 23 * 89, and each prime gains one power from the exponent 2047
    assert exactly_divides(2047, 2, 2, 11 * 2047)
    assert not exactly_divides(2047, 3, 2, 11 * 2047)
    with pytest.raises(ValueError):
        exactly_divides(1, 2, 3, 2)


# --- the residue decision against the full power ------------------------------


def exactly_divides_reference(d: int, e: int, x: int) -> bool:
    # the full-power decision by direct division
    q = d**e
    return x % q == 0 and x % (q * d) != 0


def multiplicity(d: int, x: int) -> int:
    m = 0
    while x % d == 0:
        x //= d
        m += 1
    return m


@st.composite
def residue_cases(draw):
    d = draw(st.one_of(st.integers(2, 64), st.sampled_from((6, 15, 2047))))
    # a base that is 1 mod d makes d divide base**exp - 1, often repeatedly
    base = draw(st.one_of(
        st.integers(1, 10**4), st.integers(0, (10**4 - 1) // d).map(lambda t: 1 + d * t)
    ))
    return d, base, draw(st.integers(1, 2000))


@given(residue_cases(), st.integers(0, 12))
@example((2, 3, 1024), 12)  # v2(3**1024 - 1) = 12
@example((6, 7, 36), 3)  # 6**3 || 7**36 - 1
@example((15, 16, 225), 3)
@example((2047, 2, 22), 1)  # 2047 || 2**22 - 1
def test_exactly_divides_matches_the_full_power(case, e):
    d, base, exp = case
    x = base**exp - 1
    assert exactly_divides(d, e, base, exp) == exactly_divides_reference(d, e, x)


@given(residue_cases())
@example((2, 3, 1024))
@example((15, 16, 225))
@example((2047, 2, 11 * 2047))
def test_exactly_divides_only_at_the_true_multiplicity(case):
    d, base, exp = case
    x = base**exp - 1
    m = multiplicity(d, x) if x else None  # every power divides 0
    for e in range(0, (m or 0) + 3):
        got = exactly_divides(d, e, base, exp)
        assert got == (e == m) == exactly_divides_reference(d, e, x), (d, base, exp, e)


# Full-power copies of the oracles: each builds the whole number, as the
# oracles once did, and reads its valuation.


def full_vs1(k):
    return v_exact(2, ((1 << k) - 1) ** (2 * k) - 1) == k + 1


def full_cando(k, beta):
    return v_exact(2, ((1 << k) - 1) ** (beta * k) - 1) == v2(beta) + k


def full_appr_exponent(k):
    d = (1 << k) - 1
    return multiplicity(d, 2 ** (d * k) - 1)


def full_appr(k, u, alpha1):
    d = (1 << k) - 1
    x = 2 ** (d ** (u + 1) * k * alpha1) - 1
    return exactly_divides_reference(d, u + full_appr_exponent(k), x)


def full_tv(p, k, v, beta1):
    return v_exact(2, p ** ((1 << v) * beta1 * k) - 1) == v_exact(2, p - 1) + v


def full_tv2(p, k, v, beta1):
    return v_exact(2, p ** (k * (1 << v) * beta1) - 1) == v + v_exact(2, p * p - 1) - 1


def full_sl3(lam, p1, v, beta1):
    return v_exact(2, ((1 << lam) * p1 - 1) ** ((1 << v) * beta1) - 1) == lam + v


def test_oracles_match_full_power_on_the_default_lemma_grid():
    g = LemmaGrid()
    odd_beta1 = range(1, g.beta1_max + 1, 2)
    vs = range(1, g.v_max + 1)
    primes = primes_upto(g.p_max - 1)[1:]
    for k in g.k_values:
        assert check_vs1(k) == full_vs1(k) is True
        assert appr_exponent(k) == full_appr_exponent(k)
        d = (1 << k) - 1
        for u in range(g.u_max + 1):
            for alpha1 in range(1, g.alpha1_max + 1):
                if gcd(alpha1, d) == 1:
                    assert check_appr(k, u, alpha1) == full_appr(k, u, alpha1) is True
        for v in vs:
            for beta1 in odd_beta1:
                beta = (1 << v) * beta1
                assert check_cando(k, beta) == full_cando(k, beta) is True, (k, beta)
                for p in primes:
                    check, full = (check_tv, full_tv) if p % 4 == 1 else (check_tv2, full_tv2)
                    assert check(p, k, v, beta1) == full(p, k, v, beta1) is True, (p, k, v)
    for lam in range(2, g.lambda_max + 1):
        for p1 in range(1, g.p1_max + 1, 2):
            for v in vs:
                for beta1 in odd_beta1:
                    args = (lam, p1, v, beta1)
                    assert check_sl3(*args) == full_sl3(*args) is True, args


@pytest.mark.parametrize("k, bit_cap", [(65, None), (101, 10**6), (201, 1 << 190)])
def test_appr_exponent_refuses_from_k_alone_as_the_full_power_would(k, bit_cap):
    # past 64 and the cap's width, k alone refuses 2**((2**k - 1) * k)
    with pytest.raises(OperandSizeError) as built:
        checked_pow(2, ((1 << k) - 1) * k, bit_cap)
    with pytest.raises(OperandSizeError) as from_k:
        appr_exponent(k, bit_cap)
    assert str(from_k.value) == str(built.value)


def test_oracles_refuse_where_the_full_power_would():
    # the operand cap is checked on base and exponent before any residue
    with pytest.raises(OperandSizeError, match="3-bit base raised to 372736"):
        check_tv(5, 13, 12, 7)
    assert check_tv(5, 13, 12, 5)  # 3 * 266240 bits, under the cap
    with pytest.raises(OperandSizeError, match="13-bit base raised to 93184"):
        check_cando(13, (1 << 10) * 7)
    with pytest.raises(OperandSizeError, match="2-bit base raised to 872202253"):
        check_appr(13, 1, 1)
    with pytest.raises(OperandSizeError, match="2-bit base raised to 106483"):
        appr_exponent(13, bit_cap=200_000)
    assert appr_exponent(13, bit_cap=213_000) == full_appr_exponent(13)
    with pytest.raises(OperandSizeError):
        check_tv2(3, 3, 4, 1, bit_cap=90)  # 2-bit base raised to 48
    assert check_tv2(3, 3, 4, 1, bit_cap=96)


# --- valuation identities ----------------------------------------------------


def test_vs1_frozen_values():
    assert divide_out_twos(7**6 - 1) == 4
    assert divide_out_twos(31**10 - 1) == 6
    for k in (3, 5, 7):
        assert check_vs1(k)
    with pytest.raises(ValueError):
        check_vs1(4)


def test_cando_frozen_values():
    assert check_cando(3, 2)
    assert divide_out_twos(7**12 - 1) == 5
    assert check_cando(3, 4)
    assert divide_out_twos(31**30 - 1) == 6
    assert check_cando(5, 6)
    with pytest.raises(ValueError):
        check_cando(3, 3)  # odd beta has no valid split


def test_cando_grid():
    for k in (3, 5):
        for v in range(1, 4):
            for beta1 in (1, 3, 5):
                beta = (1 << v) * beta1
                assert check_cando(k, beta), (k, beta)
                assert divide_out_twos(((1 << k) - 1) ** (beta * k) - 1) == v + k


def test_appr_frozen_values():
    assert appr_exponent(3) == 2  # 2^21 - 1 = 7^2 * 127 * 337
    assert (2**21 - 1) % 49 == 0 and (2**21 - 1) % 343 != 0
    assert check_appr(3, 0, 2)  # 7^2 || 2^42 - 1
    assert check_appr(3, 0, 1)
    assert check_appr(3, 1, 1)  # 7^3 || 2^147 - 1
    assert (2**147 - 1) % 7**3 == 0 and (2**147 - 1) % 7**4 != 0
    with pytest.raises(ValueError):
        check_appr(3, 0, 7)  # alpha1 must be coprime to 2^k - 1
    with pytest.raises(ValueError):
        check_appr(3, -1, 1)


def test_appr_small_grid():
    for k in (3, 5):
        for u in (0, 1):
            for alpha1 in (1, 2, 3, 4):
                assert check_appr(k, u, alpha1), (k, u, alpha1)


def test_appr2_bound():
    for k in (3, 5, 7):
        assert check_appr2_bound(k)
        assert 2 <= appr_exponent(k) < (1 << k)


def test_tv_frozen_values():
    assert divide_out_twos(5**6 - 1) == 3
    assert check_tv(5, 3, 1, 1)
    assert divide_out_twos(13**12 - 1) == 4
    assert check_tv(13, 3, 2, 1)
    assert divide_out_twos(5**30 - 1) == 3
    assert check_tv(5, 5, 1, 3)
    with pytest.raises(ValueError):
        check_tv(7, 3, 1, 1)  # 7 is 3 mod 4
    with pytest.raises(ValueError):
        check_tv(5, 3, 1, 2)  # beta1 must be odd


def test_tv2_frozen_values():
    assert divide_out_twos(3**6 - 1) == 3
    assert check_tv2(3, 3, 1, 1)
    assert divide_out_twos(7**6 - 1) == 4
    assert check_tv2(7, 3, 1, 1)
    assert divide_out_twos(3**20 - 1) == 4
    assert check_tv2(3, 5, 2, 1)
    with pytest.raises(ValueError):
        check_tv2(5, 3, 1, 1)  # 5 is 1 mod 4


def test_tv_tv2_small_grid_with_oracle():
    for p in (5, 13, 17, 29):
        t = divide_out_twos(p - 1)
        for k in (3, 5):
            for v in (1, 2, 3):
                for beta1 in (1, 3):
                    assert check_tv(p, k, v, beta1)
                    assert divide_out_twos(p ** ((1 << v) * beta1 * k) - 1) == t + v
    for p in (3, 7, 11, 19):
        s = divide_out_twos(p * p - 1)
        for k in (3, 5):
            for v in (1, 2, 3):
                for beta1 in (1, 3):
                    assert check_tv2(p, k, v, beta1)
                    assert divide_out_twos(p ** (k * (1 << v) * beta1) - 1) == v + s - 1


def test_tv2_agrees_with_vs1_on_overlap():
    # p = 2^k - 1 with v = beta1 = 1 states the same valuation as vs1
    for k in (3, 5, 7):
        p = (1 << k) - 1
        assert check_vs1(k)
        assert check_tv2(p, k, 1, 1)
        s = divide_out_twos(p * p - 1)
        assert 1 + s - 1 == k + 1  # both predict the same exponent


def test_sl3_frozen_values():
    assert check_sl3(2, 1, 1, 1)  # 3^2 - 1 = 8
    assert divide_out_twos(11**2 - 1) == 3
    assert check_sl3(2, 3, 1, 1)
    assert divide_out_twos(7**4 - 1) == 5
    assert check_sl3(3, 1, 2, 1)
    with pytest.raises(ValueError):
        check_sl3(1, 1, 1, 1)


def test_sl3_holds_for_composite_bases():
    # 2^2 * 9 - 1 = 35 = 5 * 7 and 2^4 * 1 - 1 = 15: not prime, identity anyway
    assert check_sl3(2, 9, 1, 1)
    assert check_sl3(4, 1, 2, 3)
    for lam in (2, 3, 4):
        for p1 in (1, 3, 5, 7, 9):
            for v in (1, 2):
                for beta1 in (1, 3):
                    assert check_sl3(lam, p1, v, beta1)


# --- bounds and trichotomy ---------------------------------------------------


def test_bound_u1_frozen_values():
    assert bound_u1(5, 5, 1)  # 5 <= 33
    assert not bound_u1(5, 5, 3)  # 78125 > 33825
    assert not bound_u1(13, 5, 2)  # 2197 > 1057
    with pytest.raises(ValueError):
        bound_u1(7, 5, 1)  # 7 is 3 mod 4


def test_bound_u1_valid_v_range_at_k5():
    # at the smallest admissible p the bound survives exactly through v = 2
    holds = [v for v in range(1, 7) if bound_u1(5, 5, v)]
    assert holds == [1, 2]


def test_bound_u1_crossmul_oracle():
    for p in (5, 13, 17):
        for k in (3, 5):
            for v in range(1, 5):
                lhs = p ** ((1 << v) - 1)
                rhs = ((1 << (k * (v + 1))) - 1) // ((1 << k) - 1)
                assert bound_u1(p, k, v) == (lhs <= rhs)


def test_bound_v3_frozen_values():
    assert bound_v3(3, 5, 4)  # 243 < 2^15/31
    assert not bound_v3(3, 5, 5)
    assert bound_v3(3, 5, 1)  # negative exponent, exact rational comparison
    with pytest.raises(ValueError):
        bound_v3(5, 5, 1)


def test_bound_v3_valid_v_range_at_k5():
    holds = [v for v in range(1, 8) if bound_v3(3, 5, v)]
    assert holds == [1, 2, 3, 4]


def _bound_v3_fraction(p, k, v):
    # reference: the bound as stated, over exact rationals
    return Fraction(p) ** ((1 << v) - 2 * k - 1) < Fraction(1 << (k * (v - 1)), (1 << k) - 1)


def test_bound_v3_crossmul_oracle():
    # the bound as stated over rationals, and by integer cross-multiplication
    for p in [p for p in primes_upto(3000) if p % 4 == 3]:
        for k in range(3, 32, 2):
            for v in range(1, 9):
                e = (1 << v) - 2 * k - 1
                d = (1 << k) - 1
                r = 1 << (k * (v - 1))
                expected = p**e * d < r if e >= 0 else d < r * p ** (-e)
                assert bound_v3(p, k, v) == expected == _bound_v3_fraction(p, k, v), (p, k, v)


def test_bound_v3_refuses_past_operand_cap():
    # 3**(2**22 - 7) would be about 8.4 million bits wide
    with pytest.raises(OperandSizeError):
        bound_v3(3, 3, 22)
    assert bound_v3(3, 3, 18) == _bound_v3_fraction(3, 3, 18)


def test_trichotomy_frozen_values():
    for beta in (2, 4, 8):
        assert Scenario.P_EQUALS_K in trichotomy_3mod4(3, 3, beta)
    assert Scenario.SCENARIO_2 in trichotomy_3mod4(7, 5, 2)
    tags8 = trichotomy_3mod4(7, 5, 8)
    assert Scenario.SCENARIO_3 in tags8 and Scenario.SCENARIO_2 not in tags8
    with pytest.raises(ValueError):
        trichotomy_3mod4(5, 5, 2)
    with pytest.raises(ValueError):
        trichotomy_3mod4(7, 5, 3)


def test_trichotomy_never_prunes_perfect_parameters():
    # beta = 2 with p = 2^alpha - 1: scenario 2 always holds
    for alpha in (2, 3, 5, 7, 13):
        p = (1 << alpha) - 1
        for k in (3, 5, 7, 13):
            assert trichotomy_3mod4(p, k, 2), (alpha, k)


def test_trichotomy_matches_direct_inequalities():
    for p in (3, 7, 11, 19, 23):
        lam = divide_out_twos(p + 1)
        for k in (3, 5):
            for beta in (2, 4, 6, 8):
                v = divide_out_twos(beta)
                tags = trichotomy_3mod4(p, k, beta)
                lhs = ((1 << lam) - 1) ** (beta - 1)
                assert (Scenario.SCENARIO_2 in tags) == (lhs <= (1 << (lam + v)) - 1)
                assert (Scenario.SCENARIO_3 in tags) == (
                    lhs <= sum(1 << (i * (lam + v)) for i in range(k))
                )
                assert (Scenario.P_EQUALS_K in tags) == (p == k)


def test_bound_holds_flips_at_most_once_toward_its_later_value():
    # the scan's verdict table takes a bound unevaluated once its residue
    # class has reached this later value: u1, and v3 with 2**v > 2k + 1,
    # only go from holding to failing as p grows, v3 below that only from
    # failing to holding
    primes = primes_upto(50_000)[1:]
    for k in (3, 5, 7, 13):
        for v in range(1, 7):
            for residue in (1, 3):
                later = residue == 3 and (1 << v) < 2 * k + 1
                values = [_bound_row(p, k, v) for p in primes if p % 4 == residue]
                first = values.index(later) if later in values else len(values)
                assert set(values[first:]) <= {later}, (residue, k, v)


def test_trusted_bounds_and_trichotomy_key_match_public_functions():
    # the search's verdict trusts its sieved primes and caches the
    # trichotomy by (v2(p + 1), beta, p == k); the public functions, which
    # validate, are the reference
    primes = primes_upto(3 << 12)[1:]
    for k in (3, 5, 7, 13):
        for v in range(1, 7):
            for p in primes:
                bound = bound_u1 if p % 4 == 1 else bound_v3
                assert _bound_row(p, k, v) == bound(p, k, v), (p, k, v)
        for beta in range(2, 17, 2):
            by_key = {}
            for p in primes:
                if p % 4 == 3:
                    scenarios = trichotomy_3mod4(p, k, beta)
                    key = (divide_out_twos(p + 1), p == k)
                    assert by_key.setdefault(key, scenarios) == scenarios, (p, k, beta)
    # the public functions keep their validation
    for bound, p, k, v in (
        (bound_u1, 21, 5, 1), (bound_u1, 5, 4, 1), (bound_u1, 5, 5, 0),
        (bound_v3, 15, 5, 1), (bound_v3, 3, 4, 1), (bound_v3, 3, 5, 0),
    ):
        with pytest.raises(ValueError):
            bound(p, k, v)


def test_check_cando_refuses_a_huge_k_before_building_2k_minus_1():
    # 2**200000001 - 1 would take 25 MB; the guard reads it by its bit length
    tracemalloc.start()
    try:
        with pytest.raises(OperandSizeError, match="200000001-bit base raised to 400000002 "):
            check_cando(200000001, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_exactly_divides_does_not_go_through_the_block_kernel(monkeypatch):
    # the check_* oracles are the grids' per-row reference, so they must not
    # share the grids' kernel
    def refuse(*args, **kwargs):
        raise AssertionError("exactly_divides reached _exact_flags")

    monkeypatch.setattr(valuations, "_exact_flags", refuse)
    assert exactly_divides(6, 2, 181, 1) and not exactly_divides(6, 1, 181, 1)
    assert check_tv(13, 3, 2, 1) and check_tv2(11, 3, 2, 1) and check_sl3(2, 3, 1, 3)
    assert check_cando(3, 6) and check_vs1(5)


@given(
    e=st.integers(0, 12),
    base=st.integers(0, 200),
    c=st.integers(1, 40),
    v_max=st.integers(0, 6),
    beta1_max=st.integers(0, 30),
    bit_cap=st.one_of(st.none(), st.integers(1, 20000)),
)
# a tv block at p = 5, k = 3 under a 170-bit cap: its first refused row
# (v=1, beta1=11, 66) is not its largest exponent (v=2, beta1=11, 132)
@example(e=2, base=5, c=3, v_max=2, beta1_max=11, bit_cap=170)
@example(e=0, base=3, c=10**5, v_max=3, beta1_max=1, bit_cap=None)  # refused at v=3
@example(e=0, base=3, c=1, v_max=1, beta1_max=1, bit_cap=None)  # 2**3, not 2**1, || 3**2 - 1
@example(e=2, base=3, c=1, v_max=1, beta1_max=1, bit_cap=None)  # the same row, claiming 2**3
def test_exact_flags_match_exactly_divides_one_by_one(e, base, c, v_max, beta1_max, bit_cap):
    # one modulus and one residue chain for a whole block: each v an
    # arithmetic run of exponents c * 2**v * beta1 over odd beta1, each row
    # claiming 2**(e + v); the first refused row in row order raises
    rows = [(e + v, (c << v) * b) for v in range(1, v_max + 1) for b in range(1, beta1_max + 1, 2)]

    def outcome(decide):
        try:
            return decide()
        except ValueError as exc:  # OperandSizeError included
            return type(exc), str(exc)

    def admitted_flags():
        vs, beta1s = range(1, v_max + 1), range(1, beta1_max + 1, 2)
        _guard_all(_flag_powers(base.bit_length(), c, vs, beta1s), bit_cap)
        return _exact_flags(e, base, c, v_max, beta1_max)

    assert outcome(admitted_flags) == outcome(
        lambda: [exactly_divides(2, ev, base, x, bit_cap) for ev, x in rows]
    )
