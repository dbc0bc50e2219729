"""Exact-arithmetic classification of n = 2**(alpha-1) * p**(beta-1) with n | sigma_k(n).

Everything is computed over exact integers and rationals: divisor-power
sums, Mersenne primality, 2-adic valuation identities, rational polynomial
remainders, and the exhaustive cross-checked searches built on them.
"""

__version__ = "0.1.0"

from .classify import (
    ClassificationReport,
    CrossCheckError,
    DivisibilityConditions,
    check_lemma_f,
    SearchOutcome,
    classify_point,
    derive_conditions,
    equivalence_scan,
    expected_even_perfect,
    forward_implication,
    scan_special_forms,
    search,
    verify_lemma410,
)
from .exactint import (
    DEFAULT_BIT_CAP,
    OperandSizeError,
    Valuation,
    checked_pow,
    geometric_sum,
    v_exact,
)
from .polyrem import (
    DivisionResult,
    RationalPoly,
    divmod_poly,
    eval_poly,
    geometric_poly,
    lemma41_remainder,
    lemma41_scaled_remainder,
    remainder_at_half,
)
from .primality import (
    MersenneCandidate,
    is_mersenne_prime_exponent,
    is_prime,
    lucas_lehmer,
    mersenne_exponents_upto,
    primes_upto,
)
from .sigma import (
    PerfectWitness,
    SpecialForm,
    divides_sigma,
    is_even_perfect,
    sigma_k,
    sigma_k_special,
)
from .valuations import (
    BetaSplit,
    LemmaGrid,
    PSplit,
    Scenario,
    bound_u1,
    bound_v3,
    check_appr,
    check_appr2_bound,
    check_cando,
    check_sl3,
    check_tv,
    check_tv2,
    check_vs1,
    trichotomy_3mod4,
)
