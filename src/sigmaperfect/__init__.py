"""Exact-arithmetic classification of n = 2**(alpha-1) * p**(beta-1) with n | sigma_k(n).

Everything is computed over exact integers and rationals: divisor-power
sums, Mersenne primality, 2-adic valuation identities, remainders of
geometric polynomials by linear divisors, and the exhaustive cross-checked
searches built on them.
"""

__version__ = "0.1.0"
