"""Exact arithmetic and analytics for prime-power products with
floor-quotient exponents, their lcm identities, the q(n, k) triangle,
and the rho/sigma sequences."""

from .factored import DigitBudgetError, FactoredNatural
from .primes import PrimeTable, default_table, digit_sum, factorial_valuation
from .products import (
    HypothesisReport,
    WeightFunction,
    check_hypothesis,
    multiset_lcm,
    weighted_prime_product,
)
from .triangle import diagonal, q, sigma_from_diagonal
from .sequences import (
    QuotientPrimes,
    ValuationRecord,
    quotient_primes,
    rho,
    sigma,
    sigma_ratio_valuation,
    split_sigma_over_factorial,
)
from .analytics import (
    Enclosure,
    ScanRecord,
    analytic_constant,
    prime_series_constant,
    s_split,
    scan,
    theta_sum_rho,
    theta_sum_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "DigitBudgetError",
    "Enclosure",
    "FactoredNatural",
    "HypothesisReport",
    "PrimeTable",
    "QuotientPrimes",
    "ScanRecord",
    "ValuationRecord",
    "WeightFunction",
    "analytic_constant",
    "check_hypothesis",
    "default_table",
    "diagonal",
    "digit_sum",
    "factorial_valuation",
    "multiset_lcm",
    "prime_series_constant",
    "q",
    "quotient_primes",
    "rho",
    "s_split",
    "scan",
    "sigma",
    "sigma_from_diagonal",
    "sigma_ratio_valuation",
    "split_sigma_over_factorial",
    "theta_sum_rho",
    "theta_sum_sigma",
    "weighted_prime_product",
]
