"""Exact arithmetic and analytics for prime-power products with
floor-quotient exponents, their lcm identities, the q(n, k) triangle,
and the rho/sigma sequences."""

__version__ = "0.1.0"

# public name -> the submodule that defines it.  Each name is imported on
# first use (PEP 562), so `import lcmf` loads no submodule, and a program
# loads, and compiles, only the modules whose names it reads.
_SUBMODULE = {
    "DigitBudgetError": "factored",
    "FactoredNatural": "factored",
    "PrimeTable": "primes",
    "default_table": "primes",
    "digit_sum": "primes",
    "factorial_valuation": "primes",
    "WeightFunction": "products",
    "multiset_lcm": "products",
    "weighted_prime_product": "products",
    "diagonal": "triangle",
    "q": "triangle",
    "sigma_from_diagonal": "triangle",
    "QuotientPrimes": "sequences",
    "ValuationRecord": "sequences",
    "quotient_primes": "sequences",
    "rho": "sequences",
    "sigma": "sequences",
    "sigma_ratio_valuation": "sequences",
    "split_sigma_over_factorial": "sequences",
    "Enclosure": "analytics",
    "ScanRecord": "analytics",
    "analytic_constant": "analytics",
    "prime_series_constant": "analytics",
    "s_split": "analytics",
    "scan": "analytics",
    "theta_sum_rho": "analytics",
    "theta_sum_sigma": "analytics",
    "check_hypothesis": "verify",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
