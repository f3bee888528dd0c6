"""A residual scan across dyadic blocks.

log rho(n) tracks n log n - (c+1) n with fluctuations on the order of
sqrt(n); log sigma(n) tracks n log n - n with fluctuations around
sqrt(n log n).  The scan samples several n inside each dyadic block, records
the normalized residual sups, and tracks the quotient-prime count statistic
card_A * log(n) / sqrt(n) whose asymptotic band is conjectural.

Writes the raw records to scan_demo.csv next to this script.
"""

import math
import pathlib

from lcmf import analytics


def main():
    enc = analytics.analytic_constant()
    print(f"constant c = {enc.midpoint!r} (analytic, +/- {enc.width / 2:.1e})")

    ns = analytics.sampled_dyadic_grid(10, 17, per_block=6)
    records = analytics.scan(ns, c=enc.midpoint)
    out = pathlib.Path(__file__).with_name("scan_demo.csv")
    analytics.write_csv(records, out)
    print(f"wrote {len(records)} records to {out.name}\n")

    print("  block     sup |r_rho|/sqrt(n)   sup |r_sigma|/sqrt(n log n)   stat range")
    for env in analytics.block_envelopes(records):
        print(
            f"  2^{env.block:<3d}       {env.sup_rho:8.4f}             {env.sup_sigma:8.4f}"
            f"                [{env.conj2_min:.3f}, {env.conj2_max:.3f}]"
        )
    sup = analytics.quotient_count_sup(records)
    print(f"\n  sup of card_A * sqrt(log n / n) over the scan: {sup:.4f}")
    big = records[-1]
    print(
        f"  at n = {big.n}: log sigma / (n log n) = "
        f"{big.log_sigma / (big.n * math.log(big.n)):.4f} (heading to 1)"
    )


if __name__ == "__main__":
    main()
