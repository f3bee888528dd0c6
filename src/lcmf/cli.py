"""Command-line front end: compute | verify | triangle | constant | scan.

Exit codes are a stable contract: 0 on success or a passing verification,
1 when a verification finds violations or a command fails (an I/O error or
a ValueError while computing), 2 on usage errors (bad arguments).  Output
files are reproducible byte for byte for a fixed command line, whatever the
worker count.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import analytics, primes, sequences, triangle, verify
from .factored import DigitBudgetError, FactoredNatural
from .products import WeightFunction


class UsageError(ValueError):
    """A bad command line; main() reports it through argparse (exit 2)."""


def _parse(fn, *args):
    """Call an argument parser, turning its ValueError into a UsageError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _validate(args) -> None:
    """The checks made before any subcommand runs; a failure is a usage error."""
    if getattr(args, "workers", 1) < 1:  # `constant` takes neither option
        raise UsageError("--workers must be >= 1")
    if getattr(args, "nmax", None) is not None and args.nmax < 0:
        raise UsageError("--nmax must be >= 0")


def _amount(text: str) -> float:
    """Type of --x and --xmax: a finite number >= 0, else a usage error."""
    value = float(text)
    if not (value >= 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


def _render(value: FactoredNatural) -> str:
    if value.is_one():
        return "1"
    try:
        return f"{value} = {value.to_decimal()}"
    except DigitBudgetError:
        return f"{value}  (decimal expansion over the digit budget)"


def _cmd_compute(args) -> int:
    target = args.target
    if any(v < 0 for v in args.ints):
        raise UsageError(f"compute {target} takes integers >= 0")
    if target in ("rho", "sigma"):
        if len(args.ints) != 1:
            raise UsageError(f"compute {target} takes one integer argument")
        fn = sequences.rho if target == "rho" else sequences.sigma
        print(_render(fn(args.ints[0])))
    elif target == "q":
        if len(args.ints) != 2:
            raise UsageError("compute q takes two integer arguments: n k")
        if args.ints[1] > args.ints[0]:
            raise UsageError("compute q needs k <= n")
        print(_render(triangle.q(args.ints[0], args.ints[1])))
    elif target == "pif":
        if args.weight is None or args.x is None:
            raise UsageError("compute pif needs --f and --x")
        f = _parse(WeightFunction.parse, args.weight)
        from .products import weighted_prime_product

        print(_render(weighted_prime_product(f, args.x)))
    else:
        raise UsageError(f"unknown compute target {target!r}")
    return 0


_VERIFY_IDS = ("theorem1", "prop1", "prop2", "prop3", "cor2", "theorem2", "eq14-16", "split")


def _run_verify(args) -> verify.CheckResult:
    check, nmax = args.check, args.nmax
    if check == "theorem1":
        f = _parse(WeightFunction.parse, args.weight or "m")
        _parse(verify.theorem1_grid, f, args.xmax)  # an oversized log grid is refused here
        return verify.check_theorem1(f, args.xmax)
    if check == "prop1":
        return verify.check_prop1(nmax if nmax is not None else 12)
    if check == "prop2":
        return verify.check_prop2(nmax if nmax is not None else 1000)
    if check == "prop3":
        return verify.check_prop3(nmax if nmax is not None else 1000)
    if check == "cor2":
        return verify.check_cor2(nmax if nmax is not None else 25)
    if check == "theorem2":
        return verify.check_theorem2(nmax if nmax is not None else 500)
    if check == "eq14-16":
        return verify.check_theta_identities(nmax if nmax is not None else 10_000)
    if check == "split":
        return verify.check_split(nmax if nmax is not None else 2000)
    raise UsageError(f"unknown check id {check!r}")


def _write_valuation_records(nmax: int, path: str) -> None:
    t = primes.default_table()
    t.ensure(nmax + 2)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(sequences.VALUATION_CSV_HEADER + "\n")
        for n in range(1, nmax + 1):
            for p in t.primes_up_to(n + 1).tolist():
                if p * p > n + 1:
                    fh.write(sequences.sigma_ratio_valuation(n, p, t).csv_row() + "\n")


def _cmd_verify(args) -> int:
    result = _run_verify(args)
    if args.check == "theorem2" and args.out:
        _write_valuation_records(args.nmax if args.nmax is not None else 500, args.out)
    for line in result.notes:
        print(f"note: {line}")
    if result.passed:
        print(f"ok: {result.check_id} passed on {result.cases} cases")
        return 0
    for line in result.violations:
        print(f"violation: {line}")
    print(f"FAIL: {result.check_id}: {len(result.violations)} violations in {result.cases} cases")
    return 1


def _cmd_triangle(args) -> int:
    nmax = args.nmax if args.nmax is not None else 7
    lines = [",".join(row) for row in triangle.rows_decimal(nmax)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_constant(args) -> int:
    enc = analytics.prime_series_constant(args.tail_cut)
    print(f"lo={enc.lo!r} hi={enc.hi!r} width={enc.width!r} midpoint={enc.midpoint!r}")
    return 0


def _cmd_scan(args) -> int:
    if args.nmax is None:
        raise UsageError("scan needs --nmax")
    start = args.n if args.n is not None else 1
    ns = _parse(analytics.parse_grid, args.grid, start, args.nmax)
    enc = analytics.analytic_constant()
    records = analytics.scan(ns, c=enc.midpoint, workers=args.workers)
    write = analytics.write_csv if args.format == "csv" else analytics.write_json
    write(records, args.out or sys.stdout)
    if args.gnuplot:
        _write_gnuplot_stub(args.gnuplot, args.out or "scan.csv")
    print(
        f"constant enclosure [{enc.lo!r}, {enc.hi!r}]; "
        f"residual uncertainty at nmax: {args.nmax * enc.width:.3g}",
        file=sys.stderr,
    )
    return 0


def _write_gnuplot_stub(path: str, csv_path: str) -> None:
    lines = [
        "# gnuplot stub for a scan CSV; adjust to taste",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set logscale x 2",
        f"plot '{csv_path}' using 1:($4/sqrt($1)) with linespoints \\",
        "     title 'residual_rho / sqrt(n)', \\",
        f"     '{csv_path}' using 1:($5/sqrt($1*log($1))) with linespoints \\",
        "     title 'residual_sigma / sqrt(n log n)'",
    ]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcmf",
        description=(
            "Exact computation and verification of prime-power products with "
            "floor-quotient exponents, their lcm identities, and scan analytics."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--f", dest="weight", help="weight spec: m | m-1 | m^A | log")
        p.add_argument("--x", type=_amount, help="real argument for pif / theorem1")
        p.add_argument("--n", type=int, help="single index or grid start")
        p.add_argument("--nmax", type=int, help="range bound")
        p.add_argument("--workers", type=int, default=1, help="worker processes for scans")

    p_compute = sub.add_parser("compute", help="evaluate rho / sigma / q / pif")
    p_compute.add_argument("target", choices=("rho", "sigma", "q", "pif"))
    p_compute.add_argument("ints", type=int, nargs="*", help="integer arguments")
    add_common(p_compute)

    p_verify = sub.add_parser("verify", help="run a named identity check over a range")
    p_verify.add_argument("check", choices=_VERIFY_IDS)
    p_verify.add_argument("--xmax", type=_amount, help="x bound for theorem1")
    p_verify.add_argument(
        "--out", help="for theorem2: write the valuation records as CSV (n,p,v,witness_k)"
    )
    add_common(p_verify)

    p_triangle = sub.add_parser("triangle", help="emit the q(n,k) table as CSV rows")
    add_common(p_triangle)
    p_triangle.add_argument("--out", help="output path (default stdout)")

    p_constant = sub.add_parser("constant", help="enclose the prime series constant")
    p_constant.add_argument("--tail-cut", type=int, default=analytics.DEFAULT_TAIL_CUT)

    p_scan = sub.add_parser("scan", help="emit per-n scan records as CSV or JSON")
    add_common(p_scan)
    p_scan.add_argument("--grid", default="dyadic", help="dyadic | step:K | list:a,b,c")
    p_scan.add_argument("--out", help="output path (default stdout)")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--gnuplot", help="also write a gnuplot script stub to this path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        if args.subcommand == "compute":
            return _cmd_compute(args)
        if args.subcommand == "verify":
            return _cmd_verify(args)
        if args.subcommand == "triangle":
            return _cmd_triangle(args)
        if args.subcommand == "constant":
            return _cmd_constant(args)
        if args.subcommand == "scan":
            return _cmd_scan(args)
        parser.error(f"unknown subcommand {args.subcommand!r}")
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
