"""Command-line front end: compute | verify | triangle | constant | scan.

Exit codes are a stable contract: 0 on success or a passing verification,
1 when a verification finds violations or a command fails (an I/O error, a
ValueError while computing, or an ArithmeticError from a failed internal
check), 2 on usage errors (bad arguments).  Output files are reproducible
byte for byte for a fixed command line.  scan and triangle write their rows
as they are made, and so does verify theorem2 with --out: a failure leaves
a regular --out file as it was (_write_out), while on stdout the rows
written before it stay.  Each command, compute target and verify check has
its own parser, which accepts exactly the options that command reads, save
one scan option that nothing reads, kept while the benchmark's workloads
pass it (build_parser).  Each handler imports the lcmf modules it runs, so
a command loads no other.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import stat
import sys


class UsageError(ValueError):
    """A bad command line; main() reports it through the failing command's
    own parser (exit 2)."""


def _parse(fn, *args):
    """Call an argument parser, turning its ValueError into a UsageError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _int_from(low: int):
    """An argparse type: an integer >= low, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


def _amount(text: str) -> float:
    """Type of --x and --xmax: a finite number >= 0, else a usage error."""
    value = float(text)
    if not (value >= 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


def _render(value) -> str:
    """A FactoredNatural as its factorization, then its decimal value."""
    from .factored import DigitBudgetError

    if value.is_one():
        return "1"
    try:
        return f"{value} = {value.to_decimal()}"
    except DigitBudgetError:
        return f"{value}  (decimal expansion over the digit budget)"


def _cmd_compute(args) -> int:
    print(_render(args.value(args)))
    return 0


def _rho_sigma(args):
    """rho(n) or sigma(n): the prime side at the weight m or m-1, at x = n."""
    from .products import WeightFunction, weighted_prime_product

    f = WeightFunction.linear() if args.target == "rho" else WeightFunction.shifted()
    return weighted_prime_product(f, args.ints[0])


def _q(args):
    from . import triangle

    n, k = args.ints
    if k > n:
        raise UsageError("compute q needs k <= n")
    return triangle.q(n, k)


def _pif(args):
    from .products import WeightFunction, weighted_prime_product

    return weighted_prime_product(_parse(WeightFunction.parse, args.weight), args.x)


def _check_theorem1(args):
    from . import verify
    from .products import WeightFunction

    f = _parse(WeightFunction.parse, args.weight)
    _parse(verify.theorem1_grid, f, args.xmax)  # an oversized log grid is refused here
    return verify.check_theorem1(f, args.xmax)


def _check_theorem2(args):
    """The check; with --out, its valuation records as CSV from the same walk."""
    from . import verify

    if not args.out:
        return verify.check_theorem2(args.nmax)
    result = verify.CheckResult(check_id="theorem2")

    def write(fh) -> None:
        fh.write("n,p,v,witness_k\n")
        for n, pairs, witness_k in verify._theorem2_walk(args.nmax, result):
            fh.write("".join(f"{n},{p},{v},{witness_k.get(p, '')}\n" for p, v in pairs))

    _write_out(args.out, write)
    return result


def _cmd_verify(args) -> int:
    result = args.run_check(args)
    for line in result.notes:
        print(f"note: {line}")
    if result.passed:
        print(f"ok: {result.check_id} passed on {result.cases} cases")
        return 0
    for line in result.violations:
        print(f"violation: {line}")
    print(f"FAIL: {result.check_id}: {len(result.violations)} violations in {result.cases} cases")
    return 1


def _check_nmax(args):
    """One of the _NMAX_CHECKS: its verify function at --nmax."""
    from . import verify

    return getattr(verify, args.check_fn)(args.nmax)


def _write_out(path: str | None, write) -> None:
    """write(fh) to the file path, or to stdout when path is None.

    A regular file, or a path not there yet, is written as a temporary file
    beside it with the old file's mode, which replaces it only once write
    returns; if write raises, the temporary file is deleted and the old file
    is left as it was.  Anything else (a symlink, a device such as
    os.devnull or /dev/stdout, a fifo, a file with more than one link, or a
    file in a directory that is not there or this process cannot write to)
    is opened and written through, as the rows come, so that an error names
    path, not the temporary file.
    """
    if not path:
        write(sys.stdout)
        return
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    tmp = None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
        try:
            fh = open(tmp, "x", encoding="ascii", newline="\n")  # never another's file
        except (PermissionError, FileNotFoundError):  # the error then names path
            tmp = None
    if tmp is None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            write(fh)
        return
    try:
        with fh:
            if st is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_triangle(args) -> int:
    from . import triangle

    def write(fh) -> None:  # one row at a time
        for row in triangle.iter_rows(args.nmax):
            fh.write(",".join(entry.to_decimal() for entry in row) + "\n")

    _write_out(args.out, write)
    return 0


def _cmd_constant(args) -> int:
    from . import analytics  # analytics imports numpy, so only its commands load it

    tail_cut = analytics.DEFAULT_TAIL_CUT if args.tail_cut is None else args.tail_cut
    enc = analytics.prime_series_constant(tail_cut)
    print(f"lo={enc.lo!r} hi={enc.hi!r} width={enc.width!r} midpoint={enc.midpoint!r}")
    return 0


def _cmd_scan(args) -> int:
    from . import analytics

    if args.gnuplot and (args.format != "csv" or not args.out):
        raise UsageError("--gnuplot plots a CSV scan file: it needs --format csv and --out")
    if args.gnuplot and _same_file(args.gnuplot, args.out):
        raise UsageError("--gnuplot names the --out file: the stub would replace the scan")
    ns = _parse(analytics.parse_grid, args.grid, args.n, args.nmax)
    enc = analytics.analytic_constant()
    records = analytics.scan_records(ns, c=enc.midpoint)
    # the first chunk is checked before anything is written; the rest are
    # written as they come, and a later failure ends the output there
    records = itertools.chain([next(records)], records)
    write = analytics.write_csv if args.format == "csv" else analytics.write_json
    _write_out(args.out, lambda fh: write(records, fh))
    if args.gnuplot:
        _write_gnuplot_stub(args.gnuplot, args.out)
    print(
        f"constant enclosure [{enc.lo!r}, {enc.hi!r}]; "
        f"residual uncertainty at nmax: {args.nmax * enc.width:.3g}",
        file=sys.stderr,
    )
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether the paths a and b name one file: os.path.samefile when both
    can be read, else the same os.path.realpath."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


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


# (check, the name of its verify function of --nmax, the default --nmax,
# help) for the checks that take only --nmax
_NMAX_CHECKS = (
    ("prop1", "check_prop1", 12, "diagonal divisibility and freezing at k = n"),
    ("prop2", "check_prop2", 1000, "the divisibility chain and factorial sandwich"),
    ("prop3", "check_prop3", 1000, "(n+1)! | sigma(n) | n! lcm(1..n+1)"),
    ("cor2", "check_cor2", 25, "sigma(n) equals the frozen diagonal q(2n, n)"),
    ("eq14-16", "check_theta_identities", 10_000, "the theta-sum forms of log rho, log sigma"),
    ("split", "check_split", 2000, "sigma(n)/n! splits exactly at sqrt(n+1)"),
)


def build_parser() -> argparse.ArgumentParser:
    def add(sub, name, help, **defaults):
        p = sub.add_parser(name, help=help, description=help, allow_abbrev=False)
        p.set_defaults(parser=p, **defaults)  # the innermost command's parser wins
        return p

    natural = _int_from(0)
    parser = argparse.ArgumentParser(
        prog="lcmf",
        description=(
            "Exact computation and verification of prime-power products with "
            "floor-quotient exponents, their lcm identities, and scan analytics."
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    targets = add(sub, "compute", "evaluate rho / sigma / q / pif").add_subparsers(
        dest="target", required=True
    )
    for name in ("rho", "sigma"):
        p = add(targets, name, f"print {name}(n)", run=_cmd_compute, value=_rho_sigma)
        p.add_argument("ints", type=natural, nargs=1, metavar="n")
    p = add(targets, "q", "print q(n, k): lcm of products of k parts with sum <= n",
            run=_cmd_compute, value=_q)
    p.add_argument("ints", type=natural, nargs=2, metavar="int", help="n, then k <= n")
    p = add(targets, "pif", "print the product of p ** floor(x / f(p)) over primes p",
            run=_cmd_compute, value=_pif)
    p.add_argument("--f", dest="weight", required=True, help="weight: m | m-1 | m^A | log")
    p.add_argument("--x", type=_amount, required=True, help="the real argument x")

    checks = add(sub, "verify", "run a named identity check over a range").add_subparsers(
        dest="check", required=True
    )
    # perfbench/replay.py reads args.nmax for every check
    p = add(checks, "theorem1", "the product equals the multiset lcm on an x grid",
            run=_cmd_verify, run_check=_check_theorem1, nmax=None)
    p.add_argument("--f", dest="weight", default="m", help="weight: m | m-1 | m^A | log")
    p.add_argument("--xmax", type=_amount, help="largest x of the grid")
    p = add(checks, "theorem2", "the sigma(n)/n! valuations agree and lie in {0, 1}",
            run=_cmd_verify, run_check=_check_theorem2)
    p.add_argument("--nmax", type=natural, default=500, help="range bound")
    p.add_argument("--out", help="also write the valuation records as CSV (n,p,v,witness_k)")
    for name, fn, nmax, help in _NMAX_CHECKS:
        p = add(checks, name, help, run=_cmd_verify, run_check=_check_nmax, check_fn=fn)
        p.add_argument("--nmax", type=natural, default=nmax, help="range bound")

    p = add(sub, "triangle", "emit the q(n,k) table as CSV rows", run=_cmd_triangle)
    p.add_argument("--nmax", type=natural, default=7, help="last row")
    p.add_argument("--out", help="output path (default stdout)")

    p = add(sub, "constant", "enclose the prime series constant", run=_cmd_constant)
    p.add_argument("--tail-cut", type=_int_from(100))  # None: analytics.DEFAULT_TAIL_CUT

    p = add(sub, "scan", "emit per-n scan records as CSV or JSON", run=_cmd_scan)
    p.add_argument("--grid", default="dyadic", help="dyadic | step:K | list:a,b,c")
    p.add_argument("--n", type=int, default=1, help="grid start for dyadic and step:K")
    p.add_argument("--nmax", type=natural, required=True, help="grid end")
    p.add_argument("--workers", type=_int_from(1), default=1, help="accepted; has no effect")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--gnuplot", help="also write a gnuplot script stub to this path (csv, with --out)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        args.parser.error(str(exc))
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
