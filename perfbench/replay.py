"""Traced replay: the workload's commands again, in this process, layer by layer.

Each command is parsed with lcmf.cli's own parser and then rebuilt from the
public functions it is made of (one verify case, one scan piece, one lcm
search at a time), each call wrapped in a span, so that time lands on the
layer that does the work.  Every command starts from the state of a fresh
lcmf process: a cold smallest-prime-factor cache, and no prime table until
the command first asks for one (prop1, q and triangle never do).

The replay keeps its own copy of each verify loop.  It counts the cases it
checks per command, so that the caller can compare them with the "ok: ...
passed on N cases" line of the same command run untraced; a mismatch means
the copy no longer has the program's shape.

Spans (name, start, end, parent, command id) are kept in memory and written
out as JSON when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from lcmf import analytics, cli, primes, sequences, triangle, verify
from lcmf.factored import DigitBudgetError
from lcmf.primes import PrimeTable
from lcmf.products import WeightFunction, multiset_lcm, weighted_prime_product

# span name -> per-layer metric holding the sum of its durations
TIMED = {
    "primes.sieve": "primes.sieve_s",
    "primes.factorize": "primes.factorize_s",
    "analytics.constant": "analytics.constant_s",
    "analytics.log_rho": "analytics.log_rho_s",
    "analytics.log_sigma": "analytics.log_sigma_s",
    "analytics.s_split": "analytics.s_split_s",
    "analytics.card_a": "analytics.card_a_s",
    "analytics.dense_scan": "analytics.dense_scan_s",
    "analytics.theta_sum": "analytics.theta_sum_s",
    "sequences.chain": "sequences.chain_s",
    "sequences.sandwich": "sequences.sandwich_s",
    "sequences.quotient_primes": "sequences.quotient_primes_s",
    "sequences.rho_sigma": "sequences.rho_sigma_s",
    "factored.to_decimal": "factored.to_decimal_s",
    "products.multiset_lcm": "products.multiset_lcm_s",
    "products.weighted_prime_product": "products.weighted_prime_product_s",
    "triangle.q": "triangle.q_s",
}
COUNTED = (
    "primes.factorize_calls", "analytics.records", "factored.digits",
    "factored.to_decimal_failed", "products.multiset_lcm_calls", "triangle.q_calls",
    "verify.cases", "verify.violations",
)


class Tracer:
    """Spans and counters recorded from the benchmark's side of each call."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTED}
        self.cases_by_command: Counter[int] = Counter()
        self.command = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.command))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, command = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent, command)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def totals(self) -> dict[str, float]:
        out = {metric: 0.0 for metric in TIMED.values()}
        for name, start, end, _, _ in self.spans:
            if name in TIMED:
                out[TIMED[name]] += end - start
        return out

    def write(self, path: str, labels: list[str]) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "commands": labels,
                "fields": ["name", "start", "end", "parent", "command"],
                "spans": self.spans,
                "counts": self.counts,
            }, fh)


class TracedTable(PrimeTable):
    """A PrimeTable whose builds are spans and which remembers the bound it was asked for.

    needed is the largest bound requested outside the constant's own sieve,
    i.e. what the command's work needs, against limit, what the table holds.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.needed = 0
        with tracer.span("primes.sieve"):
            super().__init__()

    def ensure(self, limit: int) -> None:
        limit = int(limit)
        if not self.tracer.inside("analytics.constant"):
            self.needed = max(self.needed, limit)
        if limit > self.limit:
            with self.tracer.span("primes.sieve"):
                super().ensure(limit)

    def computed_bytes(self) -> int:
        """Bitmap, primes, their logs and the theta prefix, from the arrays' nbytes."""
        needed = self.needed
        ps = self.primes_up_to(self.limit)
        total = self.prime_mask(self.limit).nbytes + 3 * ps.nbytes + ps.itemsize
        self.needed = needed
        return total


def _render(value, tr: Tracer) -> None:
    """The CLI's decimal rendering; a refused conversion is counted, not raised."""
    with tr.span("factored.to_decimal"):
        try:
            tr.count("factored.digits", len(value.to_decimal()))
        except DigitBudgetError:
            pass
        except ValueError:  # CPython's int/str digit limit
            tr.count("factored.to_decimal_failed")


def _case(tr: Tracer, ok: bool) -> None:
    tr.count("verify.cases")
    tr.cases_by_command[tr.command] += 1
    if not ok:
        tr.count("verify.violations")


def _scan(args, table, tr: Tracer) -> None:
    t = table()
    with tr.span("analytics.constant"):
        c = analytics.prime_series_constant(analytics.DEFAULT_TAIL_CUT, t).midpoint
    ns = analytics.parse_grid(args.grid, args.n if args.n is not None else 1, args.nmax)
    t.ensure(ns[-1] + 2)
    tr.count("analytics.records", len(ns))
    if args.grid.startswith("step:"):
        with tr.span("primes.factorize"):
            for n in ns:
                primes.factorize(n, t)
                primes.divisors(n)
        tr.count("primes.factorize_calls", 2 * len(ns))
        with tr.span("analytics.dense_scan"):
            analytics.scan(ns, table=t, c=c)
        return
    for n in ns:
        with tr.span("analytics.log_rho"):
            analytics.log_rho(n, t)
        with tr.span("analytics.log_sigma"):
            analytics.log_sigma(n, t)
        with tr.span("analytics.s_split"):
            analytics.s_split(n, t)
        with tr.span("analytics.card_a"):
            analytics.quotient_prime_count(n, t)


def _theorem2(nmax: int, t: TracedTable, tr: Tracer) -> None:
    t.ensure(nmax + 2)
    for n in range(1, nmax + 1):
        with tr.span("sequences.quotient_primes"):
            wide = sequences.quotient_primes(n, wide=True, table=t).members
        for p in t.primes_up_to(n + 1).tolist():
            if p * p > n + 1:
                a1, a0 = divmod(n, p)
                v = (a0 + a1) // (p - 1)
                _case(tr, v == (p in wide) and v in (0, 1))


def _theta_identities(nmax: int, t: TracedTable, tr: Tracer, points: int = 1000) -> None:
    t.ensure(nmax + 2)
    for n in sorted(set(max(1, (i * nmax) // points) for i in range(1, points + 1))):
        tol = 1e-6 * max(1.0, n)
        with tr.span("analytics.log_rho"):
            lr = analytics.log_rho(n, t)
        with tr.span("analytics.log_sigma"):
            ls = analytics.log_sigma(n, t)
        with tr.span("analytics.theta_sum"):
            tsr = analytics.theta_sum_rho(n, t)
            tss = analytics.theta_sum_sigma(n, t)
        with tr.span("analytics.s_split"):
            s_total = analytics.s_split(n, t)[0]
        _case(tr, abs(tsr - lr) <= tol and abs(tss - ls) <= tol and abs(s_total - (ls - lr)) <= tol)


def _q(tr: Tracer, fn, *args):
    tr.count("triangle.q_calls")
    with tr.span("triangle.q"):
        return fn(*args)


def _verify(args, table, tr: Tracer) -> None:
    check, nmax = args.check, args.nmax
    if check == "theorem1":
        f = WeightFunction.parse(args.weight or "m")
        for x in verify.theorem1_grid(f, args.xmax):
            with tr.span("products.weighted_prime_product"):
                lhs = weighted_prime_product(f, x, table())
            tr.count("products.multiset_lcm_calls")
            with tr.span("products.multiset_lcm"):
                rhs = multiset_lcm(f, x)
            _case(tr, lhs == rhs)
    elif check == "prop1":
        for n in range(nmax + 1):
            prev = None
            for k in range(2 * n + 2):
                cur = _q(tr, triangle.diagonal, n, k)
                _case(tr, prev is None or prev.divides(cur))
                prev = cur
            frozen = _q(tr, triangle.diagonal, n, n)
            for k in range(n, n + 6):
                _case(tr, _q(tr, triangle.diagonal, n, k) == frozen)
    elif check == "cor2":
        t = table()
        for n in range(nmax + 1):
            with tr.span("sequences.rho_sigma"):
                s = sequences.sigma(n, t)
            _case(tr, s == _q(tr, triangle.sigma_from_diagonal, n))
    elif check == "prop2":
        t = table()
        for n in range(nmax + 1):
            with tr.span("sequences.chain"):
                flags = sequences.divisibility_chain(n, t)
            _case(tr, all(flags))
    elif check == "prop3":
        t = table()
        for n in range(nmax + 1):
            with tr.span("sequences.sandwich"):
                flags = sequences.factorial_sandwich(n, t)
            _case(tr, all(flags))
    elif check == "theorem2":
        _theorem2(nmax, table(), tr)
    elif check == "eq14-16":
        _theta_identities(nmax, table(), tr)
    else:
        raise ValueError(f"no replay for verify {check}")


def _compute(args, table, tr: Tracer) -> None:
    if args.target in ("rho", "sigma"):
        fn = sequences.rho if args.target == "rho" else sequences.sigma
        with tr.span("sequences.rho_sigma"):
            value = fn(args.ints[0], table())
    elif args.target == "q":
        value = _q(tr, triangle.q, *args.ints)
    else:
        with tr.span("products.weighted_prime_product"):
            value = weighted_prime_product(WeightFunction.parse(args.weight), args.x, table())
    _render(value, tr)


def _triangle(args, tr: Tracer) -> None:
    for n in range(args.nmax + 1):
        for k in range(n + 1):
            _render(_q(tr, triangle.q, n, k), tr)


def replay(argvs: list[list[str]], tr: Tracer) -> dict[str, float]:
    """Replay every command; return the table metrics (sieve bytes and use).

    A command's prime table is built on its first call to table(), as lcmf's
    default table is, so commands that never need one add no sieve time.
    """
    needed = held = 0
    peak_bytes = 0
    for i, argv in enumerate(argvs):
        tr.command = i
        args = cli.build_parser().parse_args(argv)
        primes._spf = primes._SpfTable()  # a fresh process starts with an empty cache
        made: list[TracedTable] = []

        def table() -> TracedTable:
            if not made:
                made.append(TracedTable(tr))
            return made[0]

        if args.subcommand == "scan":
            _scan(args, table, tr)
        elif args.subcommand == "verify":
            _verify(args, table, tr)
        elif args.subcommand == "compute":
            _compute(args, table, tr)
        elif args.subcommand == "triangle":
            _triangle(args, tr)
        else:
            raise ValueError(f"no replay for {args.subcommand}")
        for t in made:
            needed += t.needed
            held += t.limit
            peak_bytes = max(peak_bytes, t.computed_bytes())
    return {"primes.sieve_bytes": float(peak_bytes), "primes.sieve_used_ratio": needed / held}
