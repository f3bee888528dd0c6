"""Seeded command lists for the three workloads.

The seed only moves inputs inside a fixed cost class, so the sizes that set a
workload's cost are the same for every seed:

- scan n come in pairs placed symmetrically about the centre of their
  dyadic block, so the sum of n per scan is fixed, and each scan's largest n
  (which sets the sieve size) is fixed;
- the verify sweep bounds and the theorem1 xmax values never move;
- compute q keeps n - k = 35 (its search budget) while k moves by up to 2;
- compute rho / sigma draw n from fixed ranges on either side of the
  decimal-output limit described in README.md, so the number of commands
  that hit it is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SCAN_BLOCKS = ((16, 21), (22, 26))  # one scan command per range of dyadic blocks
SCAN_PAIRS = 2  # seeded pairs of n per dyadic block below the top one
DENSE_BASE = 1 << 20
DENSE_WINDOW = 1500
SWEEP_NMAX = {"prop2": 2000, "prop3": 2000, "theorem2": 2000, "eq14-16": 30_000}
# smallest n whose decimal output passes CPython's 4300-digit int/str limit
DIGIT_LIMIT_N = {"rho": 1730, "sigma": 1560}
# (target, lo, hi): one command each, on either side of DIGIT_LIMIT_N
COMPUTE_RANGES = (
    ("rho", 1000, 1700), ("rho", 2000, 8000),
    ("sigma", 1000, 1500), ("sigma", 2000, 8000),
)
THEOREM1_XMAX = (("m", 36), ("m-1", 31), ("m^1.5", 80), ("log", 3.9))
PROP1_NMAX, COR2_NMAX, TRIANGLE_NMAX = 14, 30, 14
Q_BUDGET, Q_K = 35, 35
PIF_X = (("m", 36), ("m-1", 31))  # x = xmax - a seeded quarter-step offset

WORKLOADS = ("scan-sparse", "sweep-dense", "lcm-enum")
# Nominal seconds per untraced pass, set-up runs included, on a 2-vCPU Intel
# Xeon VM.  The pass count is --seconds over this, fixed before the run starts,
# so it never depends on how fast a particular run goes.
PASS_SECONDS = {"scan-sparse": 5.5, "sweep-dense": 11.0, "lcm-enum": 8.5}


@dataclass
class Command:
    """One lcmf invocation and what its output is checked against.

    kind selects the checker: scan (rows for ns), factored (one value),
    lines (triangle rows), verify (exit 0 and an ok: line).
    """

    argv: list[str]
    kind: str
    ns: list[int] = field(default_factory=list)

    @property
    def label(self) -> str:
        return " ".join(self.argv)[:80]


def scan_ns(rng: random.Random, jlo: int, jhi: int) -> list[int]:
    """Seeded n in the dyadic blocks [2^j, 2^(j+1)) for jlo <= j < jhi, then 1.5 * 2^jhi.

    Each block gets SCAN_PAIRS pairs placed symmetrically about its centre.
    The top block holds only the fixed largest n: seeded n there change which
    of the scan's large arrays the allocator reuses, and so its peak RSS.
    """
    ns = [3 << (jhi - 1)]
    for j in range(jlo, jhi):
        centre = 3 << (j - 1)
        for d in rng.sample(range(1, 1 << (j - 2)), SCAN_PAIRS):
            ns += [centre - d, centre + d]
    return sorted(ns)


def _scan(ns: list[int], grid: str, start: int | None = None) -> Command:
    argv = ["scan", "--grid", grid, "--nmax", str(max(ns)), "--workers", "1"]
    if start is not None:
        argv += ["--n", str(start)]
    return Command(argv, "scan", ns=ns)


def commands(workload: str, seed: int) -> list[Command]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-sparse":
        out = []
        for jlo, jhi in SCAN_BLOCKS:
            ns = scan_ns(rng, jlo, jhi)
            out.append(_scan(ns, "list:" + ",".join(map(str, ns))))
        return out
    if workload == "sweep-dense":
        start = DENSE_BASE + rng.randrange(0, 1 << 16)
        ns = list(range(start, start + DENSE_WINDOW))
        out = [_scan(ns, "step:1", start)]
        out += [Command(["verify", check, "--nmax", str(nmax)], "verify")
                for check, nmax in SWEEP_NMAX.items()]
        for target, lo, hi in COMPUTE_RANGES:
            out.append(Command(["compute", target, str(rng.randint(lo, hi))], "factored"))
        return out
    if workload == "lcm-enum":
        out = [Command(["verify", "theorem1", "--f", f, "--xmax", str(x)], "verify")
               for f, x in THEOREM1_XMAX]
        out.append(Command(["verify", "prop1", "--nmax", str(PROP1_NMAX)], "verify"))
        out.append(Command(["verify", "cor2", "--nmax", str(COR2_NMAX)], "verify"))
        k = Q_K + rng.randint(-2, 2)
        out.append(Command(["compute", "q", str(k + Q_BUDGET), str(k)], "factored"))
        for f, x in PIF_X:
            xv = x - rng.randint(0, 3) / 4
            out.append(Command(["compute", "pif", "--f", f, "--x", str(xv)], "factored"))
        out.append(Command(["triangle", "--nmax", str(TRIANGLE_NMAX)], "lines"))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def setup_command() -> Command:
    """The fixed cost every command pays: start, import, parse, default sieve."""
    return Command(["compute", "rho", "1"], "factored")

