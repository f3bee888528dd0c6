"""Tests of the benchmark itself: seeded inputs, cost classes and the checkers.

    python3 -m pytest -q perfbench
"""

import math
import os
import time
from fractions import Fraction

import pytest

import measure
import reference
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(12)


@pytest.fixture(scope="module")
def ref():
    return reference.PrimeReference(10**7)


def test_same_seed_gives_same_commands():
    for w in workloads.WORKLOADS:
        first = [c.argv for c in workloads.commands(w, 5)]
        assert first == [c.argv for c in workloads.commands(w, 5)]
        assert any(first != [c.argv for c in workloads.commands(w, s)] for s in SEEDS)


def cost_proxy(cmds) -> list:
    """The sizes that set each command's cost."""
    out = []
    for cmd in cmds:
        a = cmd.argv
        if cmd.kind == "scan" and a[2] == "step:1":
            out.append(("scan", "step:1", len(cmd.ns)))
        elif cmd.kind == "scan":
            out.append(("scan", "list", len(cmd.ns), sum(cmd.ns), max(cmd.ns)))
        elif a[0] == "compute" and a[1] in ("rho", "sigma"):
            out.append(("compute", a[1], int(a[2]) >= workloads.DIGIT_LIMIT_N[a[1]]))
        elif a[0] == "compute" and a[1] == "q":
            out.append(("q", int(a[2]) - int(a[3])))
        elif a[0] == "compute" and a[1] == "pif":
            out.append(("pif", a[3], math.ceil(float(a[5]))))
        else:
            out.append(tuple(a))
    return out


def test_cost_proxy_is_the_same_for_every_seed():
    for w in workloads.WORKLOADS:
        proxies = {repr(cost_proxy(workloads.commands(w, s))) for s in SEEDS}
        assert len(proxies) == 1, w


def test_scan_n_stay_in_their_dyadic_blocks():
    for s in SEEDS:
        for cmd in workloads.commands("scan-sparse", s):
            ns = cmd.ns
            assert ns == sorted(set(ns))
            assert cmd.argv[cmd.argv.index("--nmax") + 1] == str(max(ns))
            blocks = [n.bit_length() - 1 for n in ns]
            assert blocks.count(blocks[-1]) == 1
            for j in set(blocks[:-1]):
                assert blocks.count(j) == 2 * workloads.SCAN_PAIRS


def test_pass_count_depends_on_seconds_alone():
    import run

    assert {w: run.pass_count(w, 35) for w in workloads.WORKLOADS} == {
        "scan-sparse": 6, "sweep-dense": 3, "lcm-enum": 4}
    assert all(run.pass_count(w, 1) == run.MIN_PASSES for w in workloads.WORKLOADS)


def test_known_digit_limit_failures_are_a_fixed_count():
    for s in SEEDS:
        computes = [c.argv for c in workloads.commands("sweep-dense", s) if c.argv[0] == "compute"]
        over = [a for a in computes if int(a[2]) >= workloads.DIGIT_LIMIT_N[a[1]]]
        assert len(over) == 2


def test_reference_primes_and_constant(ref):
    small = [p for p in range(2, 200) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert ref.primes[: len(small)].tolist() == small
    assert ref.pi(reference.np.array([10**6]))[0] == 78498
    assert ref.c.lo < 0.75536661 < ref.c.hi
    assert ref.c.hi - ref.c.lo < 1e-5


def test_scan_reference_matches_direct_sums(ref):
    for n in (1, 2, 10, 97, 1000, 12345):
        want = reference.scan_ref(n, ref)
        ps = [p for p in ref.primes.tolist() if p <= n + 1]
        assert math.isclose(want.log_rho, sum((n // p) * math.log(p) for p in ps if p <= n), abs_tol=1e-9 * n)
        assert math.isclose(want.log_sigma, sum((n // (p - 1)) * math.log(p) for p in ps), abs_tol=1e-9 * n)
        quotients = [(n + k) // k for k in range(1, math.isqrt(n) + 1)]
        assert want.card_a == sum(1 for m in quotients if m in set(ps))


def _scan_output(refs, c):
    rows = [",".join(reference.SCAN_FIELDS)]
    for r in refs:
        n, logn = r.n, math.log(r.n)
        rows.append(",".join(repr(v) for v in (
            r.n, r.log_rho, r.log_sigma, r.log_rho - (n * logn - (c + 1) * n),
            r.log_sigma - (n * logn - n), r.card_a, r.card_a * logn / math.sqrt(n),
            r.s1, r.log_sigma - r.log_rho - r.s1,
        )))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("field,delta", [
    ("log_rho", 0.5), ("log_sigma", -0.5), ("card_A", 1), ("s2", 0.5),
    ("residual_rho", 50.0), ("residual_sigma", 0.5), ("conj2_stat", 1e-3),
])
def test_perturbed_scan_row_fails(ref, field, delta):
    refs = [reference.scan_ref(n, ref) for n in (70001, 140003, 300007)]
    mid = 0.5 * (ref.c.lo + ref.c.hi)
    good = _scan_output(refs, mid)
    assert reference.check_scan(0, good, refs, ref.c) is None
    lines = good.splitlines()
    cells = lines[2].split(",")
    i = reference.SCAN_FIELDS.index(field)
    cells[i] = str(type(delta)(float(cells[i])) + delta) if field == "card_A" else repr(float(cells[i]) + delta)
    lines[2] = ",".join(cells)
    assert reference.check_scan(0, "\n".join(lines), refs, ref.c) is not None


def test_scan_accepts_any_c_in_the_enclosure(ref):
    refs = [reference.scan_ref(n, ref) for n in (70001, 300007)]
    for c in (ref.c.lo, ref.c.hi):
        assert reference.check_scan(0, _scan_output(refs, c), refs, ref.c) is None
    assert reference.check_scan(0, _scan_output(refs, ref.c.hi + 1e-4), refs, ref.c) is not None


def test_scan_missing_row_or_bad_exit_fails(ref):
    refs = [reference.scan_ref(n, ref) for n in (70001, 300007)]
    good = _scan_output(refs, 0.5 * (ref.c.lo + ref.c.hi))
    assert reference.check_scan(0, good.rsplit("\n", 2)[0], refs, ref.c) is not None
    assert reference.check_scan(1, good, refs, ref.c) is not None


def test_perturbed_decimal_or_exit_code_fails(ref):
    ps = ref.primes[:100].tolist()
    exps = reference.factored_sigma(6, ps)
    assert reference.check_factored(0, "2^6 * 3^3 * 5 * 7 = 60480\n", exps) is None
    assert reference.check_factored(0, "2^6 * 3^3 * 5 * 7 = 60481\n", exps) is not None
    assert reference.check_factored(0, "2^5 * 3^3 * 5 * 7 = 60480\n", exps) is not None
    assert reference.check_factored(2, "2^6 * 3^3 * 5 * 7 = 60480\n", exps) is not None
    assert reference.check_factored(0, "1\n", reference.factored_rho(1, ps)) is None
    assert reference.check_verify(0, "ok: prop2 passed on 301 cases\n") is None
    assert reference.check_verify(1, "ok: prop2 passed on 301 cases\n") is not None
    assert reference.check_verify(0, "FAIL: prop2: 1 violations in 301 cases\n") is not None


def _brute_q(n, k):
    def products(parts, bound, low):
        if parts == 0:
            yield 1
            return
        for part in range(low, bound - parts + 2):
            for rest in products(parts - 1, bound - part, part):
                yield part * rest
    return math.lcm(*products(k, n, 1))


def test_q_reference_matches_brute_force(ref):
    ps = ref.primes[:50].tolist()
    for n in range(0, 13):
        for k in range(0, n + 1):
            got = math.prod(p**e for p, e in reference.q_exponents(n, k, ps).items())
            assert got == _brute_q(n, k), (n, k)
    assert reference.triangle_rows(3, ps) == ["1", "1,1", "1,2,1", "1,6,2,1"]


def test_pif_reference():
    ps = [2, 3, 5, 7, 11]
    assert reference.factored_pif("m-1", Fraction(2), ps) == {2: 2, 3: 1}
    assert reference.factored_pif("m", Fraction("7.5"), ps) == {2: 3, 3: 2, 5: 1, 7: 1}


def test_real_command_is_measured_and_checked(ref):
    deadline = time.perf_counter() + 60
    cmd = workloads.Command(["compute", "sigma", "6"], "factored")
    out = measure.run_command(cmd, ROOT, deadline)
    measure.check(out, reference.checker_for(cmd, ref))
    assert out.ok and out.code == 0 and out.wall_s > 0 and out.peak_rss_mb > 1


def test_usage_error_and_timeout_count_as_failed(ref):
    bad = workloads.Command(["compute", "sigma"], "factored")
    out = measure.run_command(bad, ROOT, time.perf_counter() + 60)
    assert out.code == 2
    out.reason = reference.check_factored(out.code, out.stdout, {})
    assert not out.ok
    slow = workloads.Command(["verify", "prop2", "--nmax", "100000"], "verify")
    out = measure.run_command(slow, ROOT, time.perf_counter() + 0.5)
    measure.check(out, reference.checker_for(slow, ref))
    assert out.code == -9 and not out.ok


def _replay():
    import sys

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import replay

    return replay


def test_replay_counts_the_programs_cases_and_builds_tables_lazily():
    replay = _replay()
    from lcmf import verify

    argvs = [["verify", "prop1", "--nmax", "4"], ["verify", "theorem2", "--nmax", "60"],
             ["verify", "eq14-16", "--nmax", "3000"], ["compute", "q", "9", "4"]]
    tr = replay.Tracer()
    replay.replay(argvs, tr)
    want = [verify.check_prop1(4).cases, verify.check_theorem2(60).cases,
            verify.check_theta_identities(3000).cases]
    assert [tr.cases_by_command[i] for i in range(3)] == want
    sieved = {command for name, _, _, _, command in tr.spans if name == "primes.sieve"}
    assert sieved == {1, 2}  # prop1 and q never ask for a prime table


def test_replay_case_mismatch_fails_the_traced_run():
    import run

    cmd = workloads.Command(["verify", "prop2", "--nmax", "10"], "verify")
    done = measure.Outcome(cmd.label, 1.0, 1.0, 50.0, 0, "", cases=11)
    run._check_cases([cmd], [[done], [done]], {0: 11})
    run._check_cases([cmd], [[measure.Outcome(cmd.label, 1.0, 1.0, 50.0, 1, "", reason="exit 1")]], {0: 10})
    with pytest.raises(RuntimeError, match="no longer matches"):
        run._check_cases([cmd], [[done]], {0: 10})


def test_metrics_take_each_commands_median_over_passes():
    import run

    def outcome(wall):
        return measure.Outcome("c", wall, wall, wall, 0, "")

    passes = [[outcome(1.0), outcome(5.0)], [outcome(9.0), outcome(6.0)], [outcome(2.0), outcome(7.0)]]
    assert run._per_command(passes, "wall_s", sum) == 8.0
    assert run._per_command(passes, "peak_rss_mb", max) == 6.0


def test_stolen_time_is_taken_off_wall_time():
    assert measure.Outcome("c", 2.0, 1.5, 9.0, 0, "", stolen_s=0.25).net_wall_s == 1.75
    assert measure.stolen_seconds() >= 0.0


def test_times_are_scaled_by_the_speed_probe():
    slow = measure.Outcome("c", 2.25, 2.0, 9.0, 0, "", stolen_s=0.25, probe_s=2 * measure.PROBE_REF_S)
    assert (slow.ref_wall_s, slow.ref_cpu_s) == (1.0, 1.0)
    assert slow.peak_rss_mb == 9.0
    assert measure.Outcome("c", 2.0, 1.5, 9.0, 0, "").ref_wall_s == 2.0
    assert 0.0 < measure.speed_probe() < 1.0
