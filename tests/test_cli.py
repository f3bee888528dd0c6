import json
import math
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lcmf import cli, primes, verify
from lcmf.products import WeightFunction

from oracles import naive_rho, naive_sigma


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_sigma(capsys):
    code, out, _ = run_cli(capsys, "compute", "sigma", "6")
    assert code == 0
    assert out.strip() == "2^6 * 3^3 * 5 * 7 = 60480"


def test_compute_rho_one(capsys):
    code, out, _ = run_cli(capsys, "compute", "rho", "1")
    assert code == 0
    assert out.strip() == "1"


def test_compute_pif(capsys):
    code, out, _ = run_cli(capsys, "compute", "pif", "--f", "m-1", "--x", "2")
    assert code == 0
    assert out.strip() == "2^2 * 3 = 12"


def test_compute_pif_past_2_63(capsys):
    # a budget of 10^20 > 2^63 on both sides: 2 ** (10^20 // 2^63) = 2^10
    from lcmf.products import multiset_lcm

    code, out, _ = run_cli(capsys, "compute", "pif", "--f", "m^63", "--x", "1e20")
    lcm = multiset_lcm(WeightFunction.parse("m^63"), 1e20)
    assert code == 0 and out.strip() == "2^10 = 1024" == f"{lcm} = {lcm.to_decimal()}"


def test_compute_pif_past_alpha_63(capsys):
    # m^64 at 10^20: 10^20 // 2^64 = 5, and 3^64 > 10^20, on both sides
    from lcmf.products import multiset_lcm

    code, out, _ = run_cli(capsys, "compute", "pif", "--f", "m^64", "--x", "1e20")
    lcm = multiset_lcm(WeightFunction.parse("m^64"), 1e20)
    assert code == 0 and out.strip() == "2^5 = 32" == f"{lcm} = {lcm.to_decimal()}"


def test_compute_pif_past_memory_is_refused(capsys):
    # m at 10^19 needs a prime table up to 10^19: refused before it is built
    code, _, err = run_cli(capsys, "compute", "pif", "--f", "m", "--x", "1e19")
    assert code == 1 and "needs about" in err


def test_compute_q(capsys):
    code, out, _ = run_cli(capsys, "compute", "q", "7", "2")
    assert code == 0
    assert out.strip() == "2^3 * 3^2 * 5 = 360"


def test_compute_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "sigma"])  # missing argument
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "pif", "--x", "2"])  # missing --f
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch", "--nmax", "10"])
    assert exc.value.code == 2
    for argv in (
        ["compute", "q", "3", "5"],
        ["compute", "rho", "-1"],
        ["compute", "pif", "--f", "m^", "--x", "2"],
        ["compute", "pif", "--f", "m^nan", "--x", "2"],
        ["compute", "pif", "--f", "m^1e308", "--x", "5"],
        ["compute", "pif", "--f", "m", "--x", "-1"],
        ["compute", "pif", "--f", "m", "--x", "inf"],
        ["compute", "pif", "--f", "m", "--x", "nan"],
        ["verify", "theorem1", "--f", "m", "--xmax", "-3"],
        ["verify", "theorem1", "--f", "m", "--xmax", "inf"],
        ["verify", "theorem1", "--f", "m", "--xmax", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_usage_errors_in_a_handler_name_the_failing_command(capsys):
    for argv, prog in (
        (["compute", "q", "3", "5"], "lcmf compute q"),
        (["compute", "pif", "--f", "m^", "--x", "2"], "lcmf compute pif"),
        (["verify", "theorem1", "--f", "m+1"], "lcmf verify theorem1"),
        (["scan", "--grid", "step:0", "--nmax", "10"], "lcmf scan"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} ") and f"\n{prog}: error: " in err, argv


def test_oversized_log_grid_is_usage_error():
    log = WeightFunction.parse("log")
    assert len(verify.theorem1_grid(log, 8.98)) <= verify.GRID_MAX_POINTS
    for xmax in ("8.99", "40", "710", "1e6"):
        with pytest.raises(ValueError):
            verify.theorem1_grid(log, float(xmax))
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "theorem1", "--f", "log", "--xmax", xmax])
        assert exc.value.code == 2


def test_oversized_grid_is_usage_error_for_every_weight():
    for spec in ("m", "m-1", "m^2"):
        f = WeightFunction.parse(spec)
        assert len(verify.theorem1_grid(f, 4999.5)) == verify.GRID_MAX_POINTS
        for xmax in ("4999.75", "1e9", "1e308"):
            with pytest.raises(ValueError):
                verify.theorem1_grid(f, float(xmax))
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "theorem1", "--f", spec, "--xmax", xmax])
            assert exc.value.code == 2


def test_table_over_physical_memory_is_an_error(capsys):
    # theorem2 sieves a table up to nmax + 2
    code, _, err = run_cli(capsys, "verify", "theorem2", "--nmax", str(10**13))
    assert code == 1
    assert err.startswith("error: a prime table up to") and "memory" in err


def _address_space_of_1_gib():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv", [["compute", "q", "1000000000000", "5"], ["triangle", "--nmax", "1000000000000"]]
)
def test_lcm_table_over_physical_memory_is_an_error(argv):
    # the table for the prime 2 alone would hold 10^12 entries: refused
    # before it is built.  A child process in 1 GiB of address space, so
    # that a table built anyway fails on its own memory, not the machine's
    proc = subprocess.run(
        [sys.executable, "-m", "lcmf.cli", *argv], env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True, text=True, timeout=60, preexec_fn=_address_space_of_1_gib,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: an lcm table of") and "memory" in proc.stderr


def _refused_in_a_child(argv, what):
    """argv, a CLI command or a -c program, in a child in 1 GiB of address
    space: it must print the memory message starting with what, in under
    2 s, where a table built anyway grinds for minutes.  Its exit code and
    stdout."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *argv], env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True, text=True, timeout=10, preexec_fn=_address_space_of_1_gib,
    )
    assert time.monotonic() - start < 2
    message = proc.stderr or proc.stdout
    assert message.startswith(what) and "memory" in message, proc.stderr
    return proc.returncode, proc.stdout


def test_hypothesis_check_past_physical_memory_is_an_error():
    # its list of ratios, 32 B a value, is priced before the first f(m): at
    # physical memory // 16 it is twice the memory
    bound = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 16
    probe = (
        "from lcmf import check_hypothesis\n"
        "try:\n"
        f"    check_hypothesis(lambda m: float(m), {bound})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    code, _ = _refused_in_a_child(["-c", probe], f"the weight's f(m) / log m up to {bound} needs")
    assert code == 0


@pytest.mark.parametrize("check", ["prop1", "cor2"])
def test_prop1_and_cor2_past_physical_memory_are_an_error(check):
    # each streams its pairs to one table at budget nmax, priced first: at
    # 10^9 the table, about 4.13e9 entries over every prime, is refused
    # before any pair is listed
    argv = ["-m", "lcmf.cli", "verify", check, "--nmax", str(10**9)]
    code, out = _refused_in_a_child(argv, "error: an lcm table of about 4.13e+09 entries needs")
    assert code == 1 and out == ""


def test_part_minus_1_table_past_physical_memory_is_an_error():
    # the price counts every prime's entries: at this budget the prime 2's
    # b + 1 entries of about 60 B would fit, and every prime's together,
    # about 3.9 times as many, would not.  Their bound, b S + pi(b + 1),
    # with S and pi bounded as in products._lcm_table, is what is named
    b = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 150
    lg = math.log(b + 1)
    entries = b * (math.log(lg) + 0.2615 + 1 / (2 * lg * lg) + 0.7732) + 1.25506 * (b + 1) / lg
    assert 3.9 * (b + 1) < entries < 4.1 * (b + 1)
    what = f"error: an lcm table of about {entries:.3g} entries needs"
    for argv in (["compute", "q", str(b + 5), "5"], ["triangle", "--nmax", str(b)]):
        code, out = _refused_in_a_child(["-m", "lcmf.cli", *argv], what)
        assert code == 1 and out == ""
    probe = (
        "from lcmf.products import WeightFunction, multiset_lcm\n"
        "try:\n"
        f"    multiset_lcm(WeightFunction.shifted(), {b})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    code, _ = _refused_in_a_child(["-c", probe], what[len("error: ") :])
    assert code == 0


@pytest.mark.parametrize("check", ["theorem2", "split"])
def test_theorem2_and_split_walks_past_physical_memory_are_an_error(check):
    # at physical memory // 6 the table's own price fits, and the walk beside
    # it, 9 B an n and 56 B a prime, would not: the two are priced at once,
    # before the table grows
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    n = have // 6
    assert n + 3 + 16 * 1.26 * (n + 2) / math.log(n + 2) < have
    argv = ["-m", "lcmf.cli", "verify", check, "--nmax", str(n)]
    code, out = _refused_in_a_child(argv, f"error: a prime table up to {n + 2} and its large-prime walk")
    assert code == 1 and out == ""


@pytest.mark.parametrize("check, facts", [("prop2", 4), ("prop3", 2)])
def test_prop2_and_prop3_flags_past_physical_memory_are_an_error(check, facts):
    # at physical memory // 6 the table's own price fits, and the table with
    # its prime list, 48 B a prime, and a failure byte per fact and n would
    # not: the three are priced at once, before the table grows
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    n = have // 6
    count = 1.26 * (n + 1) / math.log(n + 1)
    assert n + 2 + 16 * count < have < n + 2 + 64 * count + facts * (n + 1)
    argv = ["-m", "lcmf.cli", "verify", check, "--nmax", str(n)]
    what = f"error: a prime table up to {n + 1} and {facts} failure flags an n"
    code, out = _refused_in_a_child(argv, what)
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "target, bound",
    [(["rho"], 0), (["sigma"], 1), (["pif", "--f", "m", "--x"], 0)],
    ids=["rho", "sigma", "pif"],
)
def test_compute_past_physical_memory_is_an_error(target, bound):
    # at physical memory // 3 the table's own price fits, and the table with
    # its prime list, the exponent dict and the printed factorization would
    # not: they are priced at once, before the table grows
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    n = have // 3
    assert n + bound + 1 + 16 * 1.26 * (n + bound) / math.log(n + bound) < have
    what = f"error: a prime table up to {n + bound} and the product over its primes"
    code, out = _refused_in_a_child(["-m", "lcmf.cli", "compute", *target, str(n)], what)
    assert code == 1 and out == ""


def test_scan_row_over_physical_memory_is_an_error(capsys, monkeypatch):
    # an 8 GiB machine, whatever this one has: the row at 2^60 is never run
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1 << 21, "SC_PAGE_SIZE": 4096}.get)
    monkeypatch.setattr(primes, "_default_table", primes.PrimeTable())
    n = str(1 << 60)
    code, out, err = run_cli(capsys, "scan", "--grid", f"list:{n}", "--nmax", n)
    assert code == 1 and out == ""
    assert err.startswith(f"error: a scan row at n = {n} needs about") and "memory" in err
    assert primes._default_table.limit == 4  # refused before the table grew


def test_theta_identities_row_over_physical_memory_is_an_error(capsys, monkeypatch):
    # eq14-16 takes the scan's rows and its set-up, so on an 8 GiB machine
    # its grid point at 2^60 is refused as the scan's row is
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1 << 21, "SC_PAGE_SIZE": 4096}.get)
    monkeypatch.setattr(primes, "_default_table", primes.PrimeTable())
    n = str(1 << 60)
    code, out, err = run_cli(capsys, "verify", "eq14-16", "--nmax", n)
    assert code == 1 and out == ""
    assert err.startswith(f"error: a scan row at n = {n} needs about") and "memory" in err
    assert primes._default_table.limit == 4  # refused before the table grew


def test_scan_stdout_equals_out_file(capsys, tmp_path):
    args = ["scan", "--grid", "list:100,5000,20000", "--nmax", "20000"]
    heads = {"csv": "n,log_rho,log_sigma,", "json": '[\n {\n  "n": 100,\n  "log_rho": '}
    for fmt in ("csv", "json"):
        path = tmp_path / f"scan.{fmt}"
        code, out, _ = run_cli(capsys, *args, "--format", fmt)
        assert code == 0 and out.startswith(heads[fmt])
        code, _, _ = run_cli(capsys, *args, "--format", fmt, "--out", str(path))
        assert code == 0
        assert out.encode() == path.read_bytes()


_SRC = Path(__file__).resolve().parents[1] / "src"

_HEAVY = ("mpmath", "concurrent.futures.process", "numpy")

# runs `python -m lcmf.cli ARGS`, then prints which of the heavy modules, of
# dataclasses, inspect and decimal, and of lcmf's submodules got loaded
_IMPORT_PROBE = (
    "import atexit, runpy, sys\n"
    f"watched = {_HEAVY + ('dataclasses', 'inspect', 'decimal')!r}\n"
    "atexit.register(lambda: print('loaded:', *[m for m in watched if m in sys.modules],\n"
    "                              *sorted(m for m in sys.modules if m.startswith('lcmf.'))))\n"
    "runpy.run_module('lcmf.cli', run_name='__main__', alter_sys=True)\n"
)

# the ordered variant: lcmf's submodules, numpy and json in the order their
# imports began.  A module enters sys.modules as its import begins, and is
# compiled then, before it runs the imports of its own
_ORDER_PROBE = (
    "import atexit, runpy, sys\n"
    "began = []\n"
    "sys.addaudithook(lambda event, args: event == 'import' and began.append(args[0]))\n"
    "atexit.register(lambda: print('began:', *[m for m in began\n"
    "                                          if m.startswith('lcmf.') or m in ('numpy', 'json')]))\n"
    "runpy.run_module('lcmf.cli', run_name='__main__', alter_sys=True)\n"
)


def _loaded_modules(*argv, probe=_IMPORT_PROBE):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1].split()[1:]


def _loaded_heavy_modules(*argv):
    return [m for m in _loaded_modules(*argv) if m in _HEAVY]


def test_startup_imports_no_mpmath_or_process_pool():
    assert _loaded_heavy_modules("compute", "rho", "1") == []
    # scans take c as a literal, so they need neither; their arrays need numpy
    assert _loaded_heavy_modules("scan", "--grid", "list:1000", "--nmax", "1000") == ["numpy"]
    # the log weight's cap floor(e**x) comes from the stdlib's decimal
    assert _loaded_heavy_modules("compute", "pif", "--f", "log", "--x", "3") == []


def test_numpy_is_loaded_only_by_the_bulk_array_commands():
    weights = ("m", "m-1", "m^1.5", "log")
    scalar = [["compute", target, "1200"] for target in ("rho", "sigma")]
    scalar += [["compute", "q", "72", "37"], ["verify", "prop1", "--nmax", "5"]]
    scalar += [["verify", "cor2", "--nmax", "8"], ["verify", "theorem2", "--nmax", "50"]]
    scalar += [["verify", check, "--nmax", "50"] for check in ("prop2", "prop3", "split")]
    scalar += [["triangle", "--nmax", "6"]]
    scalar += [["compute", "pif", "--f", f, "--x", "7.5"] for f in weights]
    scalar += [["verify", "theorem1", "--f", f, "--xmax", "4"] for f in weights]
    for argv in scalar:
        assert _loaded_heavy_modules(*argv) == [], argv
    assert _loaded_heavy_modules("verify", "eq14-16", "--nmax", "10") == ["numpy"]
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    probe = (
        "import sys, lcmf; subs = [m for m in sys.modules if m.startswith('lcmf.')]; "
        "print(len(subs), 'numpy' in sys.modules, lcmf.scan.__module__)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.stdout.split() == ["0", "False", "lcmf.analytics"], proc.stderr
    probe = "import sys, lcmf.sequences; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.stdout.split() == ["False"], proc.stderr


def test_every_public_name_loads_from_its_submodule():
    import lcmf

    for name in lcmf.__all__:
        assert getattr(lcmf, name).__module__ == f"lcmf.{lcmf._SUBMODULE[name]}", name


# one command of each shape that the benchmark's workloads run, at small sizes
# (the modules a command loads do not depend on its sizes), and constant
_WORKLOAD_COMMANDS = [
    ["scan", "--grid", "list:1000,70000,5000000", "--nmax", "5000000", "--workers", "1"],
    ["scan", "--grid", "step:1", "--nmax", "1100", "--workers", "1", "--n", "1000"],
    *(["verify", check, "--nmax", "50"] for check in ("prop2", "prop3", "theorem2", "eq14-16")),
    ["compute", "rho", "1200"], ["compute", "sigma", "5816"],
    *(["verify", "theorem1", "--f", f, "--xmax", "4"] for f in ("m", "m-1", "m^1.5", "log")),
    ["verify", "prop1", "--nmax", "5"], ["verify", "cor2", "--nmax", "8"],
    ["compute", "q", "72", "37"],
    *(["compute", "pif", "--f", f, "--x", "35.75"] for f in ("m", "m-1")),
    ["triangle", "--nmax", "6"],
    ["constant", "--tail-cut", "1000"],
]


def test_each_command_loads_only_its_own_modules():
    for argv in _WORKLOAD_COMMANDS:
        loaded = set(_loaded_modules(*argv))
        name = " ".join(argv[:2]) if argv[0] in ("compute", "verify") else argv[0]
        assert "dataclasses" not in loaded, argv
        # numpy's own import loads inspect (numpy._core.overrides); nothing else may
        assert "inspect" not in loaded or "numpy" in loaded, argv
        if name in ("compute rho", "compute sigma", "compute pif", "verify theorem1"):
            assert "lcmf.triangle" not in loaded, argv
        if name in ("compute rho", "compute sigma", "compute pif"):
            assert "lcmf.verify" not in loaded, argv
        if name in ("compute q", "triangle", "compute rho", "compute sigma"):
            assert not loaded & {"lcmf.verify", "lcmf.sequences"}, argv
        if name in ("verify theorem1", "verify prop1", "verify eq14-16"):
            assert "lcmf.sequences" not in loaded, argv
        if name == "verify theorem2":
            assert "lcmf.sequences" in loaded, argv
        if name in ("verify prop2", "verify prop3"):  # decided on plain ints
            assert "numpy" not in loaded, argv
        if name in ("compute rho", "compute sigma"):  # only the log weight needs decimal
            assert "decimal" not in loaded, argv
        reads_analytics = name in ("scan", "constant", "verify eq14-16")
        assert ("lcmf.analytics" in loaded) == reads_analytics, argv
    assert "decimal" in _loaded_modules("compute", "pif", "--f", "log", "--x", "3")


def test_numpy_commands_compile_every_lcmf_module_before_numpy():
    # from source with no bytecode written, a module compiled once numpy has
    # loaded adds its compile's memory to numpy's peak, and one compiled
    # before numpy leaves it for numpy to reuse.  Every command that loads
    # numpy begins each lcmf import before numpy's; scans and constant
    # compile no theta-sum code and no json, which scan --format json alone
    # reads.  The theta route lives in lcmf.theta alone
    from lcmf import analytics

    json_scan = ["scan", "--grid", "list:1000,5000000", "--nmax", "5000000", "--format", "json"]
    for argv in [*_WORKLOAD_COMMANDS, json_scan]:
        began = _loaded_modules(*argv, probe=_ORDER_PROBE)
        if "numpy" not in began:
            continue
        name = " ".join(argv[:2]) if argv[0] == "verify" else argv[0]
        assert name in ("scan", "constant", "verify eq14-16"), argv
        lcmf = [m for m in began if m.startswith("lcmf.")]
        assert began.index("numpy") > max(map(began.index, lcmf)), (argv, began)
        assert ("lcmf.theta" in began) == (name == "verify eq14-16"), (argv, began)
        assert ("json" in began) == (argv == json_scan), (argv, began)
    moved = ("_lucy", "_s1_budget", "_row_budget", "_row_bytes", "_theta_rho", "_theta_sums",
             "_theta_budget", "_LUCY_BATCH_CELLS")
    assert [name for name in moved if hasattr(analytics, name)] == []


def test_internal_value_error_is_an_error_not_usage(capsys, monkeypatch):
    def broken(cfg):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_cmd_triangle", broken)
    code, _, err = run_cli(capsys, "triangle", "--nmax", "3")
    assert code == 1
    assert "error: boom" in err


def test_failed_scan_checks_are_errors(capsys, monkeypatch):
    # one prime's exponent in a scan row raised by one, which the rows' check
    # against Legendre's formula catches, and a row that raises, on one row,
    # and on two rows with --workers 1 or 2.  Then Lucy's sieve, which
    # serves the theta sums alone: theta(n // 2) raised by 100 and a failing
    # in-row check of _lucy, at the one Lucy row of verify eq14-16's grid
    from lcmf import analytics, theta

    n = (1 << 30) + 12345
    argvs = [("scan", "--grid", f"list:{n}", "--nmax", str(n))]
    argvs += [("scan", "--grid", f"list:{n},{n + 2}", "--nmax", str(n + 2), "--workers", w)
              for w in ("1", "2")]
    exponents = analytics._exponents

    def raised_exponent(nb, ps):
        return exponents(nb, ps) + (ps == 3)

    def failing_rows(ns, t, kind, carry):
        raise ArithmeticError(f"a row failed at n={ns[0]}")

    for name, mutant, message in (
        ("_exponents", raised_exponent, "log rho disagrees with Legendre's formula"),
        ("_rows", failing_rows, "a row failed"),
    ):
        monkeypatch.setattr(analytics, name, mutant)
        for argv in argvs:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: {message} at n={n}\n"), argv
        monkeypatch.undo()
    # the grid's last point alone is at or above LUCY_THRESHOLD
    nmax = analytics.LUCY_THRESHOLD + 2000
    assert 999 * nmax // 1000 < analytics.LUCY_THRESHOLD
    real = theta._lucy

    def raised(m, t, q):
        pi, (at_small, at_v) = real(m, t, q)
        at_small[1] += 100
        return pi, (at_small, at_v)

    def failing(m, t, q):
        raise ArithmeticError(f"Lucy's sieve disagrees with the prime table at n={m}")

    monkeypatch.setattr(theta, "_lucy", raised)
    code, out, err = run_cli(capsys, "verify", "eq14-16", "--nmax", str(nmax))
    assert code == 1 and err == ""
    assert [line.split(" off")[0] for line in out.splitlines() if line.startswith("violation")] == [
        f"violation: n={nmax}: theta sum for {what}" for what in ("rho", "sigma")
    ]
    monkeypatch.setattr(theta, "_lucy", failing)
    code, out, err = run_cli(capsys, "verify", "eq14-16", "--nmax", str(nmax))
    assert (code, out, err) == (1, "", f"error: Lucy's sieve disagrees with the prime table at n={nmax}\n")


def test_verify_passing(capsys):
    code, out, _ = run_cli(capsys, "verify", "prop2", "--nmax", "300")
    assert code == 0
    assert "ok: prop2 passed on 301 cases" in out
    code, out, _ = run_cli(capsys, "verify", "prop1", "--nmax", "0")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--f", "m", "--xmax", "10")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "cor2", "--nmax", "12")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "split")
    assert code == 0
    assert "ok: split passed on 2000 cases" in out


def test_verify_at_nmax_0_checks_only_its_range(capsys):
    # eq14-16 and split check n >= 1, so at nmax 0 they check no case and
    # report no worst ratio or sup; prop1, prop2 and cor2 check n = 0, prop1
    # in its 2 n + 8 cases
    for check in ("eq14-16", "split"):
        assert run_cli(capsys, "verify", check, "--nmax", "0") == (0, f"ok: {check} passed on 0 cases\n", "")
    for check, cases in (("prop1", 8), ("prop2", 1), ("cor2", 1)):
        assert run_cli(capsys, "verify", check, "--nmax", "0") == (0, f"ok: {check} passed on {cases} cases\n", "")


def test_verify_theorem2_and_theta(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem2", "--nmax", "200")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "eq14-16", "--nmax", "2000")
    assert code == 0
    # one note: the worst |difference| / bound, its comparison and its n
    note, ok = out.splitlines()
    assert ok == "ok: eq14-16 passed on 1000 cases"
    prefix = "note: worst |difference| / bound = "
    ratio, where = note.removeprefix(prefix).split(", ")
    what, n = where.split(" at n = ")
    assert note.startswith(prefix) and 0 < float(ratio) <= 1
    assert what in ("theta sum for rho", "theta sum for sigma", "quotient log split")
    assert 1 <= int(n) <= 2000


def test_triangle_output(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "triangle", "--nmax", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    assert lines[4] == "1,12,12,2,1"
    assert lines[7] == "1,420,360,360,24,12,2,1"
    path = tmp_path / "tri.csv"
    code, _, _ = run_cli(capsys, "triangle", "--nmax", "5", "--out", str(path))
    assert code == 0
    assert path.read_text().splitlines()[5] == "1,60,12,12,2,1"


def test_constant_output(capsys):
    code, out, _ = run_cli(capsys, "constant", "--tail-cut", "10000")
    assert code == 0
    assert "lo=0.755" in out and "width=" in out


def test_scan_dyadic_grid_counts(capsys, tmp_path):
    path = tmp_path / "scan.csv"
    code, _, err = run_cli(
        capsys, "scan", "--grid", "dyadic", "--n", "16", "--nmax", str(1 << 20), "--out", str(path)
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 18  # header + 17 records
    assert lines[0].startswith("n,log_rho,log_sigma")
    assert "constant enclosure" in err and "residual uncertainty at nmax: " in err
    lo, hi = map(float, err.split("[", 1)[1].split("]", 1)[0].split(", "))
    assert lo < 0.7553666108316880 < hi and hi - lo < 1e-15  # the analytic c


def test_scan_rows_run_in_the_calling_thread(capsys, monkeypatch):
    # --workers is accepted and read by nothing: two rows from 2^22 on with
    # --workers 2 and no thread able to start give the bytes of --workers 1
    import threading

    n = (1 << 30) + 12345
    argv = ["scan", "--grid", f"list:{n},{n + 2}", "--nmax", str(n + 2), "--workers"]
    code, want, _ = run_cli(capsys, *argv, "1")
    assert code == 0 and len(want.splitlines()) == 3

    def start(self):
        raise RuntimeError("a scan started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    assert run_cli(capsys, *argv, "2")[:2] == (0, want)


def test_scan_json_and_worker_determinism(capsys, tmp_path):
    p1 = tmp_path / "a.json"
    p8 = tmp_path / "b.json"
    args = ["scan", "--grid", "list:100,5000,20000", "--nmax", "20000", "--format", "json"]
    code, _, _ = run_cli(capsys, *args, "--out", str(p1), "--workers", "1")
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--out", str(p8), "--workers", "8")
    assert code == 0
    assert p1.read_bytes() == p8.read_bytes()
    data = json.loads(p1.read_text())
    assert data[0]["card_A"] == 4


def test_scan_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--grid", "dyadic"])  # no --nmax
    assert exc.value.code == 2
    for argv in (
        ["scan", "--grid", "step:0", "--nmax", "10"],
        ["scan", "--grid", "list:0", "--nmax", "5"],
        ["scan", "--grid", "list:3,-2", "--nmax", "5"],
        # an empty grid, a list value above --nmax and out-of-range options
        ["scan", "--grid", "step:1", "--n", "10", "--nmax", "5"],
        ["scan", "--grid", "dyadic", "--n", "5", "--nmax", "7"],
        ["scan", "--grid", "list:", "--nmax", "5"],
        ["scan", "--grid", "list:5", "--nmax", "3"],
        ["scan", "--grid", "list:2,9", "--nmax", "8"],
        ["scan", "--grid", "list:4", "--nmax", "4", "--workers", "0"],
        ["constant", "--tail-cut", "50"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_verify_theorem2_writes_records(capsys, tmp_path):
    path = tmp_path / "records.csv"
    code, _, _ = run_cli(capsys, "verify", "theorem2", "--nmax", "12", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,p,v,witness_k"
    assert "10,11,1,1" in lines
    assert "10,5,0," in lines


def test_verify_theorem2_out_equals_the_one_pair_records(capsys, tmp_path):
    # the records come from the check's own walk, one per pair as
    # sequences.sigma_ratio_valuation gives it
    from lcmf import sequences

    path = tmp_path / "records.csv"
    assert run_cli(capsys, "verify", "theorem2", "--nmax", "300", "--out", str(path)) == (
        0, "ok: theorem2 passed on 9001 cases\n", ""
    )
    records = (
        sequences.sigma_ratio_valuation(n, p)
        for n in range(1, 301)
        for p in primes.default_table().prime_list(n + 1)
        if p * p > n + 1
    )
    want = ["n,p,v,witness_k"] + [
        f"{r.n},{r.p},{r.valuation},{'' if r.witness_k is None else r.witness_k}" for r in records
    ]
    assert path.read_text().splitlines() == want


def test_verify_theorem2_out_keeps_a_file_on_failure_and_writes_through_links(
    capsys, tmp_path, monkeypatch
):
    from lcmf import sequences

    argv = ["verify", "theorem2", "--nmax", "12", "--out"]
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    assert run_cli(capsys, *argv, str(target))[0] == 0
    want = target.read_text()
    # a symlink is written through, and stays a link
    target.write_text("old\n")
    link.symlink_to(target)
    assert run_cli(capsys, *argv, str(link))[0] == 0
    assert link.is_symlink() and target.read_text() == want
    # a write that raises after its first records leaves the old file as it was
    calls, real = [], sequences.quotient_primes

    def failing(n, wide, table):
        calls.append(1)
        if len(calls) == 5:
            raise ValueError("boom")
        return real(n, wide, table)

    monkeypatch.setattr(sequences, "quotient_primes", failing)
    target.write_text("kept\n")
    assert run_cli(capsys, *argv, str(target)) == (1, "", "error: boom\n")
    assert len(calls) == 5
    assert sorted(tmp_path.iterdir()) == [link, target] and target.read_text() == "kept\n"


def test_scan_gnuplot_stub(capsys, tmp_path):
    csv_path = tmp_path / "s.csv"
    gp_path = tmp_path / "s.gp"
    code, _, _ = run_cli(
        capsys,
        "scan", "--grid", "list:64,256", "--nmax", "256",
        "--out", str(csv_path), "--gnuplot", str(gp_path),
    )
    assert code == 0
    text = gp_path.read_text()
    assert "plot" in text and str(csv_path) in text
    # the stub plots the columns of a CSV file, so a JSON scan or a scan to
    # stdout with it is a usage error
    bad_gp = tmp_path / "j.gp"
    for extra in (["--format", "json", "--out", str(tmp_path / "j.json")], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--grid", "list:64", "--nmax", "64", "--gnuplot", str(bad_gp)] + extra)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "lcmf scan: error: --gnuplot" in out.err and "--out" in out.err
        assert set(tmp_path.iterdir()) == {csv_path, gp_path}  # nothing written


def test_scan_gnuplot_to_its_out_file_is_a_usage_error(capsys, tmp_path):
    # the stub would replace the scan: one path, the same path spelled
    # another way, or a link to the file.  Nothing is scanned or written
    (tmp_path / "sub").mkdir()
    kept, link = tmp_path / "kept.csv", tmp_path / "link.csv"
    kept.write_text("kept\n")
    link.symlink_to(kept)
    new = tmp_path / "new.csv"
    for out, gnuplot in ((new, new), (new, tmp_path / "sub" / ".." / "new.csv"), (kept, link)):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--grid", "list:5", "--nmax", "5", "--out", str(out), "--gnuplot", str(gnuplot)])
        assert exc.value.code == 2
        err = capsys.readouterr()
        assert err.out == "" and "lcmf scan: error: --gnuplot names the --out file" in err.err
    assert sorted(tmp_path.iterdir()) == [kept, link, tmp_path / "sub"] and kept.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [["triangle", "--nmax", "3"], ["scan", "--grid", "list:5", "--nmax", "5"], ["verify", "theorem2", "--nmax", "3"]],
    ids=["triangle", "scan", "theorem2"],
)
def test_out_into_a_missing_directory_names_the_path(capsys, tmp_path, argv):
    path = tmp_path / "nodir" / "t.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert list(tmp_path.iterdir()) == []


def test_scan_peak_memory_stays_flat_over_the_window(capsys, tmp_path, monkeypatch):
    # records reach the writer a checked chunk at a time, so a window ten
    # times longer peaks within 256 KB of the shorter one
    import tracemalloc

    start = 1 << 16
    table = primes.PrimeTable(start + 20_000 + 2)
    table.primes_up_to(table.limit)  # the table and its arrays are built before the runs
    monkeypatch.setattr(primes, "_default_table", table)
    peaks = []
    for rows in (100, 2000, 20_000):  # the first run loads what every run uses
        argv = ["scan", "--grid", "step:1", "--n", str(start), "--nmax", str(start + rows - 1)]
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--out", str(tmp_path / f"{rows}.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert len((tmp_path / "20000.csv").read_text().splitlines()) == 20_001
    assert abs(peaks[2] - peaks[1]) < 256 * 1024, peaks


def _block_ends(start):
    """The ends, counted from start, of the blocks that _checked cuts a
    step:1 grid from start into (analytics._blocks), over 1000 rows."""
    from lcmf import analytics

    ns = range(start, start + 1000)
    return [b for _, b in analytics._blocks(n // (math.isqrt(n) + 1) + 1 for n in ns)]


def test_streamed_scan_bytes_equal_the_whole_list_writers(capsys, tmp_path):
    # windows of several checked blocks, the second with Lucy rows, written
    # with one and two workers, against the records written as one list
    from lcmf import analytics

    start = 70_000
    rows = _block_ends(start)[2] + 37
    lucy = [analytics.LUCY_THRESHOLD + 7, 3 * analytics.LUCY_THRESHOLD]
    grids = [
        (range(start, start + rows), ["--grid", "step:1", "--n", str(start)]),
        ([*range(start, start + rows, 3), *lucy], ["--grid", "list:" + ",".join(
            map(str, [*range(start, start + rows, 3), *lucy]))]),
    ]
    c = analytics.analytic_constant().midpoint
    for ns, grid in grids:
        recs = analytics.scan(ns, c=c)
        want = {
            "csv": "".join(line + "\n" for line in [analytics.CSV_HEADER, *(
                ",".join(repr(v) if isinstance(v, float) else str(v) for v in rec) for rec in recs)]),
            "json": json.dumps([rec._asdict() for rec in recs], indent=1) + "\n",
        }
        for fmt in ("csv", "json"):
            for workers in ("1", "2"):
                path = tmp_path / f"scan.{fmt}"
                argv = ["scan", *grid, "--nmax", str(max(ns)), "--format", fmt, "--workers", workers]
                assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
                assert path.read_text() == want[fmt], (fmt, workers)
                assert run_cli(capsys, *argv)[:2] == (0, want[fmt])


def test_a_scan_failing_in_a_later_chunk(capsys, tmp_path, monkeypatch):
    # the row at bad, in the third checked block, gets its log rho raised by
    # one, which the check of log rho against Legendre's formula catches
    from lcmf import analytics

    start = 1 << 16
    ends = _block_ends(start)
    bad = start + ends[1] + 5
    argv = ["scan", "--grid", "step:1", "--n", str(start), "--nmax", str(start + ends[2] + 9)]
    good = analytics.scan(range(start, start + ends[1]))
    real = analytics._rows

    def raised(ns, t, kind, carry):
        rows = real(ns, t, kind, carry)
        return [(row[0] + 1.0, *row[1:]) if n == bad else row for n, row in zip(ns, rows)]

    monkeypatch.setattr(analytics, "_rows", raised)
    error = f"error: log rho disagrees with Legendre's formula at n={bad}\n"
    # on stdout: the rows of the blocks before it, then the error
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, error)
    assert out.splitlines() == [analytics.CSV_HEADER, *(rec.csv_row() for rec in good)]
    # to a file: nothing, and a file already there stays as it was
    path = tmp_path / "scan.csv"
    assert run_cli(capsys, *argv, "--out", str(path)) == (1, "", error)
    assert list(tmp_path.iterdir()) == []
    path.write_text("kept\n")
    assert run_cli(capsys, *argv, "--out", str(path), "--format", "json") == (1, "", error)
    assert list(tmp_path.iterdir()) == [path] and path.read_text() == "kept\n"


def test_a_failed_triangle_leaves_its_out_file(capsys, tmp_path, monkeypatch):
    from lcmf.factored import FactoredNatural

    path = tmp_path / "tri.csv"
    path.write_text("kept\n")
    calls, real = [], FactoredNatural.to_decimal

    def failing(self):  # the 20th entry, in row 5, fails
        calls.append(1)
        if len(calls) == 20:
            raise ValueError("boom")
        return real(self)

    monkeypatch.setattr(FactoredNatural, "to_decimal", failing)
    assert run_cli(capsys, "triangle", "--nmax", "7", "--out", str(path)) == (1, "", "error: boom\n")
    assert list(tmp_path.iterdir()) == [path] and path.read_text() == "kept\n"
    calls.clear()
    code, out, _ = run_cli(capsys, "triangle", "--nmax", "7")
    assert code == 1 and out.splitlines() == ["1", "1,1", "1,2,1", "1,6,2,1", "1,12,12,2,1"]


def test_out_keeps_a_file_mode_and_writes_through_links_and_devices(capsys, tmp_path):
    # a regular file keeps its mode; a symlink, a file with a second link and
    # a device are written through, never replaced
    target, link, hard = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "hard.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target)
    for argv in (["triangle", "--nmax", "4"], ["scan", "--grid", "step:1", "--n", "10", "--nmax", "20"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--out", str(target))[0] == 0
        assert target.read_text() == out and stat.S_IMODE(target.stat().st_mode) == 0o640
        target.write_text("old\n")
        assert run_cli(capsys, *argv, "--out", str(link))[0] == 0
        assert link.is_symlink() and target.read_text() == out
        os.link(target, hard)
        target.write_text("old\n")
        assert run_cli(capsys, *argv, "--out", str(hard))[0] == 0
        assert hard.read_text() == target.read_text() == out
        hard.unlink()
        assert run_cli(capsys, *argv, "--out", os.devnull)[0] == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_compute_past_int_str_digit_limit(capsys):
    # both values run past CPython's default 4300-digit str(int) limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        decimals = {}
        for target in ("sigma", "rho"):
            code, out, _ = run_cli(capsys, "compute", target, "2000")
            assert code == 0
            decimals[target] = out.strip().rsplit(" = ", 1)[1]
        assert sys.get_int_max_str_digits() == 4300  # the limit is restored
        assert len(decimals["sigma"]) > 4300 and len(decimals["rho"]) > 4300
        sys.set_int_max_str_digits(0)
        assert int(decimals["sigma"]) == naive_sigma(2000)
        assert int(decimals["rho"]) == naive_rho(2000)
    finally:
        sys.set_int_max_str_digits(saved)


def test_compute_over_digit_budget(capsys):
    # factored form still prints when the decimal expansion is refused
    import lcmf.factored as factored

    old = factored.DIGIT_BUDGET_DEFAULT
    factored.DIGIT_BUDGET_DEFAULT = 3
    try:
        code, out, _ = run_cli(capsys, "compute", "sigma", "6")
    finally:
        factored.DIGIT_BUDGET_DEFAULT = old
    assert code == 0
    assert "2^6 * 3^3 * 5 * 7" in out and "60480" not in out


def test_options_a_command_does_not_read_are_usage_errors(tmp_path):
    out = tmp_path / "f.csv"
    for argv in (
        ["verify", "theorem1", "--f", "log", "--x", "5"],  # --x is not read as --xmax
        ["verify", "theorem1", "--nmax", "5"],
        ["verify", "prop2", "--nmax", "10", "--out", str(out)],
        ["verify", "prop2", "--workers", "2"],
        ["verify", "eq14-16", "--xmax", "3"],
        ["triangle", "--nmax", "2", "--n", "5"],  # --n is not read as --nmax
        ["compute", "pif", "7", "--f", "m", "--x", "3"],
        ["compute", "rho", "6", "--f", "m"],
        ["compute", "q", "7", "2", "--nmax", "3"],
        ["scan", "--nmax", "64", "--f", "m-1"],
        # no abbreviation of an option a command does read
        ["verify", "theorem2", "--nma", "5"],
        ["constant", "--tail", "1000"],
        ["scan", "--grid", "list:4", "--nmax", "4", "--work", "1"],
        ["scan", "--grid", "list:4", "--nmax", "4", "--form", "json"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    assert not out.exists()


def test_help_for_every_command_target_and_check(capsys):
    argvs = [[], ["compute"], ["verify"], ["triangle"], ["constant"], ["scan"]]
    argvs += [["compute", target] for target in ("rho", "sigma", "q", "pif")]
    checks = ("theorem1", "theorem2", "prop1", "prop2", "prop3", "cor2", "eq14-16", "split")
    argvs += [["verify", check] for check in checks]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--help"])
        assert exc.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: lcmf")


def test_defaults_of_each_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem2")
    assert code == 0 and out == "ok: theorem2 passed on 23165 cases\n"  # --nmax 500
    code, out, _ = run_cli(capsys, "verify", "theorem1")
    assert code == 0 and out == "ok: theorem1[m] passed on 37 cases\n"  # --f m
    code, out, _ = run_cli(capsys, "triangle")
    assert code == 0 and len(out.splitlines()) == 8  # --nmax 7
    code, out, _ = run_cli(capsys, "verify", "prop1")
    assert code == 0 and out.startswith("ok: prop1 passed on")
