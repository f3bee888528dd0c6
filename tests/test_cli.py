import json
import sys

import pytest

from lcmf import cli, primes

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


def test_internal_value_error_is_an_error_not_usage(capsys, monkeypatch):
    def broken(cfg):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_cmd_triangle", broken)
    code, _, err = run_cli(capsys, "triangle", "--nmax", "3")
    assert code == 1
    assert "error: boom" in err


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


def test_verify_theorem2_and_theta(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem2", "--nmax", "200")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "eq14-16", "--nmax", "2000")
    assert code == 0


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


def test_bad_sieve_limit_env_is_usage_error(monkeypatch):
    monkeypatch.setenv("LCMF_SIEVE_LIMIT", "abc")
    monkeypatch.setattr(primes, "_default_table", None)  # as in a fresh process
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "sigma", "6"])
    assert exc.value.code == 2


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
