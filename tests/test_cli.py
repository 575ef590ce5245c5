import argparse
import math
import re
import warnings

import numpy as np
import pytest

import qapprox.analysis
import qapprox.appell
import qapprox.cli
import qapprox.operators
import qapprox.qcore
import qapprox.statconv
from qapprox.analysis import BoundReport
from qapprox.cli import main
from qapprox.statconv import ScheduleSpec

ALL_COMMANDS = ("identities", "moments", "converge", "rates", "local", "statdemo")


def run(argv):
    return main(list(argv))


def test_every_command_succeeds(tmp_path):
    for cmd in ALL_COMMANDS:
        out = tmp_path / f"{cmd}.csv"
        assert run([cmd, "--out", str(out)]) == 0
        assert out.exists()


# perfbench/gate.py parses exactly these lines: the config comment and the header
OPERATOR_KEYS = ["bn", "bn_value", "family", "grid", "n", "out", "q", "tol"]
LAYOUTS = {
    "identities": (
        "identity,family,q,points,max_residual,tolerance,status",
        ["out", "points", "q", "tol"],
    ),
    "moments": ("i,x,closed,series,printed,closed_minus_series,printed_minus_series", OPERATOR_KEYS),
    "converge": (
        "n,q_n,b_n,bn_over_nq,error_v0,error_v1,error_v2",
        ["family", "grid", "ns", "out", "schedule"],
    ),
    "rates": (
        "theorem,x,lhs,rhs,margin",
        sorted(OPERATOR_KEYS + ["alpha", "f_hi", "f_lo", "function"]),
    ),
    "local": ("x,lhs,rhs,margin", sorted(OPERATOR_KEYS + ["function"])),
    "statdemo": (
        "N,density_squares,exceptional_density,sup_dev,tail_dev",
        ["Ns", "eps", "out", "schedule"],
    ),
}


@pytest.mark.parametrize("cmd", ALL_COMMANDS)
def test_csv_layout(cmd, tmp_path):
    out = tmp_path / f"{cmd}.csv"
    assert run([cmd, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header, keys = LAYOUTS[cmd]
    assert lines[0].startswith(f"# command={cmd} ")
    assert sorted(tok.split("=", 1)[0] for tok in lines[0].split()[2:]) == keys
    assert lines[1] == header
    assert len(lines) > 3


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    assert run(["moments", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {path}: ")
    assert "FAIL" not in captured.out and not path.exists()


def _failing_maximal(*args):
    xs = np.array([0.0, 1.0])
    return BoundReport("maximal", xs, np.array([1.0, 2.0]), np.array([1.0, 1.5]))


def _local_k_hat_11(*args):
    xs = np.array([0.0, 1.0])
    extras = dict.fromkeys(
        ("phi_n", "phi_n_printed", "second_modulus", "shift_modulus", "shift_sup"), 0.1
    )
    return BoundReport("local", xs, np.zeros(2), np.ones(2), {"k_hat": 11.0, **extras})


def _korovkin_v0_off(*args):
    return [(16, 0.75, 4.0, 0.33, 1e-3, 0.0, 0.0)]


@pytest.mark.parametrize(
    "cmd, target, fake, text",
    [
        ("rates", "check_maximal_theorem", _failing_maximal, "theorem=maximal min_margin=-0.5"),
        ("local", "check_local_theorem", _local_k_hat_11, "k_hat=11 limit=10"),
        ("converge", "korovkin_table", _korovkin_v0_off, "error_v0 max=0.001 tol=1e-10"),
    ],
)
def test_failed_check_prints_one_fail_line(cmd, target, fake, text, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(qapprox.cli, target, fake)
    out = tmp_path / f"{cmd}.csv"
    assert run([cmd, "--out", str(out)]) == 1
    fail_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL ")]
    assert fail_lines == [f"FAIL {cmd} {text}"]
    assert out.read_text().splitlines()[1] == LAYOUTS[cmd][0]


def test_parser_built_once(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert run(["statdemo", "--Ns", "100", "--out", str(tmp_path / "s.csv")]) == 0
    assert built == []


def test_repeat_runs_byte_identical(tmp_path):
    out = tmp_path / "d.csv"
    for cmd in ALL_COMMANDS:
        assert run([cmd, "--out", str(out)]) == 0
        first = out.read_bytes()
        assert run([cmd, "--out", str(out)]) == 0
        assert out.read_bytes() == first


def test_statdemo_default_calls_q_at_rarely(monkeypatch, tmp_path):
    # the counts are closed forms plus a bisection: O(log N) q_at calls per
    # horizon, where brute force made about 4.4e6 at the default horizons
    calls = []
    q_at = ScheduleSpec.q_at

    def counted(self, n):
        calls.append(n)
        return q_at(self, n)

    monkeypatch.setattr(ScheduleSpec, "q_at", counted)
    assert run(["statdemo", "--out", str(tmp_path / "s.csv")]) == 0
    assert 0 < len(calls) <= 200


def _envelope(kind, eps, N):
    squares = math.isqrt(N) if kind == "spiky" else 0
    return min(N, math.ceil(1 / eps**2) + squares)


@pytest.mark.parametrize(
    "argv",
    [
        # spiky density rises 26/48 -> 27/49 at the square 49
        ["--Ns", "48,49", "--eps", "0.2"],
        # unsorted horizons
        ["--Ns", "1000,100", "--eps", "0.1"],
        ["--Ns", "1000,100", "--eps", "0.1", "--schedule", "smooth"],
    ],
)
def test_statdemo_exceptional_envelope(argv, monkeypatch, capsys):
    assert run(["statdemo"] + argv) == 0
    kind = "smooth" if "smooth" in argv else "spiky"

    monkeypatch.setattr(
        ScheduleSpec, "exceptional_count", lambda self, eps, N: _envelope(kind, eps, N)
    )
    assert run(["statdemo"] + argv) == 0
    monkeypatch.setattr(
        ScheduleSpec, "exceptional_count", lambda self, eps, N: _envelope(kind, eps, N) + 1
    )
    capsys.readouterr()
    assert run(["statdemo"] + argv) == 1
    assert "FAIL statdemo exceptional count" in capsys.readouterr().out


def test_statdemo_envelope_allows_rounding_at_tiny_eps(capsys):
    # the float predicate counts 10^12 + 53 indices here: rounding 1 - k^-1/2
    # lifts deviations just below eps = 1e-6 onto it
    argv = ["statdemo", "--schedule", "smooth", "--eps", "1e-6", "--Ns", str(10**13)]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[2].split(",")[2] == "0.1000000000053"


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nn=5\nq=0.5\n")
    out = tmp_path / "m.csv"
    assert run(["moments", "--config", str(cfg), "--out", str(out)]) == 0
    head = out.read_text().splitlines()[0]
    assert "n=5" in head and "q=0.5" in head
    # explicit flag beats the file
    assert run(["moments", "--config", str(cfg), "--n", "7", "--out", str(out)]) == 0
    head = out.read_text().splitlines()[0]
    assert "n=7" in head and "q=0.5" in head


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    assert run(["moments", "--config", str(cfg)]) == 2


def test_malformed_config_line_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    assert run(["moments", "--config", str(cfg)]) == 2


def test_bad_values_exit_2(tmp_path):
    assert run(["moments", "--q", "1.5", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["moments", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["moments", "--grid", "oops", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["moments", "--bn", "-3", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["converge", "--schedule", "wavy", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["rates", "--function", "nope", "--out", str(tmp_path / "x.csv")]) == 2


def test_domain_error_exits_3(tmp_path):
    assert run(["moments", "--grid", "0:50:5", "--out", str(tmp_path / "x.csv")]) == 3


def test_truncation_cap_exits_4(tmp_path):
    assert run(
        ["moments", "--q", "0.999999", "--n", "5", "--out", str(tmp_path / "x.csv")]
    ) == 4


def test_failed_check_exits_1(tmp_path, capsys):
    # deliberately sloppy series tolerance breaks the identity residuals
    rc = run(["identities", "--tol", "1e-3", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    text = capsys.readouterr().out
    fail_lines = [l for l in text.splitlines() if l.startswith("FAIL ")]
    assert len(fail_lines) == 1
    assert "identity=" in fail_lines[0] and "residual=" in fail_lines[0]


@pytest.mark.parametrize(
    "side, rows",
    [
        # deriv_eq_exp's ratio e_q(qat)/e_q(at) is scaled by log e_q(at)
        ("log_eq_exp", {"deriv_eq_exp", "weight_sum", "weight_sum_first", "weight_sum_second"}),
        ("log_Eq_exp_product", {"eq_times_Eq_neg"}),
    ],
)
def test_identities_non_finite_residual_fails(side, rows, monkeypatch, tmp_path, capsys):
    # NaN from x > 0 on: the first point is clean, so a plain max() over the
    # points would keep its residual and print `pass`
    real = getattr(qapprox.appell, side)
    monkeypatch.setattr(
        qapprox.appell, side, lambda x, *a: np.where(np.asarray(x) != 0.0, math.nan, real(x, *a))
    )
    out = tmp_path / "i.csv"
    assert run(["identities", "--q", "0.8", "--points", "5", "--out", str(out)]) == 1
    table = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert len(table) == 14
    failed = {r[0] for r in table if r[6] == "FAIL"}
    assert failed == rows
    assert all(r[4] == "inf" for r in table if r[0] in rows)
    fail_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL ")]
    assert len(fail_lines) == 1 and "residual=inf" in fail_lines[0]


def _count_calls(monkeypatch, *targets) -> dict:
    """Wrap each (module, name) to count its calls; returns {name: count}."""
    calls = {}
    for owner, name in targets:
        calls[name] = 0

        def counted(*a, _real=getattr(owner, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_identities_q0999_finite_and_counted(monkeypatch, tmp_path, capsys):
    # every row in log or ratio form: finite, passing, no overflow warning, and
    # one kernel call, through moment_sum, for the 50 x of the symbol `one`
    # and one per family for its 20 y, and no scalar product
    calls = _count_calls(
        monkeypatch,
        (qapprox.appell, "scaled_weights"),
        (qapprox.appell, "moment_sum"),
        (qapprox.qcore, "Eq_exp_product"),
    )
    out = tmp_path / "i.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["identities", "--q", "0.999", "--points", "50", "--out", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    table = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert len(table) == 14
    assert all(math.isfinite(float(r[4])) and r[6] == "pass" for r in table)
    assert calls == {"scaled_weights": 1 + 3, "moment_sum": 1 + 3, "Eq_exp_product": 0}


def test_moments_one_kernel_call_per_point(monkeypatch, tmp_path):
    # all three series moments on the whole grid come from one moment_sum, so
    # one kernel call and one log e_q per command, not one per order and x
    calls = _count_calls(
        monkeypatch,
        (qapprox.appell, "scaled_weights"),
        (qapprox.appell, "moment_sum"),
        (qapprox.operators, "log_eq_exp"),
    )
    out = tmp_path / "m.csv"
    assert run(["moments", "--grid", "0:auto:21", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 3 * 21
    assert calls == {"scaled_weights": 1, "moment_sum": 1, "log_eq_exp": 1}


def _count_kernel_passes(monkeypatch) -> list:
    """Wrap the weight kernel's block generator; returns the number of rows
    of each pass, one entry per pass."""
    passes, real = [], qapprox.appell._weight_blocks

    def counted(family, flat, *a, **kw):
        passes.append(len(flat))
        return real(family, flat, *a, **kw)

    monkeypatch.setattr(qapprox.appell, "_weight_blocks", counted)
    return passes


@pytest.mark.parametrize(
    "argv, count",
    [
        (("moments",), 2),
        (("moments", "--q", "0.5", "--n", "100", "--grid", "0:auto:21"), 2),
        (("moments", "--q", "0.999", "--n", "1000", "--grid", "0:auto:21"), 6),
        (("local", "--q", "0.99", "--n", "1000", "--function", "sin", "--grid", "0.01:auto:101"), 6),
        (("rates", "--q", "0.999", "--n", "1000", "--grid", "0:auto:2001"), 167),
    ],
    ids=["moments", "moments-q0.5", "moments-q0.999", "local-q0.99", "rates-q0.999"],
)
def test_kernel_block_counts(argv, count, kernel_windows, monkeypatch, tmp_path):
    # a narrow group of rows joins the next wider one when the padding costs
    # less than a block (6, 6, 11 and 8 blocks before), never into more
    # blocks; the 2001-point rates' groups are full and stay as they were
    calls = _count_calls(monkeypatch, (qapprox.qcore, "Eq_exp_series"))
    _, blocks = kernel_windows
    assert run([*argv, "--family", "affine", "--out", str(tmp_path / "k.csv")]) == 0
    assert calls == {"Eq_exp_series": 0} and len(blocks) == count
    assert all(rows * width <= qapprox.qcore._BLOCK for rows, width in blocks if rows > 1)
    if argv[0] == "rates":
        assert sum(rows * width for rows, width in blocks) == 2_523_072


def test_certificates_compute_each_point_once(monkeypatch, tmp_path):
    # each checker takes L f on its whole grid in one evaluate call, and
    # rates' three checkers share it through evaluate's memo, so 3 evaluate
    # calls but one kernel pass over the grid's rows
    calls = _count_calls(monkeypatch, (qapprox.analysis, "evaluate"))
    passes = _count_kernel_passes(monkeypatch)
    out = tmp_path / "r.csv"
    assert run(["rates", "--grid", "0:auto:11", "--out", str(out)]) == 0
    assert "# summary name=maximal" in out.read_text()
    assert calls == {"evaluate": 3} and passes == [11]
    calls.update(evaluate=0)
    passes.clear()
    assert run(["local", "--grid", "0:auto:11", "--out", str(out)]) == 0
    assert calls == {"evaluate": 1} and passes == [11]


def test_rates_without_the_memo_writes_the_same_csv(monkeypatch, tmp_path):
    # a certify-large rates command with the memo emptied before every
    # evaluate: a kernel pass over the whole grid per checker, and the same bytes
    argv = ["rates", "--q", "0.99", "--function", "abspow:0.394:6.856", "--n", "1000",
            "--bn", "sqrt", "--family", "affine", "--grid", "0.03819:auto:101"]
    memo, plain = tmp_path / "memo.csv", tmp_path / "plain.csv"
    assert run(argv + ["--out", str(memo)]) == 0
    real = qapprox.analysis.evaluate

    def no_memo(op, f, x, tol):
        op._target[-1].clear()
        return real(op, f, x, tol)

    monkeypatch.setattr(qapprox.analysis, "evaluate", no_memo)
    passes = _count_kernel_passes(monkeypatch)
    assert run(argv + ["--out", str(plain)]) == 0
    assert passes == [101] * 3
    assert plain.read_bytes().replace(b"plain.csv", b"memo.csv") == memo.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("--q", "0.999", "--n", "1"),
        ("--q", "0.99", "--n", "1", "--bn", "10"),
        ("--q", "0.5", "--n", "10", "--bn", "1000"),
    ],
)
def test_rates_past_the_exp_range_runs(argv, tmp_path, capsys):
    # nodes past ~709: the growth candidate of the node bound reads inf and
    # a finite lip or bounded candidate decides, where e^hi used to raise
    out = tmp_path / "r.csv"
    # (exit 1 is the rate theorem's zero rhs below one grid step, a defect
    # of the grid modulus; the summary's sup_ratio then reads inf)
    assert run(["rates", *argv, "--grid", "0:auto:11", "--out", str(out)]) in (0, 1)
    rows = [l for l in out.read_text().splitlines()[2:] if not l.startswith("#")]
    assert len(rows) == 3 * 11
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])
    capsys.readouterr()
    # growth alone leaves no finite bound: a one-line error, exit 3
    assert run(["rates", *argv, "--function", "e2", "--grid", "0:auto:11", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluation error: e2: no finite sup bound") and err.count("\n") == 1


def test_moments_q0999_finite(tmp_path, capsys):
    # the series moments are ratios of scaled sums, so they stay finite up to
    # x_max where sum_k c_k and e_q(y) pass the float range
    out = tmp_path / "m.csv"
    rc = run(["moments", "--q", "0.999", "--n", "1000", "--grid", "0:auto:3", "--out", str(out)])
    assert rc == 0
    assert not re.search(r"\b(nan|inf)\b", out.read_text(), re.IGNORECASE)
    status = capsys.readouterr().out.splitlines()[-1]
    assert "normalisation residual" in status and "," not in status


def test_moments_non_finite_row_fails(monkeypatch, tmp_path, capsys):
    # a NaN in the kernel sums from x > 0 on: the first point is clean, so a
    # plain max() over the rows would keep its error and pass
    real = qapprox.appell.moment_sum

    def planted(family, y, *a):
        sums, shift = real(family, y, *a)
        sums[y > 0.0, 1] = math.nan
        return sums, shift

    monkeypatch.setattr(qapprox.appell, "moment_sum", planted)
    out = tmp_path / "m.csv"
    assert run(["moments", "--grid", "0:auto:5", "--out", str(out)]) == 1
    assert "nan" in out.read_text()
    fail_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL ")]
    assert len(fail_lines) == 1 and fail_lines[0].startswith("FAIL moments closed-vs-series ")


def test_moments_normalisation_offset_fails(monkeypatch, tmp_path, capsys):
    # the ratios divide sum_k c_k out, so only the normalisation residual
    # sees a log e_q that is off by 1e-6; it must fail the command
    real = qapprox.operators.log_eq_exp
    monkeypatch.setattr(qapprox.operators, "log_eq_exp", lambda *a: real(*a) + 1e-6)
    out = tmp_path / "m.csv"
    assert run(["moments", "--out", str(out)]) == 1
    fail_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL ")]
    assert len(fail_lines) == 1 and fail_lines[0].startswith("FAIL moments normalisation ")


def test_certificates_finite_at_q0999(tmp_path, capsys):
    # near x_max at q=0.999 the weights pass the float range; evaluate's ratio must not
    common = ["--q", "0.999", "--n", "1000", "--family", "affine", "--grid", "0:auto:101"]
    for argv in (["local"], ["rates", "--function", "abspow:0.5:2"]):
        out = tmp_path / f"{argv[0]}.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv + common + ["--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        assert "RuntimeWarning" not in capsys.readouterr().err
        assert not re.search(r"\b(nan|inf)\b", out.read_text(), re.IGNORECASE), argv


def test_local_tol_reaches_the_checker(tmp_path):
    def rows(*extra):
        out = tmp_path / "l.csv"
        assert run(["local", "--out", str(out), *extra]) == 0
        return [l for l in out.read_text().splitlines() if not l.startswith("#")]

    assert rows("--tol", "1e-3") != rows()


def test_converge_has_no_tol_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["converge", "--tol", "1e-12", "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_stdout_when_no_out_flag(capsys):
    assert run(["moments"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].startswith("# command=moments ")


def test_out_dash_writes_stdout(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["statdemo", "--Ns", "100", "--out", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# command=statdemo Ns=100 eps=0.10000000000000001 out=- schedule=spiky"
    assert lines[1] == LAYOUTS["statdemo"][0]
    assert not (tmp_path / "-").exists()


def test_converge_builds_each_operator_once(monkeypatch, tmp_path):
    # the schedule builds one operator of the family per n; the clipped grid
    # and the table both read those
    calls = []
    make = qapprox.operators.make_operator

    def counted(*args):
        calls.append(args)
        return make(*args)

    for module in (qapprox.cli, qapprox.statconv):
        monkeypatch.setattr(module, "make_operator", counted)
    argv = ["converge", "--ns", "16,64,256,1024", "--out", str(tmp_path / "c.csv")]
    assert run(argv) == 0
    assert len(calls) == 4


@pytest.mark.parametrize(
    "ns, grid, schedule",
    [
        ("16,64,256,1024", "0:1:101", "smooth"),
        ("16,64", "0:1:11", "smooth"),
        ("2,3,4,5,6,7,8,9", "0:auto:1001", "spiky"),
    ],
)
def test_converge_evaluates_each_moment_once(ns, grid, schedule, monkeypatch, tmp_path):
    # one closed-form expression per moment order over all (n, x), however
    # many operators and points the table has
    orders = []
    closed = qapprox.statconv._closed_moment

    def counted(i, *args):
        orders.append(i)
        return closed(i, *args)

    monkeypatch.setattr(qapprox.statconv, "_closed_moment", counted)
    argv = ["converge", "--ns", ns, "--grid", grid, "--schedule", schedule]
    assert run([*argv, "--out", str(tmp_path / "c.csv")]) == 0
    assert orders == [0, 1, 2]


@pytest.mark.parametrize("ns", ["1024,16,256,64", "256,16,1024,64,16"])
def test_converge_sorts_ns(ns, tmp_path, capsys):
    # the errors must fall along increasing n: a list out of order, or with
    # a repeat, runs the sorted operators and prints the same bytes
    out = tmp_path / "c.csv"
    assert run(["converge", "--ns", ns, "--out", str(out)]) == 0
    printed, csv = capsys.readouterr(), out.read_bytes()
    assert run(["converge", "--ns", "16,64,256,1024", "--out", str(out)]) == 0
    assert capsys.readouterr() == printed and out.read_bytes() == csv
    assert b"ns=16,64,256,1024 " in csv


@pytest.mark.parametrize(
    "ns, schedule, text",
    [
        ("1,2", "smooth", "n=1 on the smooth schedule: q must satisfy 0 < q < 1, got 0.0"),
        ("4,2,1", "smooth", "n=1 on the smooth schedule: q must satisfy 0 < q < 1, got 0.0"),
        # 1 - n^-1/2 rounds to 1 far out, where no square rescues it
        ("2,%d" % (10**40 + 1), "spiky",
         "n=%d on the spiky schedule: q must satisfy 0 < q < 1, got 1.0" % (10**40 + 1)),
    ],
)
def test_converge_names_the_index_whose_q_is_out_of_range(ns, schedule, text, tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run(["converge", "--ns", ns, "--schedule", schedule, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"domain error: {text}\n"
    assert captured.out == ""
    assert not out.exists()


def test_local_reports_k_hat(tmp_path, capsys):
    assert run(["local", "--out", str(tmp_path / "l.csv")]) == 0
    body = (tmp_path / "l.csv").read_text()
    assert "k_hat=" in body


def test_rates_csv_has_all_three_theorems(tmp_path):
    assert run(["rates", "--out", str(tmp_path / "r.csv")]) == 0
    body = (tmp_path / "r.csv").read_text()
    for name in ("rate", "lipschitz", "maximal"):
        assert name in body
