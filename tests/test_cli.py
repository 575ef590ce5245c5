import math
import re
import warnings

import pytest

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


def test_csv_layout(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["moments", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# command=moments ")
    assert "," in lines[1]  # header
    assert len(lines) > 3


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


def test_moments_non_finite_row_fails(tmp_path, capsys):
    # at q=0.999 the closed and series moments overflow to NaN near x_max
    out = tmp_path / "m.csv"
    rc = run(["moments", "--q", "0.999", "--n", "1000", "--grid", "0:auto:3", "--out", str(out)])
    assert rc == 1
    assert "nan" in out.read_text()
    fail_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL ")]
    assert len(fail_lines) == 1 and fail_lines[0].startswith("FAIL moments ")


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


def test_local_reports_k_hat(tmp_path, capsys):
    assert run(["local", "--out", str(tmp_path / "l.csv")]) == 0
    body = (tmp_path / "l.csv").read_text()
    assert "k_hat=" in body


def test_rates_csv_has_all_three_theorems(tmp_path):
    assert run(["rates", "--out", str(tmp_path / "r.csv")]) == 0
    body = (tmp_path / "r.csv").read_text()
    for name in ("rate", "lipschitz", "maximal"):
        assert name in body
