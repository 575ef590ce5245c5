"""Tests of the benchmark harness itself: the gate, the oracle, the tracer,
the workloads and the result line.  Run with `python3 -m pytest perfbench/tests`."""

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import gate
import oracle
import run
import tracing
import workloads
from tracing import Tracer

import qapprox
import qapprox.cli

ROOT = run.ROOT


def _run_cli(argv):
    return run.run_command(qapprox.cli.main, workloads.Command(tuple(argv)))[1]


MOMENTS = ("moments", "--q", "0.5", "--n", "10", "--family", "affine", "--grid", "0:auto:6")


# ------------------------------------------------------------------- gate


def test_gate_passes_a_good_command():
    cmd = workloads.Command(MOMENTS)
    outcome = _run_cli(MOMENTS)
    assert gate.check_output(cmd, outcome) == []
    assert gate.oracle_check(cmd, outcome, random.Random(0)) == []


def test_gate_flags_planted_nan_row():
    cmd = workloads.Command(MOMENTS)
    outcome = _run_cli(MOMENTS)
    lines = outcome.out.splitlines()
    fields = lines[3].split(",")
    fields[2] = "nan"
    lines[3] = ",".join(fields)
    planted = gate.Outcome(0, "\n".join(lines) + "\n")
    problems = gate.check_output(cmd, planted)
    assert any("non-finite nan" in p for p in problems)


def test_gate_flags_planted_nonzero_exit():
    cmd = workloads.Command(MOMENTS)
    outcome = _run_cli(MOMENTS)
    problems = gate.check_output(cmd, gate.Outcome(1, outcome.out))
    assert problems == ["exit=1"]
    escaped = gate.check_output(cmd, gate.Outcome("OverflowError", ""))
    assert escaped[0] == "exit=OverflowError"


def test_gate_flags_planted_oracle_mismatch():
    cmd = workloads.Command(MOMENTS)
    outcome = _run_cli(MOMENTS)
    lines = outcome.out.splitlines()
    for i in range(2, len(lines) - 1):
        fields = lines[i].split(",")
        fields[2] = "%.17g" % (float(fields[2]) * (1.0 + 1e-6))
        lines[i] = ",".join(fields)
    planted = gate.Outcome(0, "\n".join(lines) + "\n")
    assert gate.check_output(cmd, planted) == []
    problems = gate.oracle_check(cmd, planted, random.Random(0))
    assert problems and all("oracle miss closed" in p for p in problems)


def test_gate_rejects_stray_lines():
    cmd = workloads.Command(MOMENTS)
    outcome = _run_cli(MOMENTS)
    lines = outcome.out.splitlines()
    lines.insert(3, "Traceback (most recent call last):")
    problems = gate.check_output(cmd, gate.Outcome(0, "\n".join(lines)))
    assert problems and problems[0].startswith("layout:")


IDENTITIES = ("identities", "--q", "0.8", "--points", "20")


def test_gate_checks_identities_table():
    cmd = workloads.Command(IDENTITIES)
    outcome = _run_cli(IDENTITIES)
    assert gate.check_output(cmd, outcome) == []
    assert gate.oracle_check(cmd, outcome, random.Random(0)) == []
    row = next(ln for ln in outcome.out.splitlines() if ln.startswith("eq_times_Eq_neg,"))
    fields = row.split(",")
    for i, value, expect in (
        (4, "1e-3", "status pass with residual 1e-3"),  # residual above tolerance
        (5, "1", "tolerance 1, expected 1e-10"),  # loosened tolerance
        (6, "FAIL", "status FAIL with residual"),  # status contradicts residual
    ):
        planted = list(fields)
        planted[i] = value
        out = outcome.out.replace(row, ",".join(planted))
        problems = gate.oracle_check(cmd, gate.Outcome(0, out), random.Random(0))
        assert any(expect in p for p in problems), (value, problems)


def test_known_edge_defect_registers():
    """q = 0.999 moments write NaN rows and exit 0 at the seed commit; the
    gate must count that command as failed."""
    argv = ("moments", "--q", "0.999", "--n", "10", "--family", "one", "--grid", "0:auto:21")
    cmd = workloads.Command(argv)
    assert cmd.at_edge
    problems = gate.check_output(cmd, _run_cli(argv))
    if problems:  # a later fix may make these rows finite; then they must be right
        assert any("non-finite" in p for p in problems)
    else:
        assert gate.oracle_check(cmd, _run_cli(argv), random.Random(0)) == []


# ----------------------------------------------------------------- oracle


def test_oracle_products_match_brute_force():
    import mpmath

    q = mpmath.mpf(0.95)
    x = mpmath.mpf(12.3)
    c = (1 - q) * x
    small = big = mpmath.mpf(1)
    for j in range(6000):
        small *= 1 - c * q**j
        big *= 1 + c * q**j
    assert abs(oracle.small_exp(x, q) * small - 1) < mpmath.mpf(10) ** -40
    assert abs(oracle.big_exp(x, q) / big - 1) < mpmath.mpf(10) ** -40


def test_oracle_norm_is_symbol_times_eq():
    """sum_k c_k(y) = A(1) e_q(y): the weighted sum and the product agree."""
    q, n, bn, coeffs, x = 0.9, 50, math.sqrt(50), (1.0, 1.0, 0.5), 1.3
    sums = oracle.operator_sums(q, n, bn, coeffs, x)
    y = x * oracle.qint(n, q) / oracle.mpmath.mpf(bn)
    assert abs(sums["norm"] / (2.5 * oracle.small_exp(y, q)) - 1) < oracle.mpmath.mpf(10) ** -40


def test_statdemo_oracle_counts():
    for spiky in (True, False):
        sup, tail = gate._schedule_devs(10, spiky)
        assert float(sup) == pytest.approx(2**-0.5 if spiky else 1.0)
        # tail over 6..10 holds the square 9 on the spiky schedule
        assert float(tail) == pytest.approx(0.5 if spiky else 6**-0.5)


# ----------------------------------------------------------------- tracer


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "qapprox" or name.startswith("qapprox.")):
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(name, attr)] = val
    out[("ScheduleSpec", "q_at")] = qapprox.statconv.ScheduleSpec.__dict__["q_at"]
    return out


def test_tracer_wraps_every_namespace_and_restores():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert qapprox.cli.eq_exp is not before[("qapprox.cli", "eq_exp")]
        assert qapprox.operators.eq_exp is qapprox.cli.eq_exp
        assert qapprox.eq_exp is qapprox.qcore.eq_exp
        assert qapprox.statconv.ScheduleSpec.__dict__["q_at"] is not before[("ScheduleSpec", "q_at")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_output_equals_untraced_and_counts_repeat():
    argv = ("rates", "--q", "0.95", "--n", "100", "--family", "affine",
            "--function", "abspow:0.5:1", "--grid", "0:1:11")
    plain = _run_cli(argv)
    tracer = Tracer()
    passes = []
    for _ in range(2):
        with tracer:
            tracer.begin_pass()
            outcome = _run_cli(argv)
            passes.append(tracer.end_pass())
        assert outcome == plain
    assert passes[0].calls == passes[1].calls
    assert passes[0].calls["operators.evaluate"] == 3 * 11
    assert passes[0].calls["cli.main"] == 1
    # every sample hands on the CPU time since the previous one
    for rec in passes:
        charged = sum(rec.self_cpu.values())
        assert charged <= rec.cpu_s + 1e-9
        assert charged == pytest.approx(sum(rec.stacks.values()))
        assert rec.inclusive_s("cli.main") == pytest.approx(rec.under(("cli",)))
    spans = passes[0].spans
    ids = {s[0] for s in spans}
    assert all(parent is None or parent in ids for _, parent, *_ in spans)


def _calls(workload, seed, keep):
    cmds = [c for c in workloads.build(workload, seed) if keep(c)]
    tracer = Tracer()
    with tracer:
        tracer.begin_pass()
        run.run_pass(qapprox.cli.main, cmds)
        return tracer.end_pass().calls


@pytest.mark.parametrize(
    "workload, key, keep",
    [
        ("certify-large", "operators.evaluate", lambda c: True),
        ("oracle-sweep", "appell.moment_sum", lambda c: c.name == "moments" and not c.at_edge),
        ("statconv-sweep", "operators.make_operator", lambda c: c.name == "converge"),
    ],
)
def test_two_seeds_same_work_class(workload, key, keep, monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_CAP", 0)
    a, b = _calls(workload, 1, keep), _calls(workload, 2, keep)
    assert a[key] > 0
    for k in ("operators.evaluate", "appell.moment_sum", "operators.make_operator"):
        assert a[k] == b[k], k


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
        assert len(workloads.build(name, 7)) == len(workloads.build(name, 8))


# ------------------------------------------------------------ result line


def _bench_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _result(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_exactly_the_benchmark_metrics(trace, section):
    res = _result("--workload", "certify-large", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _bench_units(section)
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    for value in res["metrics"].values():
        assert set(value) == {"value", "unit"} and math.isfinite(value["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
