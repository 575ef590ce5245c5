import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qapprox.operators
from qapprox.analysis import GridSpec, delta_n, phi_n
from qapprox.appell import FAMILIES, scaled_weights
from qapprox.errors import DomainError, EvaluationError, TruncationCapError
from qapprox.qcore import eq_exp
from qapprox.operators import (
    SAFETY,
    TargetFunction,
    as_target,
    auxiliary_evaluate,
    central_moment2,
    classical_evaluate,
    evaluate,
    make_operator,
    moment_closed,
    moment_closed_uncorrected,
    moment_series,
    preset_function,
    shift_term,
)
from qapprox.statconv import ScheduleSpec, korovkin_table


def test_truncation_policy_validation():
    op = make_operator(10, 0.8, 2.0, "affine")
    e1 = preset_function("e1")
    for tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError):
            evaluate(op, e1, 0.5, tol=tol)
        with pytest.raises(ValueError):
            classical_evaluate(10, 2.0, e1, 0.5, tol=tol)


def test_target_metadata_audit_rejects_false_claims():
    with pytest.raises(ValueError):
        TargetFunction(fn=lambda t: t * t, bounded=1.0)
    with pytest.raises(ValueError):
        TargetFunction(fn=lambda t: t * t, growth=(1.0, 0.0))
    with pytest.raises(ValueError):
        TargetFunction(fn=lambda t: t * t, lip=(1.0, 1.0))
    # honest claims survive
    TargetFunction(fn=lambda t: t * t, growth=(1.0, 1.0))


def test_presets_exist_and_evaluate():
    for name in ("e0", "e1", "e2", "sin", "expneg"):
        f = preset_function(name)
        assert math.isfinite(f(0.3))
    f = preset_function("abspow:0.5:1")
    assert f(1.0) == 0.0
    assert f(2.0) == 1.0


def test_abspow_validation():
    with pytest.raises(ValueError):
        preset_function("abspow:1.5:1")
    with pytest.raises(ValueError):
        preset_function("abspow:0:1")
    with pytest.raises(ValueError):
        preset_function("abspow:0.5:-1")
    with pytest.raises(ValueError):
        preset_function("nope")


def test_make_operator_validation():
    with pytest.raises(ValueError):
        make_operator(0, 0.8, 2.0, "one")
    with pytest.raises(ValueError):
        make_operator(10, 1.2, 2.0, "one")
    with pytest.raises(ValueError):
        make_operator(10, 0.8, -1.0, "one")


def test_operator_derived_fields():
    op = make_operator(10, 0.8, 2.0, "affine")
    assert op.x_max == pytest.approx(2.1285514742431757, rel=1e-14)
    assert op.x_max == pytest.approx(SAFETY * op.node_sup, rel=1e-14)
    assert op.scale * op.nq == pytest.approx(2.0, rel=1e-14)


def test_constant_reproduction():
    op = make_operator(10, 0.8, 2.0, "affine")
    e0 = preset_function("e0")
    for x in (0.0, 0.5, 1.0, 2.0):
        assert abs(evaluate(op, e0, x) - 1.0) <= 1e-10


def test_evaluate_matches_moment_series():
    op = make_operator(10, 0.8, 2.0, "affine")
    e1 = preset_function("e1")
    e2 = preset_function("e2")
    for x in (0.1, 0.5, 1.5):
        assert evaluate(op, e1, x) == pytest.approx(moment_series(op, x)[1], rel=1e-9)
        assert evaluate(op, e2, x) == pytest.approx(moment_series(op, x)[2], rel=1e-9)


def test_evaluate_sweep_e0_e1():
    e0 = preset_function("e0")
    e1 = preset_function("e1")
    for fam in ("one", "affine", "quad"):
        for q in (0.5, 0.9, 0.99):
            for n in (10, 1000):
                op = make_operator(n, q, math.sqrt(n), fam)
                for frac in (0.0, 0.1, 0.5, 0.9, 1.0):
                    x = frac * op.x_max
                    assert abs(evaluate(op, e0, x) - 1.0) <= 1e-12
                    want = moment_series(op, x)[1]
                    assert evaluate(op, e1, x) == pytest.approx(want, rel=1e-11)


def test_evaluate_cut_pinned():
    # terms evaluate sums for a target bounded by 1 (e0, sin)
    op = make_operator(1000, 0.99, math.sqrt(1000), "affine")
    for frac, terms in ((0.0, 17), (0.95, 583)):
        c, kq, _ = scaled_weights(op.family, op.y(frac * op.x_max), op.q, bound=1.0)
        assert len(c) == len(kq) == terms


def test_moment_closed_vs_series_smoke():
    op = make_operator(10, 0.8, 2.0, "affine")
    assert moment_closed(op, 0, 0.5) == 1.0
    assert moment_closed(op, 1, 0.5) == pytest.approx(0.6740580499202851, rel=1e-12)
    assert moment_series(op, 0.5)[1] == pytest.approx(0.6740580499206811, rel=1e-12)
    assert moment_closed(op, 2, 0.5) == pytest.approx(0.62737806033909, rel=1e-12)
    assert moment_series(op, 0.5)[2] == pytest.approx(0.6273780603394733, rel=1e-12)
    for i in (0, 1, 2):
        assert moment_closed(op, i, 0.5) == pytest.approx(
            moment_series(op, 0.5)[i], rel=1e-9
        )


def test_moment_series_matches_per_order_cut():
    # one kernel call cut for [k]_q^2 against the old per-order sums, each cut
    # for its own bound radius**i, over the default `moments` grid (q=0.8,
    # n=10, b_n=sqrt(n), 0:auto:41); the longer cut only adds terms below tol
    for name in FAMILIES:
        op = make_operator(10, 0.8, math.sqrt(10), name)
        for x in np.linspace(0.0, 0.95 * op.x_max, 41):
            x = float(x)
            y = op.y(x)
            norm = sum(op.family.coeffs) * eq_exp(y, op.q)
            got = moment_series(op, x)
            assert got.norm_residual <= 1e-12, (name, x)
            for i in (0, 1, 2):
                c, kq, shift = scaled_weights(op.family, y, op.q, op.q.radius**i)
                want = op.scale**i * float(c @ kq**i) * math.exp(shift) / norm
                assert got[i] == pytest.approx(want, rel=1e-11), (name, x, i)


def test_evaluate_converts_a_raw_callable_once(monkeypatch):
    # the node cache is keyed on the object passed, so a raw scalar callable
    # is wrapped and audited once per operator, not once per point
    f = lambda t: math.sin(t) + 0.5 * t
    op = make_operator(100, 0.95, 10.0, "affine")
    xs = [float(x) for x in np.linspace(0.0, op.x_max, 100)]
    target = as_target(f)
    want = [evaluate(op, target, x) for x in xs]
    audits = []
    real = TargetFunction._audit
    monkeypatch.setattr(TargetFunction, "_audit", lambda self: audits.append(1) or real(self))
    raw_op = make_operator(100, 0.95, 10.0, "affine")
    assert [evaluate(raw_op, f, x) for x in xs] == want
    assert len(audits) == 1


def test_uncorrected_second_moment_discrepancy_single_coefficient():
    # for the weight family with constant symbol the textbook-style printed
    # form misses exactly x*s - (1-q)x^2
    op = make_operator(10, 0.8, 2.0, "one")
    s = op.scale
    for x in (0.2, 0.7, 1.4):
        printed = moment_closed_uncorrected(op, 2, x)
        series = moment_series(op, x)[2]
        want_gap = x * s - (1.0 - 0.8) * x * x
        assert series - printed == pytest.approx(want_gap, abs=1e-9)


def test_uncorrected_matches_corrected_below_second():
    op = make_operator(10, 0.8, 2.0, "quad")
    for i in (0, 1):
        assert moment_closed_uncorrected(op, i, 0.6) == moment_closed(op, i, 0.6)


def test_positivity_and_monotonicity():
    op = make_operator(12, 0.9, 3.0, "quad")
    pos = preset_function("expneg")
    e0 = preset_function("e0")
    for x in np.linspace(0.0, op.x_max, 9):
        x = float(x)
        v = evaluate(op, pos, x)
        assert v >= -1e-12
        # e^{-t} <= 1 pointwise on the nodes
        assert v <= evaluate(op, e0, x) + 1e-12


def test_linearity_seeded():
    rng = np.random.default_rng(42)
    op = make_operator(10, 0.8, 2.0, "affine")
    e1 = preset_function("e1")
    fsin = preset_function("sin")
    for _ in range(5):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        h = as_target(lambda t, a=a, b=b: a * t + b * math.sin(t))
        for x in (0.25, 1.0):
            combo = a * evaluate(op, e1, x) + b * evaluate(op, fsin, x)
            assert evaluate(op, h, x) == pytest.approx(combo, rel=1e-10, abs=1e-10)


def test_auxiliary_reproduces_linear():
    op = make_operator(10, 0.8, 2.0, "affine")
    e1 = preset_function("e1")
    for x in (0.0, 0.5, 1.0, 2.0):
        assert abs(auxiliary_evaluate(op, e1, x) - x) <= 1e-10
    assert auxiliary_evaluate(op, e1, 0.5) == pytest.approx(
        0.5000000000003957, rel=1e-12
    )


def test_auxiliary_equals_plain_for_constant_symbol():
    op = make_operator(10, 0.8, 2.0, "one")
    fsin = preset_function("sin")
    for x in (0.0, 0.5, 1.5):
        assert auxiliary_evaluate(op, fsin, x) == evaluate(op, fsin, x)
    assert shift_term(op, 0.5) == 0.0


def test_shift_term_positive_for_affine():
    op = make_operator(10, 0.8, 2.0, "affine")
    assert shift_term(op, 0.5) > 0.0
    # shift equals the first-moment displacement
    assert shift_term(op, 0.5) == pytest.approx(
        moment_closed(op, 1, 0.5) - 0.5, rel=1e-12
    )


def test_central_moment2_nonnegative_and_oracle():
    op = make_operator(10, 0.8, 2.0, "quad")
    for x in (0.0, 0.4, 1.0, 1.8):
        mu2 = central_moment2(op, x)
        assert mu2 >= -1e-12
        probe = as_target(lambda t, x=x: (t - x) ** 2)
        assert mu2 == pytest.approx(evaluate(op, probe, x), rel=1e-9, abs=1e-12)


def test_closed_forms_sum_no_series(monkeypatch):
    # e_q(qy)/e_q(y) = 1 - (1-q)y exactly, so no closed form needs e_q
    def no_series(*args, **kwargs):
        raise AssertionError("closed forms must not sum a q-exponential series")

    monkeypatch.setattr(qapprox.operators, "eq_exp", no_series)
    monkeypatch.setattr(qapprox.operators, "log_eq_exp", no_series)
    op = make_operator(1000, 0.99, math.sqrt(1000), "quad")
    x = 0.5 * op.x_max
    for i in (0, 1, 2):
        assert math.isfinite(moment_closed(op, i, x))
        assert math.isfinite(moment_closed_uncorrected(op, i, x))
    assert math.isfinite(shift_term(op, x))
    assert math.isfinite(central_moment2(op, x))
    grid = GridSpec(0.0, op.x_max, 11)
    assert math.isfinite(delta_n(op, grid).value)
    assert math.isfinite(phi_n(op, grid).value)
    rows = korovkin_table(ScheduleSpec("smooth"), op.family, (16, 64), GridSpec(0.0, 1.0, 11))
    assert len(rows) == 2


@given(
    st.floats(min_value=0.0, max_value=0.999, exclude_min=True),
    st.integers(min_value=1, max_value=2000),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(("one", "affine", "quad")),
)
def test_closed_forms_finite_and_consistent(q, n, frac, fam):
    op = make_operator(n, q, math.sqrt(n), fam)
    x = frac * op.x_max
    m = [moment_closed(op, i, x) for i in (0, 1, 2)]
    shift, mu2 = shift_term(op, x), central_moment2(op, x)
    assert all(math.isfinite(v) for v in m + [moment_closed_uncorrected(op, 2, x), shift, mu2])
    assert abs((m[1] - x) - shift) <= 1e-12 * max(1.0, m[1])
    assert mu2 >= -1e-12 * (1.0 + x * x)


@given(
    st.floats(min_value=0.0, max_value=0.999, exclude_min=True),
    st.integers(min_value=1, max_value=2000),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(("one", "affine", "quad")),
)
def test_evaluate_finite_normalised_positive(q, n, frac, fam):
    op = make_operator(n, q, math.sqrt(n), fam)
    x = frac * op.x_max
    assert abs(evaluate(op, preset_function("e0"), x) - 1.0) <= 1e-14
    for name in ("e1", "expneg"):  # nonnegative targets
        v = evaluate(op, preset_function(name), x)
        assert math.isfinite(v) and v >= 0.0, name
    assert math.isfinite(evaluate(op, preset_function("sin"), x))


def test_domain_guard():
    op = make_operator(10, 0.8, 2.0, "affine")
    e1 = preset_function("e1")
    with pytest.raises(DomainError):
        evaluate(op, e1, op.x_max + 0.01)
    with pytest.raises(DomainError):
        evaluate(op, e1, -0.1)
    with pytest.raises(DomainError):
        moment_closed(op, 2, op.x_max + 0.01)


def test_moment_power_guard():
    op = make_operator(10, 0.8, 2.0, "affine")
    with pytest.raises(ValueError):
        moment_closed(op, 3, 0.5)
    with pytest.raises(ValueError):
        moment_closed(op, -1, 0.5)


def test_truncation_cap_surfaces():
    op = make_operator(10, 0.8, 2.0, "affine")
    with pytest.raises(TruncationCapError):
        scaled_weights(op.family, op.y(1.0), op.q, tol=1e-12, k_min=2, k_max=6)


def test_nonfinite_target_raises():
    op = make_operator(10, 0.8, 2.0, "affine")
    node1 = op.scale  # first nonzero node
    # finite on the construction audit grid, nan exactly at one node
    bad = as_target(lambda t: math.nan if abs(t - node1) < 1e-4 else 1.0)
    with pytest.raises(EvaluationError):
        evaluate(op, bad, 1.0)


def test_classical_poisson_moments():
    e0 = preset_function("e0")
    e1 = preset_function("e1")
    e2 = preset_function("e2")
    assert classical_evaluate(30, math.sqrt(30), e0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert classical_evaluate(30, math.sqrt(30), e1, 1.0) == pytest.approx(1.0, abs=1e-10)
    want = 1.0 + math.sqrt(30) / 30
    got = classical_evaluate(30, math.sqrt(30), e2, 1.0)
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(1.1825741858350063, rel=1e-13)


def test_classical_large_lambda():
    # lambda = n x / b_n = 1000: e^{-lambda} alone underflows to 0
    e0 = preset_function("e0")
    e1 = preset_function("e1")
    assert classical_evaluate(10_000, 100.0, e0, 10.0) == pytest.approx(1.0, abs=1e-10)
    assert classical_evaluate(10_000, 100.0, e1, 10.0) == pytest.approx(10.0, abs=1e-10)


def test_classical_limit_trend():
    fsin = preset_function("sin")
    bn = math.sqrt(30)
    for x in (0.25, 1.0):
        devs = []
        for q in (0.9, 0.99, 0.999):
            op = make_operator(30, q, bn, "one")
            devs.append(abs(evaluate(op, fsin, x) - classical_evaluate(30, bn, fsin, x)))
        assert devs[0] > devs[1] > devs[2]


def test_operator_instance_frozen():
    op = make_operator(10, 0.8, 2.0, "affine")
    with pytest.raises(Exception):
        op.n = 11
