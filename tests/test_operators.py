import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qapprox.appell
import qapprox.operators
import qapprox.qcore
from qapprox.analysis import GridSpec, delta_n, phi_n
from qapprox.appell import FAMILIES, family_functionals, scaled_weights
from qapprox.cli import main as cli_main
from qapprox.errors import DomainError, EvaluationError, TruncationCapError
from qapprox.qcore import eq_exp
from qapprox.operators import (
    SAFETY,
    TargetFunction,
    as_target,
    central_moment2,
    evaluate,
    make_operator,
    moment_closed,
    moment_closed_uncorrected,
    moment_series,
    preset_function,
    shift_term,
)
from qapprox.statconv import ScheduleSpec, korovkin_table

from oracles import classical_szasz, closed_moment_scalar, moment_series_per_point


def test_tol_validation():
    op = make_operator(10, 0.8, 2.0, "affine")
    e1 = preset_function("e1")
    for tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError):
            evaluate(op, e1, 0.5, tol=tol)


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


def test_functionals_computed_on_first_use():
    op = make_operator(10, 0.8, 2.0, "quad")
    assert "functionals" not in op.__dict__
    moment_closed(op, 1, 0.5)
    assert op.__dict__["functionals"] == family_functionals(op.family, 0.8)
    assert op.functionals is op.__dict__["functionals"]


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


@pytest.mark.parametrize("family", ("one", "affine", "quad", "1,0.3,0.2,0.1"))
def test_moment_closed_equals_scalar_form(family):
    # the `moments` closed column: the array helper, called on one float or on
    # a grid, keeps the scalar formula's operation order bit for bit
    for n, q in ((10, 0.8), (100, 0.95), (1000, 0.999)):
        op = make_operator(n, q, math.sqrt(n), family)
        xs = np.linspace(0.0, op.x_max, 41)
        for i in (0, 1, 2):
            want = [closed_moment_scalar(op, i, x) for x in xs.tolist()]
            assert [moment_closed(op, i, x) for x in xs.tolist()] == want
            assert np.all(np.broadcast_to(moment_closed(op, i, xs), xs.shape) == want)


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


def test_shift_term_zero_for_constant_symbol():
    op = make_operator(10, 0.8, 2.0, "one")
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
    ops = ScheduleSpec("smooth").operators((16, 64), op.family)
    rows = korovkin_table(ops, GridSpec(0.0, 1.0, 11))
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
    # an array is checked as a whole: one bad point anywhere in it raises
    for bad in (np.nextafter(op.x_max, math.inf), -1e-300, math.nan):
        xs = np.linspace(0.0, op.x_max, 11)
        xs[7] = bad
        for closed in (
            lambda: moment_closed(op, 0, xs),
            lambda: moment_closed(op, 2, xs),
            lambda: central_moment2(op, xs),
            lambda: shift_term(op, xs),
        ):
            with pytest.raises(DomainError, match=r"x in \["):
                closed()


@pytest.mark.parametrize("q", [0.5, 0.99, 0.999])
@pytest.mark.parametrize("family", ["one", "affine", "quad"])
def test_closed_forms_on_arrays_match_scalar_calls(q, family):
    # the same arithmetic elementwise, so bit for bit on the whole domain
    op = make_operator(1000, q, math.sqrt(1000), family)
    xs = np.linspace(0.0, op.x_max, 201)
    for closed in (
        lambda x: moment_closed(op, 0, x),
        lambda x: moment_closed(op, 1, x),
        lambda x: moment_closed(op, 2, x),
        lambda x: moment_closed_uncorrected(op, 0, x),
        lambda x: moment_closed_uncorrected(op, 1, x),
        lambda x: moment_closed_uncorrected(op, 2, x),
        lambda x: central_moment2(op, x),
        lambda x: shift_term(op, x),
    ):
        got = np.broadcast_to(closed(xs), xs.shape)  # order 0 is the scalar 1.0
        assert np.array_equal(got, [closed(float(x)) for x in xs])


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("family", ["one", "affine", "quad", "1,0.3,0.2,0.1"])
def test_moment_series_on_a_grid_equals_per_point_calls(q, family):
    # the `moments` grid 0:auto:21 in one call against one kernel call per
    # point; then y = 0 alone, and the grid out of order with a repeat
    op = make_operator(1000, q, math.sqrt(1000), family)
    grid = np.linspace(0.0, 0.95 * op.x_max, 21)
    for xs in (grid, np.zeros(1), grid[[20, 0, 7, 3, 7, 12]]):
        got = np.array(moment_series(op, xs)).T
        want = np.array(moment_series_per_point(op, xs))
        np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=1e-13, atol=0.0)
        # the residual is a difference of logs up to ~2000: compare it absolutely
        np.testing.assert_allclose(got[:, 3], want[:, 3], rtol=0.0, atol=1e-12)


def test_evaluate_memo_recomputes_for_new_f_tol_or_operator(monkeypatch):
    # L f(x) is kept per (x, tol) for the operator's last f, so a repeat
    # costs no kernel call and anything else that changes the value does
    calls, real = [], qapprox.appell._weight_blocks
    monkeypatch.setattr(qapprox.appell, "_weight_blocks", lambda *a: calls.append(a) or real(*a))
    op = make_operator(100, 0.95, 10.0, "affine")
    sin, e1 = preset_function("sin"), preset_function("e1")
    v = evaluate(op, sin, 0.5)
    assert evaluate(op, sin, 0.5) == v and len(calls) == 1
    assert evaluate(op, sin, 0.25) != v and len(calls) == 2
    assert evaluate(op, e1, 0.5) != v and len(calls) == 3
    assert evaluate(op, sin, 0.5) == v and len(calls) == 4
    evaluate(op, sin, 0.5, tol=1e-6)
    assert len(calls) == 5
    assert evaluate(op, sin, 0.5, tol=1e-6) == evaluate(op, sin, 0.5, tol=1e-6)
    assert len(calls) == 5
    other = make_operator(100, 0.9, 10.0, "affine")
    assert evaluate(other, sin, 0.5) != v and len(calls) == 6
    assert evaluate(op, sin, 0.5) == v and len(calls) == 6


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("family", ["one", "affine", "quad"])
def test_evaluate_on_a_grid_equals_float_calls(q, family, kernel_windows):
    # one array call against a float call per x, each on a fresh operator,
    # with no tolerance: a grid from 0 to x_max out of order, with repeats;
    # its rows start in first windows of several widths, so the one kernel
    # pass yields blocks of several widths, and some rows are summed in a
    # window wider than their first
    fresh = lambda: make_operator(1000, q, math.sqrt(1000), family)
    x_max = fresh().x_max
    grid = np.linspace(0.0, x_max, 21)
    xs = np.concatenate([grid[[20, 0, 7, 3, 7, 12, 1]], grid[::3], [x_max, 0.0]])
    firsts, blocks = kernel_windows
    for name in ("sin", "expneg", "abspow:0.5:3"):
        firsts.clear()
        blocks.clear()
        got = evaluate(fresh(), preset_function(name), xs)
        widths = [width for _, width in blocks]
        assert len(set(widths)) > 1
        assert set(firsts) - set(widths)
        assert got.shape == xs.shape
        assert got.tolist() == [evaluate(fresh(), preset_function(name), x) for x in xs.tolist()]
        # a 0-d array is a float x
        x0 = float(xs[3])
        v = evaluate(fresh(), preset_function(name), np.array(x0))
        assert type(v) is float and v == evaluate(fresh(), preset_function(name), x0)


def test_evaluate_on_a_grid_failures_keep_nothing():
    # f is nan past t = 20, inside the node range [0, node_sup ~ 31.6]
    op = make_operator(1000, 0.99, math.sqrt(1000), "affine")
    assert op.node_sup > 30.0
    f = TargetFunction(lambda t: np.where(t < 20.0, np.sin(t), np.nan), "cut", bounded=1.0)
    xs = np.linspace(0.0, op.x_max, 41)
    with pytest.raises(EvaluationError, match=r"cut returned nan at node") as array_err:
        evaluate(op, f, xs)
    fresh = make_operator(1000, 0.99, math.sqrt(1000), "affine")
    with pytest.raises(EvaluationError) as float_err:
        evaluate(fresh, f, float(xs[-1]))
    assert str(array_err.value) == str(float_err.value)
    assert not op._target[-1]  # the rows reduced before the bad node are not kept
    with pytest.raises(DomainError, match=r"x in \[0.0, .*\] outside \[0, "):
        evaluate(op, f, np.append(xs, 1.01 * op.x_max))
    assert not op._target[-1]
    # a valid call afterwards matches the float calls on fresh operators
    low = np.linspace(0.0, 2.0, 11)
    want = [evaluate(make_operator(1000, 0.99, math.sqrt(1000), "affine"), f, x) for x in low.tolist()]
    assert evaluate(op, f, low).tolist() == want


def test_node_bound_overflow_reads_inf():
    # growth (1, 1) on nodes up to ~1000: e^1000 is past the float range,
    # so the growth candidate is inf and the finite lip/bounded one decides
    op = make_operator(1, 0.999, 1.0, "affine")
    assert op.node_sup > 710.0
    sin = TargetFunction(np.sin, "sin", growth=(1.0, 1.0), bounded=1.0)
    assert math.isfinite(evaluate(op, sin, 0.5 * op.x_max))
    # growth alone: no finite bound, so no certified tail, and a named error
    with pytest.raises(EvaluationError, match="no finite sup bound"):
        evaluate(op, preset_function("e2"), 0.5)


def test_moment_power_guard():
    op = make_operator(10, 0.8, 2.0, "affine")
    with pytest.raises(ValueError):
        moment_closed(op, 3, 0.5)
    with pytest.raises(ValueError):
        moment_closed(op, -1, 0.5)


def test_truncation_cap_surfaces(monkeypatch, tmp_path, capsys):
    # the kernel reads qcore.SERIES_CAP at call time: a cap above its floor of
    # 16 terms, but below the 44 that x = 1 needs, stops it with a named error
    monkeypatch.setattr(qapprox.qcore, "SERIES_CAP", 20)
    op = make_operator(10, 0.8, 2.0, "affine")
    with pytest.raises(TruncationCapError, match="within 20 terms"):
        scaled_weights(op.family, op.y(1.0), op.q)
    with pytest.raises(TruncationCapError, match="within 20 terms"):
        evaluate(op, preset_function("sin"), 1.0)
    # an array call raises when any one of its entries misses the cap; y = 0
    # and x = 0.05 fit in 20 terms
    ys = np.array([0.0, op.y(0.05), op.y(1.0), 0.0])
    with pytest.raises(TruncationCapError, match=r"scaled_weights\(y=%r, .* within 20 terms" % float(ys[2])):
        scaled_weights(op.family, ys, op.q)
    assert len(scaled_weights(op.family, ys[[0, 1]], op.q)[1]) <= 21
    with pytest.raises(TruncationCapError, match="within 20 terms"):
        moment_series(op, np.array([0.05, 1.0]))
    # moments sums the kernel before log e_q, so the kernel's cap is the one named
    assert cli_main(["moments", "--out", str(tmp_path / "m.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("truncation cap: scaled_weights(") and err.count("\n") == 1


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
    assert classical_szasz(30, math.sqrt(30), e0, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert classical_szasz(30, math.sqrt(30), e1, 1.0) == pytest.approx(1.0, abs=1e-10)
    want = 1.0 + math.sqrt(30) / 30
    got = classical_szasz(30, math.sqrt(30), e2, 1.0)
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(1.1825741858350063, rel=1e-13)


def test_classical_large_lambda():
    # lambda = n x / b_n = 1000: e^{-lambda} alone underflows to 0
    e0 = preset_function("e0")
    e1 = preset_function("e1")
    assert classical_szasz(10_000, 100.0, e0, 10.0) == pytest.approx(1.0, abs=1e-10)
    assert classical_szasz(10_000, 100.0, e1, 10.0) == pytest.approx(10.0, abs=1e-10)


def test_classical_limit_trend():
    fsin = preset_function("sin")
    bn = math.sqrt(30)
    for x in (0.25, 1.0):
        devs = []
        for q in (0.9, 0.99, 0.999):
            op = make_operator(30, q, bn, "one")
            devs.append(abs(evaluate(op, fsin, x) - classical_szasz(30, bn, fsin, x)))
        assert devs[0] > devs[1] > devs[2]


def test_operator_instance_frozen():
    op = make_operator(10, 0.8, 2.0, "affine")
    with pytest.raises(Exception):
        op.n = 11
