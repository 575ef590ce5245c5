import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qapprox.qcore
from qapprox.errors import DomainError, EvaluationError, TruncationCapError
from qapprox.qcore import (
    DEFAULT_TOL,
    Eq_exp,
    Eq_exp_product,
    Eq_exp_series,
    QValue,
    as_qvalue,
    eq_exp,
    log_eq_exp,
    q_derivative,
    q_integer,
)

from oracles import Eq_exp_series_loop

qs = st.floats(min_value=0.05, max_value=0.97)


def test_qvalue_rejects_out_of_range():
    for bad in (0.0, 1.0, 1.5, -0.2, math.nan):
        with pytest.raises(ValueError):
            as_qvalue(bad)


def test_qvalue_radius():
    assert as_qvalue(0.5).radius == 2.0
    assert as_qvalue(0.95).radius == pytest.approx(20.0, rel=1e-12)


def test_q_integer_hand_values():
    assert q_integer(0, 0.5) == 0.0
    assert q_integer(1, 0.5) == 1.0
    assert q_integer(3, 0.5) == 1.75


@given(qs, st.integers(min_value=0, max_value=60))
def test_q_integer_recurrence(q, r):
    assert q_integer(r + 1, q) == pytest.approx(1.0 + q * q_integer(r, q), rel=1e-12)


def test_q_derivative_monomial():
    # D_q t^2 = (1+q) x
    assert q_derivative(lambda t: t * t, 0.7, 0.5) == pytest.approx(1.05, rel=1e-12)


def test_q_derivative_at_zero_central_difference():
    assert q_derivative(math.sin, 0.0, 0.5) == pytest.approx(1.0, abs=1e-9)
    assert q_derivative(lambda t: t * t, 0.0, 0.8) == pytest.approx(0.0, abs=1e-9)


@given(qs, st.floats(min_value=0.05, max_value=3.0), st.integers(min_value=1, max_value=6))
def test_q_derivative_monomial_property(q, x, m):
    want = q_integer(m, q) * x ** (m - 1)
    assert q_derivative(lambda t: t**m, x, q) == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_eq_exp_examples():
    assert eq_exp(0.0, 0.5) == 1.0
    assert eq_exp(1.0, 0.5) == pytest.approx(3.4627466194519148, rel=1e-12)
    assert eq_exp(0.5, 0.8) == pytest.approx(1.6729984801464999, rel=1e-12)


def test_eq_exp_partial_sum_oracle():
    # brute-force summation with a far tighter cutoff than the production rule
    for q, x in ((0.5, 1.2), (0.8, 3.0), (0.95, 10.0)):
        total = 0.0
        term = 1.0
        k = 0
        while abs(term) > 1e-17 * max(1.0, abs(total)):
            total += term
            k += 1
            term *= x / q_integer(k, q)
        assert eq_exp(x, q) == pytest.approx(total, rel=1e-11)


def test_eq_exp_monotone_on_grid():
    for q in (0.5, 0.8, 0.95):
        qv = as_qvalue(q)
        vals = [eq_exp(x, qv) for x in np.linspace(0.0, 0.9 * qv.radius, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eq_exp_domain_guard():
    with pytest.raises(DomainError):
        eq_exp(2.0, 0.5)
    with pytest.raises(DomainError):
        eq_exp(-2.5, 0.5)


def test_eq_exp_cap(monkeypatch):
    monkeypatch.setattr(qapprox.qcore, "SERIES_CAP", 50)
    with pytest.raises(TruncationCapError):
        eq_exp(1.999999999, 0.5, tol=1e-12)


def test_Eq_series_vs_product_agree():
    # below -1/(1-q) = -3.33 the first factors are negative: one at x = -4,
    # two at x = -5
    for x in (-5.0, -4.0, -1.0, -0.3, 0.5, 3.0):
        s = Eq_exp_series(x, 0.7)
        p = Eq_exp_product(x, 0.7)
        assert s == pytest.approx(p, rel=1e-9, abs=1e-9)
    assert Eq_exp_product(-4.0, 0.7) < 0.0
    assert Eq_exp_product(-2.0, 0.5) == 0.0  # the first factor is 1 - (1/2) 2


def test_Eq_route_selection():
    # the product below -1/2, where the alternating series cancels; the series from -1/2 on
    for x, q in ((-18.0, 0.95), (-1.0, 0.7), (-0.5000001, 0.7)):
        assert Eq_exp(x, q) == Eq_exp_product(x, q)
    for x, q in ((-0.5, 0.7), (-0.2, 0.7), (0.0, 0.7), (2.0, 0.7)):
        assert Eq_exp(x, q) == Eq_exp_series(x, q)


def test_Eq_large_negative_value():
    assert Eq_exp(-18.0, 0.95) == pytest.approx(3.0122237642039565e-12, rel=1e-9)


def test_Eq_tiny_negative_accuracy():
    # error must scale with |x|: the q-difference quotient at 0 divides by 1e-6
    want = 1.0 - 5e-7 + 0.5 * (5e-7) ** 2 / 1.5  # first three series terms
    assert Eq_exp(-5e-7, 0.5) == pytest.approx(want, abs=1e-18)


def test_exponential_reciprocal_identity():
    for q in (0.5, 0.8, 0.95):
        qv = as_qvalue(q)
        for x in np.linspace(0.0, 0.95 * qv.radius, 50):
            x = float(x)
            assert abs(eq_exp(x, qv) * Eq_exp(-x, qv) - 1.0) <= 1e-10


@given(qs, st.floats(min_value=0.0, max_value=0.95))
def test_exponential_reciprocal_identity_property(q, frac):
    qv = as_qvalue(q)
    x = frac * qv.radius
    assert abs(eq_exp(x, qv) * Eq_exp(-x, qv) - 1.0) <= 1e-10


def test_big_exponential_ratio_bounded_by_one():
    # E(-y) e(qy) = e(qy)/e(y) <= 1 for y >= 0
    for q in (0.5, 0.8, 0.95):
        qv = as_qvalue(q)
        for y in np.linspace(0.0, 0.9 * qv.radius, 40):
            y = float(y)
            assert Eq_exp(-y, qv) * eq_exp(qv.q * y, qv) <= 1.0 + 1e-12


def test_product_rules():
    f = lambda t: math.sin(t + 0.3)
    g = lambda t: t * t + 0.5
    fg = lambda t: f(t) * g(t)
    for q in (0.5, 0.8, 0.95):
        qv = as_qvalue(q)
        for x in np.linspace(0.05, 2.0, 25):
            x = float(x)
            lhs = q_derivative(fg, x, qv)
            df = q_derivative(f, x, qv)
            dg = q_derivative(g, x, qv)
            assert lhs == pytest.approx(f(q * x) * dg + g(x) * df, rel=1e-11)
            assert lhs == pytest.approx(f(x) * dg + g(q * x) * df, rel=1e-11)


def test_exponential_derivative_rules():
    a = 0.5
    for q in (0.5, 0.8, 0.95):
        qv = as_qvalue(q)
        small = lambda t: eq_exp(a * t, qv)
        large = lambda t: Eq_exp(a * t, qv)
        for x in np.linspace(0.0, 0.9 * qv.radius, 25):
            x = float(x)
            assert q_derivative(small, x, qv) == pytest.approx(a * small(x), rel=1e-9)
            assert q_derivative(large, x, qv) == pytest.approx(
                a * large(q * x), rel=1e-9
            )


def test_qvalue_is_frozen():
    qv = as_qvalue(0.5)
    with pytest.raises(Exception):
        qv.q = 0.6


def test_q_derivative_on_arrays_matches_scalar_calls():
    # the same quotient elementwise, and the central difference at 0
    xs = np.array([0.0, 0.05, 0.7, 2.0, 0.0, 1.3])
    f = lambda t: t * t * t + 0.5 * t
    for q in (0.3, 0.8, 0.999):
        assert np.array_equal(q_derivative(f, xs, q), [q_derivative(f, float(x), q) for x in xs])
    with pytest.raises(EvaluationError, match="x=0.7"):
        q_derivative(lambda t: np.where(t > 0.6, np.inf, t), xs, 0.5)


@pytest.mark.parametrize("q", (0.5, 0.9, 0.99, 0.999))
def test_log_eq_exp_on_arrays_matches_scalar_calls(q):
    # each entry sums its own terms, out of order, with 0 and both signs
    r = 1.0 / (1.0 - q)
    xs = np.array([[0.9 * r, 0.0, -0.5 * r], [1e-9, 0.3 * r, -0.95 * r]])
    assert np.array_equal(log_eq_exp(xs, q), [[log_eq_exp(float(x), q) for x in row] for row in xs])
    with pytest.raises(DomainError, match="got x=%r" % r):
        log_eq_exp(np.array([0.0, r, 0.5]), q)


@pytest.mark.parametrize("q", (0.5, 0.9, 0.99))
def test_Eq_series_on_arrays_matches_the_term_loop(q):
    # one numpy pass against the scalar term loop, from -1/2 (where Eq_exp
    # takes the series) up to x = 0.45/(1-q), out of order
    xs = np.concatenate([np.linspace(-0.5, 0.45 / (1.0 - q), 40), [0.0, -1e-7]])[::-3]
    np.testing.assert_allclose(Eq_exp_series(xs, q), [Eq_exp_series_loop(x, q) for x in xs], rtol=1e-13)
    assert np.array_equal(Eq_exp_series(xs, q), [Eq_exp_series(float(x), q) for x in xs])
    assert np.array_equal(Eq_exp(xs, q), Eq_exp_series(xs, q))


def test_Eq_series_at_q0999_against_40_digits():
    # the term loop multiplies ~600 rounded ratios into each term (1.2e-12 off
    # here); the log-terms anchored at the peak hold 1e-12
    mpmath = pytest.importorskip("mpmath")
    q = 0.999
    xs = np.array([-0.5, 0.0, 3.0, 90.0, 225.0, 450.0])
    want = []
    with mpmath.workdps(40):
        for x in xs.tolist():
            total, term, k, mq = mpmath.mpf(0), mpmath.mpf(1), 0, mpmath.mpf(q)
            while k < 10 or abs(term) > abs(total) * mpmath.mpf(10) ** -35:
                total += term
                term *= mq**k * x * (1 - mq) / (1 - mq ** (k + 1))
                k += 1
            want.append(total)
    np.testing.assert_allclose(Eq_exp_series(xs, q), [float(w) for w in want], rtol=1e-12)
    # 50 arguments up to 450 take 1024 terms each: summed in blocks of rows
    xs = np.linspace(450.0, 0.0, 50)
    assert np.array_equal(Eq_exp_series(xs, q), [Eq_exp_series(float(x), q) for x in xs])


def test_Eq_exp_on_a_mixed_array_takes_each_route():
    xs = np.array([-4.0, -0.3, 2.0, -18.0])
    assert np.array_equal(Eq_exp(xs, 0.7), [Eq_exp(float(x), 0.7) for x in xs])
    assert Eq_exp(-4.0, 0.7) == Eq_exp_product(-4.0, 0.7)
