"""The q-exponentials, the closed-form moments and the operator against
50-digit values written with mpmath only.

The q-exponentials come from their infinite products,

    log e_q(x) = -sum_j log(1 - (1-q) q^j x),   E_q(x) = 1/e_q(-x),

and the operator reference is the defining weighted sum

    L(f; x) = sum_k c_k(y) f(b_n [k]_q/[n]_q) / sum_k c_k(y),   y = x [n]_q / b_n,

with c_k(y) = sum_j a_j y^(k-j)/[k-j]_q!, summed term by term until the
geometric tail is negligible at 50 digits; the moments m_i take f(t) = t^i.
Nothing here reuses the library's series code.
"""

import functools
import math

import numpy as np
import pytest

from qapprox.operators import (
    central_moment2,
    evaluate,
    make_operator,
    moment_closed,
    moment_series,
    preset_function,
)
from qapprox.qcore import Eq_exp, Eq_exp_product, eq_exp, log_eq_exp, q_integer

mpmath = pytest.importorskip("mpmath")

_COEFFS = {"affine": (1.0, 1.0), "quad": (1.0, 1.0, 0.5)}


@functools.lru_cache(maxsize=None)
def _reference_weights(coeffs, q, n, bn, x) -> tuple:
    """((c_0..c_K), ([0]_q..[K]_q)) at 50 digits, cut once the geometric tail
    after c_K is below 1e-30 of sum_k c_k, enough for every sum here
    ([k]_q^2 and |f| on the nodes stay below 1e6).  q, b_n and x are taken
    at their exact binary values; both tests below share the weights."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        a = [mpmath.mpf(c) for c in coeffs]
        deg = len(a) - 1
        y = mpmath.mpf(x) * (1 - q**n) / (mpmath.mpf(bn) * (1 - q))
        kq = [mpmath.mpf(0)]  # kq[j] = [j]_q
        t = [mpmath.mpf(1)]  # t[j] = y^j / [j]_q!
        cs = []
        s0 = mpmath.mpf(0)
        for k in range(200_000):
            c = a[0] * t[k]
            for j in range(1, min(k, deg) + 1):
                c += a[j] * t[k - j]
            cs.append(c)
            s0 += c
            kq.append(1 + q * kq[k])
            t.append(t[k] * y / kq[k + 1])
            # c_{j+1}/c_j <= y/[j+1-deg]_q, which decreases in j, so the tail
            # is at most c rho/(1-rho).  Testing every 8th term only
            # overshoots the cut by a few terms.
            if k % 8 == 0 and k + 1 - deg >= 1:
                rho = y / kq[k + 1 - deg]
                if rho < 1 and c * rho <= (1 - rho) * mpmath.mpf(10) ** -30 * s0:
                    return tuple(cs), tuple(kq[: k + 1])
    raise ArithmeticError(f"reference sum did not converge at q={q}, n={n}, x={x}")


def _scale(q, n, bn):
    q = mpmath.mpf(q)
    return mpmath.mpf(bn) * (1 - q) / (1 - q**n)


def _reference_moments(coeffs, q, n, bn, x) -> list:
    """[m_0, m_1, m_2] at x for the exact binary values of q, b_n and x."""
    cs, kqs = _reference_weights(coeffs, q, n, bn, x)
    with mpmath.workdps(50):
        s0, scale = mpmath.fsum(cs), _scale(q, n, bn)
        s1 = mpmath.fdot(cs, kqs)
        s2 = mpmath.fdot(cs, [kq * kq for kq in kqs])
        return [s0 / s0, scale * s1 / s0, scale**2 * s2 / s0]


def test_moment_closed_against_50_digit_sums():
    worst = 0.0
    for q in (0.5, 0.9, 0.99, 0.999):
        for n in (10, 1000):
            for fam, coeffs in _COEFFS.items():
                op = make_operator(n, q, math.sqrt(n), fam)
                for frac in (0.0, 0.5, 0.9, 1.0):
                    x = frac * op.x_max
                    ref = _reference_moments(coeffs, q, n, op.bn, x)
                    series = moment_series(op, x)
                    for i in (1, 2):
                        got = moment_closed(op, i, x)
                        assert math.isfinite(got), (q, n, fam, frac, i)
                        err = float(abs(mpmath.mpf(got) - ref[i]) / ref[i])
                        assert err <= 1e-14, (q, n, fam, frac, i, err)
                        worst = max(worst, err)
                        # the series oracle, in ratio form, up to x_max at q=0.999 too
                        assert math.isfinite(series[i]), (q, n, fam, frac, i)
                        err = float(abs(mpmath.mpf(series[i]) - ref[i]) / ref[i])
                        assert err <= 1e-12, (q, n, fam, frac, i, err)
    assert worst > 0.0  # the sweep did compare something


def _reference_central_moment2(coeffs, q, s, x):
    """m2 - 2x m1 + x^2 from the closed moments at 50 digits, at the
    operator's own float q and scale s; [k]_q is (1 - q^k)/(1 - q) in mpmath."""
    with mpmath.workdps(50):
        q, s, x = mpmath.mpf(q), mpmath.mpf(s), mpmath.mpf(x)
        a = [mpmath.mpf(c) for c in coeffs]
        kq = [(1 - q**k) / (1 - q) for k in range(len(a))]
        d1 = mpmath.fsum(a[k] * kq[k] for k in range(len(a))) / sum(a)
        d2 = mpmath.fsum(a[k] * kq[k] * kq[k - 1] for k in range(2, len(a))) / sum(a)
        r1 = 1 - (1 - q) * x / s
        r2 = r1 * (1 - (1 - q) * q * x / s)
        m1 = x + d1 * r1 * s
        m2 = q * x * x + x * s + s * s * q * r2 * d2 + s * r1 * d1 * (q * (q + 1) * x + s)
        return m2 - 2 * x * m1 + x * x


def test_central_moment2_against_50_digits():
    # m2 - 2x m1 + x^2 in floats loses up to 5.6e-10 of it at q = 0.99999;
    # the factored form keeps every q to 1e-14 relative, up to x_max
    families = {"one": (1.0,), **_COEFFS}
    worst = 0.0
    for q in (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999):
        for fam, coeffs in families.items():
            op = make_operator(1000, q, math.sqrt(1000), fam)
            xs = np.linspace(0.0, op.x_max, 41)[1:]
            for x, got in zip(xs.tolist(), central_moment2(op, xs).tolist()):
                assert got == central_moment2(op, x)
                ref = _reference_central_moment2(coeffs, op.q.q, op.scale, x)
                err = float(abs(mpmath.mpf(got) - ref) / ref)
                assert err <= 1e-14, (q, fam, x, err)
                worst = max(worst, err)
    assert worst > 0.0


_TARGETS = {
    "e1": lambda t: t,
    "sin": lambda t: mpmath.sin(t),
    "expneg": lambda t: mpmath.exp(-t),
}


def test_evaluate_against_50_digit_sums():
    # the ratio sum_k c_k f(node_k) / sum_k c_k, for q up to 0.999 and x up
    # to x_max, where the weights themselves pass the float range.  The cut
    # certifies the tail to tol * sup|f| (1 for sin and expneg), so a value
    # far below 1 is held to an absolute error instead.
    families = {"one": (1.0,), **_COEFFS}
    fs = {name: preset_function(name) for name in _TARGETS}
    worst = 0.0
    for q in (0.5, 0.9, 0.99, 0.999):
        for n in (10, 1000):
            fv = {name: [] for name in _TARGETS}  # f at node k, shared by every x and family
            for fam, coeffs in families.items():
                op = make_operator(n, q, math.sqrt(n), fam)
                for frac in (0.0, 0.5, 0.9, 1.0):
                    x = frac * op.x_max
                    cs, kqs = _reference_weights(coeffs, q, n, op.bn, x)
                    with mpmath.workdps(50):
                        scale = _scale(q, n, op.bn)
                        for name, f_mp in _TARGETS.items():
                            fv[name] += [f_mp(scale * kq) for kq in kqs[len(fv[name]) :]]
                        ref = {name: mpmath.fdot(cs, fv[name]) / mpmath.fsum(cs) for name in _TARGETS}
                    for name in _TARGETS:
                        got = evaluate(op, fs[name], x)
                        assert math.isfinite(got), (q, n, fam, frac, name)
                        err = float(abs(mpmath.mpf(got) - ref[name]) / max(abs(ref[name]), 1))
                        assert err <= 1e-11, (q, n, fam, frac, name, err)
                        worst = max(worst, err)
    assert worst > 0.0


def test_presets_within_2_ulp_of_40_digits():
    # the numpy forms against the exact values at the exact binary points,
    # on [0, 40] and at the abspow centre, where |t - c|^a must be 0
    refs = {
        "e0": lambda t: mpmath.mpf(1),
        "e1": lambda t: t,
        "e2": lambda t: t * t,
        "sin": mpmath.sin,
        "expneg": lambda t: mpmath.exp(-t),
    }
    for a in (0.394, 0.5, 0.969, 1.0):
        refs[f"abspow:{a}:1"] = lambda t, a=mpmath.mpf(a): abs(t - 1) ** a
    ts = np.append(np.linspace(0.0, 40.0, 4001), 1.0)
    worst = 0.0
    with mpmath.workdps(40):
        for name, ref_fn in refs.items():
            for t, got in zip(ts, preset_function(name)(ts)):
                ref = ref_fn(mpmath.mpf(t))
                ulps = float(abs(mpmath.mpf(got) - ref)) / np.spacing(abs(float(ref)))
                assert ulps <= 2.0, (name, t, got, ulps)
                worst = max(worst, ulps)
    assert worst > 0.0


def test_q_integer_against_50_digits():
    # 1 - q^r by subtraction lost ~1/(r(1-q)) ulps: 2.5e-13 for [2]_q at q=0.9999
    for q in (0.999, 0.9999):
        for r in (2, 3, 50):
            with mpmath.workdps(50):
                qm = mpmath.mpf(q)
                ref = (1 - qm**r) / (1 - qm)
                err = float(abs(mpmath.mpf(q_integer(r, q)) - ref) / ref)
            assert err <= 4e-16, (q, r, err)


_EPS = 2.0**-52
_HALF_SUBNORMAL = mpmath.mpf(2) ** -1075  # a correctly rounded value below this is 0


@functools.lru_cache(maxsize=None)
def _reference_log_eq(x, q):
    """log e_q(x) = -sum_j log(1 - c q^j), c = (1-q)x, at 50 digits, for the
    exact binary x and q.  The logs of the factors are summed one by one
    while |c q^j| > 1e-2 (a few thousand factors at q = 0.999, where
    `mpmath.qp` raises NoConvergence); the rest, sum_{j>=J} log(1 - u q^j)
    with |u| <= 1e-2, is -sum_m u^m/(m(1-q^m)), summed to 1e-55."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        u = (1 - q) * mpmath.mpf(x)
        total = mpmath.mpf(0)
        while abs(u) > mpmath.mpf(10) ** -2:
            total -= mpmath.log(1 - u)
            u *= q
        power = u
        for m in range(1, 1000):
            term = power / (m * (1 - q**m))
            total += term
            if abs(term) < mpmath.mpf(10) ** -55:
                return total
            power *= u
    raise ArithmeticError(f"reference tail did not converge at x={x}, q={q}")


def _close(got, log_ref, rtol):
    """got against e^log_ref to rtol relative, and to half the smallest
    subnormal absolute, so a value below the float range must read 0."""
    with mpmath.workdps(50):
        ref = mpmath.exp(log_ref)
        if ref > mpmath.mpf(1.7976931348623157e308):
            return got == math.inf
        return abs(mpmath.mpf(got) - ref) <= rtol * ref + _HALF_SUBNORMAL


_EXP_QS = (0.5, 0.9, 0.99, 0.999)
_EXP_FRACS = (-0.9, -0.5, 0.0, 0.1, 0.5, 0.9, 0.95)


def test_eq_exp_against_50_digit_products():
    # The cut leaves at most tol in the log; rounding adds a few ulps of
    # sum_m |t_m| = log e_q(|x|).  At q = 0.99, x = -50 the alternating series
    # gave -1.36e8 for e^-44.8, and at q = 0.999 it hit the term cap.
    for q in _EXP_QS:
        radius = 1.0 / (1.0 - q)
        for frac in _EXP_FRACS:
            x = frac * radius
            ref = _reference_log_eq(x, q)
            bound = 1e-12 + 8 * _EPS * max(1.0, float(_reference_log_eq(abs(x), q)))
            got = log_eq_exp(x, q)
            assert abs(got - float(ref)) <= bound, (q, frac, got, float(ref))
            assert _close(eq_exp(x, q), ref, bound), (q, frac, eq_exp(x, q))


def test_Eq_exp_product_route_against_50_digits():
    # E_q(x) for x <= -1/2 is the product; the first-order tail term leaves
    # only rounding, a few ulps of |log E_q(x)|, where the bare cut at
    # q^J |x| <= tol erred by about tol.  At q = 0.999, x = -0.9/(1-q) the
    # value (e^-752) is below the float range and must read 0.
    for q in _EXP_QS:
        radius = 1.0 / (1.0 - q)
        for frac in (0.5, 0.9, 0.95):
            x = -frac * radius
            assert Eq_exp(x, q) == Eq_exp_product(x, q)
            log_ref = -_reference_log_eq(-x, q)
            bound = 4 * _EPS * max(1.0, abs(float(log_ref)))
            assert _close(Eq_exp(x, q), log_ref, bound), (q, frac, Eq_exp(x, q))
