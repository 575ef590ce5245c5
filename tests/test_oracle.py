"""The closed-form moments and the operator against 50-digit sums written
with mpmath only.

The reference is the defining weighted sum

    L(f; x) = sum_k c_k(y) f(b_n [k]_q/[n]_q) / sum_k c_k(y),   y = x [n]_q / b_n,

with c_k(y) = sum_j a_j y^(k-j)/[k-j]_q!, summed term by term until the
geometric tail is negligible at 50 digits; the moments m_i take f(t) = t^i.
Nothing here reuses the library's series code.
"""

import functools
import math

import pytest

from qapprox.operators import evaluate, make_operator, moment_closed, preset_function
from qapprox.qcore import q_integer

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
                    for i in (1, 2):
                        got = moment_closed(op, i, x)
                        assert math.isfinite(got), (q, n, fam, frac, i)
                        err = float(abs(mpmath.mpf(got) - ref[i]) / ref[i])
                        assert err <= 1e-14, (q, n, fam, frac, i, err)
                        worst = max(worst, err)
    assert worst > 0.0  # the sweep did compare something


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


def test_q_integer_against_50_digits():
    # 1 - q^r by subtraction lost ~1/(r(1-q)) ulps: 2.5e-13 for [2]_q at q=0.9999
    for q in (0.999, 0.9999):
        for r in (2, 3, 50):
            with mpmath.workdps(50):
                qm = mpmath.mpf(q)
                ref = (1 - qm**r) / (1 - qm)
                err = float(abs(mpmath.mpf(q_integer(r, q)) - ref) / ref)
            assert err <= 4e-16, (q, r, err)
