"""The closed-form moments against 50-digit sums written with mpmath only.

The reference is the defining weighted sum

    m_i(x) = (b_n/[n]_q)^i * sum_k c_k(y) [k]_q^i / sum_k c_k(y),   y = x [n]_q / b_n,

with c_k(y) = sum_j a_j y^(k-j)/[k-j]_q!, summed term by term until the
geometric tail is negligible at 50 digits.  Nothing here reuses the
library's series code.
"""

import math

import pytest

from qapprox.operators import make_operator, moment_closed

mpmath = pytest.importorskip("mpmath")

_COEFFS = {"affine": (1.0, 1.0), "quad": (1.0, 1.0, 0.5)}


def _reference_moments(coeffs, q, n, bn, x) -> list:
    """[m_0, m_1, m_2] at x for the exact binary values of q, b_n and x."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        a = [mpmath.mpf(c) for c in coeffs]
        deg = len(a) - 1
        scale = mpmath.mpf(bn) * (1 - q) / (1 - q**n)
        y = mpmath.mpf(x) / scale
        radius2 = 1 / (1 - q) ** 2  # bounds [k]_q^2
        cut = mpmath.mpf(10) ** -24 / radius2
        kq = [mpmath.mpf(0)]  # kq[j] = [j]_q
        t = [mpmath.mpf(1)]  # t[j] = y^j / [j]_q!
        s0 = s1 = s2 = mpmath.mpf(0)
        for k in range(200_000):
            c = a[0] * t[k]
            for j in range(1, min(k, deg) + 1):
                c += a[j] * t[k - j]
            ck = c * kq[k]
            s0 += c
            s1 += ck
            s2 += ck * kq[k]
            kq.append(1 + q * kq[k])
            t.append(t[k] * y / kq[k + 1])
            # c_{j+1}/c_j <= y/[j+1-deg]_q, which decreases in j; the tail
            # times [k]_q^i is then at most c rho/(1-rho) radius^i.  Testing
            # every 8th term only overshoots the cut by a few terms.
            if k % 8 == 0 and k + 1 - deg >= 1:
                rho = y / kq[k + 1 - deg]
                if rho < 1 and c * rho <= (1 - rho) * cut * s0:
                    return [s0 / s0, scale * s1 / s0, scale**2 * s2 / s0]
    raise ArithmeticError(f"reference sum did not converge at q={q}, n={n}, x={x}")


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
