"""Independent 50-digit reference values, written with mpmath only.

Nothing here imports qapprox.  The q-exponentials use their infinite
products as explicit loops (`mpmath.qp` raises NoConvergence at q = 0.99):

    e_q(x) = 1 / prod_j (1 - (1-q) x q^j),   E_q(x) = prod_j (1 + (1-q) x q^j).

Operator values are the defining weighted sums, summed term by term at 50
digits until the geometric tail is below 1e-45 of the total.  Importing
this module sets mpmath's working precision to 50 digits.
"""

from __future__ import annotations

import math

import mpmath

DPS = 50
_EPS = mpmath.mpf(10) ** -55
_TAIL = mpmath.mpf(10) ** -45
_MAX_TERMS = 200_000

mp = mpmath.mp
mp.dps = DPS


def _mpq(q) -> mpmath.mpf:
    return mpmath.mpf(q)


def qint(k: int, q) -> mpmath.mpf:
    q = _mpq(q)
    return (1 - q**k) / (1 - q)


def _qproduct(z, q) -> mpmath.mpf:
    """prod_{j >= 0} (1 + z q^j), for real z > -1.

    Factors are multiplied one by one until |z q^J| < 1/100; the remaining
    product is exp(sum_m (-1)^(m+1) (z q^J)^m / (m (1 - q^m))), the
    expansion of its logarithm, summed to 1e-55.  This stops the loop after
    a few thousand factors at q = 0.999 instead of over 10^5.
    """
    out = mpmath.mpf(1)
    zj = mpmath.mpf(z)
    while abs(zj) > 0.01:
        out *= 1 + zj
        zj *= q
    log_tail = mpmath.mpf(0)
    power = zj
    for m in range(1, 1000):
        term = power / (m * (1 - q**m))
        log_tail += term if m % 2 else -term
        if abs(term) < _EPS:
            break
        power *= zj
    return out * mpmath.exp(log_tail)


def small_exp(x, q) -> mpmath.mpf:
    """e_q(x) = 1 / prod_j (1 - (1-q) x q^j), for |x| < 1/(1-q)."""
    q = _mpq(q)
    return 1 / _qproduct(-(1 - q) * mpmath.mpf(x), q)


def big_exp(x, q) -> mpmath.mpf:
    """E_q(x) = prod_j (1 + (1-q) x q^j), for x > -1/(1-q)."""
    q = _mpq(q)
    return _qproduct((1 - q) * mpmath.mpf(x), q)


def target(spec: str):
    """mpmath versions of the CLI's preset target functions."""
    if spec == "e0":
        return lambda t: mpmath.mpf(1)
    if spec == "e1":
        return lambda t: t
    if spec == "e2":
        return lambda t: t * t
    if spec == "sin":
        return mpmath.sin
    if spec == "expneg":
        return lambda t: mpmath.exp(-t)
    if spec.startswith("abspow:"):
        _, alpha, centre = spec.split(":")
        a, c = mpmath.mpf(alpha), mpmath.mpf(centre)
        return lambda t: abs(t - c) ** a
    raise ValueError(f"no oracle for target {spec!r}")


def operator_sums(q, n: int, bn, coeffs, x, f=None) -> dict:
    """Weighted sums of the operator at x.

    With y = x [n]_q / b_n and c_k(y) = sum_j a_j y^(k-j)/[k-j]_q!, returns
    the normalised moments m_i = sum_k c_k ([k]_q b_n/[n]_q)^i / sum_k c_k
    for i = 0, 1, 2, the norm sum_k c_k, and, when f is given, the operator
    value L(f)(x) = sum_k c_k f(node_k) / sum_k c_k.
    """
    q = _mpq(q)
    coeffs = [mpmath.mpf(a) for a in coeffs]
    deg = len(coeffs) - 1
    scale = mpmath.mpf(bn) / qint(n, q)
    y = mpmath.mpf(x) / scale
    radius = 1 / (1 - q)
    # |f(node)| and node^2 are at most this on the node interval
    node_sup = scale * radius
    bound = max(mpmath.mpf(1), node_sup**2 + node_sup + 10)
    window = [mpmath.mpf(0)] * deg + [mpmath.mpf(1)]  # y^j/[j]_q!, trailing
    qints = [mpmath.mpf(0)]  # qints[j] = [j]_q
    s0 = s1 = s2 = sf = mpmath.mpf(0)
    qpow = mpmath.mpf(1)
    for k in range(_MAX_TERMS):
        qpow *= q
        qints.append((1 - qpow) / (1 - q))
        c_k = sum(a * window[deg - j] for j, a in enumerate(coeffs))
        node = qints[k] * scale
        s0 += c_k
        s1 += c_k * node
        s2 += c_k * node * node
        if f is not None:
            sf += c_k * f(node)
        # c_{j+1}/c_j <= y/[j+1-deg]_q, which decreases in j
        lag = k + 1 - deg
        if lag >= 1:
            rho = y / qints[lag]
            if rho < 1 and c_k * rho / (1 - rho) * bound <= _TAIL * s0:
                out = {"norm": s0, "m0": s0 / s0, "m1": s1 / s0, "m2": s2 / s0}
                if f is not None:
                    out["Lf"] = sf / s0
                return out
        window = window[1:] + [window[-1] * y / qints[k + 1]]
    raise ArithmeticError(f"oracle sum did not converge at x={x}, q={q}, n={n}")


def rel_err(value: float, ref) -> float:
    """|value - ref| / max(1, |ref|), as a float; inf for a non-finite value."""
    if not math.isfinite(value):
        return math.inf
    return float(abs(mpmath.mpf(value) - ref) / max(mpmath.mpf(1), abs(ref)))
