"""q-calculus primitives with explicit convergence domains.

Everything here is elementary: q-integers, q-factorials, q-binomials, the
q-difference quotient, and the two q-exponential series

    small:  e_q(x) = sum_k x^k / [k]_q!          (radius 1/(1-q))
    big:    E_q(x) = sum_k q^(k(k-1)/2) x^k / [k]_q!   (entire)

All functions are pure and accept either a QValue or a bare float for q.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, TruncationCapError

__all__ = [
    "QValue",
    "q_integer",
    "q_factorial",
    "q_binomial",
    "q_derivative",
    "eq_exp",
    "Eq_exp",
    "Eq_exp_series",
    "Eq_exp_product",
    "Eq_exp_with_info",
    "DEFAULT_TOL",
    "SERIES_CAP",
]

DEFAULT_TOL = 1e-12
SERIES_CAP = 10_000

# Step for the central difference that replaces the q-difference quotient at
# x = 0 (where the quotient degenerates to the ordinary derivative).
_ZERO_STEP = 1e-6


@dataclass(frozen=True)
class QValue:
    """Deformation parameter, restricted to the open interval (0, 1)."""

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", float(self.q))
        if not math.isfinite(self.q) or not (0.0 < self.q < 1.0):
            raise DomainError(f"q must satisfy 0 < q < 1, got {self.q!r}")

    @property
    def radius(self) -> float:
        """Convergence radius 1/(1-q) of the small q-exponential."""
        return 1.0 / (1.0 - self.q)


def as_qvalue(q) -> QValue:
    return q if isinstance(q, QValue) else QValue(float(q))


def q_integers(r, q: float):
    """[r]_q elementwise for a float r or an array of them, no validation.

    1 - q^r is formed as -expm1(r log q): subtracting q^r from 1 would lose
    about 1/(r(1-q)) ulps for q near 1.  Each entry depends on its own r
    only, so a table built in pieces equals one built at once, bit for bit.
    """
    return -np.expm1(r * math.log(q)) / (1.0 - q)


def q_integer(r: int, q) -> float:
    """[r]_q = (1-q^r)/(1-q), the q-analogue of the integer r."""
    if r < 0 or r != int(r):
        raise ValueError(f"r must be a nonnegative integer, got {r!r}")
    return float(q_integers(float(r), as_qvalue(q).q))


def q_factorial(n: int, q) -> float:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    qv = as_qvalue(q)
    out = 1.0
    for j in range(1, int(n) + 1):
        out *= q_integer(j, qv)
    if math.isinf(out):
        raise OverflowError(f"q-factorial overflowed at n={n}, q={qv.q}")
    return out


def q_binomial(n: int, k: int, q) -> float:
    """Gaussian binomial [n]_q! / ([k]_q! [n-k]_q!)."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    qv = as_qvalue(q)
    return q_factorial(n, qv) / (q_factorial(k, qv) * q_factorial(n - k, qv))


def q_derivative(f, x: float, q) -> float:
    """q-difference quotient (f(x) - f(qx)) / ((1-q)x).

    At x = 0 the quotient degenerates; a central finite difference with
    fixed step 1e-6 estimates f'(0) instead.
    """
    qv = as_qvalue(q)
    if x == 0.0:
        val = (float(f(_ZERO_STEP)) - float(f(-_ZERO_STEP))) / (2.0 * _ZERO_STEP)
    else:
        val = (float(f(x)) - float(f(qv.q * x))) / ((1.0 - qv.q) * x)
    if not math.isfinite(val):
        raise EvaluationError(f"non-finite q-derivative at x={x}")
    return val


def eq_exp(x: float, q, tol: float = DEFAULT_TOL, k_max: int = SERIES_CAP) -> float:
    """Small q-exponential e_q(x), defined for |x| < 1/(1-q).

    Terms t_k = x^k/[k]_q! have consecutive ratio x/[k+1]_q, whose magnitude
    decreases toward (1-q)|x| < 1.  Summation stops once the geometric tail
    bound |t_k| * r/(1-r) with r = |x|/[k+1]_q (an upper bound for every later
    ratio) drops below tol relative to the partial sum.
    """
    qv = as_qvalue(q)
    x = float(x)
    if abs(x) >= qv.radius:
        raise DomainError(
            f"eq_exp needs |x| < 1/(1-q) = {qv.radius:.6g}, got x={x!r}"
        )
    total = 0.0
    term = 1.0
    qpow = 1.0  # q^k
    for k in range(k_max + 1):
        total += term
        qpow_next = qpow * qv.q
        qint_next = (1.0 - qpow_next) / (1.0 - qv.q)  # [k+1]_q
        ratio = abs(x) / qint_next if qint_next > 0.0 else math.inf
        if ratio < 1.0 and abs(term) * ratio / (1.0 - ratio) <= tol * max(1.0, abs(total)):
            return total
        term *= x / qint_next
        qpow = qpow_next
    raise TruncationCapError(
        f"eq_exp({x}, q={qv.q}) did not meet tol={tol} within {k_max} terms"
    )


_EqExpInfo = namedtuple("_EqExpInfo", "value method cancellation")


def Eq_exp_series(x: float, q, tol: float = DEFAULT_TOL, k_max: int = SERIES_CAP) -> float:
    """Raw series for the big q-exponential.

    Fully trustworthy only for x >= 0 where every term is positive; for
    negative arguments the alternating sum cancels and Eq_exp switches to the
    product form instead.
    """
    qv = as_qvalue(q)
    x = float(x)
    total = 0.0
    term = 1.0
    qpow = 1.0  # q^k
    for k in range(k_max + 1):
        total += term
        qint_next = (1.0 - qpow * qv.q) / (1.0 - qv.q)  # [k+1]_q
        ratio = qpow * abs(x) / qint_next
        # super-geometric decay: once the next ratio is below 1/2 the whole
        # tail is bounded by the current term
        if ratio <= 0.5 and abs(term) <= tol * max(1.0, abs(total)):
            return total
        term *= qpow * x / qint_next
        qpow *= qv.q
    raise TruncationCapError(
        f"Eq_exp({x}, q={qv.q}) did not meet tol={tol} within {k_max} terms"
    )


def Eq_exp_product(x: float, q, tol: float = DEFAULT_TOL) -> float:
    """Big q-exponential via its convergent product (1+(1-q)x)(1+(1-q)qx)...

    The log of the remaining product after factor j is bounded by q^j|x|, so
    truncation stops once that bound is below tol.
    """
    qv = as_qvalue(q)
    x = float(x)
    out = 1.0
    qpow = 1.0
    for _ in range(1_000_000):
        if qpow * abs(x) <= tol:
            return out
        out *= 1.0 + (1.0 - qv.q) * qpow * x
        qpow *= qv.q
    raise TruncationCapError(f"Eq_exp_product({x}, q={qv.q}) did not converge")


# Below this magnitude the alternating series for negative arguments is
# benign: sum|t_k|/|sum t_k| stays O(1), and its error tracks the first
# omitted term, which shrinks with |x|.  The product form's truncation error
# is a fixed ~tol regardless of scale, so tiny arguments prefer the series.
_SERIES_NEG_LIMIT = 0.5


def Eq_exp_with_info(x: float, q, tol: float = DEFAULT_TOL, k_max: int = SERIES_CAP):
    """Like Eq_exp but also reports which route produced the value.

    Returns (value, method, cancellation).  Cancellation is sum|t_k| over
    |sum t_k| for the series the argument would generate; it is 1 for x >= 0.
    Negative arguments beyond a small magnitude always take the product
    route, where every factor is exact and nothing cancels.
    """
    qv = as_qvalue(q)
    x = float(x)
    if x >= 0.0:
        return _EqExpInfo(Eq_exp_series(x, qv, tol, k_max), "series", 1.0)
    if -x <= _SERIES_NEG_LIMIT:
        value = Eq_exp_series(x, qv, tol, k_max)
        total_abs = Eq_exp_series(-x, qv, tol, k_max)
        cancel = total_abs / abs(value) if value != 0.0 else math.inf
        return _EqExpInfo(value, "series", cancel)
    value = Eq_exp_product(x, qv, tol)
    # sum of |t_k| for argument x < 0 is exactly the series at |x|
    total_abs = Eq_exp_product(-x, qv, tol)
    cancel = total_abs / abs(value) if value != 0.0 else math.inf
    return _EqExpInfo(value, "product", cancel)


def Eq_exp(x: float, q, tol: float = DEFAULT_TOL, k_max: int = SERIES_CAP) -> float:
    """Big q-exponential E_q(x) = sum_k q^(k(k-1)/2) x^k/[k]_q! (entire)."""
    return Eq_exp_with_info(x, q, tol, k_max).value
