"""q-calculus primitives with explicit convergence domains.

Everything here is elementary: q-integers, q-factorials, the q-difference
quotient, and the two q-exponential series

    small:  e_q(x) = sum_k x^k / [k]_q!          (radius 1/(1-q))
    big:    E_q(x) = sum_k q^(k(k-1)/2) x^k / [k]_q!   (entire)

e_q is summed as the series of its logarithm (`log_eq_exp`), and E_q's
product as a sum of logs (`log_Eq_exp_product`), so neither cancels nor
overflows on the way to its value.

All functions are pure and accept either a QValue or a bare float for q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, TruncationCapError

__all__ = [
    "QValue",
    "q_integer",
    "q_factorial",
    "q_derivative",
    "eq_exp",
    "log_eq_exp",
    "Eq_exp",
    "Eq_exp_series",
    "Eq_exp_product",
    "log_Eq_exp_product",
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


def _exp(v: float) -> float:
    """e^v, and inf past the float range, where math.exp raises."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def log_eq_exp(x: float, q, tol: float = DEFAULT_TOL, k_max: int = SERIES_CAP) -> float:
    """log e_q(x) = sum_{m>=1} a^m / (m (1-q^m)), a = (1-q)x, for |x| < 1/(1-q).

    This expands log e_q(x) = -sum_j log(1 - a q^j), the log of the product
    e_q(x) = 1/prod_j (1 - a q^j) (Gasper & Rahman, Basic Hypergeometric
    Series, 1.3), and holds for either sign of x.  Since m(1-q^m) increases
    with m, each term is at most |a| times the one before, so the tail after
    term M is at most |t_M| |a|/(1-|a|).  The sum stops at the first M where
    that bound is <= tol: an absolute error in the log, so a relative one in
    e_q(x).  As |t_m| <= |a|^m/(1-q), that M is known not to lie past the
    first m with |a|^m/(1-q) |a|/(1-|a|) <= tol, so one numpy pass over that
    many terms (at most k_max) finds it.
    """
    qv = as_qvalue(q)
    x = float(x)
    a = (1.0 - qv.q) * x
    if abs(x) >= qv.radius or abs(a) >= 1.0:
        raise DomainError(
            f"eq_exp needs |x| < 1/(1-q) = {qv.radius:.6g}, got x={x!r}"
        )
    if a == 0.0:
        return 0.0
    tail = abs(a) / (1.0 - abs(a))  # |t_M| times this bounds the tail
    width = math.ceil((math.log(tol * (1.0 - qv.q)) - math.log(tail)) / math.log(abs(a)))
    m = np.arange(1.0, min(max(width, 1), k_max) + 1.0)
    t = np.power(a, m) / (m * -np.expm1(m * math.log(qv.q)))
    cut = np.abs(t) * tail <= tol
    if not cut.any():
        raise TruncationCapError(
            f"eq_exp({x}, q={qv.q}) did not meet tol={tol} within {k_max} terms"
        )
    return float(np.sum(t[: int(np.argmax(cut)) + 1]))


def eq_exp(x: float, q, tol: float = DEFAULT_TOL, k_max: int = SERIES_CAP) -> float:
    """Small q-exponential e_q(x) = sum_k x^k/[k]_q!, defined for |x| < 1/(1-q).

    It is exp(log_eq_exp(x)), so it is as accurate for x < 0, where the
    series alternates and cancels, as for x > 0, and it is inf exactly where
    e_q(x) passes the float range.
    """
    return _exp(log_eq_exp(x, q, tol, k_max))


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


_PRODUCT_CAP = 1_000_000


def _log_product(x: float, q: float, tol: float) -> tuple:
    """(log|P|, sign of P) for P = prod_j (1 + (1-q) q^j x).

    The J factors with q^j |x| > tol are summed as logs in chunks of
    SERIES_CAP; the log of the rest is x q^J, plus at most about
    (x q^J)^2 (1-q)/2, far below tol.  A factor <= 0 (only for
    x <= -1/(1-q), and only among the first ones) enters as log|factor|
    and flips the sign, or makes P zero.
    """
    b = (1.0 - q) * x
    log_q = math.log(q)
    n_factors = max(0, math.ceil(math.log(tol / abs(x)) / log_q)) if x != 0.0 else 0
    if n_factors > _PRODUCT_CAP:
        raise TruncationCapError(
            f"Eq_exp_product({x}, q={q}) needs {n_factors} factors, over {_PRODUCT_CAP}"
        )
    log_abs, sign = 0.0, 1.0
    for start in range(0, n_factors, SERIES_CAP):
        t = np.arange(start, min(n_factors, start + SERIES_CAP), dtype=float)
        t *= log_q
        np.exp(t, out=t)
        t *= b  # (1-q) q^j x, one chunk-sized array throughout
        flipped = int(np.count_nonzero(t <= -1.0))  # the leading ones: |t| falls
        if flipped:
            if np.any(t == -1.0):
                return -math.inf, 0.0
            log_abs += float(np.sum(np.log(-1.0 - t[:flipped])))
            sign *= (-1.0) ** flipped
        log_abs += float(np.sum(np.log1p(t[flipped:], out=t[flipped:])))
    return log_abs + x * q**n_factors, sign


def log_Eq_exp_product(x: float, q, tol: float = DEFAULT_TOL) -> float:
    """log E_q(x) = sum_j log(1 + (1-q) q^j x) for x > -1/(1-q), where every
    factor of the product is positive.  It sums, in numpy, the logs of the
    factors `Eq_exp_product` multiplies, independent of every series here."""
    qv = as_qvalue(q)
    x = float(x)
    if x <= -qv.radius:
        raise DomainError(
            f"log_Eq_exp_product needs x > -1/(1-q) = {-qv.radius:.6g}, got x={x!r}"
        )
    return _log_product(x, qv.q, tol)[0]


def Eq_exp_product(x: float, q, tol: float = DEFAULT_TOL) -> float:
    """Big q-exponential via its convergent product (1+(1-q)x)(1+(1-q)qx)...

    The product is formed as the exp of its log (`_log_product`), so nothing
    under- or overflows on the way: the result is 0 or inf only where E_q(x)
    itself passes the float range.
    """
    log_abs, sign = _log_product(float(x), as_qvalue(q).q, tol)
    return sign * _exp(log_abs)


# Below this magnitude the alternating series for negative arguments is
# benign: sum|t_k|/|sum t_k| stays O(1), and its error tracks the first
# omitted term, which shrinks with |x|.  Larger negative arguments take the
# product, where nothing cancels.
_SERIES_NEG_LIMIT = 0.5


def Eq_exp(x: float, q, tol: float = DEFAULT_TOL, k_max: int = SERIES_CAP) -> float:
    """Big q-exponential E_q(x) = sum_k q^(k(k-1)/2) x^k/[k]_q! (entire).

    The series for x >= -1/2; below, the product, where nothing cancels.
    """
    if float(x) >= -_SERIES_NEG_LIMIT:
        return Eq_exp_series(x, q, tol, k_max)
    return Eq_exp_product(x, q, tol)
