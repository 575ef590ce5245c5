"""q-calculus primitives with explicit convergence domains.

Everything here is elementary: q-integers, the q-difference quotient, and
the two q-exponential series

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
SERIES_CAP = 10_000  # most terms a series sums; read at call time

_BLOCK = 2**14  # most values a series sums at once, for rows of arguments: 128 KB an array
_PAD = _BLOCK // 16  # most padding a narrow group of rows takes on to join the next wider one

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


def q_integers(r, q):
    """[r]_q elementwise over a broadcast of r and q, each a float or an
    array, no validation.

    1 - q^r is formed as -expm1(r log q): subtracting q^r from 1 would lose
    about 1/(r(1-q)) ulps for q near 1.  log q is math.log's, entry by entry
    for an array q, as numpy's log differs from it in the last bit.  Each
    entry depends on its own r and q only, so a table built in pieces
    equals one built at once, bit for bit.
    """
    if isinstance(q, float):
        log_q = math.log(q)
    else:
        log_q = np.reshape([math.log(v) for v in np.ravel(q).tolist()], np.shape(q))
    return -np.expm1(r * log_q) / (1.0 - q)


def q_integer(r: int, q) -> float:
    """[r]_q = (1-q^r)/(1-q), the q-analogue of the integer r."""
    if r < 0 or r != int(r):
        raise ValueError(f"r must be a nonnegative integer, got {r!r}")
    return float(q_integers(float(r), as_qvalue(q).q))


def q_derivative(f, x, q):
    """q-difference quotient (f(x) - f(qx)) / ((1-q)x), x a float or an array
    (f is then called on arrays of x's shape).

    At x = 0 the quotient degenerates; a central finite difference with
    fixed step 1e-6 estimates f'(0) instead.
    """
    qv = as_qvalue(q)
    x = np.asarray(x, dtype=float)
    z = x == 0.0
    with np.errstate(invalid="ignore"):  # inf - inf: raised below
        val = f(np.where(z, _ZERO_STEP, x)) - f(np.where(z, -_ZERO_STEP, qv.q * x))
    val = val / np.where(z, 2.0 * _ZERO_STEP, (1.0 - qv.q) * x)
    if not np.isfinite(val).all():
        raise EvaluationError(f"non-finite q-derivative at x={x[~np.isfinite(val)][0]}")
    return float(val) if x.ndim == 0 else val


def _exp(v: float) -> float:
    """e^v, and inf past the float range, where math.exp raises."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def log_eq_exp(x, q, tol: float = DEFAULT_TOL):
    """log e_q(x) = sum_{m>=1} a^m / (m (1-q^m)), a = (1-q)x, for |x| < 1/(1-q).

    This expands log e_q(x) = -sum_j log(1 - a q^j), the log of the product
    e_q(x) = 1/prod_j (1 - a q^j) (Gasper & Rahman, Basic Hypergeometric
    Series, 1.3), and holds for either sign of x.  Since m(1-q^m) increases
    with m, each term is at most |a| times the one before, so the tail after
    term M is at most |t_M| |a|/(1-|a|).  The sum stops at the first M where
    that bound is <= tol: an absolute error in the log, so a relative one in
    e_q(x).  As |t_m| <= |a|^m/(1-q), that M is known not to lie past the
    first m with |a|^m/(1-q) |a|/(1-|a|) <= tol, so one numpy pass over that
    many terms (at most SERIES_CAP) finds it, for all entries of x end to end.
    """
    qv = as_qvalue(q)
    x = np.asarray(x, dtype=float)
    a = (1.0 - qv.q) * x.reshape(-1)
    if (bad := (np.abs(x.reshape(-1)) >= qv.radius) | (np.abs(a) >= 1.0)).any():
        bad = float(x.reshape(-1)[bad][0])
        raise DomainError(f"eq_exp needs |x| < 1/(1-q) = {qv.radius:.6g}, got x={bad!r}")
    tail = np.abs(a) / (1.0 - np.abs(a))  # |t_M| times this bounds the tail
    with np.errstate(divide="ignore", invalid="ignore"):  # a = 0 reads nan: one term, 0
        width = np.ceil((math.log(tol * (1.0 - qv.q)) - np.log(tail)) / np.log(np.abs(a)))
    width = np.clip(np.nan_to_num(width, nan=1.0), 1, SERIES_CAP).astype(int)
    start = np.cumsum(width) - width  # where each entry's terms begin
    m = np.arange(1.0, width.sum() + 1.0) - np.repeat(start, width)
    t = np.power(np.repeat(a, width), m) / (m * -np.expm1(m * math.log(qv.q)))
    cut = np.abs(t) * np.repeat(tail, width) <= tol
    if not (met := np.logical_or.reduceat(cut, start)).all():
        bad = float(x.reshape(-1)[~met][0])
        raise TruncationCapError(f"eq_exp({bad}, q={qv.q}) did not meet tol={tol} within {SERIES_CAP} terms")
    seen = np.cumsum(cut) - cut  # cuts before each term: keep each entry's up to its first
    sums = np.add.reduceat(np.where(seen == np.repeat(seen[start], width), t, 0.0), start)
    return float(sums[0]) if x.ndim == 0 else sums.reshape(x.shape)


def eq_exp(x: float, q, tol: float = DEFAULT_TOL) -> float:
    """Small q-exponential e_q(x) = sum_k x^k/[k]_q!, defined for |x| < 1/(1-q).

    It is exp(log_eq_exp(x)), so it is as accurate for x < 0, where the
    series alternates and cancels, as for x > 0, and it is inf exactly where
    e_q(x) passes the float range.
    """
    return _exp(log_eq_exp(x, q, tol))


def _logs_from_peak(log_ratio) -> tuple:
    """(log(t_k/t_m), k = 0..W-1; log(t_m/t_0); the lowest peak) per row of
    falling log(t_j/t_{j-1}), j = 1..W-1: running sums away from the peak m,
    so none strays far from 0 (scaled summation, Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4), masked where rows peak apart
    so that each row's adds are those of its own 1-D sums."""
    rise = log_ratio > 0.0
    m = rise.sum(1).tolist()
    lo, hi = min(m), max(m)  # columns past lo fall, up to hi rise
    fall, up = log_ratio[:, lo:], log_ratio[:, :hi]
    if lo < hi:
        fall, up = np.where(rise[:, lo:], 0.0, fall), np.where(rise[:, :hi], up, 0.0)
    log_t = np.zeros((len(log_ratio), log_ratio.shape[1] + 1))
    np.add.accumulate(fall, axis=1, out=log_t[:, lo + 1 :])
    up = np.add.accumulate(up[:, ::-1], axis=1)[:, ::-1]
    log_t[:, :hi] -= up
    return log_t, up[:, 0] if hi else np.zeros(len(log_ratio)), lo


def Eq_exp_series(x, q, tol: float = DEFAULT_TOL):
    """Raw series for the big q-exponential, x a float or an array.

    Fully trustworthy only for x >= 0 where every term is positive; for
    negative arguments the alternating sum cancels and Eq_exp switches to the
    product form instead.  The terms come from their falling log-ratios
    (`_logs_from_peak`) in one pass over 64, 128, ... terms, up to SERIES_CAP
    + 1, past where the largest |x|'s ratio falls to 1/2 by 63 terms.  The sum
    stops at the first k whose next ratio is <= 1/2 and whose term is <= tol
    max(1, |sum to k|): the super-geometric tail is then below the term.
    """
    qv = as_qvalue(q)
    x = np.asarray(x, dtype=float)
    col, width = x.reshape(-1, 1), 64
    top = float(np.max(np.abs(col)))  # the largest |x| has the longest series
    while width <= SERIES_CAP and top * qv.q ** (width - 64) > 0.5 * q_integers(width - 63.0, qv.q):
        width *= 2
    if len(col) > (rows := max(1, _BLOCK // width)):  # at most _BLOCK values at once
        parts = [Eq_exp_series(col[i : i + rows, 0], qv, tol) for i in range(0, len(col), rows)]
        return np.concatenate(parts).reshape(x.shape)
    with np.errstate(divide="ignore", over="ignore"):  # log 0; e^shift past the float range
        while True:
            k = np.arange(1.0, min(width, SERIES_CAP + 1) + 1.0)
            log_ratio = (k - 1.0) * math.log(qv.q) + np.log(np.abs(col)) - np.log(q_integers(k, qv.q))
            log_t, shift, _ = _logs_from_peak(log_ratio[:, :-1])
            terms = np.where(col < 0.0, 1.0 - 2.0 * ((k - 1.0) % 2.0), 1.0) * np.exp(log_t)  # sign (-1)^k
            sums = np.add.accumulate(terms, axis=1)
            small = np.abs(terms) <= tol * np.maximum(np.exp(-shift)[:, None], np.abs(sums))
            stop = (log_ratio <= math.log(0.5)) & small  # tol max(1, |sum|) in units of t_m
            if stop.any(1).all() or width > SERIES_CAP:
                break
            width *= 2
        value = sums[np.arange(len(col)), stop.argmax(1)] * np.exp(shift)
    if not stop.any(1).all():
        bad = float(col[~stop.any(1), 0][0])
        raise TruncationCapError(f"Eq_exp({bad}, q={qv.q}) did not meet tol={tol} within {SERIES_CAP} terms")
    return float(value[0]) if x.ndim == 0 else value.reshape(x.shape)


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


def Eq_exp(x, q, tol: float = DEFAULT_TOL):
    """Big q-exponential E_q(x) = sum_k q^(k(k-1)/2) x^k/[k]_q! (entire).

    The series for x >= -1/2; below, the product, where nothing cancels.  x
    is a float or an array; an array that reaches below -1/2 goes entry by entry.
    """
    if np.all(np.asarray(x) >= -_SERIES_NEG_LIMIT):
        return Eq_exp_series(x, q, tol)
    return Eq_exp_product(x, q, tol) if np.ndim(x) == 0 else np.array([Eq_exp(v, q, tol) for v in x])
