"""Polynomial symbols A(u) and the weight sequences they generate.

A symbol with coefficients (a_0, ..., a_K) produces the weights

    c_k(y) = sum_{j <= min(k,K)} a_j * y^(k-j) / [k-j]_q!

which are the Cauchy-product coefficients of A(u) * e_q(yu).  Nonnegative
coefficients with a_0 > 0 keep every weight nonnegative for y >= 0, which is
what makes the operator built on them positive.  `identity_residuals`
checks the weights, and the q-calculus beneath them, against their
generating-function identities.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import qcore as _qcore
from .errors import DomainError, TruncationCapError
from .qcore import (
    DEFAULT_TOL,
    Eq_exp,
    QValue,
    as_qvalue,
    eq_exp,
    log_eq_exp,
    log_Eq_exp_product,
    q_derivative,
    q_integers,
)

__all__ = [
    "AppellFamily",
    "FAMILIES",
    "family_by_name",
    "family_from_spec",
    "family_functionals",
    "SAFETY",
    "scaled_weights",
    "moment_sum",
    "identity_residuals",
]

FAMILIES = {
    "one": (1.0,),
    "affine": (1.0, 1.0),
    "quad": (1.0, 1.0, 0.5),
}


@dataclass(frozen=True)
class AppellFamily:
    coeffs: tuple
    name: str = "custom"

    def __post_init__(self) -> None:
        coeffs = tuple(float(a) for a in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) == 0:
            raise ValueError("symbol needs at least one coefficient")
        if coeffs[0] <= 0.0:
            raise ValueError(f"leading coefficient must be positive, got {coeffs[0]}")
        if any((not math.isfinite(a)) or a < 0.0 for a in coeffs):
            raise ValueError(f"coefficients must be finite and nonnegative: {coeffs}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def family_by_name(name: str) -> AppellFamily:
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}; built-ins: {sorted(FAMILIES)}")
    return AppellFamily(FAMILIES[name], name=name)


def family_from_spec(spec: str) -> AppellFamily:
    """Accept a built-in name or an explicit list "a0,a1,..."."""
    if spec in FAMILIES:
        return family_by_name(spec)
    coeffs = tuple(float(part) for part in spec.split(","))
    return AppellFamily(coeffs, name=spec)


Functionals = namedtuple("Functionals", "A1 DqA1 DqAq Dq2A1")


def family_functionals(family: AppellFamily, q) -> Functionals:
    """The four values every moment formula consumes.

    A1 = A(1); DqA1 and DqAq are the termwise q-derivative of A at u = 1 and
    u = q; Dq2A1 applies the termwise q-derivative twice, at u = 1.  q is a
    float (or QValue), giving floats, or an array, giving arrays of its
    shape whose every entry equals the float call at that q, bit for bit: a
    float is the same code on a one-entry column.  DomainError names the
    first q outside (0, 1).
    """
    qs = np.asarray(q.q if isinstance(q, QValue) else q, dtype=float)
    col = qs.reshape(-1)
    inside = (col > 0.0) & (col < 1.0)  # NaN fails both
    if not inside.all():
        raise DomainError(f"q must satisfy 0 < q < 1, got {float(col[inside.argmin()])!r}")
    kq = q_integers(np.arange(family.degree + 1.0), col[:, None])  # [k]_q, k = 0..deg
    terms = list(enumerate(family.coeffs))
    zero = np.zeros(len(col))  # each sum adds its terms in order, as sum() of floats does
    a1 = sum(family.coeffs, zero)
    d1 = sum((a * kq[:, k] for k, a in terms), zero)
    dq = sum((a * kq[:, k] * np.float_power(col, k - 1) for k, a in terms if k >= 1), zero)
    d2 = sum((a * kq[:, k] * kq[:, k - 1] for k, a in terms if k >= 2), zero)
    if qs.ndim == 0:
        return Functionals(float(a1[0]), float(d1[0]), float(dq[0]), float(d2[0]))
    return Functionals(*(f.reshape(qs.shape) for f in (a1, d1, dq, d2)))


# The tail of sum_k c_k(y) h_k after index K is geometric when |h_k| <= bound:
# every ratio c_{k+1}/c_k is a weighted mean of component ratios y/[k+1-m]_q
# (m over the symbol), all bounded by R = y/[k+1-deg]_q, and R decreases in k
# toward (1-q)y < 1 on the evaluation domain y <= SAFETY/(1-q).  Using
# max(R, SAFETY) keeps the bound conservative.
SAFETY = 0.95


class _QTable:
    """[k]_q, log [k]_q and log [k]_q! for k < len, for one q, grown on demand.

    Entries come from `q_integers`, which is elementwise in k, so the table
    is the same whichever call grew it and results never depend on the
    order of earlier calls.  The arrays are read-only: callers get views.
    """

    def __init__(self, q: float) -> None:
        self.q = q
        self.kq = self.log_kq = self.log_fact = np.zeros(0)

    def upto(self, m: int) -> tuple:
        if len(self.kq) < m:
            kq = q_integers(np.arange(max(m, 2 * len(self.kq)), dtype=float), self.q)
            with np.errstate(divide="ignore"):  # log [0]_q = -inf is never read
                log_kq = np.log(kq)
            log_fact = np.concatenate(([0.0], np.cumsum(log_kq[1:])))
            kq.flags.writeable = log_kq.flags.writeable = log_fact.flags.writeable = False
            self.kq, self.log_kq, self.log_fact = kq, log_kq, log_fact
        return self.kq[:m], self.log_kq[:m], self.log_fact[:m]


@functools.lru_cache(maxsize=32)
def _q_table(q: float) -> _QTable:
    """The table for q.  It is made on the first weights call for that q, so
    code that never sums weights pays nothing; it costs 24 bytes per term."""
    return _QTable(q)


_K_MIN = 16  # the cut K is never below this index


@functools.lru_cache(maxsize=4)
def _widths(k_max: int) -> list:  # window widths 64, 96, 128, 192, ..., and k_max + 1
    return sorted({min(b << i, k_max + 1) for b in (64, 96) for i in range(k_max.bit_length())})


def _first_windows(table, q: float, flat, log_y, deg: int, margin: float) -> list:
    """Each entry's first window: the first of `_widths` whose last lag is
    past the peak m of t_k (the last k with [k]_q < y) and along which t_k
    falls from t_m by e^-margin, where log(t_k/t_m) = (k-m) log y -
    log([k]_q!/[m]_q!).  A window decides only how many passes find the cut:
    `_weight_blocks` may sum a row in a wider window than its first, and a
    row's running sums up to its cut never read the columns past it."""
    widths, top = _widths(_qcore.SERIES_CAP), int(flat.argmax())
    a = (1.0 - q) * float(flat[top])  # [k]_q < y exactly when q^k > 1 - a
    m = max(math.ceil(math.log1p(-a) / math.log(q)) - 1, 0) if a < 1.0 else widths[-1]
    i = min(bisect.bisect_right(widths, m + deg + 1), len(widths) - 1)  # the largest y's
    while i < len(widths) - 1:
        log_fact, k = table.upto(widths[i])[2], widths[i] - 1
        if (k - m) * log_y[top] - (log_fact[k] - log_fact[m]) <= -margin:
            break
        i += 1
    if len(flat) == 1:
        return widths[i : i + 1]
    widths, (kq, _, log_fact) = np.array(widths[: i + 1]), table.upto(widths[i])
    k, m = widths - 1, np.searchsorted(kq[1:], flat)[:, None]
    fits = (k - deg > m) & ((k - m) * log_y[:, None] - (log_fact[k] - log_fact[m]) <= -margin)
    fits[:, -1] = True
    return widths[fits.argmax(1)].tolist()


def scaled_weights(family: AppellFamily, y, q, bound: float = 1.0, tol: float = DEFAULT_TOL) -> tuple:
    """Weights c_0(y)..c_K(y) divided by the largest term, as (c, kq, shift).

    The true weights are c * e^shift; kq holds [0]_q..[K]_q.  With
    t_k = y^k/[k]_q!, log(t_k/t_m) is summed away from the peak m
    (`qcore._logs_from_peak`), so nothing overflows; c = convolve(t/t_m, coeffs).
    K is the first index >= 16 whose geometric tail bound
    c_K * rho/(1-rho) * bound, rho = max(y/[K+1-deg]_q, SAFETY), is at most
    tol * sum_{k<=K} c_k; so for any |h_k| <= bound, c @ h misses at most
    that much of the full series.  Windows of terms, each twice the last, up
    to SERIES_CAP + 1 (read at call time), are tried until one holds the cut.

    For an array y, c has a row per entry, zero past its own K, and shift
    y's shape.  Entries that share a window are summed in blocks of at most
    `qcore._BLOCK` values, each row with the adds of a call on its y alone.
    A row may be summed in a wider window than its first (`_weight_blocks`),
    which changes no value: it is zeroed past its own cut, into a matrix as
    wide as the largest cut whatever the blocks were.
    """
    ys = np.asarray(y, dtype=float)
    flat = ys.reshape(-1)
    shift, blocks, kq = np.zeros(len(flat)), [], np.zeros(0)
    for rows, K, c, block_shift, block_kq in _weight_blocks(family, flat, q, bound, tol):
        shift[rows] = block_shift
        blocks.append((rows, K, c))
        kq = max(kq, block_kq, key=len)
    if ys.ndim == 0:
        return blocks[0][2][0], kq, float(shift[0])
    c = np.zeros((len(flat), len(kq)))
    for rows, K, block in blocks:  # each row zero past its own cut
        c[rows, : block.shape[1]] = np.where(np.arange(block.shape[1]) <= K[:, None], block, 0.0)
    return c.reshape(ys.shape + kq.shape), kq, shift.reshape(ys.shape)


def _blocks(rows: int, width: int) -> int:
    """How many blocks `_weight_blocks` sums `rows` rows of `width` terms in."""
    return -(-rows // max(1, _qcore._BLOCK // width))


def _weight_blocks(family: AppellFamily, flat, q, bound: float, tol: float):
    """`scaled_weights` of the 1-D array `flat`, block by block as it is
    summed: yields (rows, K, c, shift, kq) with rows the entries of `flat`
    the block holds, K their cuts, c their weights up to the block's largest
    cut (a row is not zeroed past its own), shift their shifts and kq
    [0]_q..[K.max()]_q.  Each entry comes in exactly one block, and the
    generator holds one block's arrays at a time.

    Rows are grouped by window, narrowest first.  A group joins the next
    wider one when that pads it by at most `qcore._PAD` values and sums the
    call in no more blocks: a block's fixed cost is far more than that many
    adds.  A row summed in a wider window than its first gets the same
    values.  Its running sums up to its cut do not depend on the columns
    after it, `_logs_from_peak` masks rows that peak apart, and no row cuts
    before its own peak, so a block's `first` (its lowest peak) moves no cut."""
    if min(flat.tolist()) < 0.0:
        raise ValueError("y must be nonnegative")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    qv = as_qvalue(q)
    table, a, deg, k_max = _q_table(qv.q), family.coeffs, family.degree, _qcore.SERIES_CAP
    # math.log: np.log differs from it in the last bit for a few y
    log_y = np.array([math.log(v) if v > 0.0 else -math.inf for v in flat.tolist()])
    lo, pending = max(_K_MIN, deg), {}
    # 20 bound/tol: the cut needs c_K rho/(1-rho) bound <= tol sum c, and rho >= SAFETY
    for i, w in enumerate(_first_windows(table, qv.q, flat, log_y, deg, math.log(20.0 * bound / tol))):
        pending.setdefault(w, []).append(i)
    while pending:
        width = min(pending)
        entries, wider = pending.pop(width), min(pending, default=0)
        if wider and len(entries) * (wider - width) <= _qcore._PAD:  # padding cheaper than a block
            n = len(pending[wider])
            if _blocks(len(entries) + n, wider) <= _blocks(len(entries), width) + _blocks(n, wider):
                pending[wider] = entries + pending[wider]
                continue
        (kq, log_kq, _), step = table.upto(width + 1), max(1, _qcore._BLOCK // width)
        for rows in (np.array(entries[i : i + step]) for i in range(0, len(entries), step)):
            log_t, shift, peak = _qcore._logs_from_peak(log_y[rows, None] - log_kq[1:width])
            t = np.exp(log_t)
            c = a[0] * t
            for j in range(1, deg + 1):
                c[:, j:] += a[j] * t[:, :-j]  # c_k = a_0 t_k + a_1 t_{k-1} + ...
            total = np.add.accumulate(c, axis=1)
            # rho = y/[k+1-deg]_q >= 1 up to the peak, so no row cuts before `first`
            first = min(max(lo, peak + deg - 1), width - 1)
            rho = np.maximum(flat[rows, None] / kq[first + 1 - deg : width + 1 - deg], SAFETY)
            # where rho >= 1 the bound reads inf or nan, and never cuts
            with np.errstate(divide="ignore", invalid="ignore"):
                cut = c[:, first:] * rho / np.maximum(1.0 - rho, 0.0) * bound <= tol * total[:, first:]
            K = cut.argmax(1)  # each row's cut, if it has one
            done, K = cut[np.arange(len(rows)), K], K + first
            if not done.all():
                if width > k_max:
                    raise TruncationCapError(
                        f"scaled_weights(y={flat[rows[~done][0]]}, q={qv.q}) did not meet "
                        f"tol={tol} within {k_max} terms"
                    )
                pending.setdefault(min(2 * width, k_max + 1), []).extend(rows[~done].tolist())
                rows, K, c, shift = rows[done], K[done], c[done], shift[done]
            if rows.size:
                top = K.max() + 1
                yield rows, K, c[:, :top], shift, kq[:top]


def moment_sum(family: AppellFamily, y, q, power: int, tol: float = DEFAULT_TOL) -> tuple:
    """The scaled sums S_p = sum_k c_k [k]_q^p for p = 0..power, and the shift.

    c is `scaled_weights`'s, so the true sums are S_p * e^shift; ratios such
    as S_1/S_0 never leave the float range.  One kernel call gives every
    power: the series is cut by the geometric tail bound for the largest,
    and since [k]_q never exceeds the radius 1/(1-q), a cut that holds for
    radius**power holds, and only tighter, for every lower power.  y is a
    float or an array; the sums then have shape y.shape + (power + 1,).
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    c, kq, shift = scaled_weights(family, y, q, as_qvalue(q).radius**power, tol)
    return np.stack([c.sum(axis=-1)] + [c @ kq**p for p in range(1, power + 1)], axis=-1), shift


Identity = namedtuple("Identity", "name family points residual bound")

# y points per weight-sum identity, whatever the q-calculus rows use
_SUM_POINTS = 20


def _worst(residuals) -> float:
    """The largest residual, or inf when any is not finite (NaN must fail)."""
    residuals = np.asarray(residuals)
    return float(residuals.max()) if np.isfinite(residuals).all() else math.inf


def _rel(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


def identity_residuals(q, points: int = 100, tol: float = DEFAULT_TOL) -> list:
    """The 14 identity checks at one q, as `Identity` rows in a fixed order.

    Each residual is the largest over the row's points (inf if any is not
    finite), and the row passes when it is at most `bound`.  The x and y
    grids run from 0 to 0.9/(1-q).

    - eq_times_Eq_neg: e_q(x) E_q(-x) = 1, as |log sum_k x^k/[k]_q! +
      log E_q(-x)|: the weight kernel's series for the symbol `one`
      against the product `log_Eq_exp_product`.
    - product_rule, product_rule_alt: the two q-Leibniz rules for
      sin(t + 0.3) (t^2 + 0.5) on [0.05, 2].
    - deriv_eq_exp, deriv_Eq_exp: D_q e_q(at) = a e_q(at) as the ratio
      (1 - e_q(qat)/e_q(at))/((1-q)t) = a, a difference of `log_eq_exp`s that
      stays finite where e_q overflows; and D_q E_q(at) = a E_q(qat), a = 1/2.
    - weight_sum, weight_sum_first, weight_sum_second, per built-in family
      at 20 points y: sum_k c_k(y) = A(1) e_q(y) in log form (the kernel
      against the log-series `log_eq_exp`), and the ratios
      sum_k c_k [k]_q^i / sum_k c_k, i = 1, 2, against the generating
      function's right-hand sides over A(1) e_q(y), whose e_q ratios are
      differences of `log_eq_exp`.  One `moment_sum` call gives all three.
    """
    qv = as_qvalue(q)
    q_, a = qv.q, 0.5
    xs = np.linspace(0.0, 0.9 * qv.radius, points)
    sums, shift = moment_sum(family_by_name("one"), xs, qv, 0, tol)
    products = np.array([log_Eq_exp_product(-x, qv, tol) for x in xs.tolist()])
    rows = [("eq_times_Eq_neg", "-", np.abs(np.log(sums[:, 0]) + shift + products), 1e-10)]

    f = lambda t: np.sin(t + 0.3)
    g = lambda t: t * t + 0.5
    ts = np.linspace(0.05, 2.0, points)
    lhs, df, dg = (q_derivative(h, ts, qv) for h in (lambda t: f(t) * g(t), f, g))
    rows.append(("product_rule", "-", _rel(lhs, f(q_ * ts) * dg + g(ts) * df), 1e-9))
    rows.append(("product_rule_alt", "-", _rel(lhs, f(ts) * dg + g(q_ * ts) * df), 1e-9))

    l_at, l_qat = log_eq_exp(np.outer((a, a * q_), xs), qv, tol)
    with np.errstate(invalid="ignore"):  # 0/0 at t = 0, where the quotient degenerates
        ratio = -np.expm1(l_qat - l_at) / ((1.0 - q_) * xs)
    ratio[0] = q_derivative(lambda t: eq_exp(a * t, qv, tol), 0.0, qv)  # e_q(0) = 1
    rows.append(("deriv_eq_exp", "-", _rel(ratio, a), 1e-9))
    e_large = lambda t: Eq_exp(a * t, qv, tol)
    rows.append(("deriv_Eq_exp", "-", _rel(q_derivative(e_large, xs, qv), a * e_large(q_ * xs)), 1e-9))

    ys = np.linspace(0.0, 0.9 * qv.radius, _SUM_POINTS)
    # log e_q at y, qy and q^2 y, shared by every family
    l0, l1, l2 = log_eq_exp(np.outer((1.0, q_, q_ * q_), ys), qv, tol)
    e1, e2 = np.exp(l1 - l0), np.exp(l2 - l0)  # e_q(qy)/e_q(y), e_q(q^2 y)/e_q(y)
    for name in sorted(FAMILIES):
        fns = family_functionals(family_by_name(name), qv)
        d1, d2 = fns.DqA1 / fns.A1, fns.Dq2A1 / fns.A1
        sums, shift = moment_sum(family_by_name(name), ys, qv, 2, tol)
        s0, s1, s2 = sums.T
        rows.append(("weight_sum", name, np.abs(np.log(s0) + shift - math.log(fns.A1) - l0), 1e-9))
        rows.append(("weight_sum_first", name, _rel(s1 / s0, ys + d1 * e1), 1e-9))
        second = q_ * d2 * e2 + (q_ * (q_ + 1.0) * ys + 1.0) * d1 * e1 + q_ * ys * ys + ys
        rows.append(("weight_sum_second", name, _rel(s2 / s0, second), 1e-9))
    return [Identity(name, fam, len(r), _worst(r), bound) for name, fam, r, bound in rows]
