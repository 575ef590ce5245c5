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

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import TruncationCapError
from .qcore import (
    DEFAULT_TOL,
    SERIES_CAP,
    Eq_exp,
    as_qvalue,
    eq_exp,
    log_eq_exp,
    log_Eq_exp_product,
    q_derivative,
    q_integer,
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
    "weights",
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
    """The four scalars every moment formula consumes.

    A1 = A(1); DqA1 and DqAq are the termwise q-derivative of A at u = 1 and
    u = q; Dq2A1 applies the termwise q-derivative twice, at u = 1.
    """
    qv = as_qvalue(q)
    a1 = sum(family.coeffs)
    d1 = sum(a * q_integer(k, qv) for k, a in enumerate(family.coeffs))
    dq = sum(
        a * q_integer(k, qv) * qv.q ** (k - 1)
        for k, a in enumerate(family.coeffs)
        if k >= 1
    )
    d2 = sum(
        a * q_integer(k, qv) * q_integer(k - 1, qv)
        for k, a in enumerate(family.coeffs)
        if k >= 2
    )
    return Functionals(float(a1), float(d1), float(dq), float(d2))


# The tail of sum_k c_k(y) h_k after index K is geometric when |h_k| <= bound:
# every ratio c_{k+1}/c_k is a weighted mean of component ratios y/[k+1-m]_q
# (m over the symbol), all bounded by R = y/[k+1-deg]_q, and R decreases in k
# toward (1-q)y < 1 on the evaluation domain y <= SAFETY/(1-q).  Using
# max(R, SAFETY) keeps the bound conservative.
SAFETY = 0.95


class _QTable:
    """[k]_q and log [k]_q for k < len, for one q, grown on demand.

    Entries come from `q_integers`, which is elementwise in k, so the table
    is the same whichever call grew it and results never depend on the
    order of earlier calls.  The arrays are read-only: callers get views.
    """

    def __init__(self, q: float) -> None:
        self.q = q
        self.kq = self.log_kq = np.zeros(0)

    def upto(self, m: int) -> tuple:
        if len(self.kq) < m:
            kq = q_integers(np.arange(max(m, 2 * len(self.kq)), dtype=float), self.q)
            with np.errstate(divide="ignore"):  # log [0]_q = -inf is never read
                log_kq = np.log(kq)
            kq.flags.writeable = log_kq.flags.writeable = False
            self.kq, self.log_kq = kq, log_kq
        return self.kq[:m], self.log_kq[:m]


@functools.lru_cache(maxsize=32)
def _q_table(q: float) -> _QTable:
    """The table for q.  It is made on the first weights call for that q, so
    code that never sums weights pays nothing; it costs 16 bytes per term."""
    return _QTable(q)


_FIRST_WINDOW = 64


def scaled_weights(
    family: AppellFamily,
    y: float,
    q,
    bound: float = 1.0,
    tol: float = DEFAULT_TOL,
    k_min: int = 16,
    k_max: int = SERIES_CAP,
) -> tuple:
    """Weights c_0(y)..c_K(y) divided by the largest term, as (c, kq, shift).

    The true weights are c * e^shift; kq holds [0]_q..[K]_q.  With
    t_k = y^k/[k]_q! peaking at k = m, log(t_k/t_m) is a running sum of
    log(y/[j]_q) over j between k and m, so every partial sum stays small
    and nothing overflows however large the terms get (scaled summation,
    Higham, Accuracy and Stability of Numerical Algorithms, ch. 4);
    c = convolve(t/t_m, coeffs).

    K is the first index >= k_min whose geometric tail bound
    c_K * rho/(1-rho) * bound, rho = max(y/[K+1-deg]_q, SAFETY), is at most
    tol * sum_{k<=K} c_k; so for any |h_k| <= bound, c @ h misses at most
    that much of the full series.  Windows of 64, 128, ... terms up to
    k_max + 1 are tried in turn, from the first that reaches past the
    largest term.
    """
    if y < 0.0:
        raise ValueError("y must be nonnegative")
    qv = as_qvalue(q)
    table = _q_table(qv.q)
    coeffs = np.array(family.coeffs)
    deg = family.degree
    log_y = math.log(y) if y > 0.0 else -math.inf
    width = _FIRST_WINDOW
    # while [width-deg]_q, the window's last lag, is <= y, rho >= 1 all
    # through the window and it cannot hold the cut
    while width <= k_max and table.upto(width + 1)[0][width - deg] <= y:
        width *= 2
    while True:
        width = min(width, k_max + 1)
        kq, log_kq = table.upto(width + 1)
        log_ratio = log_y - log_kq[1:width]  # log(t_j/t_{j-1}), j = 1..width-1
        m = int(np.count_nonzero(log_ratio > 0.0))  # ratios fall with j
        log_t = np.zeros(width)
        log_t[m + 1 :] = np.cumsum(log_ratio[m:])
        log_t[:m] = -np.cumsum(log_ratio[:m][::-1])[::-1]
        c = np.convolve(np.exp(log_t), coeffs)[:width]
        total = np.cumsum(c)
        lo = max(k_min, deg)
        rho = np.maximum(y / kq[lo + 1 - deg : width + 1 - deg], SAFETY)
        skip = int(np.count_nonzero(rho >= 1.0))  # rho falls with k
        rho, lo = rho[skip:], lo + skip
        cut = c[lo:] * rho / (1.0 - rho) * bound <= tol * total[lo:]
        if cut.any():
            K = lo + int(np.argmax(cut))
            return c[: K + 1], kq[: K + 1], float(np.sum(log_ratio[:m]))
        if width > k_max:
            raise TruncationCapError(
                f"weights(y={y}, q={qv.q}) did not meet tol={tol} within {k_max} terms"
            )
        width *= 2


def weights(
    family: AppellFamily,
    y: float,
    q,
    bound: float = 1.0,
    tol: float = DEFAULT_TOL,
    k_min: int = 16,
    k_max: int = SERIES_CAP,
) -> tuple:
    """Weights c_0(y)..c_K(y) and q-integers [0]_q..[K]_q as two arrays.

    The cut is the one `scaled_weights` makes.  Past the float range (q near
    1 and y near the radius) the weights overflow to inf; ratios of weighted
    sums stay finite through `scaled_weights`.
    """
    c, kq, shift = scaled_weights(family, y, q, bound, tol, k_min, k_max)
    # where e^shift overflows, weights that underflowed in c stay 0, not NaN
    return np.multiply(c, np.exp(shift), out=np.zeros_like(c), where=c > 0.0), kq


def moment_sum(
    family: AppellFamily,
    y: float,
    q,
    power: int,
    tol: float = DEFAULT_TOL,
    k_min: int = 16,
    k_max: int = SERIES_CAP,
) -> float:
    """sum_k c_k(y) * [k]_q^power, truncated by the geometric tail bound."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    # [k]_q never exceeds the radius 1/(1-q)
    c, kq = weights(family, y, q, as_qvalue(q).radius**power, tol, k_min, k_max)
    return float(c @ kq**power)


Identity = namedtuple("Identity", "name family points residual bound")

# y points per weight-sum identity, whatever the q-calculus rows use
_SUM_POINTS = 20


def _worst(residuals) -> float:
    """The largest residual, or inf when any is not finite: max() would skip
    a NaN and let the identity pass."""
    worst = max(residuals)
    return worst if all(map(math.isfinite, residuals)) else math.inf


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


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
    - deriv_eq_exp, deriv_Eq_exp: D_q e_q(at) = a e_q(at) and
      D_q E_q(at) = a E_q(qat), a = 1/2.
    - weight_sum, weight_sum_first, weight_sum_second, per built-in family
      at 20 points y: sum_k c_k(y) = A(1) e_q(y) in log form (the kernel
      against the log-series `log_eq_exp`), and the ratios
      sum_k c_k [k]_q^i / sum_k c_k, i = 1, 2, against the generating
      function's right-hand sides over A(1) e_q(y), whose e_q ratios are
      differences of `log_eq_exp`.  One kernel call per y gives all three.
    """
    qv = as_qvalue(q)
    rows = []
    xs = [float(x) for x in np.linspace(0.0, 0.9 * qv.radius, points)]

    one = family_by_name("one")
    recip = []
    for x in xs:
        c, _, shift = scaled_weights(one, x, qv, 1.0, tol)
        recip.append(abs(math.log(c.sum()) + shift + log_Eq_exp_product(-x, qv, tol)))
    rows.append(Identity("eq_times_Eq_neg", "-", points, _worst(recip), 1e-10))

    f = lambda t: math.sin(t + 0.3)
    g = lambda t: t * t + 0.5
    fg = lambda t: f(t) * g(t)
    rule_a, rule_b = [], []
    for x in np.linspace(0.05, 2.0, points):
        x = float(x)
        lhs = q_derivative(fg, x, qv)
        df = q_derivative(f, x, qv)
        dg = q_derivative(g, x, qv)
        rule_a.append(_rel(lhs, f(qv.q * x) * dg + g(x) * df))
        rule_b.append(_rel(lhs, f(x) * dg + g(qv.q * x) * df))
    rows.append(Identity("product_rule", "-", points, _worst(rule_a), 1e-9))
    rows.append(Identity("product_rule_alt", "-", points, _worst(rule_b), 1e-9))

    a = 0.5
    e_small = lambda t: eq_exp(a * t, qv, tol)
    e_large = lambda t: Eq_exp(a * t, qv, tol)
    d_small = [_rel(q_derivative(e_small, x, qv), a * e_small(x)) for x in xs]
    d_large = [_rel(q_derivative(e_large, x, qv), a * e_large(qv.q * x)) for x in xs]
    rows.append(Identity("deriv_eq_exp", "-", points, _worst(d_small), 1e-9))
    rows.append(Identity("deriv_Eq_exp", "-", points, _worst(d_large), 1e-9))

    ys = [float(y) for y in np.linspace(0.0, 0.9 * qv.radius, _SUM_POINTS)]
    # log e_q at y, qy and q^2 y, shared by every family
    logs = [[log_eq_exp(s * y, qv, tol) for s in (1.0, qv.q, qv.q * qv.q)] for y in ys]
    for name in sorted(FAMILIES):
        fam = family_by_name(name)
        fns = family_functionals(fam, qv)
        d1, d2 = fns.DqA1 / fns.A1, fns.Dq2A1 / fns.A1
        r0, r1, r2 = [], [], []
        for y, (l0, l1, l2) in zip(ys, logs):
            c, kq, shift = scaled_weights(fam, y, qv, qv.radius**2, tol)
            s0 = float(c.sum())
            e1, e2 = math.exp(l1 - l0), math.exp(l2 - l0)  # e_q(qy)/e_q(y), e_q(q^2 y)/e_q(y)
            r0.append(abs(math.log(s0) + shift - math.log(fns.A1) - l0))
            r1.append(_rel(float(c @ kq) / s0, y + d1 * e1))
            r2.append(
                _rel(
                    float(c @ kq**2) / s0,
                    qv.q * d2 * e2 + (qv.q * (qv.q + 1.0) * y + 1.0) * d1 * e1 + qv.q * y * y + y,
                )
            )
        rows.append(Identity("weight_sum", name, _SUM_POINTS, _worst(r0), 1e-9))
        rows.append(Identity("weight_sum_first", name, _SUM_POINTS, _worst(r1), 1e-9))
        rows.append(Identity("weight_sum_second", name, _SUM_POINTS, _worst(r2), 1e-9))
    return rows
