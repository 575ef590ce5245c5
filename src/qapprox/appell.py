"""Polynomial symbols A(u) and the weight sequences they generate.

A symbol with coefficients (a_0, ..., a_K) produces the weights

    c_k(y) = sum_{j <= min(k,K)} a_j * y^(k-j) / [k-j]_q!

which are the Cauchy-product coefficients of A(u) * e_q(yu).  Nonnegative
coefficients with a_0 > 0 keep every weight nonnegative for y >= 0, which is
what makes the operator built on them positive.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import TruncationCapError
from .qcore import DEFAULT_TOL, SERIES_CAP, as_qvalue, q_integer, q_integers

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
