"""Polynomial symbols A(u) and the weight sequences they generate.

A symbol with coefficients (a_0, ..., a_K) produces the weights

    c_k(y) = sum_{j <= min(k,K)} a_j * y^(k-j) / [k-j]_q!

which are the Cauchy-product coefficients of A(u) * e_q(yu).  Nonnegative
coefficients with a_0 > 0 keep every weight nonnegative for y >= 0, which is
what makes the operator built on them positive.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import TruncationCapError
from .qcore import DEFAULT_TOL, SERIES_CAP, as_qvalue, q_integer

__all__ = [
    "AppellFamily",
    "FAMILIES",
    "family_by_name",
    "family_from_spec",
    "family_functionals",
    "SAFETY",
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

    K is the first index >= k_min whose geometric tail bound
    c_K * rho/(1-rho) * bound, rho = max(y/[K+1-deg]_q, SAFETY), is at most
    tol * sum_{k<=K} c_k; so for any |h_k| <= bound, c @ h misses at most
    that much of the full series.
    """
    if y < 0.0:
        raise ValueError("y must be nonnegative")
    qv = as_qvalue(q)
    coeffs = family.coeffs
    deg = family.degree
    pow_over_fact = [1.0]  # y^j/[j]_q!, built by recurrence to dodge overflow of y^j
    kq = [0.0, 1.0]  # [j]_q, one index ahead of the weights
    c = []
    total = 0.0
    qpow = qv.q  # q^(k+1)
    for k in range(k_max + 1):
        c_k = 0.0
        for j, a in enumerate(coeffs[: k + 1]):
            c_k += a * pow_over_fact[k - j]
        c.append(c_k)
        total += c_k
        lag = k + 1 - deg
        if lag >= 1 and k >= k_min:
            rho = max(y / kq[lag], SAFETY)
            if rho < 1.0 and c_k * rho / (1.0 - rho) * bound <= tol * total:
                return np.array(c), np.array(kq[:-1])
        pow_over_fact.append(pow_over_fact[-1] * y / kq[k + 1])
        qpow *= qv.q
        kq.append((1.0 - qpow) / (1.0 - qv.q))
    raise TruncationCapError(
        f"weights(y={y}, q={qv.q}) did not meet tol={tol} within {k_max} terms"
    )


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
