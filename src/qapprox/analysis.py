"""Grid-based smoothness measures and numerical certificates for the
operator's rate-of-approximation bounds.

Everything here is a documented-resolution grid supremum: moduli of
continuity (first and second order), pointwise Hölder maximal quotients,
the operator quantities delta_n and phi_n (sup of the second central
moment, with and without the squared first-moment bias), and checkers that
compare |operator(f) - f| pointwise against the theoretical right-hand
sides, emitting a per-point BoundReport.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .operators import (
    OperatorInstance,
    TargetFunction,
    as_target,
    central_moment2,
    evaluate,
    shift_term,
)
from .qcore import DEFAULT_TOL

__all__ = [
    "GridSpec",
    "BoundReport",
    "SupPair",
    "modulus",
    "second_modulus",
    "lipschitz_maximal",
    "delta_n",
    "phi_n",
    "check_rate_theorem",
    "check_lipschitz_theorem",
    "check_maximal_theorem",
    "check_local_theorem",
]

_PASS_SLACK = 1e-9
_H_SUBDIVISIONS = 64
# second_modulus samples f on at most this many points at once (2 MB a
# sample), so its memory stays bounded however fine the grid
_SAMPLE_CAP = 2**18
# lipschitz_maximal forms at most this many quotients at once (512 KB)
_BLOCK = 2**16
_EXT_POINT_CAP = 100_001


@dataclass(frozen=True)
class GridSpec:
    x_lo: float
    x_hi: float
    points: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.x_lo < self.x_hi):
            raise ValueError(f"need 0 <= x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if self.points < 2:
            raise ValueError(f"need at least 2 points, got {self.points}")

    @property
    def step(self) -> float:
        return (self.x_hi - self.x_lo) / (self.points - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.points)


@dataclass(frozen=True)
class BoundReport:
    name: str
    xs: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def margins(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def sup_lhs(self) -> float:
        return float(np.max(self.lhs))

    @property
    def sup_ratio(self) -> float:
        ratios = np.where(
            self.rhs > 0.0,
            self.lhs / np.where(self.rhs > 0.0, self.rhs, 1.0),
            np.where(self.lhs > 0.0, np.inf, 0.0),
        )
        return float(np.max(ratios))

    @property
    def passed(self) -> bool:
        scale = max(1.0, float(np.max(self.rhs)))
        return bool(np.min(self.margins) >= -_PASS_SLACK * scale)


def _sample(f, xs) -> np.ndarray:
    out = as_target(f)(xs)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite function value while sampling")
    return out


def modulus(f, delta: float, grid: GridSpec) -> float:
    """sup |f(x) - f(y)| over grid pairs with |x - y| <= delta."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    xs = grid.xs()
    vals = _sample(f, xs)
    d_max = min(grid.points - 1, int(math.floor(delta / grid.step + 1e-9)))
    best = 0.0
    for d in range(1, d_max + 1):
        diff = np.abs(vals[d:] - vals[:-d])
        if diff.size:
            best = max(best, float(diff.max()))
    return best


def second_modulus(f, delta: float, grid: GridSpec) -> float:
    """sup over x in grid, h in (0, delta] of |f(x+2h) - 2f(x+h) + f(x)|.

    h runs over a fixed 64-point subdivision of (0, delta], one row per h,
    and the rows are sampled in chunks of at most _SAMPLE_CAP values (one
    chunk up to 4096 grid points); f must be evaluable up to x_hi + 2*delta.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    f = as_target(f)
    xs = grid.xs()
    hs = delta * np.arange(1, _H_SUBDIVISIONS + 1)[:, None] / _H_SUBDIVISIONS
    v0 = _sample(f, xs)
    rows = max(1, _SAMPLE_CAP // len(xs))
    best = 0.0
    for j in range(0, _H_SUBDIVISIONS, rows):
        h = hs[j : j + rows]
        d2 = _sample(f, xs + 2.0 * h) - 2.0 * _sample(f, xs + h)
        d2 += v0
        best = max(best, float(np.max(np.abs(d2, out=d2))))
    return best


def lipschitz_maximal(f, alpha: float, grid: GridSpec) -> np.ndarray:
    """At each grid point x, sup over grid t != x of |f(t) - f(x)| / |t - x|^alpha.

    f is sampled once; the rows are formed in blocks of at most _BLOCK
    values (one row at least), since a P x P matrix would cost 32 MB per
    temporary at 2001 points; the diagonal t = x reads -inf, so it never
    wins the max.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    xs = grid.xs()
    vals = _sample(f, xs)
    out = np.empty(len(xs))
    block = max(1, _BLOCK // len(xs))
    for i in range(0, len(xs), block):
        rows = np.arange(i, min(i + block, len(xs)))
        diffs = np.abs(vals - vals[rows, None])
        diffs[rows - i, rows] = -np.inf  # -inf / 0 is -inf, with no warning
        out[rows] = np.max(diffs / np.abs(xs - xs[rows, None]) ** alpha, axis=1)
    return out


def _check_grid(op: OperatorInstance, grid: GridSpec) -> None:
    if grid.x_hi > op.x_max:
        raise DomainError(
            f"grid upper bound {grid.x_hi} exceeds x_max={op.x_max} "
            f"(n={op.n}, q={op.q.q}, b_n={op.bn})"
        )


SupPair = namedtuple("SupPair", "value printed")


def delta_n(op: OperatorInstance, grid: GridSpec) -> SupPair:
    """Sup of the second central moment over the grid, plus the weaker
    closed-form bound kept for fidelity tables (norm constants 1/2 and 1)."""
    _check_grid(op, grid)
    val = float(np.max(central_moment2(op, grid.xs())))
    fns = op.functionals
    q = op.q.q
    s = op.scale
    printed = (q * fns.DqAq + fns.DqA1) / fns.A1 * s * 0.5 + fns.Dq2A1 / fns.A1 * s * s
    return SupPair(max(val, 0.0), printed)


def phi_n(op: OperatorInstance, grid: GridSpec) -> SupPair:
    """Sup of [second central moment + squared first-moment bias]."""
    _check_grid(op, grid)
    xs = grid.xs()
    val = float(np.max(central_moment2(op, xs) + shift_term(op, xs) ** 2))
    fns = op.functionals
    q = op.q.q
    s = op.scale
    printed = (q * fns.DqAq + fns.DqA1) / fns.A1 * s + (
        fns.A1 * fns.Dq2A1 + fns.DqA1**2
    ) / fns.A1**2 * s * s
    return SupPair(max(val, 0.0), printed)


def _class_membership(f: TargetFunction) -> None:
    # truncation bounds need some handle on |f| over the node interval
    if f.bounded is None and f.growth is None and f.lip is None:
        raise ValueError(
            f"{f.name}: rate checkers need bounded, growth or lipschitz metadata"
        )


def _lhs_curve(op, f, xs, tol) -> np.ndarray:
    return np.abs(evaluate(op, f, xs, tol) - f(xs))


def _extended_grid(op: OperatorInstance, grid: GridSpec) -> GridSpec:
    """Same step, stretched to cover the whole node interval (capped)."""
    hi = max(grid.x_hi, op.node_sup)
    pts = int(math.ceil((hi - grid.x_lo) / grid.step)) + 1
    if pts > _EXT_POINT_CAP:
        pts = _EXT_POINT_CAP
    return GridSpec(grid.x_lo, grid.x_lo + grid.step * (pts - 1), pts)


def check_rate_theorem(
    op: OperatorInstance,
    f,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """|operator(f) - f| against twice the modulus at sqrt(delta_n)."""
    f = as_target(f)
    _class_membership(f)
    _check_grid(op, grid)
    xs = grid.xs()
    lhs = _lhs_curve(op, f, xs, tol)
    dn = delta_n(op, grid)
    ext = _extended_grid(op, grid)
    root = math.sqrt(dn.value) if dn.value > 0.0 else 0.0
    omega = modulus(f, root, ext) if root > 0.0 else 0.0
    rhs = np.full_like(lhs, 2.0 * omega)
    extras = {
        "delta_n": dn.value,
        "delta_n_printed": dn.printed,
        "modulus": omega,
    }
    return BoundReport("rate", xs, lhs, rhs, extras)


def check_lipschitz_theorem(
    op: OperatorInstance,
    f,
    F_lo: float,
    F_hi: float,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """Bound via the Hölder constant and the distance to the set [F_lo, F_hi]."""
    f = as_target(f)
    if f.lip is None:
        raise ValueError(f"{f.name}: needs lipschitz metadata (M, alpha)")
    if not (0.0 <= F_lo < F_hi <= op.x_max):
        raise DomainError(
            f"[{F_lo}, {F_hi}] must sit inside the guarded domain [0, {op.x_max}]"
        )
    _check_grid(op, grid)
    m, alpha = f.lip
    xs = grid.xs()
    lhs = _lhs_curve(op, f, xs, tol)
    dn = delta_n(op, grid)
    dist = np.maximum.reduce([F_lo - xs, xs - F_hi, np.zeros_like(xs)])
    rhs = m * (dn.value ** (alpha / 2.0) + dist**alpha)
    extras = {"delta_n": dn.value, "M": m, "alpha": alpha, "F": (F_lo, F_hi)}
    return BoundReport("lipschitz", xs, lhs, rhs, extras)


def check_maximal_theorem(
    op: OperatorInstance,
    f,
    alpha: float,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """Pointwise bound by the Hölder maximal quotient times delta_n^(alpha/2)."""
    f = as_target(f)
    _class_membership(f)
    _check_grid(op, grid)
    xs = grid.xs()
    lhs = _lhs_curve(op, f, xs, tol)
    dn = delta_n(op, grid)
    fac = dn.value ** (alpha / 2.0)
    rhs = lipschitz_maximal(f, alpha, grid) * fac
    extras = {"delta_n": dn.value, "alpha": alpha}
    return BoundReport("maximal", xs, lhs, rhs, extras)


def check_local_theorem(
    op: OperatorInstance,
    f,
    grid: GridSpec,
    tol: float = DEFAULT_TOL,
) -> BoundReport:
    """Second-modulus bound with the bias-shift modulus added.

    The absolute constant in front of the second modulus is not pinned by
    theory, so the checker solves for K_hat, the smallest constant that
    covers every grid point, and reports it.  For smooth f it tends to
    (1/2) sup_x |f''(x)| mu_2(x) / omega_2(f, sqrt(phi_n)), with mu_2 the
    second central moment; theory promises no monotonicity of K_hat along n.
    """
    f = as_target(f)
    _check_grid(op, grid)
    xs = grid.xs()
    lhs = _lhs_curve(op, f, xs, tol)
    pn = phi_n(op, grid)
    shift_sup = float(np.max(shift_term(op, xs)))
    root = math.sqrt(pn.value) if pn.value > 0.0 else 0.0
    w2 = second_modulus(f, root, grid) if root > 0.0 else 0.0
    w_shift = modulus(f, shift_sup, grid) if shift_sup > 0.0 else 0.0
    if w2 > 0.0:
        k_hat = max(0.0, float(np.max((lhs - w_shift) / w2)))
    else:
        k_hat = 0.0
    rhs = np.full_like(lhs, k_hat * w2 + w_shift)
    extras = {
        "phi_n": pn.value,
        "phi_n_printed": pn.printed,
        "k_hat": k_hat,
        "second_modulus": w2,
        "shift_modulus": w_shift,
        "shift_sup": shift_sup,
    }
    return BoundReport("local", xs, lhs, rhs, extras)
