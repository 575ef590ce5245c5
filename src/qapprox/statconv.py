"""Natural density, statistical limits, and weighted convergence curves.

The experiment schedules pair a parameter sequence q_n with a stretch
sequence b_n = n^(1/4).  The smooth schedule (q_n = 1 - 1/sqrt(n)) satisfies
every hypothesis of the weighted convergence theorem in the ordinary sense;
the spiky schedule drops q_n to 1/2 on the perfect squares, killing the
ordinary limit while leaving the statistical limit at 1, since the squares
have natural density zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import GridSpec
from .appell import AppellFamily
from .errors import DomainError
from .operators import make_operator, moment_closed
from .qcore import q_integer

__all__ = [
    "is_perfect_square",
    "ScheduleSpec",
    "WeightedNorm",
    "natural_density",
    "st_limit_verify",
    "clip_grid_for",
    "korovkin_table",
]


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("smooth", "spiky"):
            raise ValueError(f"schedule kind must be smooth or spiky, got {self.kind!r}")

    def q_at(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"index must be >= 1, got {n}")
        if self.kind == "spiky" and is_perfect_square(n):
            return 0.5
        return 1.0 - n**-0.5

    def b_at(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"index must be >= 1, got {n}")
        return n**0.25

    # Off the squares the float deviation |q_at(k) - 1| = |(1 - k^-1/2) - 1|
    # is nonincreasing in k (k^-1/2 falls by over an ulp per step for
    # k < 2^50, and rounding is monotone); on the spiky squares it is 1/2.
    # The two methods below apply that very float expression to O(log N)
    # indices, so they equal brute force over k <= N bit for bit, whatever
    # eps is.

    def exceptional_count(self, eps: float, N: int) -> int:
        """|{k <= N : |q_at(k) - 1| >= eps}|, the count st_limit_verify takes."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        smooth = ScheduleSpec("smooth")
        # bisect for the last k <= N where the off-square deviation reaches eps
        lo, hi = 0, N + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if abs(smooth.q_at(mid) - 1.0) >= eps:
                lo = mid
            else:
                hi = mid
        if self.kind == "smooth":
            return lo
        squares = math.isqrt(N) if abs(0.5 - 1.0) >= eps else 0
        return lo - math.isqrt(lo) + squares

    def max_dev(self, lo: int, hi: int) -> float:
        """max |q_at(k) - 1| over lo <= k <= hi, from at most three indices:
        lo and lo + 1 (squares are never adjacent, so one is not a square)
        and, on the spiky schedule, the first square in the range."""
        if not 1 <= lo <= hi:
            raise ValueError(f"need 1 <= lo <= hi, got {lo}, {hi}")
        ks = [lo] if lo == hi else [lo, lo + 1]
        if self.kind == "spiky":
            square = (math.isqrt(lo - 1) + 1) ** 2
            if square <= hi:
                ks.append(square)
        return max(abs(self.q_at(k) - 1.0) for k in ks)


@dataclass(frozen=True)
class WeightedNorm:
    """Grid sup of |f(x)| / (1 + x^2)."""

    grid: GridSpec

    def weights(self) -> np.ndarray:
        return 1.0 + self.grid.xs() ** 2

    def of_values(self, values) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.grid.points,):
            raise ValueError(
                f"expected {self.grid.points} values, got shape {values.shape}"
            )
        return float(np.max(np.abs(values) / self.weights()))


def natural_density(predicate, N: int) -> float:
    """|{k <= N : predicate(k)}| / N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    count = sum(1 for k in range(1, N + 1) if predicate(k))
    return count / N


def st_limit_verify(seq, L: float, eps: float, N: int) -> float:
    """Density of the eps-exceptional index set {k <= N : |seq(k) - L| >= eps}."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return natural_density(lambda k: abs(float(seq(k)) - L) >= eps, N)


def clip_grid_for(schedule: ScheduleSpec, ns, grid: GridSpec) -> GridSpec:
    """Shrink the grid so every instance along ns can evaluate on it."""
    hi = grid.x_hi
    for n in ns:
        # x_max does not depend on the symbol
        op = make_operator(n, schedule.q_at(n), schedule.b_at(n), "one")
        hi = min(hi, op.x_max)
    if hi <= grid.x_lo:
        raise DomainError(
            f"guarded domain [0, {hi}] leaves no room above x_lo={grid.x_lo}"
        )
    if hi >= grid.x_hi:
        return grid
    return GridSpec(grid.x_lo, hi, grid.points)


def korovkin_table(
    schedule: ScheduleSpec,
    family: AppellFamily,
    ns,
    grid: GridSpec,
) -> list:
    """Rows (n, q_n, b_n, b_n/[n]_q, err_v0, err_v1, err_v2) for CSV emission.

    err_v is the weighted error of the v-th monomial moment on the grid,
    which must lie inside every operator's domain along ns (clip_grid_for
    makes one that does); moment_closed raises DomainError otherwise.
    """
    norm = WeightedNorm(grid)
    xs = [float(x) for x in grid.xs()]
    rows = []
    for n in ns:
        q = schedule.q_at(n)
        bn = schedule.b_at(n)
        op = make_operator(n, q, bn, family)
        errs = [
            norm.of_values([moment_closed(op, v, x) - x**v for x in xs])
            for v in (0, 1, 2)
        ]
        rows.append((n, q, bn, bn / q_integer(n, q), *errs))
    return rows
