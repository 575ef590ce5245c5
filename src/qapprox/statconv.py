"""Statistical-convergence schedules and weighted convergence curves.

The experiment schedules pair a parameter sequence q_n with a stretch
sequence b_n = n^(1/4).  The smooth schedule (q_n = 1 - 1/sqrt(n)) satisfies
every hypothesis of the weighted convergence theorem in the ordinary sense;
the spiky schedule drops q_n to 1/2 on the perfect squares, killing the
ordinary limit while leaving the statistical limit at 1, since the squares
have natural density zero.  `ScheduleSpec` counts the exceptional indices
in closed form; the brute-force density counters it must equal are test
oracles (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import GridSpec
from .appell import family_functionals
from .errors import DomainError
from .operators import _check_x, _closed_moment, make_operator

__all__ = [
    "is_perfect_square",
    "ScheduleSpec",
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

    def operators(self, ns, family) -> list:
        """One operator of the family per index in ns, at q_n and b_n."""
        ops = []
        for n in ns:
            try:
                ops.append(make_operator(n, self.q_at(n), self.b_at(n), family))
            except DomainError as exc:  # q_n outside (0, 1), as q_1 = 0 when smooth
                raise DomainError(f"n={n} on the {self.kind} schedule: {exc}") from exc
        return ops

    # Off the squares the float deviation |q_at(k) - 1| = |(1 - k^-1/2) - 1|
    # is nonincreasing in k (k^-1/2 falls by over an ulp per step for
    # k < 2^50, and rounding is monotone); on the spiky squares it is 1/2.
    # The two methods below apply that very float expression to O(log N)
    # indices, so they equal brute force over k <= N bit for bit, whatever
    # eps is.

    def exceptional_count(self, eps: float, N: int) -> int:
        """|{k <= N : |q_at(k) - 1| >= eps}|, the eps-exceptional index count."""
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


def clip_grid_for(ops, grid: GridSpec) -> GridSpec:
    """Shrink the grid so every operator in ops can evaluate on it."""
    hi = min(grid.x_hi, *(op.x_max for op in ops))
    if hi <= grid.x_lo:
        raise DomainError(
            f"guarded domain [0, {hi}] leaves no room above x_lo={grid.x_lo}"
        )
    if hi >= grid.x_hi:
        return grid
    return GridSpec(grid.x_lo, hi, grid.points)


def korovkin_table(ops, grid: GridSpec) -> list:
    """Rows (n, q_n, b_n, b_n/[n]_q, err_v0, err_v1, err_v2) for CSV emission.

    err_v is the weighted error max |moment_v(x) - x^v| / (1 + x^2) of the
    v-th monomial moment on the grid, which must lie inside every
    operator's domain (clip_grid_for makes one that does); DomainError
    names the operator with the smallest x_max otherwise.  The operators
    share one symbol, whose functionals are one call on the q_n column;
    each moment is one closed-form expression over per-operator columns
    against the grid row, so the table costs three array expressions
    whatever len(ops) is.
    """
    if not ops:
        raise ValueError("korovkin_table needs at least one operator, got none")
    family = ops[0].family
    for op in ops:
        if op.family.coeffs != family.coeffs:
            raise ValueError(
                f"korovkin_table needs operators of one family, got {family.name} "
                f"(n={ops[0].n}) and {op.family.name} (n={op.n})"
            )
    x = grid.xs()
    _check_x(min(ops, key=lambda op: op.x_max), x)
    col = lambda vals: np.array(vals, dtype=float)[:, None]
    q = col([op.q.q for op in ops])
    s = col([op.scale for op in ops])
    fns = family_functionals(family, q)
    weights = 1.0 + x**2
    shape = (len(ops), len(x))
    # float_power is libm's pow, as a float's x**v is; numpy's x**2 is x*x,
    # which differs from it in the last bit at about 1 point in 1000
    errs = np.stack(
        [
            np.broadcast_to(
                np.abs(_closed_moment(v, x, q, s, fns) - np.float_power(x, v)) / weights, shape
            ).max(axis=1)
            for v in (0, 1, 2)
        ],
        axis=1,
    )
    return [(op.n, op.q.q, op.bn, op.scale, *e) for op, e in zip(ops, errs.tolist())]
