"""Positive summation operators driven by q-exponential weight mixtures.

The main operator evaluates, for a weight family with symbol A and a scale
sequence b_n,

    (1 / (A(1) e_q(y))) * sum_k c_k(y) f([k]_q b_n / [n]_q),   y = [n]_q x / b_n

which reproduces constants exactly and, for symbols with zero derivative at 1,
reproduces linear functions as well.  Closed forms for the first three
monomial moments are exact (D_q e_q = e_q makes every e_q ratio in them a
polynomial in y) and sit next to a brute-force series oracle; the
second-moment closed form used everywhere is the series-verified one, while
`moment_closed_uncorrected` keeps the weaker variant around for fidelity
tables.  The classical (q = 1) Poisson-weighted operator the q -> 1 limit
approaches is a test oracle (`tests/oracles.py`), not part of the library.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .appell import (
    SAFETY,
    AppellFamily,
    Functionals,
    family_from_spec,
    family_functionals,
)
from .errors import DomainError, EvaluationError
from .qcore import DEFAULT_TOL, QValue, _exp, as_qvalue, log_eq_exp, q_integer
# unused here; bound so that perfbench's tracer test can check it is wrapped in operators
from .qcore import eq_exp
from . import appell as _appell

__all__ = [
    "SAFETY",
    "TargetFunction",
    "preset_function",
    "as_target",
    "OperatorInstance",
    "make_operator",
    "evaluate",
    "moment_closed",
    "moment_closed_uncorrected",
    "moment_series",
    "SeriesMoments",
    "central_moment2",
    "shift_term",
]

_AUDIT_HI = 10.0
_AUDIT_POINTS = 200
_AUDIT_SLACK = 1e-9


@dataclass(frozen=True)
class TargetFunction:
    """A real function on [0, inf) plus optional self-declared bounds.

    fn is elementwise on float arrays: fn(ts) has the shape of ts (numpy
    expressions such as np.sin do this; as_target wraps a scalar callable
    with np.vectorize).  growth = (amp, rate) asserts
    |f(t)| <= amp * exp(rate * t); lip = (M, a) asserts
    |f(s) - f(t)| <= M * |s - t|**a; bounded asserts sup|f|.  Claims
    are spot-checked on a fixed audit grid at construction and rejected on
    failure, so downstream truncation bounds can trust them.
    """

    fn: object
    name: str = "f"
    growth: tuple | None = None
    lip: tuple | None = None
    bounded: float | None = None

    def __post_init__(self) -> None:
        if self.growth is not None:
            amp, rate = (float(v) for v in self.growth)
            if amp <= 0.0 or not math.isfinite(amp) or not math.isfinite(rate):
                raise ValueError(f"bad growth pair {self.growth}")
            object.__setattr__(self, "growth", (amp, rate))
        if self.lip is not None:
            m, a = (float(v) for v in self.lip)
            if m <= 0.0 or not (0.0 < a <= 1.0):
                raise ValueError(f"bad lipschitz pair {self.lip}")
            object.__setattr__(self, "lip", (m, a))
        if self.bounded is not None:
            b = float(self.bounded)
            if b < 0.0 or not math.isfinite(b):
                raise ValueError(f"bad bound {self.bounded}")
            object.__setattr__(self, "bounded", b)
        self._audit()

    def __call__(self, t) -> np.ndarray:
        """f at every point of t; a 0-d array for a scalar t."""
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)

    def _audit(self) -> None:
        ts = np.linspace(0.0, _AUDIT_HI, _AUDIT_POINTS)
        vals = self(ts)
        if vals.shape != ts.shape:
            raise ValueError(
                f"{self.name}: fn returned shape {vals.shape} for {ts.shape} points; "
                "fn must be elementwise on arrays (wrap a scalar callable with as_target)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{self.name}: non-finite value on the audit grid")
        av = np.abs(vals)
        if self.growth is not None:
            amp, rate = self.growth
            cap = amp * np.exp(rate * ts)
            if np.any(av > cap * (1.0 + _AUDIT_SLACK) + 1e-12):
                raise ValueError(f"{self.name}: growth claim {self.growth} fails audit")
        if self.bounded is not None:
            if np.any(av > self.bounded * (1.0 + _AUDIT_SLACK) + 1e-12):
                raise ValueError(f"{self.name}: bound claim {self.bounded} fails audit")
        if self.lip is not None:
            m, a = self.lip
            dv = np.abs(vals[:, None] - vals[None, :])
            dt = np.abs(ts[:, None] - ts[None, :]) ** a
            if np.any(dv > m * dt * (1.0 + _AUDIT_SLACK) + 1e-12):
                raise ValueError(f"{self.name}: lipschitz claim {self.lip} fails audit")


def as_target(f) -> TargetFunction:
    """f itself if it is a TargetFunction, else the scalar callable f made
    elementwise with np.vectorize."""
    if isinstance(f, TargetFunction):
        return f
    return TargetFunction(np.vectorize(f, otypes=[float]), name=getattr(f, "__name__", "anon"))


def preset_function(name: str) -> TargetFunction:
    """Named test functions; abspow takes the form abspow:alpha:center."""
    if name == "e0":
        return TargetFunction(np.ones_like, "e0", growth=(1.0, 0.0), bounded=1.0)
    if name == "e1":
        return TargetFunction(np.positive, "e1", growth=(1.0, 1.0), lip=(1.0, 1.0))
    if name == "e2":
        # t^2 <= e^t on t >= 0 (max of t^2 e^{-t} is 4/e^2 < 1)
        return TargetFunction(np.square, "e2", growth=(1.0, 1.0))
    if name == "sin":
        return TargetFunction(
            np.sin, "sin", growth=(1.0, 0.0), lip=(1.0, 1.0), bounded=1.0
        )
    if name == "expneg":
        return TargetFunction(
            lambda t: np.exp(-t), "expneg", growth=(1.0, 0.0), lip=(1.0, 1.0), bounded=1.0
        )
    if name.startswith("abspow:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected abspow:alpha:center, got {name!r}")
        alpha, center = float(parts[1]), float(parts[2])
        if not (0.0 < alpha <= 1.0) or center < 0.0:
            raise ValueError(f"abspow needs 0 < alpha <= 1 and center >= 0: {name!r}")
        # |t-c|^a <= 1 + t + c <= (1+c) e^t for a <= 1
        return TargetFunction(
            lambda t, a=alpha, c=center: np.abs(t - c) ** a,
            name,
            growth=(1.0 + center, 1.0),
            lip=(1.0, alpha),
        )
    raise ValueError(f"unknown function preset {name!r}")


@dataclass(frozen=True)
class OperatorInstance:
    n: int
    q: QValue
    bn: float
    family: AppellFamily
    nq: float = field(init=False)
    scale: float = field(init=False)
    x_max: float = field(init=False)
    node_sup: float = field(init=False)
    # [f as passed, f as a TargetFunction, its sup bound on the nodes, f at
    # the first nodes, L f(x) by (x, tol)] for the last target evaluated: the
    # node set does not depend on x, so a grid converts f once, calls it once
    # per node and, however many checkers share the grid, takes each L f(x) once
    _target: list = field(
        init=False, repr=False, compare=False, default_factory=lambda: [None, None, 0.0, np.zeros(0), {}]
    )

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        bn = float(self.bn)
        if not (bn > 0.0 and math.isfinite(bn)):
            raise ValueError(f"b_n must be positive and finite, got {self.bn}")
        object.__setattr__(self, "bn", bn)
        nq = q_integer(self.n, self.q)
        scale = bn / nq
        node_sup = scale * self.q.radius  # sup of the node set [k]_q * scale
        object.__setattr__(self, "nq", nq)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "node_sup", node_sup)
        object.__setattr__(self, "x_max", SAFETY * node_sup)

    @functools.cached_property
    def functionals(self) -> Functionals:
        """family_functionals at q, computed on first use: a schedule's table
        takes them for all its operators in one call instead."""
        return family_functionals(self.family, self.q)

    def y(self, x: float) -> float:
        return x / self.scale


def make_operator(n: int, q, bn: float, family) -> OperatorInstance:
    if isinstance(family, str):
        family = family_from_spec(family)
    return OperatorInstance(n=n, q=as_qvalue(q), bn=bn, family=family)


def _check_x(op: OperatorInstance, x) -> None:
    """x a float (one compare: converge checks a point a call) or an array."""
    try:
        if 0.0 <= x <= op.x_max:
            return
    except ValueError:  # an array has no single truth value: check its range
        if 0.0 <= np.min(x) and np.max(x) <= op.x_max:
            return
    where = f"x={x}" if np.ndim(x) == 0 else f"x in [{np.min(x)}, {np.max(x)}]"
    raise DomainError(f"{where} outside [0, {op.x_max}] for n={op.n}, q={op.q.q}, b_n={op.bn}")


def _node_sup_bound(f: TargetFunction, hi: float) -> float:
    """Upper bound on sup |f| over [0, hi], preferring declared metadata."""
    cands = []
    if f.bounded is not None:
        cands.append(f.bounded)
    if f.growth is not None:
        amp, rate = f.growth
        cands.append(amp * _exp(max(rate, 0.0) * hi))
    if f.lip is not None:
        m, a = f.lip
        cands.append(abs(float(f(0.0))) + m * hi**a)
    if cands:
        if min(cands) == math.inf:
            raise EvaluationError(f"{f.name}: no finite sup bound on the nodes [0, {hi}]")
        return min(cands)
    # no metadata: probe densely and pad; heuristic, documented as such
    m = float(np.max(np.abs(f(np.linspace(0.0, hi, 257)))))
    return 2.0 * m + 1e-6


def evaluate(op: OperatorInstance, f, x, tol: float = DEFAULT_TOL):
    """Operator value at x, truncated under a proven geometric tail bound.

    x is a float, giving a float, or an array, giving an array of its shape.
    The weights are scaled by their largest term, which cancels in the
    ratio, so the value stays finite on the whole guarded domain.  The x not
    yet known run through one kernel pass (`appell._weight_blocks`), and each
    block of rows is reduced as it arrives, row by row with the operands of
    a call on that x alone, so no (x, node) matrix is built and every value
    equals the float call's bit for bit.  Values are kept per (x, tol) until
    another f is evaluated on this operator; a call that raises keeps none.
    """
    _check_x(op, x)
    slot = op._target
    if slot[0] is not f:
        target = as_target(f)
        slot[:] = f, target, _node_sup_bound(target, op.node_sup), np.zeros(0), {}
    _, f, bound, known, memo = slot
    xs = np.asarray(x, dtype=float)
    points = xs.reshape(-1).tolist()
    new = {}
    todo = [v for v in dict.fromkeys(points) if (v, tol) not in memo]
    if todo:
        blocks = _appell._weight_blocks(op.family, op.y(np.array(todo)), op.q, bound, tol)
        for rows, K, c, _, kq in blocks:
            if len(known) < len(kq):
                nodes = kq[len(known) :] * op.scale
                fv = f(nodes)
                bad = ~np.isfinite(fv)
                if bad.any():
                    k = int(np.argmax(bad))
                    raise EvaluationError(f"{f.name} returned {fv[k]} at node {nodes[k]}")
                known = np.concatenate([known, fv])
            for row, r, cut in zip(c, rows.tolist(), (K + 1).tolist()):
                new[todo[r], tol] = float(row[:cut] @ known[:cut] / row[:cut].sum())
        slot[3] = known
        memo.update(new)
    values = [memo[v, tol] for v in points]
    return values[0] if xs.ndim == 0 else np.array(values).reshape(xs.shape)


def _damping(q, y):
    """R(qy) = e_q(qy)/e_q(y) = 1 - (1-q) y, exact because D_q e_q = e_q;
    R(q^2 y) = R(qy) (1 - (1-q) q y)."""
    return 1.0 - (1.0 - q) * y


def _closed_moment(i: int, x, q, s, fns: Functionals):
    """Monomial moment i in {0, 1, 2} at x for parameter q, scale s and
    functionals fns, elementwise over any broadcast of x, q, s and the
    fields of fns (order 0 is 1.0, which broadcasts)."""
    if i == 0:
        return 1.0
    y = x / s
    r_qy = _damping(q, y)
    if i == 1:
        return x + (fns.DqA1 / fns.A1) * r_qy * s
    if i == 2:
        r_q2y = r_qy * _damping(q, q * y)
        return (
            q * x * x
            + x * s
            + s * s * q * r_q2y * fns.Dq2A1 / fns.A1
            + s * r_qy * (fns.DqA1 / fns.A1) * (q * (q + 1.0) * x + s)
        )
    raise ValueError(f"moment order must be 0, 1 or 2, got {i}")


def _closed_central_moment2(x, q, s, fns: Functionals):
    """Second moment about x, elementwise as _closed_moment, in a form that
    does not cancel near q = 1: with y = x/s, d1 = DqA1/A1, d2 = Dq2A1/A1,
    r1 = R(qy) and r2 = R(qy) R(q^2 y),

        mu_2 = s r1 [x (1 - d1 (1-q)(q+2)) + d1 s] + q s^2 r2 d2,

    which is m2 - 2x m1 + x^2 rewritten with m1 - x = d1 r1 s and
    -(1-q) x^2 + x s = x s r1, so the nearly equal m2, 2x m1 and x^2
    are never subtracted."""
    y = x / s
    r_qy = _damping(q, y)
    d1 = fns.DqA1 / fns.A1
    return (
        s * r_qy * (x * (1.0 - d1 * (1.0 - q) * (q + 2.0)) + d1 * s)
        + q * s * s * r_qy * _damping(q, q * y) * fns.Dq2A1 / fns.A1
    )


def moment_closed(op: OperatorInstance, i: int, x):
    """Closed-form monomial moment, i in {0, 1, 2}; i = 2 is the verified form.
    x is a float or an array (elementwise; i = 0 gives 1.0, which broadcasts)."""
    _check_x(op, x)
    return _closed_moment(i, x, op.q.q, op.scale, op.functionals)


def moment_closed_uncorrected(op: OperatorInstance, i: int, x):
    """Weaker second-moment variant kept for fidelity tables; x a float or an
    array, as for moment_closed.

    Orders 0 and 1 coincide with moment_closed; order 2 drops the terms that
    the series oracle shows are required (for the plain symbol it returns x^2
    where the true value is q x^2 + x b_n/[n]_q).
    """
    if i != 2:
        return moment_closed(op, i, x)  # which also rejects any other order
    _check_x(op, x)
    q, fns, s = op.q.q, op.functionals, op.scale
    r_qy = _damping(q, op.y(x))
    return x * x + x * s * r_qy * (q * fns.DqAq + fns.DqA1) / fns.A1 + s * s * r_qy * fns.Dq2A1 / fns.A1


SeriesMoments = namedtuple("SeriesMoments", "m0 m1 m2 norm_residual")


def moment_series(op: OperatorInstance, x, tol: float = DEFAULT_TOL) -> SeriesMoments:
    """Brute-force series moments at x; the ground truth the closed forms
    answer to.  One `moment_sum` call gives all three as ratios of scaled
    sums, m_i = s^i S_i / S_0, so no value leaves the float range.  x is a
    float or an array; each field then has x's shape.

    norm_residual = |log S_0 + shift - log A(1) - log e_q(y)| checks the
    normalisation sum_k c_k(y) = A(1) e_q(y) that the ratios divide out.
    """
    _check_x(op, x)
    y = op.y(x)
    sums, shift = _appell.moment_sum(op.family, y, op.q, 2, tol)
    m = [op.scale**i * sums[..., i] / sums[..., 0] for i in range(3)]
    residual = np.abs(
        np.log(sums[..., 0]) + shift - math.log(op.functionals.A1) - log_eq_exp(y, op.q, tol)
    )
    return SeriesMoments(*(map(float, [*m, residual]) if np.ndim(x) == 0 else [*m, residual]))


def central_moment2(op: OperatorInstance, x):
    """Second moment about x, a float or an array; nonnegative on the guarded
    domain, and free of the cancellation in m2 - 2x m1 + x^2 near q = 1."""
    _check_x(op, x)
    return _closed_central_moment2(x, op.q.q, op.scale, op.functionals)


def shift_term(op: OperatorInstance, x):
    """s_n(x) = moment_closed(1, x) - x, the first-moment bias; x a float or an array."""
    _check_x(op, x)
    fns = op.functionals
    return (fns.DqA1 / fns.A1) * _damping(op.q.q, op.y(x)) * op.scale

