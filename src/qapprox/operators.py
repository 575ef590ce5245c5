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
tables.  A classical (q = 1) Poisson-weighted reference operator rounds out
the module.
"""

from __future__ import annotations

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
    scaled_weights,
)
from .errors import DomainError, EvaluationError, TruncationCapError
from .qcore import DEFAULT_TOL, SERIES_CAP, QValue, as_qvalue, log_eq_exp, q_integer
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
    "auxiliary_evaluate",
    "classical_evaluate",
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
    functionals: Functionals = field(init=False)
    # [f as passed, f as a TargetFunction, its sup bound on the nodes, f at
    # the first nodes] for the last target evaluated: the node set does not
    # depend on x, so evaluating a grid converts f once and calls it once
    # per node, whether f is a TargetFunction or a raw callable
    _target: list = field(
        init=False, repr=False, compare=False, default_factory=lambda: [None, None, 0.0, np.zeros(0)]
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
        object.__setattr__(self, "functionals", family_functionals(self.family, self.q))

    def y(self, x: float) -> float:
        return x / self.scale


def make_operator(n: int, q, bn: float, family) -> OperatorInstance:
    if isinstance(family, str):
        family = family_from_spec(family)
    return OperatorInstance(n=n, q=as_qvalue(q), bn=bn, family=family)


def _check_x(op: OperatorInstance, x: float) -> None:
    if not (0.0 <= x <= op.x_max):
        raise DomainError(
            f"x={x} outside [0, {op.x_max}] for n={op.n}, q={op.q.q}, b_n={op.bn}"
        )


def _node_sup_bound(f: TargetFunction, hi: float) -> float:
    """Upper bound on sup |f| over [0, hi], preferring declared metadata."""
    cands = []
    if f.bounded is not None:
        cands.append(f.bounded)
    if f.growth is not None:
        amp, rate = f.growth
        cands.append(amp * math.exp(max(rate, 0.0) * hi))
    if f.lip is not None:
        m, a = f.lip
        cands.append(abs(float(f(0.0))) + m * hi**a)
    if cands:
        return min(cands)
    # no metadata: probe densely and pad; heuristic, documented as such
    m = float(np.max(np.abs(f(np.linspace(0.0, hi, 257)))))
    return 2.0 * m + 1e-6


def evaluate(op: OperatorInstance, f, x: float, tol: float = DEFAULT_TOL) -> float:
    """Operator value at x, truncated under a proven geometric tail bound.

    The weights are scaled by their largest term, which cancels in the
    ratio, so the value stays finite on the whole guarded domain.
    """
    _check_x(op, x)
    slot = op._target
    if slot[0] is not f:
        target = as_target(f)
        slot[:] = f, target, _node_sup_bound(target, op.node_sup), np.zeros(0)
    _, f, bound, known = slot
    c, kq, _ = scaled_weights(op.family, op.y(x), op.q, bound, tol)
    if len(known) < len(kq):
        nodes = kq[len(known) :] * op.scale
        fv = f(nodes)
        bad = ~np.isfinite(fv)
        if bad.any():
            k = int(np.argmax(bad))
            raise EvaluationError(f"{f.name} returned {fv[k]} at node {nodes[k]}")
        known = slot[3] = np.concatenate([known, fv])
    return float(c @ known[: len(kq)] / c.sum())


def _damping(op: OperatorInstance, y: float) -> float:
    """R(qy) = e_q(qy)/e_q(y) = 1 - (1-q) y, exact because D_q e_q = e_q;
    R(q^2 y) = R(qy) (1 - (1-q) q y)."""
    return 1.0 - (1.0 - op.q.q) * y


def moment_closed(op: OperatorInstance, i: int, x: float) -> float:
    """Closed-form monomial moment, i in {0, 1, 2}; i = 2 is the verified form."""
    _check_x(op, x)
    if i == 0:
        return 1.0
    q = op.q.q
    y = op.y(x)
    fns = op.functionals
    s = op.scale
    r_qy = _damping(op, y)
    if i == 1:
        return x + (fns.DqA1 / fns.A1) * r_qy * s
    if i == 2:
        r_q2y = r_qy * _damping(op, q * y)
        return (
            q * x * x
            + x * s
            + s * s * q * r_q2y * fns.Dq2A1 / fns.A1
            + s * r_qy * (fns.DqA1 / fns.A1) * (q * (q + 1.0) * x + s)
        )
    raise ValueError(f"moment order must be 0, 1 or 2, got {i}")


def moment_closed_uncorrected(op: OperatorInstance, i: int, x: float) -> float:
    """Weaker second-moment variant kept for fidelity tables.

    Orders 0 and 1 coincide with moment_closed; order 2 drops the terms that
    the series oracle shows are required (for the plain symbol it returns x^2
    where the true value is q x^2 + x b_n/[n]_q).
    """
    _check_x(op, x)
    if i in (0, 1):
        return moment_closed(op, i, x)
    if i == 2:
        q = op.q.q
        fns = op.functionals
        s = op.scale
        r_qy = _damping(op, op.y(x))
        return (
            x * x
            + x * s * r_qy * (q * fns.DqAq + fns.DqA1) / fns.A1
            + s * s * r_qy * fns.Dq2A1 / fns.A1
        )
    raise ValueError(f"moment order must be 0, 1 or 2, got {i}")


SeriesMoments = namedtuple("SeriesMoments", "m0 m1 m2 norm_residual")


def moment_series(op: OperatorInstance, x: float, tol: float = DEFAULT_TOL) -> SeriesMoments:
    """Brute-force series moments at x; the ground truth the closed forms
    answer to.  One `moment_sum` call gives all three as ratios of scaled
    sums, m_i = s^i S_i / S_0, so no value leaves the float range.

    norm_residual = |log S_0 + shift - log A(1) - log e_q(y)| checks the
    normalisation sum_k c_k(y) = A(1) e_q(y) that the ratios divide out.
    """
    _check_x(op, x)
    y = op.y(x)
    sums, shift = _appell.moment_sum(op.family, y, op.q, 2, tol)
    m = [float(op.scale**i * s / sums[0]) for i, s in enumerate(sums)]
    residual = abs(
        math.log(sums[0]) + shift - math.log(op.functionals.A1) - log_eq_exp(y, op.q, tol)
    )
    return SeriesMoments(*m, residual)


def central_moment2(op: OperatorInstance, x: float) -> float:
    """Second moment about x; nonnegative on the guarded domain."""
    m1 = moment_closed(op, 1, x)
    m2 = moment_closed(op, 2, x)
    return m2 - 2.0 * x * m1 + x * x


def shift_term(op: OperatorInstance, x: float) -> float:
    """s_n(x), the first-moment bias: moment_closed(1, x) - x."""
    _check_x(op, x)
    fns = op.functionals
    if fns.DqA1 == 0.0:
        return 0.0
    return (fns.DqA1 / fns.A1) * _damping(op, op.y(x)) * op.scale


def auxiliary_evaluate(op: OperatorInstance, f, x: float, tol: float = DEFAULT_TOL) -> float:
    """Bias-compensated variant; reproduces linear functions exactly."""
    f = as_target(f)
    s = shift_term(op, x)
    return evaluate(op, f, x, tol) - float(f(x + s)) + float(f(x))


def _poisson_rate_bound(f: TargetFunction, step: float) -> tuple:
    """(amp, per-step factor) with |f(k*step)| <= amp * factor^k, best effort."""
    if f.bounded is not None:
        return (f.bounded, 1.0)
    if f.growth is not None:
        amp, rate = f.growth
        return (amp, math.exp(max(rate, 0.0) * step))
    if f.lip is not None:
        m, _ = f.lip
        # t^a <= 1 + t <= e^t for a <= 1
        return (abs(float(f(0.0))) + m, math.exp(step))
    m = float(np.max(np.abs(f(np.linspace(0.0, 64.0 * step, 257)))))
    return (2.0 * m + 1e-6, math.exp(step))  # heuristic growth guess


def _poisson(k: int, base: float, lam: float) -> float:
    """e^{-lam} base^k / k!, formed in log space: a recurrence started from
    e^{-lam} underflows to 0 for lam > ~745 and stays 0."""
    if base == 0.0:
        return math.exp(-lam) if k == 0 else 0.0
    return math.exp(k * math.log(base) - lam - math.lgamma(k + 1.0))


def classical_evaluate(n: int, bn: float, f, x: float, tol: float = DEFAULT_TOL) -> float:
    """q = 1 reference: Poisson-weighted sums over nodes k*b_n/n."""
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if not (n >= 1 and bn > 0.0):
        raise ValueError(f"need n >= 1 and b_n > 0, got n={n}, b_n={bn}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    f = as_target(f)
    step = bn / n
    lam = n * x / bn
    amp, factor = _poisson_rate_bound(f, step)
    lam2 = lam * factor  # e^{-lam} lam2^k / k! dominates the weight times |f| / amp
    total = 0.0
    for k in range(SERIES_CAP + 1):
        fv = float(f(k * step))
        if not math.isfinite(fv):
            raise EvaluationError(f"{f.name} returned {fv} at node {k * step}")
        total += _poisson(k, lam, lam) * fv
        if k >= 16:
            r = lam2 / (k + 2.0)
            w2_next = _poisson(k + 1, lam2, lam)
            if r < 1.0 and amp * w2_next / (1.0 - r) <= tol * max(1.0, abs(total)):
                return total
    raise TruncationCapError(
        f"classical_evaluate hit the {SERIES_CAP}-term cap at x={x}, n={n}"
    )
