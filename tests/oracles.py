"""Brute-force reference implementations the tests compare the library to.

None of these is used by a command: each is the slow, obviously correct
form of something the library computes another way.

- `classical_szasz`: the classical (q = 1) Szasz-Mirakjan operator with
  Chlodowsky nodes, the limit the q-operators approach as q -> 1.
- `natural_density` and `st_limit_verify`: direct counts over k <= N, which
  `ScheduleSpec.exceptional_count` and `max_dev` replace in closed form.
- `q_factorial`: [n]_q! as a plain product of q-integers.
- `auxiliary_evaluate`: the bias-compensated operator
  L f(x) - f(x + s_n(x)) + f(x), which reproduces linear functions exactly;
  acceptance criterion 04 checks `evaluate` and `shift_term` through it.
- `closed_moment_scalar` and `korovkin_rows`: the closed-form moments as
  scalar float arithmetic in a fixed operation order, and the Korovkin
  table from one such call per (n, v, x); `moment_closed` and
  `statconv.korovkin_table` must equal them bit for bit.
- `functional_sums`: `family_functionals` as generator sums of one
  `q_integer` call per term.
- `moment_series_per_point`: the series moments and normalisation residual
  from one `moment_sum` and one `log_eq_exp` call per grid point, which
  `moment_series` on a grid replaces with one call of each.
- `Eq_exp_series_loop`: the big q-exponential's series as a scalar loop over
  terms, with the stopping rule `qcore.Eq_exp_series` applies in one pass.
"""

import math

import numpy as np
import mpmath

from qapprox.appell import Functionals, moment_sum
from qapprox.operators import as_target, evaluate, make_operator, shift_term
from qapprox.qcore import DEFAULT_TOL, SERIES_CAP, as_qvalue, log_eq_exp, q_integer

_DPS = 30
_TAIL = mpmath.mpf(10) ** -25


def classical_szasz(n: int, bn: float, f, x: float) -> float:
    """sum_k e^{-lam} lam^k/k! f(k b_n/n), lam = n x / b_n, at 30 digits.

    f must declare growth (amp, rate), |f(t)| <= amp e^{rate t}.  Then the
    k-th term is at most amp e^{-lam} lam2^k/k!, lam2 = lam e^{rate b_n/n},
    and once k >= 2 lam2 these bounds fall by half or more per step, so the
    tail from k on is at most twice the k-th of them.  The sum stops when
    that is below 1e-25.  e^{-lam} is an mpmath number, so it does not
    underflow for large lam.
    """
    f = as_target(f)
    amp, rate = f.growth
    with mpmath.workdps(_DPS):
        step = mpmath.mpf(bn) / n
        lam = n * mpmath.mpf(x) / mpmath.mpf(bn)
        lam2 = lam * mpmath.exp(rate * step)
        weight = bound = mpmath.exp(-lam)  # e^{-lam} lam^k/k!, e^{-lam} lam2^k/k!
        total = mpmath.mpf(0)
        k = 0
        while k < 2 * lam2 or 2 * amp * bound > _TAIL:
            total += weight * float(f(float(k * step)))
            k += 1
            weight *= lam / k
            bound *= lam2 / k
        return float(total)


def natural_density(predicate, N: int) -> float:
    """|{k <= N : predicate(k)}| / N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return sum(1 for k in range(1, N + 1) if predicate(k)) / N


def st_limit_verify(seq, L: float, eps: float, N: int) -> float:
    """Density of the eps-exceptional index set {k <= N : |seq(k) - L| >= eps}."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return natural_density(lambda k: abs(float(seq(k)) - L) >= eps, N)


def q_factorial(n: int, q) -> float:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    return math.prod(q_integer(j, q) for j in range(1, n + 1))


def auxiliary_evaluate(op, f, x: float, tol: float = DEFAULT_TOL) -> float:
    """L f(x) - f(x + s_n(x)) + f(x), with s_n the first-moment bias."""
    f = as_target(f)
    return evaluate(op, f, x, tol) - float(f(x + shift_term(op, x))) + float(f(x))


def closed_moment_scalar(op, i: int, x: float) -> float:
    """Monomial moment i at a float x in the operation order of the moment
    closed forms; see operators._damping for the two damping factors."""
    if i == 0:
        return 1.0
    q, s, fns = op.q.q, op.scale, op.functionals
    y = x / s
    r_qy = 1.0 - (1.0 - q) * y
    if i == 1:
        return x + (fns.DqA1 / fns.A1) * r_qy * s
    r_q2y = r_qy * (1.0 - (1.0 - q) * (q * y))
    return (
        q * x * x
        + x * s
        + s * s * q * r_q2y * fns.Dq2A1 / fns.A1
        + s * r_qy * (fns.DqA1 / fns.A1) * (q * (q + 1.0) * x + s)
    )


def korovkin_rows(schedule, family, ns, grid) -> list:
    """(n, q_n, b_n, b_n/[n]_q, err_v0, err_v1, err_v2) by a per-point loop."""
    grid_xs = grid.xs()
    weights = 1.0 + grid_xs**2
    xs = [float(x) for x in grid_xs]
    rows = []
    for n in ns:
        q = schedule.q_at(n)
        bn = schedule.b_at(n)
        op = make_operator(n, q, bn, family)
        errs = [
            float(np.max(np.abs([closed_moment_scalar(op, v, x) - x**v for x in xs]) / weights))
            for v in (0, 1, 2)
        ]
        rows.append((n, q, bn, bn / q_integer(n, q), *errs))
    return rows


def functional_sums(family, q) -> Functionals:
    """A(1), D_qA(1), D_qA(q) and D_q^2 A(1), one q_integer call per term."""
    qv = as_qvalue(q)
    terms = list(enumerate(family.coeffs))
    a1 = sum(family.coeffs)
    d1 = sum(a * q_integer(k, qv) for k, a in terms)
    dq = sum(a * q_integer(k, qv) * qv.q ** (k - 1) for k, a in terms if k >= 1)
    d2 = sum(a * q_integer(k, qv) * q_integer(k - 1, qv) for k, a in terms if k >= 2)
    return Functionals(float(a1), float(d1), float(dq), float(d2))


def moment_series_per_point(op, xs, tol: float = DEFAULT_TOL) -> list:
    """[(m0, m1, m2, norm_residual)] at each x, one kernel call per point."""
    rows = []
    for x in xs:
        y = op.y(float(x))
        sums, shift = moment_sum(op.family, y, op.q, 2, tol)
        m = [float(op.scale**i * s / sums[0]) for i, s in enumerate(sums)]
        log_norm = math.log(op.functionals.A1) + log_eq_exp(y, op.q, tol)
        rows.append((*m, abs(math.log(sums[0]) + shift - log_norm)))
    return rows


def Eq_exp_series_loop(x: float, q, tol: float = DEFAULT_TOL) -> float:
    """sum_k q^(k(k-1)/2) x^k/[k]_q!, term by term, up to the first k whose
    next ratio is <= 1/2 and whose term is <= tol max(1, |sum to k|)."""
    qv = as_qvalue(q)
    total, term, qpow = 0.0, 1.0, 1.0  # qpow = q^k
    for _ in range(SERIES_CAP + 1):
        total += term
        qint_next = (1.0 - qpow * qv.q) / (1.0 - qv.q)  # [k+1]_q
        if qpow * abs(x) / qint_next <= 0.5 and abs(term) <= tol * max(1.0, abs(total)):
            return total
        term *= qpow * x / qint_next
        qpow *= qv.q
    raise ArithmeticError(f"series did not meet tol={tol} at x={x}, q={qv.q}")
