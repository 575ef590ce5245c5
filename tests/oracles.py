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
"""

import math

import mpmath

from qapprox.operators import as_target, evaluate, shift_term
from qapprox.qcore import DEFAULT_TOL, q_integer

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
