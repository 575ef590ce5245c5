"""Correctness gate: exit codes, finiteness and oracle spot-checks.

A command fails when it exits non-zero, raises, prints a non-finite number
(in a CSV row or a `# summary` line), prints a line the CSV layout does not
allow, or disagrees with the independent 50-digit oracle at one of the
seed-chosen sample points.  The oracle checks run outside the timed region;
`oracle` (and with it mpmath) is imported only there, after `peak_rss_mb`
has been read, and numpy only after the benchmark has capped its threads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from workloads import Command, bn_value, statdemo_indices

ORACLE_RTOL = 1e-9  # the CLI's own closed-vs-series tolerance
SAMPLES_PER_COMMAND = 2


@dataclass(frozen=True)
class Outcome:
    """What one in-process `cli.main` call returned and printed."""

    rc: object  # exit code, or the name of an exception that escaped main
    out: str


@dataclass(frozen=True)
class Table:
    config: dict
    header: list
    rows: list  # list of lists of strings
    summaries: list  # `# summary` lines


def _config(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)


def parse(out: str) -> Table:
    """Split CLI stdout into its config comment, CSV rows and summaries.

    The status line the CLI prints after the CSV is dropped; any other line
    whose field count differs from the header's raises ValueError.
    """
    lines = out.splitlines()
    if not lines or not lines[0].startswith("# command="):
        raise ValueError("output does not start with the config comment")
    config = _config(lines[0])
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    summaries = [ln for ln in lines[1:] if ln.startswith("# summary")]
    if not body:
        raise ValueError("output has no CSV header")
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    if rows and len(rows[-1]) != len(header):
        rows.pop()  # the status line
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"line {i + 2} has {len(row)} fields, header has {len(header)}")
    return Table(config, header, rows, summaries)


def _non_finite(fields) -> str | None:
    for f in fields:
        try:
            v = float(f)
        except ValueError:
            continue
        if not math.isfinite(v):
            return f
    return None


def check_output(cmd: Command, outcome: Outcome) -> list:
    """Problems visible without an oracle: exit code, layout, finiteness."""
    problems = []
    if outcome.rc != 0:
        problems.append(f"exit={outcome.rc}")
    try:
        table = parse(outcome.out)
    except ValueError as exc:
        return problems + [f"layout: {exc}"]
    for i, row in enumerate(table.rows):
        bad = _non_finite(row)
        if bad is not None:
            problems.append(f"non-finite {bad} in row {i + 1}")
            break
    for line in table.summaries:
        bad = _non_finite(tok.split("=", 1)[1] for tok in line.split() if "=" in tok)
        if bad is not None:
            problems.append(f"non-finite {bad} in summary")
            break
    return problems


def row_count(outcome: Outcome) -> int:
    """CSV data rows the command printed (0 when the output does not parse)."""
    try:
        return len(parse(outcome.out).rows)
    except ValueError:
        return 0


def items(cmd: Command, outcome: Outcome) -> int:
    """Work units the command produced: CSV rows, or statdemo indices."""
    if cmd.items == "indices":
        return statdemo_indices(cmd)
    return row_count(outcome)


# ----------------------------------------------------------------- oracle


def oracle_check(cmd: Command, outcome: Outcome, rng: random.Random) -> list:
    """Compare seed-chosen sample rows with the 50-digit oracle."""
    try:
        table = parse(outcome.out)
    except ValueError:
        return []  # already reported by check_output
    check = _ORACLES[cmd.name]
    return check(cmd, table, rng)


def _sample(rows, rng):
    finite = [r for r in rows if _non_finite(r) is None]
    return rng.sample(finite, min(SAMPLES_PER_COMMAND, len(finite)))


def _miss(what: str, value: float, ref, rtol: float = ORACLE_RTOL) -> list:
    import oracle

    err = oracle.rel_err(value, ref)
    return [] if err <= rtol else [f"oracle miss {what}: rel err {err:.3g}"]


def _operator_params(cmd: Command):
    n = int(cmd.flag("n"))
    q = float(cmd.flag("q"))
    bn = bn_value(cmd.flag("bn", "sqrt"), n)
    fam = cmd.flag("family")
    from_names = {"one": (1.0,), "affine": (1.0, 1.0), "quad": (1.0, 1.0, 0.5)}
    coeffs = from_names.get(fam) or tuple(float(a) for a in fam.split(","))
    return q, n, bn, coeffs


def _check_moments(cmd: Command, table: Table, rng) -> list:
    import oracle

    q, n, bn, coeffs = _operator_params(cmd)
    problems = []
    for row in _sample(table.rows, rng):
        i, x = int(row[0]), float(row[1])
        ref = oracle.operator_sums(q, n, bn, coeffs, x)[f"m{i}"]
        problems += _miss(f"closed i={i} x={row[1]}", float(row[2]), ref)
        problems += _miss(f"series i={i} x={row[1]}", float(row[3]), ref)
    return problems


def _check_certificate(cmd: Command, table: Table, rng) -> list:
    """rates/local rows carry lhs = |L(f)(x) - f(x)| in the column `lhs`."""
    import oracle

    q, n, bn, coeffs = _operator_params(cmd)
    f = oracle.target(cmd.flag("function"))
    xcol, lcol = table.header.index("x"), table.header.index("lhs")
    problems = []
    for row in _sample(table.rows, rng):
        x = float(row[xcol])
        lf = oracle.operator_sums(q, n, bn, coeffs, x, f)["Lf"]
        ref = abs(lf - f(oracle.mpmath.mpf(x)))
        problems += _miss(f"lhs x={row[xcol]}", float(row[lcol]), ref)
    return problems


# identities rows: the bound each identity's residual must meet
IDENTITY_TOLERANCES = {"eq_times_Eq_neg": 1e-10}
IDENTITY_DEFAULT_TOLERANCE = 1e-9
IDENTITY_ROWS = 14  # 5 q-calculus identities + 3 weight sums x 3 families


def _check_identities(cmd: Command, table: Table, rng) -> list:
    """The printed table must be self-consistent (the expected rows, each
    with its identity's tolerance, `pass` exactly when the residual meets
    it); the oracle then checks the q-exponentials the first identity
    multiplies, at sample points of its own grid and the command's tol."""
    import numpy as np

    import oracle
    from qapprox import Eq_exp, eq_exp
    from qapprox.errors import DomainError, EvaluationError, TruncationCapError

    problems = []
    if len(table.rows) != IDENTITY_ROWS:
        problems.append(f"identities table has {len(table.rows)} rows, expected {IDENTITY_ROWS}")
    col = {name: i for i, name in enumerate(table.header)}
    for row in table.rows:
        ident, resid, bound, status = (
            row[col[c]] for c in ("identity", "max_residual", "tolerance", "status")
        )
        want = IDENTITY_TOLERANCES.get(ident, IDENTITY_DEFAULT_TOLERANCE)
        if float(bound) != want:
            problems.append(f"{ident}: tolerance {bound}, expected {want:g}")
        if status != ("pass" if float(resid) <= want else "FAIL"):
            problems.append(f"{ident}: status {status} with residual {resid}")
        elif status == "FAIL":
            problems.append(f"{ident}: residual {resid} above {want:g}")

    q = float(cmd.flag("q"))
    tol = float(table.config["tol"])
    pts = int(cmd.flag("points"))
    xs = np.linspace(0.0, 0.9 / (1.0 - q), pts)
    for x in rng.sample([float(v) for v in xs], SAMPLES_PER_COMMAND):
        for name, fn, arg, ref in (
            ("eq_exp", eq_exp, x, oracle.small_exp),
            ("Eq_exp", Eq_exp, -x, oracle.big_exp),
        ):
            try:
                value = fn(arg, q, tol)
            except (DomainError, EvaluationError, TruncationCapError, OverflowError) as exc:
                problems.append(f"oracle point {name}({arg!r}) raised {type(exc).__name__}")
                continue
            problems += _miss(f"{name}({arg!r})", value, ref(arg, q))
    return problems


def _check_statdemo(cmd: Command, table: Table, rng) -> list:
    """Exact counts: isqrt(N) squares; the eps-exceptional set is the k with
    k^(-1/2) >= eps, plus the squares on the spiky schedule (q = 1/2)."""
    import mpmath

    spiky = cmd.flag("schedule") == "spiky"
    eps = mpmath.mpf(cmd.flag("eps"))
    cut = int(mpmath.floor(1 / eps**2))
    problems = []
    for row in table.rows:
        N = int(row[0])
        squares = math.isqrt(N)
        small = min(cut, N)
        exc = small + (squares - math.isqrt(small) if spiky else 0)
        devs = _schedule_devs(N, spiky)
        for what, value, ref in (
            ("density_squares", float(row[1]), mpmath.mpf(squares) / N),
            ("exceptional_density", float(row[2]), mpmath.mpf(exc) / N),
            ("sup_dev", float(row[3]), devs[0]),
            ("tail_dev", float(row[4]), devs[1]),
        ):
            problems += _miss(f"{what} N={N}", value, ref, rtol=1e-12)
    return problems


def _schedule_devs(N: int, spiky: bool):
    """max |q_k - 1| over k <= N and over N/2 < k <= N, exactly.

    Off the squares |q_k - 1| = k^(-1/2), largest at the smallest index; on
    the spiky schedule every square contributes 1/2.
    """
    import mpmath

    def dev(lo: int, hi: int):
        best = mpmath.mpf(0)
        k = lo
        if spiky:
            while math.isqrt(k) ** 2 == k:
                k += 1
            if math.isqrt(hi) ** 2 >= lo:
                best = mpmath.mpf(1) / 2
        if k <= hi:
            best = max(best, 1 / mpmath.sqrt(k))
        return best

    return dev(1, N), dev(N // 2 + 1, N)


def _check_converge(cmd: Command, table: Table, rng) -> list:
    """q_n, b_n and b_n/[n]_q exactly; the weighted moment errors by direct
    50-digit sums on every point of the (clipped) grid the CSV reports."""
    import mpmath
    import numpy as np

    import oracle

    spiky = cmd.flag("schedule") == "spiky"
    lo, hi, pts = table.config["grid"].split(":")
    # the same abscissae the program used (GridSpec.xs), taken exactly
    xs = [mpmath.mpf(float(v)) for v in np.linspace(float(lo), float(hi), int(pts))]
    coeffs = (1.0, 1.0)  # the converge default family, affine
    problems = []
    for row in _sample(table.rows, rng):
        n = int(row[0])
        is_square = math.isqrt(n) ** 2 == n
        q_float = 0.5 if spiky and is_square else 1.0 - n**-0.5
        q_ref = mpmath.mpf(1) / 2 if spiky and is_square else 1 - 1 / mpmath.sqrt(n)
        bn_ref = mpmath.root(n, 4)
        problems += _miss(f"q_n n={n}", float(row[1]), q_ref, rtol=1e-14)
        problems += _miss(f"b_n n={n}", float(row[2]), bn_ref, rtol=1e-14)
        problems += _miss(f"bn_over_nq n={n}", float(row[3]), bn_ref / oracle.qint(n, q_ref), rtol=1e-12)
        errs = [mpmath.mpf(0)] * 3
        for x in xs:
            s = oracle.operator_sums(q_float, n, float(bn_ref), coeffs, x)
            for v in (0, 1, 2):
                errs[v] = max(errs[v], abs(s[f"m{v}"] - x**v) / (1 + x * x))
        for v in (0, 1, 2):
            # the CSV error is a difference of nearly equal moments, so it is
            # compared on the scale of the moments it came from
            problems += _miss(f"error_v{v} n={n}", float(row[4 + v]), errs[v], rtol=1e-9)
    return problems


_ORACLES = {
    "moments": _check_moments,
    "rates": _check_certificate,
    "local": _check_certificate,
    "identities": _check_identities,
    "statdemo": _check_statdemo,
    "converge": _check_converge,
}
