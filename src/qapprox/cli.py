"""Experiment-running command line interface.

Subcommands: identities (q-calculus and weight-sum identity residuals),
moments (closed form vs series vs weaker-form three-way table), converge
(weighted convergence curves along a schedule), rates (pointwise rate
certificates), local (second-modulus certificate with its empirical
constant), statdemo (density and statistical-limit tables).  Every command
emits a CSV whose first line is a comment holding the fully resolved
configuration; identical configurations produce byte-identical files.

Exit codes: 0 all checks pass, 1 a numeric invariant failed (a FAIL line is
printed), 2 configuration problem or unwritable --out, 3 domain violation,
4 series cap hit.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .analysis import (
    GridSpec,
    check_lipschitz_theorem,
    check_local_theorem,
    check_maximal_theorem,
    check_rate_theorem,
)
from .appell import family_from_spec, identity_residuals
from .errors import ConfigError, DomainError, EvaluationError, TruncationCapError
from .operators import (
    make_operator,
    moment_closed,
    moment_closed_uncorrected,
    moment_series,
    preset_function,
)
# unused here; bound so that perfbench's tracer test can check it is wrapped in cli
from .qcore import eq_exp
from .statconv import (
    ScheduleSpec,
    clip_grid_for,
    korovkin_table,
)

_ORACLE_RTOL = 1e-9
# |log sum_k c_k(y) - log(A(1) e_q(y))|, the `weight_sum` identity's bound
_NORM_TOL = 1e-9
# an `auto` grid top stops this fraction of the way to the guarded x_max
_AUTO_MARGIN = 0.95

_FLAG_HELP = {
    "q": "parameter in (0,1); identities accepts a comma list",
    "n": "operator index (positive integer)",
    "bn": "stretch rule: sqrt, n14, or an explicit positive number",
    "family": "weight symbol: one|affine|quad or explicit a0,a1,...",
    "function": "target: e0|e1|e2|sin|expneg|abspow:alpha:center",
    "grid": "evaluation grid lo:hi:points; hi may be auto",
    "ns": "comma list of operator indices",
    "Ns": "comma list of density horizons",
    "schedule": "smooth or spiky",
    "points": "points per identity check",
    "tol": "series truncation tolerance",
    "eps": "statistical-limit epsilon",
    "f_lo": "lower end of the Lipschitz reference set (default grid lo)",
    "f_hi": "upper end of the Lipschitz reference set (default grid hi)",
    "alpha": "Hölder exponent for the maximal-function certificate",
    "out": "CSV output path (stdout when omitted or -)",
    "config": "key=value file; command-line flags override it",
}


def _fmt(v) -> str:
    return "%.17g" % v if isinstance(v, float) else str(v)


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for i, line in enumerate(raw, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{i}: expected key=value, got {body!r}")
        key, val = body.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _operator_flags(q: str, n: str, family: str, grid: str, **extra) -> dict:
    """Flag defaults of a command that builds one operator on one grid."""
    return {"q": q, "n": n, "bn": "sqrt", "family": family, "grid": grid, "tol": "1e-12", **extra}


def _flags(command: str) -> dict:
    """The command's flag defaults plus `out`, which every command takes."""
    return {**_COMMANDS[command][1], "out": None}


def _resolve(args: argparse.Namespace) -> dict:
    """File < flag precedence, then fall back to the command's defaults."""
    defaults = _flags(args.command)
    file_vals = _read_config_file(args.config) if args.config else {}
    for key in file_vals:
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {args.command}")
    flags = {key: getattr(args, key) for key in defaults if getattr(args, key) is not None}
    return {**defaults, **file_vals, **flags}


def _as_float(raw: str, key: str, lo=None, hi=None) -> float:
    try:
        v = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    if lo is not None and v <= lo or hi is not None and v >= hi:
        raise ConfigError(f"{key}={v} out of range")
    return v


def _as_int(raw: str, key: str, lo=1) -> int:
    try:
        v = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    if v < lo:
        raise ConfigError(f"{key} must be >= {lo}, got {v}")
    return v


def _as_int_list(raw: str, key: str) -> list:
    try:
        vals = [int(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"{key} must be a comma list of integers, got {raw!r}")
    if not vals or any(v < 1 for v in vals):
        raise ConfigError(f"{key} entries must be positive, got {raw!r}")
    return vals


def _parse_grid(raw: str) -> tuple:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:points, got {raw!r}")
    lo = _as_float(parts[0], "grid lo")
    hi = None if parts[1] == "auto" else _as_float(parts[1], "grid hi")
    pts = _as_int(parts[2], "grid points", lo=2)
    if lo < 0.0 or (hi is not None and hi <= lo):
        raise ConfigError(f"grid must satisfy 0 <= lo < hi, got {raw!r}")
    return lo, hi, pts


def _resolve_bn(rule: str, n: int) -> float:
    if rule == "sqrt":
        return math.sqrt(n)
    if rule == "n14":
        return n**0.25
    v = _as_float(rule, "bn")
    if v <= 0.0:
        raise ConfigError(f"explicit bn must be positive, got {v}")
    return v


def _spec(parse, key: str, raw: str):
    """`parse(raw)`, with the library's ValueError reported as a ConfigError."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {key} {raw!r}: {exc}") from exc


def _operator_and_grid(res: dict) -> tuple:
    """Operator, grid and shared config entries for moments, rates and local."""
    q = _as_float(res["q"], "q", lo=0.0, hi=1.0)
    n = _as_int(res["n"], "n")
    bn = _resolve_bn(res["bn"], n)
    fam = _spec(family_from_spec, "family", res["family"])
    op = make_operator(n, q, bn, fam)
    lo, hi, pts = _parse_grid(res["grid"])
    if hi is None:
        hi = _AUTO_MARGIN * op.x_max
    cfg = {
        "q": q,
        "n": n,
        "bn": res["bn"],
        "bn_value": bn,
        "family": fam.name,
        "grid": "%s:%s:%d" % (_fmt(lo), _fmt(hi), pts),
        "tol": _as_float(res["tol"], "tol", lo=0.0),
    }
    return op, GridSpec(lo, hi, pts), cfg


def _run_identities(res: dict) -> tuple:
    qs = [_as_float(p, "q", lo=0.0, hi=1.0) for p in res["q"].split(",") if p.strip()]
    if not qs:
        raise ConfigError(f"no q values in {res['q']!r}")
    pts = _as_int(res["points"], "points", lo=2)
    tol = _as_float(res["tol"], "tol", lo=0.0)
    checks = [(q, row) for q in qs for row in identity_residuals(q, pts, tol)]

    cfg = {"q": res["q"], "points": pts, "tol": tol}
    rows = [
        "%s,%s,%.17g,%d,%.17g,%.17g,%s"
        % (row.name, row.family, q, row.points, row.residual, row.bound,
           "pass" if row.residual <= row.bound else "FAIL")
        for q, row in checks
    ]
    csv = (cfg, "identity,family,q,points,max_residual,tolerance,status", rows)
    for q, row in checks:
        if row.residual > row.bound:
            fail = f"identity={row.name} q={_fmt(q)} residual={_fmt(row.residual)} tol={_fmt(row.bound)}"
            return (*csv, fail, None)
    return (*csv, None, f"identities: {len(checks)} checks, all within tolerance")


def _run_moments(res: dict) -> tuple:
    op, grid, cfg = _operator_and_grid(res)
    xs = grid.xs()
    moments = moment_series(op, xs, cfg["tol"])
    closed, printed = (np.array([np.broadcast_to(fn(op, i, xs), xs.shape) for i in range(3)])
                       for fn in (moment_closed, moment_closed_uncorrected))
    series = np.array(moments[:3])
    rows = [
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (i, x, c, s, p, c - s, p - s)
        for i in range(3)
        for x, c, s, p in zip(xs.tolist(), closed[i].tolist(), series[i].tolist(), printed[i].tolist())
    ]
    # a non-finite row must fail the scan, not slip past every `>`
    with np.errstate(invalid="ignore"):
        rel = np.abs(closed - series) / np.maximum(1.0, np.abs(series))
    rel[~(np.isfinite(closed) & np.isfinite(series))] = math.inf
    worst = float(rel.max())
    # the ratios divide sum_k c_k out, so its identity is checked on its own
    norm = np.where(np.isfinite(moments.norm_residual), moments.norm_residual, math.inf)
    norm_worst = float(norm.max())

    csv = (cfg, "i,x,closed,series,printed,closed_minus_series,printed_minus_series", rows)
    if worst > _ORACLE_RTOL:
        i, at = divmod(int(rel.argmax()), len(xs))
        fail = f"closed-vs-series i={i} x={_fmt(float(xs[at]))} rel={_fmt(worst)} tol={_fmt(_ORACLE_RTOL)}"
        return (*csv, fail, None)
    if norm_worst > _NORM_TOL:
        x = float(xs[norm.argmax()])
        fail = f"normalisation x={_fmt(x)} residual={_fmt(norm_worst)} tol={_fmt(_NORM_TOL)}"
        return (*csv, fail, None)
    summary = "moments: closed vs series max rel %.3g over %d rows; normalisation residual %.3g"
    return (*csv, None, summary % (worst, len(rows), norm_worst))


def _run_converge(res: dict) -> tuple:
    sched = _spec(ScheduleSpec, "schedule", res["schedule"])
    fam = _spec(family_from_spec, "family", res["family"])
    ns = sorted(set(_as_int_list(res["ns"], "ns")))  # the errors must fall along n, in any listed order
    lo, hi, pts = _parse_grid(res["grid"])
    ops = sched.operators(ns, fam)
    eff = clip_grid_for(ops, GridSpec(lo, 1e30 if hi is None else hi, pts))
    if hi is None:
        # auto: pull in the extra safety margin like the other commands do
        eff = GridSpec(eff.x_lo, _AUTO_MARGIN * eff.x_hi, pts)
    table = korovkin_table(ops, eff)

    cfg = {
        "schedule": sched.kind,
        "family": fam.name,
        "ns": ",".join(str(n) for n in ns),
        "grid": "%s:%s:%d" % (_fmt(eff.x_lo), _fmt(eff.x_hi), pts),
    }
    rows = ["%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % row for row in table]
    csv = (cfg, "n,q_n,b_n,bn_over_nq,error_v0,error_v1,error_v2", rows)

    err0 = [row[4] for row in table]
    if max(err0) > 1e-10:
        return (*csv, f"error_v0 max={_fmt(max(err0))} tol=1e-10", None)
    if sched.kind == "smooth":
        for v, col in ((1, 5), (2, 6)):
            errs = [row[col] for row in table]
            flat = all(e <= 1e-10 for e in errs)
            decreasing = all(b < a for a, b in zip(errs, errs[1:]))
            if not (flat or decreasing):
                fail = f"error_v{v} not strictly decreasing: " + ",".join(_fmt(e) for e in errs)
                return (*csv, fail, None)
    return (*csv, None, f"converge: {len(table)} rows on grid [{_fmt(eff.x_lo)}, {_fmt(eff.x_hi)}]")


def _run_rates(res: dict) -> tuple:
    f = _spec(preset_function, "function", res["function"])
    op, grid, cfg = _operator_and_grid(res)
    f_lo = _as_float(res["f_lo"], "f_lo") if res["f_lo"] is not None else grid.x_lo
    f_hi = _as_float(res["f_hi"], "f_hi") if res["f_hi"] is not None else grid.x_hi
    if res["alpha"] is not None:
        alpha = _as_float(res["alpha"], "alpha", lo=0.0)
    elif f.lip is not None:
        alpha = f.lip[1]
    else:
        alpha = 0.5

    tol = cfg["tol"]
    reports = [check_rate_theorem(op, f, grid, tol)]
    if f.lip is not None:
        reports.append(check_lipschitz_theorem(op, f, f_lo, f_hi, grid, tol))
    reports.append(check_maximal_theorem(op, f, alpha, grid, tol))

    cfg.update(function=f.name, f_lo=f_lo, f_hi=f_hi, alpha=alpha)
    rows = [
        "%s,%.17g,%.17g,%.17g,%.17g" % (rep.name, x, l, r, m)
        for rep in reports
        for x, l, r, m in zip(rep.xs, rep.lhs, rep.rhs, rep.margins)
    ]
    for rep in reports:
        rows.append(
            "# summary name=%s sup_lhs=%.17g sup_ratio=%.17g passed=%s"
            % (rep.name, rep.sup_lhs, rep.sup_ratio, rep.passed)
        )
    csv = (cfg, "theorem,x,lhs,rhs,margin", rows)

    for rep in reports:
        if not rep.passed:
            return (*csv, f"theorem={rep.name} min_margin={_fmt(float(rep.margins.min()))}", None)
    return (*csv, None, f"rates: {len(reports)} certificates pass ({', '.join(r.name for r in reports)})")


def _run_local(res: dict) -> tuple:
    f = _spec(preset_function, "function", res["function"])
    op, grid, cfg = _operator_and_grid(res)
    rep = check_local_theorem(op, f, grid, cfg["tol"])

    cfg["function"] = f.name
    rows = [
        "%.17g,%.17g,%.17g,%.17g" % (x, l, r, m)
        for x, l, r, m in zip(rep.xs, rep.lhs, rep.rhs, rep.margins)
    ]
    keys = ("k_hat", "phi_n", "phi_n_printed", "second_modulus", "shift_modulus", "shift_sup")
    extras = " ".join("%s=%.17g" % (k, rep.extras[k]) for k in keys)
    rows.append(f"# summary {extras} passed={rep.passed}")
    csv = (cfg, "x,lhs,rhs,margin", rows)

    if not rep.passed:
        return (*csv, f"min_margin={_fmt(float(rep.margins.min()))}", None)
    if rep.extras["k_hat"] > 10.0:
        return (*csv, f"k_hat={_fmt(rep.extras['k_hat'])} limit=10", None)
    return (*csv, None, "local: k_hat=%.6g, certificate passes" % rep.extras["k_hat"])


def _run_statdemo(res: dict) -> tuple:
    sched = _spec(ScheduleSpec, "schedule", res["schedule"])
    horizons = _as_int_list(res["Ns"], "Ns")
    eps = _as_float(res["eps"], "eps", lo=0.0)

    table = [
        (
            N,
            math.isqrt(N),
            sched.exceptional_count(eps, N),
            sched.max_dev(1, N),
            sched.max_dev(N // 2 + 1, N),
        )
        for N in horizons
    ]

    cfg = {
        "schedule": sched.kind,
        "Ns": ",".join(str(N) for N in horizons),
        "eps": eps,
    }
    rows = [
        "%d,%.17g,%.17g,%.17g,%.17g" % (N, squares / N, exc / N, sup_dev, tail_dev)
        for N, squares, exc, sup_dev, tail_dev in table
    ]
    csv = (cfg, "N,density_squares,exceptional_density,sup_dev,tail_dev", rows)

    # |q_k - 1| = k^(-1/2) off the squares, so at most ceil(1/eps^2) indices
    # reach eps there, plus every square on the spiky schedule.  Rounding
    # 1 - k^(-1/2) moves a deviation by about 2^-53, which lets fewer than
    # 2^-50/eps^3 more indices through; that term is 0 unless eps < 1e-5.
    cut = 1.0 / eps / eps  # eps**2 overflows, or underflows to 0, at extreme eps
    spiky = sched.kind == "spiky"
    for N, squares, exc, sup_dev, tail_dev in table:
        if N == 10**6 and squares / N != 0.001:
            return (*csv, f"density_squares(1e6)={_fmt(squares / N)} expected=0.001", None)
        slack = math.floor(min(cut / eps * 2.0**-50, N))
        envelope = min(N, math.ceil(min(cut, N)) + slack + (squares if spiky else 0))
        if exc > envelope:
            return (*csv, f"exceptional count N={N} count={exc} envelope={envelope}", None)
    if spiky and any(row[3] < 0.4 for row in table):
        return (*csv, "sup_dev dropped below 0.4", None)
    return (*csv, None, f"statdemo: {len(table)} horizons, checks pass")


# Each command's runner and flag defaults.  A runner parses its resolved flags,
# computes, and returns (cfg, header, rows, failure, summary): the config echoed
# in the comment line, the CSV header, the data and `# summary` lines, the text
# after `FAIL <command> ` (None when every check passes), and the status line.
_COMMANDS = {
    "identities": (_run_identities, {"q": "0.5,0.8,0.95", "points": "100", "tol": "1e-12"}),
    "moments": (_run_moments, _operator_flags("0.8", "10", "affine", "0:auto:41")),
    "converge": (
        _run_converge,
        {"schedule": "smooth", "family": "affine", "ns": "16,64,256,1024", "grid": "0:1:101"},
    ),
    "rates": (
        _run_rates,
        _operator_flags(
            "0.95", "100", "one", "0:2:81", function="abspow:0.5:1", f_lo=None, f_hi=None, alpha=None
        ),
    ),
    "local": (_run_local, _operator_flags("0.95", "100", "one", "0:1:81", function="sin")),
    "statdemo": (
        _run_statdemo,
        {"schedule": "spiky", "Ns": "1000,10000,100000,1000000", "eps": "0.1"},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qapprox",
        description="Numerical experiments for q-exponential summation operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help=_FLAG_HELP["config"])
        for key in _flags(command):
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None, help=_FLAG_HELP[key])
    return parser


# built once: parse_args keeps no state between calls
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        res = _resolve(args)
        cfg, header, rows, failure, summary = _COMMANDS[args.command][0](res)
        cfg["out"] = res["out"] or "-"
        pairs = " ".join(f"{k}={_fmt(cfg[k])}" for k in sorted(cfg))
        text = "\n".join([f"# command={args.command} {pairs}", header, *rows]) + "\n"
        if cfg["out"] != "-":
            try:
                with open(res["out"], "w", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {res['out']}: {exc}") from exc
        else:
            sys.stdout.write(text)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except TruncationCapError as exc:
        print(f"truncation cap: {exc}", file=sys.stderr)
        return 4
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if failure is not None:
        print(f"FAIL {args.command} {failure}")
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
