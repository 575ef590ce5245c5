"""Experiment-running command line interface.

Subcommands: identities (q-calculus and weight-sum identity residuals),
moments (closed form vs series vs weaker-form three-way table), converge
(weighted convergence curves along a schedule), rates (pointwise rate
certificates), local (second-modulus certificate with its empirical
constant), statdemo (density and statistical-limit tables).  Every command
emits a CSV whose first line is a comment holding the fully resolved
configuration; identical configurations produce byte-identical files.

Exit codes: 0 all checks pass, 1 a numeric invariant failed (a FAIL line is
printed), 2 configuration problem, 3 domain violation, 4 series cap hit.
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
from .appell import FAMILIES, family_from_spec, family_functionals, moment_sum
from .errors import ConfigError, DomainError, EvaluationError, TruncationCapError
from .operators import (
    TruncationPolicy,
    make_operator,
    moment_closed,
    moment_closed_uncorrected,
    moment_series,
    preset_function,
)
from .qcore import Eq_exp, as_qvalue, eq_exp, q_derivative
from .statconv import (
    ScheduleSpec,
    clip_grid_for,
    korovkin_table,
)

_ORACLE_RTOL = 1e-9
# an `auto` grid top stops this fraction of the way to the guarded x_max
_AUTO_MARGIN = 0.95

_DEFAULTS = {
    "identities": {"q": "0.5,0.8,0.95", "points": "100", "tol": "1e-12", "out": None},
    "moments": {
        "q": "0.8",
        "n": "10",
        "bn": "sqrt",
        "family": "affine",
        "grid": "0:auto:41",
        "tol": "1e-12",
        "out": None,
    },
    "converge": {
        "schedule": "smooth",
        "family": "affine",
        "ns": "16,64,256,1024",
        "grid": "0:1:101",
        "out": None,
    },
    "rates": {
        "q": "0.95",
        "n": "100",
        "bn": "sqrt",
        "family": "one",
        "function": "abspow:0.5:1",
        "grid": "0:2:81",
        "f_lo": None,
        "f_hi": None,
        "alpha": None,
        "tol": "1e-12",
        "out": None,
    },
    "local": {
        "q": "0.95",
        "n": "100",
        "bn": "sqrt",
        "family": "one",
        "function": "sin",
        "grid": "0:1:81",
        "tol": "1e-12",
        "out": None,
    },
    "statdemo": {
        "schedule": "spiky",
        "Ns": "1000,10000,100000,1000000",
        "eps": "0.1",
        "out": None,
    },
}

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
    "out": "CSV output path (stdout when omitted)",
    "config": "key=value file; command-line flags override it",
}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _comment(command: str, cfg: dict) -> str:
    pairs = " ".join(f"{k}={_fmt(cfg[k])}" for k in sorted(cfg))
    return f"# command={command} {pairs}"


def _emit(out_path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _resolve(args: argparse.Namespace) -> dict:
    """File < flag precedence, then fall back to the command's defaults."""
    defaults = _DEFAULTS[args.command]
    file_vals = _read_config_file(args.config) if args.config else {}
    for key in file_vals:
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {args.command}")
    resolved = {}
    for key, dflt in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_vals:
            resolved[key] = file_vals[key]
        else:
            resolved[key] = dflt
    return resolved


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


def _as_q(raw: str) -> float:
    return _as_float(raw, "q", lo=0.0, hi=1.0)


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


def _family(spec: str):
    try:
        return family_from_spec(spec)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad family {spec!r}: {exc}") from exc


def _function(spec: str):
    try:
        return preset_function(spec)
    except ValueError as exc:
        raise ConfigError(f"bad function {spec!r}: {exc}") from exc


def _schedule(spec: str) -> ScheduleSpec:
    try:
        return ScheduleSpec(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _operator_and_grid(res: dict) -> tuple:
    """Operator, grid and shared config entries for moments, rates and local."""
    q = _as_q(res["q"])
    n = _as_int(res["n"], "n")
    bn = _resolve_bn(res["bn"], n)
    fam = _family(res["family"])
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
        "out": res["out"] or "-",
    }
    return op, GridSpec(lo, hi, pts), cfg


def _fail(name: str, detail: str) -> int:
    print(f"FAIL {name} {detail}")
    return 1


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------- identities


def _run_identities(res: dict) -> int:
    qs = [_as_q(p) for p in res["q"].split(",") if p.strip()]
    if not qs:
        raise ConfigError(f"no q values in {res['q']!r}")
    pts = _as_int(res["points"], "points", lo=2)
    tol = _as_float(res["tol"], "tol", lo=0.0)
    rows = []
    worst_fail = None

    def record(identity, family, q, npts, resid, bound):
        nonlocal worst_fail
        ok = resid <= bound
        rows.append(
            "%s,%s,%.17g,%d,%.17g,%.17g,%s"
            % (identity, family, q, npts, resid, bound, "pass" if ok else "FAIL")
        )
        if not ok and worst_fail is None:
            worst_fail = (identity, q, resid, bound)

    for q in qs:
        qv = as_qvalue(q)
        radius = qv.radius
        xs = np.linspace(0.0, 0.9 * radius, pts)

        r = max(abs(eq_exp(x, qv, tol) * Eq_exp(-x, qv, tol) - 1.0) for x in xs)
        record("eq_times_Eq_neg", "-", q, pts, r, 1e-10)

        f = lambda t: math.sin(t + 0.3)
        g = lambda t: t * t + 0.5
        fg = lambda t: f(t) * g(t)
        xs_pr = np.linspace(0.05, 2.0, pts)
        r_a = r_b = 0.0
        for x in xs_pr:
            x = float(x)
            lhs = q_derivative(fg, x, qv)
            df = q_derivative(f, x, qv)
            dg = q_derivative(g, x, qv)
            r_a = max(r_a, _rel(lhs, f(q * x) * dg + g(x) * df))
            r_b = max(r_b, _rel(lhs, f(x) * dg + g(q * x) * df))
        record("product_rule", "-", q, pts, r_a, 1e-9)
        record("product_rule_alt", "-", q, pts, r_b, 1e-9)

        a = 0.5
        e_small = lambda t: eq_exp(a * t, qv, tol)
        e_large = lambda t: Eq_exp(a * t, qv, tol)
        r_d1 = max(
            _rel(q_derivative(e_small, float(x), qv), a * e_small(float(x)))
            for x in xs
        )
        r_d2 = max(
            _rel(q_derivative(e_large, float(x), qv), a * e_large(q * float(x)))
            for x in xs
        )
        record("deriv_eq_exp", "-", q, pts, r_d1, 1e-9)
        record("deriv_Eq_exp", "-", q, pts, r_d2, 1e-9)

        for fam_name in sorted(FAMILIES):
            fam = family_from_spec(fam_name)
            fns = family_functionals(fam, qv)
            ys = np.linspace(0.0, 0.9 * radius, 20)
            r0 = r1 = r2 = 0.0
            for y in ys:
                y = float(y)
                ey = eq_exp(y, qv, tol)
                eqy = eq_exp(qv.q * y, qv, tol)
                eq2y = eq_exp(qv.q * qv.q * y, qv, tol)
                r0 = max(r0, _rel(moment_sum(fam, y, qv, 0, tol), fns.A1 * ey))
                r1 = max(
                    r1,
                    _rel(
                        moment_sum(fam, y, qv, 1, tol),
                        fns.A1 * y * ey + fns.DqA1 * eqy,
                    ),
                )
                r2 = max(
                    r2,
                    _rel(
                        moment_sum(fam, y, qv, 2, tol),
                        qv.q * eq2y * fns.Dq2A1
                        + (qv.q * (qv.q + 1.0) * y + 1.0) * eqy * fns.DqA1
                        + (qv.q * y * y + y) * fns.A1 * ey,
                    ),
                )
            record("weight_sum", fam_name, q, 20, r0, 1e-9)
            record("weight_sum_first", fam_name, q, 20, r1, 1e-9)
            record("weight_sum_second", fam_name, q, 20, r2, 1e-9)

    cfg = {"q": res["q"], "points": pts, "tol": tol, "out": res["out"] or "-"}
    lines = [_comment("identities", cfg)]
    lines.append("identity,family,q,points,max_residual,tolerance,status")
    lines.extend(rows)
    _emit(res["out"], lines)
    if worst_fail:
        ident, q, resid, bound = worst_fail
        return _fail(
            "identities", f"identity={ident} q={_fmt(q)} residual={_fmt(resid)} tol={_fmt(bound)}"
        )
    print(f"identities: {len(rows)} checks, all within tolerance")
    return 0


# ------------------------------------------------------------------- moments


def _run_moments(res: dict) -> int:
    op, grid, cfg = _operator_and_grid(res)
    tol = cfg["tol"]

    rows = []
    worst = (0.0, None)
    for i in (0, 1, 2):
        for x in grid.xs():
            x = float(x)
            closed = moment_closed(op, i, x)
            series = moment_series(op, i, x, tol)
            printed = moment_closed_uncorrected(op, i, x)
            rows.append(
                "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
                % (i, x, closed, series, printed, closed - series, printed - series)
            )
            # a non-finite row must fail the scan, not slip past every `>`
            finite = math.isfinite(closed) and math.isfinite(series)
            r = _rel(closed, series) if finite else math.inf
            if r > worst[0]:
                worst = (r, (i, x))

    lines = [_comment("moments", cfg)]
    lines.append("i,x,closed,series,printed,closed_minus_series,printed_minus_series")
    lines.extend(rows)
    _emit(res["out"], lines)
    if worst[0] > _ORACLE_RTOL:
        i, x = worst[1]
        return _fail(
            "moments",
            f"closed-vs-series i={i} x={_fmt(x)} rel={_fmt(worst[0])} tol={_fmt(_ORACLE_RTOL)}",
        )
    print(
        "moments: closed vs series max rel %.3g over %d rows" % (worst[0], len(rows))
    )
    return 0


# ------------------------------------------------------------------ converge


def _run_converge(res: dict) -> int:
    sched = _schedule(res["schedule"])
    fam = _family(res["family"])
    ns = _as_int_list(res["ns"], "ns")
    lo, hi, pts = _parse_grid(res["grid"])
    if hi is None:
        base = GridSpec(lo, 1e30, pts)
    else:
        base = GridSpec(lo, hi, pts)
    eff = clip_grid_for(sched, ns, base)
    if hi is None:
        # auto: pull in the extra safety margin like the other commands do
        eff = GridSpec(eff.x_lo, _AUTO_MARGIN * eff.x_hi, pts)
    table = korovkin_table(sched, fam, ns, eff)

    cfg = {
        "schedule": sched.kind,
        "family": fam.name,
        "ns": ",".join(str(n) for n in ns),
        "grid": "%s:%s:%d" % (_fmt(eff.x_lo), _fmt(eff.x_hi), pts),
        "out": res["out"] or "-",
    }
    lines = [_comment("converge", cfg)]
    lines.append("n,q_n,b_n,bn_over_nq,error_v0,error_v1,error_v2")
    for row in table:
        lines.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % row)
    _emit(res["out"], lines)

    err0 = [row[4] for row in table]
    if max(err0) > 1e-10:
        return _fail("converge", f"error_v0 max={_fmt(max(err0))} tol=1e-10")
    if sched.kind == "smooth":
        for v, col in ((1, 5), (2, 6)):
            errs = [row[col] for row in table]
            flat = all(e <= 1e-10 for e in errs)
            decreasing = all(b < a for a, b in zip(errs, errs[1:]))
            if not (flat or decreasing):
                return _fail(
                    "converge",
                    f"error_v{v} not strictly decreasing: "
                    + ",".join(_fmt(e) for e in errs),
                )
    print(f"converge: {len(table)} rows on grid [{_fmt(eff.x_lo)}, {_fmt(eff.x_hi)}]")
    return 0


# --------------------------------------------------------------------- rates


def _run_rates(res: dict) -> int:
    f = _function(res["function"])
    op, grid, cfg = _operator_and_grid(res)
    f_lo = _as_float(res["f_lo"], "f_lo") if res["f_lo"] is not None else grid.x_lo
    f_hi = _as_float(res["f_hi"], "f_hi") if res["f_hi"] is not None else grid.x_hi
    if res["alpha"] is not None:
        alpha = _as_float(res["alpha"], "alpha", lo=0.0)
    elif f.lip is not None:
        alpha = f.lip[1]
    else:
        alpha = 0.5

    trunc = TruncationPolicy(tol=cfg["tol"])
    reports = [check_rate_theorem(op, f, grid, trunc)]
    if f.lip is not None:
        reports.append(check_lipschitz_theorem(op, f, f_lo, f_hi, grid, trunc))
    reports.append(check_maximal_theorem(op, f, alpha, grid, trunc))

    cfg.update(function=f.name, f_lo=f_lo, f_hi=f_hi, alpha=alpha)
    lines = [_comment("rates", cfg)]
    lines.append("theorem,x,lhs,rhs,margin")
    for rep in reports:
        for x, l, r, m in zip(rep.xs, rep.lhs, rep.rhs, rep.margins):
            lines.append("%s,%.17g,%.17g,%.17g,%.17g" % (rep.name, x, l, r, m))
    for rep in reports:
        lines.append(
            "# summary name=%s sup_lhs=%.17g sup_ratio=%.17g passed=%s"
            % (rep.name, rep.sup_lhs, rep.sup_ratio, rep.passed)
        )
    _emit(res["out"], lines)

    for rep in reports:
        if not rep.passed:
            return _fail(
                "rates",
                f"theorem={rep.name} min_margin={_fmt(float(np.min(rep.margins)))}",
            )
    print(f"rates: {len(reports)} certificates pass ({', '.join(r.name for r in reports)})")
    return 0


# --------------------------------------------------------------------- local


def _run_local(res: dict) -> int:
    f = _function(res["function"])
    op, grid, cfg = _operator_and_grid(res)
    rep = check_local_theorem(op, f, grid, TruncationPolicy(tol=cfg["tol"]))

    cfg["function"] = f.name
    lines = [_comment("local", cfg)]
    lines.append("x,lhs,rhs,margin")
    for x, l, r, m in zip(rep.xs, rep.lhs, rep.rhs, rep.margins):
        lines.append("%.17g,%.17g,%.17g,%.17g" % (x, l, r, m))
    lines.append(
        "# summary k_hat=%.17g phi_n=%.17g phi_n_printed=%.17g second_modulus=%.17g "
        "shift_modulus=%.17g shift_sup=%.17g passed=%s"
        % (
            rep.extras["k_hat"],
            rep.extras["phi_n"],
            rep.extras["phi_n_printed"],
            rep.extras["second_modulus"],
            rep.extras["shift_modulus"],
            rep.extras["shift_sup"],
            rep.passed,
        )
    )
    _emit(res["out"], lines)

    if not rep.passed:
        return _fail("local", f"min_margin={_fmt(float(np.min(rep.margins)))}")
    if rep.extras["k_hat"] > 10.0:
        return _fail("local", f"k_hat={_fmt(rep.extras['k_hat'])} limit=10")
    print("local: k_hat=%.6g, certificate passes" % rep.extras["k_hat"])
    return 0


# ------------------------------------------------------------------ statdemo


def _run_statdemo(res: dict) -> int:
    sched = _schedule(res["schedule"])
    horizons = _as_int_list(res["Ns"], "Ns")
    eps = _as_float(res["eps"], "eps", lo=0.0)

    rows = [
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
        "out": res["out"] or "-",
    }
    lines = [_comment("statdemo", cfg)]
    lines.append("N,density_squares,exceptional_density,sup_dev,tail_dev")
    for N, squares, exc, sup_dev, tail_dev in rows:
        lines.append("%d,%.17g,%.17g,%.17g,%.17g" % (N, squares / N, exc / N, sup_dev, tail_dev))
    _emit(res["out"], lines)

    # |q_k - 1| = k^(-1/2) off the squares, so at most ceil(1/eps^2) indices
    # reach eps there, plus every square on the spiky schedule.  Rounding
    # 1 - k^(-1/2) moves a deviation by about 2^-53, which lets fewer than
    # 2^-50/eps^3 more indices through; that term is 0 unless eps < 1e-5.
    cut = 1.0 / eps / eps  # eps**2 overflows, or underflows to 0, at extreme eps
    spiky = sched.kind == "spiky"
    for N, squares, exc, sup_dev, tail_dev in rows:
        if N == 10**6 and squares / N != 0.001:
            return _fail("statdemo", f"density_squares(1e6)={_fmt(squares / N)} expected=0.001")
        slack = math.floor(min(cut / eps * 2.0**-50, N))
        envelope = min(N, math.ceil(min(cut, N)) + slack + (squares if spiky else 0))
        if exc > envelope:
            return _fail("statdemo", f"exceptional count N={N} count={exc} envelope={envelope}")
    if spiky and any(row[3] < 0.4 for row in rows):
        return _fail("statdemo", "sup_dev dropped below 0.4")
    print(f"statdemo: {len(rows)} horizons, checks pass")
    return 0


_RUNNERS = {
    "identities": _run_identities,
    "moments": _run_moments,
    "converge": _run_converge,
    "rates": _run_rates,
    "local": _run_local,
    "statdemo": _run_statdemo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qapprox",
        description="Numerical experiments for q-exponential summation operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help=_FLAG_HELP["config"])
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None, help=_FLAG_HELP.get(key, ""))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _resolve(args)
        return _RUNNERS[args.command](resolved)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except TruncationCapError as exc:
        print(f"truncation cap: {exc}", file=sys.stderr)
        return 4
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
