"""End-to-end acceptance run: one check per shipped guarantee.

Each test prints exactly one verdict line of the form

    [criterion NN] PASS|FAIL <detail>

before asserting, so the verdict is visible in captured output whether or
not the assertion holds.
"""

import functools
import math

import numpy as np

from qapprox.analysis import (
    GridSpec,
    check_lipschitz_theorem,
    check_local_theorem,
    check_maximal_theorem,
    check_rate_theorem,
)
from qapprox.appell import family_by_name, identity_residuals
from qapprox.cli import main as cli_main
from qapprox.operators import (
    TargetFunction,
    as_target,
    auxiliary_evaluate,
    central_moment2,
    classical_evaluate,
    evaluate,
    make_operator,
    moment_closed,
    moment_closed_uncorrected,
    moment_series,
    preset_function,
    shift_term,
)
from qapprox.statconv import (
    ScheduleSpec,
    is_perfect_square,
    korovkin_table,
    natural_density,
    st_limit_verify,
)

QS = (0.5, 0.8, 0.95)
NS = (5, 10, 20, 40)
FAMS = ("one", "affine", "quad")


def _verdict(num, ok, detail):
    print("[criterion %02d] %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _central_moment(op, x, p):
    """mu_p(x) = L_n((t - x)^p; x), using |t - x|^p <= p! e^x e^t for t, x >= 0."""
    g = TargetFunction(
        lambda t: (t - x) ** p, "mu%d" % p, growth=(math.factorial(p) * math.exp(x), 1.0)
    )
    return evaluate(op, g, x)


@functools.lru_cache(maxsize=None)
def _identities(q):
    """The library's identity rows at q, 100 points per q-calculus identity
    and 20 per weight sum, keyed by (name, family)."""
    return {(row.name, row.family): row.residual for row in identity_residuals(q, 100)}


def test_criterion_01_q_calculus_identities():
    rules = ("product_rule", "product_rule_alt", "deriv_eq_exp", "deriv_Eq_exp")
    worst_recip = max(_identities(q)[("eq_times_Eq_neg", "-")] for q in QS)
    worst_rule = max(_identities(q)[(name, "-")] for q in QS for name in rules)
    ok = worst_recip <= 1e-10 and worst_rule <= 1e-9
    _verdict(
        1, ok, f"reciprocal residual {worst_recip:.3e} (tol 1e-10), "
        f"rule residual {worst_rule:.3e} (tol 1e-9)"
    )


def test_criterion_02_generating_identities():
    sums = ("weight_sum", "weight_sum_first", "weight_sum_second")
    worst = max(_identities(q)[(name, fam)] for q in QS for fam in FAMS for name in sums)
    ok = worst <= 1e-9
    _verdict(2, ok, f"weight-sum residual {worst:.3e} over 3 sums x 3 families x 3 q x 20 y (tol 1e-9)")


def test_criterion_03_moment_oracle_and_fidelity():
    worst_closed = 0.0
    worst_gap_dev = 0.0
    printed_breaks_oracle = False
    for q in QS:
        for n in NS:
            for fam_name in FAMS:
                op = make_operator(n, q, math.sqrt(n), fam_name)
                s = op.scale
                for x in np.linspace(0.0, op.x_max * 0.999, 20):
                    x = float(x)
                    for i in (0, 1, 2):
                        ser = moment_series(op, i, x)
                        worst_closed = max(
                            worst_closed, _rel(moment_closed(op, i, x), ser)
                        )
                    if fam_name == "one":
                        ser2 = moment_series(op, 2, x)
                        printed = moment_closed_uncorrected(op, 2, x)
                        if _rel(printed, ser2) > 1e-9:
                            printed_breaks_oracle = True
                        gap = x * s - (1.0 - q) * x * x
                        worst_gap_dev = max(
                            worst_gap_dev, abs((ser2 - printed) - gap)
                        )
    ok = worst_closed <= 1e-9 and printed_breaks_oracle and worst_gap_dev <= 1e-9
    _verdict(
        3, ok,
        f"corrected-vs-series {worst_closed:.3e} (tol 1e-9); "
        f"printed form breaks oracle={printed_breaks_oracle}; "
        f"discrepancy-identity deviation {worst_gap_dev:.3e} (tol 1e-9)"
    )


def test_criterion_04_operator_axioms():
    e0 = preset_function("e0")
    e1 = preset_function("e1")
    fsin = preset_function("sin")
    fneg = preset_function("expneg")
    rng = np.random.default_rng(20260821)
    worst_const = worst_aux = worst_lin = 0.0
    min_pos = min_mono = min_mu2 = math.inf
    for q in QS:
        for n in NS:
            for fam_name in FAMS:
                op = make_operator(n, q, math.sqrt(n), fam_name)
                a = float(rng.uniform(-2.0, 2.0))
                b = float(rng.uniform(-2.0, 2.0))
                h = as_target(lambda t, a=a, b=b: a * t + b * math.sin(t))
                for x in np.linspace(0.0, op.x_max * 0.999, 20):
                    x = float(x)
                    ve0 = evaluate(op, e0, x)
                    worst_const = max(worst_const, abs(ve0 - 1.0))
                    worst_aux = max(
                        worst_aux, abs(auxiliary_evaluate(op, e1, x) - x)
                    )
                    vneg = evaluate(op, fneg, x)
                    min_pos = min(min_pos, vneg)
                    min_mono = min(min_mono, ve0 + 1e-12 - vneg)
                    combo = a * evaluate(op, e1, x) + b * evaluate(op, fsin, x)
                    worst_lin = max(
                        worst_lin,
                        abs(evaluate(op, h, x) - combo) / max(1.0, abs(combo)),
                    )
                    min_mu2 = min(min_mu2, central_moment2(op, x))
    ok = (
        worst_const <= 1e-10
        and worst_aux <= 1e-10
        and worst_lin <= 1e-10
        and min_pos >= -1e-12
        and min_mono >= 0.0
        and min_mu2 >= -1e-12
    )
    _verdict(
        4, ok,
        f"const {worst_const:.2e}, aux-linear {worst_aux:.2e}, "
        f"linearity {worst_lin:.2e} (all tol 1e-10); positivity min {min_pos:.2e}, "
        f"monotonicity slack min {min_mono:.2e}, mu2 min {min_mu2:.2e}"
    )


def test_criterion_05_classical_limit_trend():
    fsin = preset_function("sin")
    bn = math.sqrt(30)
    ok = True
    detail = []
    for x in (0.25, 0.5, 1.0):
        devs = []
        for q in (0.9, 0.99, 0.999, 0.9999):
            op = make_operator(30, q, bn, "one")
            devs.append(
                abs(evaluate(op, fsin, x) - classical_evaluate(30, bn, fsin, x))
            )
        ok = ok and all(d0 > d1 for d0, d1 in zip(devs, devs[1:]))
        detail.append("x=%g:%.2e->%.2e" % (x, devs[0], devs[-1]))
    _verdict(5, ok, "deviation strictly decreasing along q: " + " ".join(detail))


def test_criterion_06_korovkin_convergence():
    rows = korovkin_table(
        ScheduleSpec("smooth"),
        family_by_name("affine"),
        (16, 64, 256, 1024),
        GridSpec(0.0, 1.0, 101),
    )
    ratio = [r[3] for r in rows]
    v1 = [r[5] for r in rows]
    v2 = [r[6] for r in rows]
    ok = (
        all(b < a for a, b in zip(v1, v1[1:]))
        and all(b < a for a, b in zip(v2, v2[1:]))
        and all(b < a for a, b in zip(ratio, ratio[1:]))
        and ratio[-1] < 0.2
    )
    _verdict(
        6, ok,
        f"e1 errors {['%.4f' % v for v in v1]}, e2 errors {['%.4f' % v for v in v2]}, "
        f"node scale at 1024 = {ratio[-1]:.4f} (< 0.2)"
    )


def test_criterion_07_rate_theorems():
    f = preset_function("abspow:0.5:1")
    grid = GridSpec(0.0, 2.0, 81)
    count = 0
    worst = math.inf
    all_pass = True
    for n in (50, 200):
        for q in (0.9, 0.97):
            for fam in ("one", "affine"):
                op = make_operator(n, q, math.sqrt(n), fam)
                reports = (
                    check_rate_theorem(op, f, grid),
                    check_lipschitz_theorem(op, f, 0.0, 2.0, grid),
                    check_maximal_theorem(op, f, 0.5, grid),
                )
                for rep in reports:
                    count += 1
                    all_pass = all_pass and rep.passed
                    worst = min(worst, float(np.min(rep.margins)))
    ok = all_pass and count == 24
    _verdict(7, ok, f"{count} bound reports, worst margin {worst:+.4f}")


def test_criterion_08_local_theorem():
    fsin = preset_function("sin")
    sched = ScheduleSpec("smooth")
    grid = GridSpec(0.0, 1.0, 81)
    khats, k4s, bands = [], [], []
    all_pass = True
    shift_free_dev = 0.0
    for n in (16, 64, 256, 1024):
        op = make_operator(n, sched.q_at(n), sched.b_at(n), "one")
        rep = check_local_theorem(op, fsin, grid)
        all_pass = all_pass and rep.passed
        khats.append(rep.extras["k_hat"])
        reduced = rep.extras["k_hat"] * rep.extras["second_modulus"]
        shift_free_dev = max(
            shift_free_dev, float(np.max(np.abs(rep.rhs - reduced)))
        )
        # Taylor to fourth order, |sin''''| <= 1 and positivity give, at each x,
        #   | lhs - |cos x mu_1 - sin x mu_2 / 2 - cos x mu_3 / 6| | <= mu_4 / 24;
        # the family has no shift, so k_hat = sup lhs / second_modulus and
        # |k_hat - K4| <= B follows from the sups of both sides.
        xs = [float(x) for x in rep.xs]
        taylor = max(
            abs(
                math.cos(x) * shift_term(op, x)
                - 0.5 * math.sin(x) * central_moment2(op, x)
                - math.cos(x) * _central_moment(op, x, 3) / 6.0
            )
            for x in xs
        )
        remainder = max(_central_moment(op, x, 4) for x in xs) / 24.0
        k4s.append(taylor / rep.extras["second_modulus"])
        bands.append(remainder / rep.extras["second_modulus"])
    # no monotonicity in n is asserted: theory promises none, and here k_hat
    # tends to sin(1) d^2 / (8 sin^2(d/2) sin(1 + d)), d = sqrt(phi_n), which
    # rises toward 1/2 as phi_n falls
    in_band = all(
        abs(k - k4) <= b + 1e-9 * max(1.0, k4 + b)
        for k, k4, b in zip(khats, k4s, bands)
    )
    bounded = max(khats) <= 10.0
    ok = all_pass and bounded and in_band and shift_free_dev <= 1e-12
    _verdict(
        8, ok,
        f"k_hat {['%.4f' % k for k in khats]} (<= 10: {bounded}); "
        f"Taylor K4 {['%.4f' % k for k in k4s]}, band B {['%.4f' % b for b in bands]} "
        f"(|k_hat - K4| <= B: {in_band}); shift-free rhs deviation {shift_free_dev:.2e}"
    )


def test_criterion_09_statistical_machinery():
    dens = natural_density(is_perfect_square, 1_000_000)
    sched = ScheduleSpec("spiky")
    seq = lambda k: sched.q_at(k)
    est = st_limit_verify(seq, 1.0, 0.1, 1_000_000)
    shrinking = [
        st_limit_verify(seq, 1.0, 0.1, N) for N in (1000, 10_000, 100_000, 1_000_000)
    ]
    # late window: the square-indexed dip never dies out, so no ordinary limit
    sup_dev = max(abs(seq(k) - 1.0) for k in range(1001, 2001))
    ok = (
        dens == 0.001
        and abs(est - 0.001) <= 1e-4
        and all(b <= a for a, b in zip(shrinking, shrinking[1:]))
        and sup_dev >= 0.4
    )
    _verdict(
        9, ok,
        f"square density {dens} (exact); exceptional estimate {est} "
        f"(|est-0.001| <= 1e-4); density trail {shrinking}; sup deviation {sup_dev}"
    )


def test_criterion_10_cli_determinism(tmp_path):
    ok = True
    for cmd in ("identities", "moments", "converge", "rates", "local", "statdemo"):
        out = tmp_path / "det.csv"
        rc1 = cli_main([cmd, "--out", str(out)])
        first = out.read_bytes()
        rc2 = cli_main([cmd, "--out", str(out)])
        ok = ok and rc1 == 0 and rc2 == 0 and out.read_bytes() == first
    _verdict(10, ok, "all six commands byte-identical across repeat runs")
