import math
import tracemalloc

import numpy as np
import pytest

import qapprox.analysis
from qapprox.analysis import (
    BoundReport,
    GridSpec,
    SupPair,
    check_lipschitz_theorem,
    check_local_theorem,
    check_maximal_theorem,
    check_rate_theorem,
    delta_n,
    k2_estimate,
    lipschitz_maximal,
    modulus,
    phi_n,
    second_modulus,
    weighted_modulus,
)
from qapprox.errors import DomainError
from qapprox.appell import scaled_weights
from qapprox.operators import TargetFunction, as_target, evaluate, make_operator, preset_function
from qapprox.statconv import ScheduleSpec


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(-0.1, 1.0, 11)
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0, 11)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)
    g = GridSpec(0.0, 2.0, 81)
    assert g.step == pytest.approx(0.025, rel=1e-14)
    xs = g.xs()
    assert xs[0] == 0.0 and xs[-1] == 2.0 and len(xs) == 81


def test_bound_report_margins_and_pass():
    xs = np.array([0.0, 1.0])
    ok = BoundReport("demo", xs, np.array([1.0, 2.0]), np.array([1.5, 2.5]))
    assert ok.passed
    assert ok.sup_lhs == 2.0
    assert np.allclose(ok.margins, [0.5, 0.5])
    bad = BoundReport("demo", xs, np.array([1.0, 3.0]), np.array([1.5, 2.5]))
    assert not bad.passed
    # a violation smaller than 1e-9 of the rhs scale is still a pass
    edge = BoundReport("demo", xs, np.array([1.0 + 5e-10, 1.0]), np.array([1.0, 1.5]))
    assert edge.passed


def test_modulus_sin():
    grid = GridSpec(0.0, 2.0, 2001)
    fsin = preset_function("sin")
    w = modulus(fsin, 0.1, grid)
    exact = 2.0 * math.sin(0.05)
    assert w == pytest.approx(0.09983341664682815, rel=1e-12)
    assert w <= exact + 1e-12
    assert w >= exact - 2.0 * grid.step


def test_modulus_monotone_in_delta():
    grid = GridSpec(0.0, 2.0, 401)
    fsin = preset_function("sin")
    vals = [modulus(fsin, d, grid) for d in (0.05, 0.1, 0.2, 0.5)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_modulus_below_step_is_zero():
    grid = GridSpec(0.0, 2.0, 21)
    assert modulus(preset_function("sin"), 0.01, grid) == 0.0


def test_weighted_modulus_below_plain():
    grid = GridSpec(0.0, 2.0, 2001)
    fsin = preset_function("sin")
    assert weighted_modulus(fsin, 0.1, 0.0, grid) <= modulus(fsin, 0.1, grid) + 1e-15
    # heavier weight shrinks it further
    assert weighted_modulus(fsin, 0.1, 2.0, grid) <= weighted_modulus(
        fsin, 0.1, 0.0, grid
    ) + 1e-15


def test_second_modulus_vanishes_for_affine():
    aff = as_target(lambda t: 2.0 * t + 1.0)
    assert second_modulus(aff, 0.3, GridSpec(0.0, 2.0, 81)) <= 1e-12


def test_second_modulus_quadratic():
    e2 = preset_function("e2")
    got = second_modulus(e2, 0.3, GridSpec(0.0, 2.0, 81))
    assert got == pytest.approx(0.18, rel=1e-10)


def test_second_modulus_uniform_bound():
    fsin = preset_function("sin")
    assert second_modulus(fsin, 10.0, GridSpec(0.0, 2.0, 81)) <= 4.0


def test_second_modulus_memory_bounded():
    # 20001 points: one whole (64, P) sample would be 10 MB and the three of
    # them about 39 MB; the rows are sampled in chunks, with the same value
    fsin = preset_function("sin")
    grid = GridSpec(0.0, 2.0, 20001)
    xs = grid.xs()
    hs = 0.3 * np.arange(1, 65)[:, None] / 64
    whole = float(np.max(np.abs(fsin(xs + 2.0 * hs) - 2.0 * fsin(xs + hs) + fsin(xs))))
    tracemalloc.start()
    try:
        got = second_modulus(fsin, 0.3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == whole
    assert peak < 16 * 2**20


def test_grid_measures_match_scalar_loops():
    # the old per-point loops as references; numpy's array pow and sin may
    # round differently from the scalar ones, and k2_estimate's quadrature
    # sums in another order, hence the few-ulp tolerance
    grid = GridSpec(0.0, 2.0, 41)
    xs = [float(x) for x in grid.xs()]
    for f in (preset_function("sin"), preset_function("abspow:0.7:1")):
        fs = lambda t: float(f(t))
        hs = [0.3 * j / 64 for j in range(1, 65)]
        w2 = max(abs(fs(x + 2 * h) - 2 * fs(x + h) + fs(x)) for h in hs for x in xs)
        assert second_modulus(f, 0.3, grid) == pytest.approx(w2, rel=1e-14)
        lm = [max(abs(fs(t) - fs(x)) / abs(t - x) ** 0.7 for t in xs if t != x) for x in xs]
        assert lipschitz_maximal(f, 0.7, grid) == pytest.approx(lm, rel=1e-14)

        def ext(s):
            return fs(s) if s >= 0.0 else 2.0 * fs(0.0) - fs(-s)

        best = math.inf
        gh = list(zip(*np.polynomial.hermite.hermgauss(32)))
        for h in np.geomspace(0.01 / 32.0, 0.04, 16):
            g = [sum(w * ext(x + math.sqrt(2.0) * h * u) for u, w in gh) / math.sqrt(math.pi) for x in xs]
            err = max(abs(fs(x) - gx) for x, gx in zip(xs, g))
            bend = max(abs(g[i + 1] - 2 * g[i] + g[i - 1]) for i in range(1, len(g) - 1)) / grid.step**2
            best = min(best, err + 0.01 * bend)
        assert k2_estimate(f, 0.01, grid) == pytest.approx(best, rel=1e-14)


def test_lipschitz_maximal_linear():
    e1 = preset_function("e1")
    # x = 1.0 is grid index 40
    assert lipschitz_maximal(e1, 1.0, GridSpec(0.0, 2.0, 81))[40] == 1.0


def test_lipschitz_maximal_root():
    f = preset_function("abspow:0.5:1")
    got = lipschitz_maximal(f, 0.5, GridSpec(0.0, 2.0, 81))[40]
    assert got == pytest.approx(1.0, rel=1e-12)


def test_delta_phi_frozen_values():
    op = make_operator(100, 0.95, 10.0, "affine")
    grid = GridSpec(0.0, 1.0, 101)
    dn = delta_n(op, grid)
    pn = phi_n(op, grid)
    assert dn.value == pytest.approx(0.5334897097565363, rel=1e-12)
    assert dn.printed == pytest.approx(0.24520172397165063, rel=1e-12)
    assert pn.value == pytest.approx(0.5847869531701881, rel=1e-12)
    assert pn.printed == pytest.approx(0.5536501387400609, rel=1e-12)
    assert pn.value >= dn.value


def test_delta_phi_constant_symbol_algebra():
    op = make_operator(100, 0.95, 10.0, "one")
    grid = GridSpec(0.0, 1.0, 101)
    dn = delta_n(op, grid)
    pn = phi_n(op, grid)
    # no shift: the two coincide, and mu2 = x*s - (1-q)x^2 exactly
    assert dn.value == pn.value
    assert dn.printed == 0.0
    s = op.scale
    alg = max(max(0.0, float(x) * s - 0.05 * float(x) ** 2) for x in grid.xs())
    assert dn.value == pytest.approx(alg, rel=1e-12)


def test_delta_n_decreases_along_smooth_schedule():
    sched = ScheduleSpec("smooth")
    grid = GridSpec(0.0, 1.0, 101)
    vals = []
    for n in (16, 64, 256, 1024):
        op = make_operator(n, sched.q_at(n), sched.b_at(n), "one")
        vals.append(delta_n(op, grid).value)
    assert vals == pytest.approx(
        [
            0.25506203258512183,
            0.22862210610733857,
            0.18750001669501426,
            0.1455266952966383,
        ],
        rel=1e-12,
    )
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_k2_estimate_affine_near_zero():
    aff = as_target(lambda t: 2.0 * t + 1.0)
    assert k2_estimate(aff, 1e-2, GridSpec(0.0, 2.0, 81)) <= 1e-8


def test_k2_estimate_tracks_second_modulus():
    fsin = preset_function("sin")
    grid = GridSpec(0.0, 2.0, 201)
    for d in (1e-2, 1e-3):
        k2 = k2_estimate(fsin, d, grid)
        w2 = second_modulus(fsin, math.sqrt(d), grid)
        assert 0.5 <= k2 / w2 <= 2.0


def test_checkers_reject_grid_beyond_domain():
    op = make_operator(10, 0.8, 2.0, "affine")
    big = GridSpec(0.0, 5.0, 21)
    fsin = preset_function("sin")
    with pytest.raises(DomainError):
        check_rate_theorem(op, fsin, big)
    with pytest.raises(DomainError):
        check_local_theorem(op, fsin, big)


def test_rate_checker_requires_growth_certificate():
    op = make_operator(10, 0.8, 2.0, "affine")
    bare = as_target(lambda t: t / (1.0 + t))
    with pytest.raises(ValueError):
        check_rate_theorem(op, bare, GridSpec(0.0, 1.0, 11))


def test_rate_checker_linear_target_constant_symbol():
    # first moment is exact for the constant symbol, so lhs collapses
    op = make_operator(50, 0.9, math.sqrt(50), "one")
    rep = check_rate_theorem(op, preset_function("e1"), GridSpec(0.0, 1.0, 41))
    assert rep.passed
    assert rep.sup_lhs <= 1e-10


def test_rate_checker_passes_smoke():
    op = make_operator(100, 0.95, 10.0, "affine")
    rep = check_rate_theorem(op, preset_function("sin"), GridSpec(0.0, 1.0, 41))
    assert rep.passed
    assert "delta_n" in rep.extras


def test_lipschitz_checker_needs_lip_metadata():
    op = make_operator(100, 0.95, 10.0, "affine")
    with pytest.raises(ValueError):
        check_lipschitz_theorem(op, preset_function("e2"), 0.0, 1.0, GridSpec(0.0, 1.0, 11))


def test_lipschitz_checker_interval_validation():
    op = make_operator(100, 0.95, 10.0, "affine")
    f = preset_function("abspow:0.5:1")
    with pytest.raises(ValueError):
        check_lipschitz_theorem(op, f, 1.0, 0.5, GridSpec(0.0, 1.0, 11))
    with pytest.raises(ValueError):
        check_lipschitz_theorem(op, f, 0.0, op.x_max + 1.0, GridSpec(0.0, 1.0, 11))


def test_lipschitz_and_maximal_checkers_pass():
    op = make_operator(100, 0.95, 10.0, "affine")
    f = preset_function("abspow:0.5:1")
    grid = GridSpec(0.0, 2.0, 81)
    rl = check_lipschitz_theorem(op, f, 0.0, 2.0, grid)
    rm = check_maximal_theorem(op, f, 0.5, grid)
    assert rl.passed and rm.passed


def test_local_checker_frozen_k_hat():
    sched = ScheduleSpec("smooth")
    op = make_operator(16, sched.q_at(16), sched.b_at(16), "one")
    rep = check_local_theorem(op, preset_function("sin"), GridSpec(0.0, 1.0, 81))
    assert rep.passed
    assert rep.extras["k_hat"] == pytest.approx(0.3940397588794073, rel=1e-9)
    assert rep.extras["phi_n"] == pytest.approx(0.25506203258512183, rel=1e-12)
    assert rep.extras["shift_sup"] == 0.0


def test_local_checker_calls_f_once_per_node(monkeypatch):
    # the node set does not depend on x, so one grid needs f at each node once
    op = make_operator(1000, 0.99, math.sqrt(1000), "affine")
    grid = GridSpec(0.0, op.x_max, 101)
    inside, points = [False], [0]

    def counted_sin(t):
        points[0] += inside[0] * np.size(t)
        return np.sin(t)

    def counting_evaluate(*args, **kwargs):
        inside[0] = True
        try:
            return evaluate(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(qapprox.analysis, "evaluate", counting_evaluate)
    f = TargetFunction(counted_sin, "sin", growth=(1.0, 0.0), lip=(1.0, 1.0), bounded=1.0)
    assert check_local_theorem(op, f, grid).passed
    cuts = [len(scaled_weights(op.family, op.y(x), op.q, bound=1.0)[0]) for x in grid.xs()]
    # one more point: f(0) in the sup bound, taken once per target
    assert points[0] <= max(cuts) + 1 < sum(cuts)


@pytest.mark.parametrize(
    "check, args, most",
    [
        (check_rate_theorem, (), 2),
        (check_lipschitz_theorem, (0.0, 1.0), 1),
        (check_maximal_theorem, (0.5,), 2),
        (check_local_theorem, (), 5),
    ],
)
def test_checkers_sample_f_a_fixed_number_of_times(check, args, most, monkeypatch):
    # outside evaluate each checker samples f in whole grids, so the number
    # of fn calls does not grow with the grid
    op = make_operator(100, 0.95, 10.0, "affine")
    inside, calls = [False], []

    def counted_sin(t):
        calls.append(not inside[0])
        return np.sin(t)

    def counting_evaluate(*args, **kwargs):
        inside[0] = True
        try:
            return evaluate(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(qapprox.analysis, "evaluate", counting_evaluate)
    counts = []
    for points in (21, 201):
        f = TargetFunction(counted_sin, "sin", growth=(1.0, 0.0), lip=(1.0, 1.0), bounded=1.0)
        calls.clear()
        assert check(op, f, *args, GridSpec(0.0, 1.0, points)).passed
        counts.append(sum(calls))
    assert counts[0] == counts[1] <= most


def test_local_checker_shift_free_reduction():
    # constant symbol: rhs is exactly k_hat * omega_2, no shift modulus term
    sched = ScheduleSpec("smooth")
    op = make_operator(16, sched.q_at(16), sched.b_at(16), "one")
    rep = check_local_theorem(op, preset_function("sin"), GridSpec(0.0, 1.0, 81))
    want = rep.extras["k_hat"] * rep.extras["second_modulus"]
    assert np.max(np.abs(rep.rhs - want)) <= 1e-12


def test_sup_pair_shape():
    p = SupPair(1.0, 2.0)
    assert p.value == 1.0 and p.printed == 2.0
