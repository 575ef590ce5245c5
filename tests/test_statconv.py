import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qapprox.analysis import GridSpec
from qapprox.cli import main as cli_main
from qapprox.errors import DomainError
from qapprox.statconv import (
    ScheduleSpec,
    WeightedNorm,
    clip_grid_for,
    is_perfect_square,
    korovkin_table,
    natural_density,
    st_limit_verify,
)
from qapprox.appell import family_by_name


def test_is_perfect_square():
    assert is_perfect_square(0)
    assert is_perfect_square(1)
    assert is_perfect_square(4)
    assert is_perfect_square(1024 * 1024)
    assert not is_perfect_square(2)
    assert not is_perfect_square(3)
    assert not is_perfect_square(1024 * 1024 - 1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleSpec("bumpy")


def test_smooth_schedule_values():
    s = ScheduleSpec("smooth")
    assert s.q_at(16) == 0.75
    assert s.q_at(1024) == 0.96875
    assert s.b_at(16) == 2.0
    assert s.b_at(1024) == pytest.approx(math.sqrt(math.sqrt(1024)), rel=1e-14)


def test_spiky_schedule_values():
    s = ScheduleSpec("spiky")
    assert s.q_at(16) == 0.5
    assert s.q_at(17) == pytest.approx(1.0 - 17.0**-0.5, rel=1e-14)
    assert s.b_at(16) == 2.0


def test_schedule_qn_in_range():
    for kind in ("smooth", "spiky"):
        s = ScheduleSpec(kind)
        for n in range(2, 200):
            assert 0.0 < s.q_at(n) < 1.0


def test_natural_density_evens():
    assert natural_density(lambda k: k % 2 == 0, 1000) == 0.5


def test_natural_density_squares_exact():
    assert natural_density(is_perfect_square, 1_000_000) == 0.001


def test_st_limit_constant_sequence():
    assert st_limit_verify(lambda k: 3.0, 3.0, 1e-9, 10_000) == 0.0


def test_st_limit_smooth_schedule():
    s = ScheduleSpec("smooth")
    # |q_n - 1| = n^{-1/2} >= 0.1 for n <= 100, but at n = 100 the rounded
    # 1 - (1 - 0.1) lands a hair under 0.1, so 99 indices qualify
    assert st_limit_verify(lambda k: s.q_at(k), 1.0, 0.1, 10_000) == 0.0099


def test_st_limit_spiky_frozen():
    s = ScheduleSpec("spiky")
    # 1000 squares plus the 90 non-squares below 101 where n^{-1/2} >= 0.1
    got = st_limit_verify(lambda k: s.q_at(k), 1.0, 0.1, 1_000_000)
    assert got == 0.00109


def test_st_limit_spiky_density_shrinks():
    s = ScheduleSpec("spiky")
    seq = lambda k: s.q_at(k)
    ds = [st_limit_verify(seq, 1.0, 0.1, N) for N in (1000, 10_000, 100_000, 1_000_000)]
    assert all(b <= a for a, b in zip(ds, ds[1:]))


def _brute_statdemo_row(sched, eps, N):
    def dev(k):
        return abs(sched.q_at(k) - 1.0)

    return "%d,%.17g,%.17g,%.17g,%.17g" % (
        N,
        natural_density(is_perfect_square, N),
        st_limit_verify(sched.q_at, 1.0, eps, N),
        max(dev(k) for k in range(1, N + 1)),
        max(dev(k) for k in range(N // 2 + 1, N + 1)),
    )


def _cli_statdemo_row(kind, eps, N):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["statdemo", "--schedule", kind, "--Ns", str(N), "--eps", repr(eps)])
    assert rc == 0, out.getvalue()
    return out.getvalue().splitlines()[2]


@given(
    kind=st.sampled_from(["smooth", "spiky"]),
    N=st.integers(1, 10_000),
    eps=st.one_of(
        st.floats(0.0, 1.5, exclude_min=True),
        st.integers(1, 10_000).map(lambda m: 1.0 / math.sqrt(m)),
        st.just(0.5),
    ),
)
def test_statdemo_rows_match_brute_force(kind, N, eps):
    assert _cli_statdemo_row(kind, eps, N) == _brute_statdemo_row(ScheduleSpec(kind), eps, N)


@pytest.mark.parametrize("kind", ["smooth", "spiky"])
def test_closed_counts_exhaustive_on_small_indices(kind):
    # every eps cut-off 1/sqrt(m) and its float neighbours, every range
    sched = ScheduleSpec(kind)
    top = 40
    for m in range(1, top + 6):
        cut = 1.0 / math.sqrt(m)
        for eps in (math.nextafter(cut, 0.0), cut, math.nextafter(cut, 2.0)):
            for N in range(1, top + 1):
                got = sched.exceptional_count(eps, N) / N
                assert got == st_limit_verify(sched.q_at, 1.0, eps, N), (eps, N)
    for lo in range(1, top + 1):
        for hi in range(lo, top + 1):
            brute = max(abs(sched.q_at(k) - 1.0) for k in range(lo, hi + 1))
            assert sched.max_dev(lo, hi) == brute, (lo, hi)


@pytest.mark.parametrize("N, sup_dev", [(1, 0.5), (2, 2**-0.5), (3, 2**-0.5)])
def test_statdemo_spiky_first_indices(N, sup_dev):
    # k = 1 is a square (deviation 1/2), so the sup moves to k = 2 from N = 2 on
    sched = ScheduleSpec("spiky")
    assert sched.max_dev(1, N) == pytest.approx(sup_dev, rel=1e-15)
    assert _cli_statdemo_row("spiky", 0.6, N) == _brute_statdemo_row(sched, 0.6, N)


def test_weighted_norm_values():
    wn = WeightedNorm(GridSpec(0.0, 1.0, 101))
    xs = wn.grid.xs()
    assert wn.of_values(np.ones_like(xs)) == 1.0
    assert wn.of_values(xs * xs) == 0.5


def test_weighted_norm_shape_guard():
    wn = WeightedNorm(GridSpec(0.0, 1.0, 101))
    with pytest.raises(ValueError):
        wn.of_values(np.zeros(7))


def test_clip_grid_noop_when_inside():
    sched = ScheduleSpec("smooth")
    grid = GridSpec(0.0, 1.0, 101)
    assert clip_grid_for(sched, (16, 64, 256, 1024), grid) is grid


def test_clip_grid_shrinks_wide_grid():
    sched = ScheduleSpec("smooth")
    grid = GridSpec(0.0, 5.0, 101)
    eff = clip_grid_for(sched, (16, 64, 256, 1024), grid)
    assert eff.x_hi < 5.0
    assert eff.x_lo == 0.0
    assert eff.points == 101


def test_clip_grid_raises_when_nothing_left():
    sched = ScheduleSpec("smooth")
    grid = GridSpec(3.0, 5.0, 11)
    with pytest.raises(DomainError):
        clip_grid_for(sched, (16,), grid)


def test_korovkin_table_smooth_frozen():
    rows = korovkin_table(
        ScheduleSpec("smooth"), family_by_name("affine"), (16, 64, 256, 1024),
        GridSpec(0.0, 1.0, 101),
    )
    ns = [r[0] for r in rows]
    assert ns == [16, 64, 256, 1024]
    ratio = [r[3] for r in rows]
    assert all(b < a for a, b in zip(ratio, ratio[1:]))
    assert ratio[-1] < 0.2
    v0 = [r[4] for r in rows]
    assert max(v0) <= 1e-10
    v1 = [r[5] for r in rows]
    v2 = [r[6] for r in rows]
    assert v1[0] == pytest.approx(0.2525310162925609, rel=1e-12)
    assert v2[-1] == pytest.approx(0.1528205277325305, rel=1e-12)
    assert all(b < a for a, b in zip(v1, v1[1:]))
    assert all(b < a for a, b in zip(v2, v2[1:]))


def test_korovkin_spiky_diverges_on_squares():
    rows = korovkin_table(
        ScheduleSpec("spiky"), family_by_name("affine"), (16, 64, 256, 1024),
        GridSpec(0.0, 1.0, 101),
    )
    v2 = [r[6] for r in rows]
    assert v2[-1] >= v2[0]
    assert v2[-1] - v2[0] >= 0.4
