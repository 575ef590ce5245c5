import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qapprox.appell import (
    FAMILIES,
    SAFETY,
    AppellFamily,
    family_by_name,
    family_from_spec,
    family_functionals,
    moment_sum,
    scaled_weights,
)
from qapprox.errors import TruncationCapError
from qapprox.qcore import as_qvalue, q_factorial, q_integer


def test_builtin_families():
    assert set(FAMILIES) == {"one", "affine", "quad"}
    assert family_by_name("one").coeffs == (1.0,)
    assert family_by_name("affine").coeffs == (1.0, 1.0)
    assert family_by_name("quad").coeffs == (1.0, 1.0, 0.5)


def test_family_degree():
    assert family_by_name("one").degree == 0
    assert family_by_name("quad").degree == 2


def test_family_validation_rejects():
    with pytest.raises(ValueError):
        AppellFamily(coeffs=())
    with pytest.raises(ValueError):
        AppellFamily(coeffs=(0.0, 1.0))  # leading coefficient must be positive
    with pytest.raises(ValueError):
        AppellFamily(coeffs=(1.0, -0.5))
    with pytest.raises(ValueError):
        AppellFamily(coeffs=(1.0, math.inf))


def test_family_from_spec_names_and_lists():
    assert family_from_spec("affine") == family_by_name("affine")
    assert family_from_spec("1,0.25").coeffs == (1.0, 0.25)
    with pytest.raises(ValueError):
        family_from_spec("no_such_family")
    with pytest.raises(ValueError):
        family_from_spec("1,abc")
    with pytest.raises(KeyError):
        family_by_name("1,0.25")


def _weights(family, y, q, **kw):
    """The true weights c * e^shift and [k]_q, for the small y used here."""
    c, kq, shift = scaled_weights(family, y, q, **kw)
    return c * np.exp(shift), kq


def test_weight_hand_value():
    # affine: c_2(y) = y^2/[2]_q! + y
    fam = family_by_name("affine")
    want = 0.25 / 1.5 + 0.5
    c, kq = _weights(fam, 0.5, 0.5)
    assert c[2] == pytest.approx(want, rel=1e-14)
    assert kq[2] == 1.5


def test_weight_matches_direct_formula():
    rng = np.random.default_rng(7)
    for name in ("quad", "affine"):
        fam = family_by_name(name)
        for _ in range(20):
            y = float(rng.uniform(0.0, 1.5))
            q = float(rng.uniform(0.3, 0.95))
            c, kq = _weights(fam, y, q)
            for k in range(12):
                want = sum(
                    fam.coeffs[j] * y ** (k - j) / q_factorial(k - j, q)
                    for j in range(min(k, fam.degree) + 1)
                )
                assert c[k] == pytest.approx(want, rel=1e-12, abs=1e-300)
                assert kq[k] == q_integer(k, q)  # one definition of [k]_q


def test_weight_prefix_matches_scalar():
    # an early cut is a prefix of a late one, and each entry is the scalar c_k(y)
    fam = family_by_name("affine")
    y, q = 0.7, 0.8
    short, _ = _weights(fam, y, q, k_min=0)
    long, _ = _weights(fam, y, q, k_min=60)
    assert 10 <= len(short) < len(long)
    np.testing.assert_allclose(short, long[: len(short)], rtol=1e-13)
    for k in range(10):
        want = sum(fam.coeffs[j] * y ** (k - j) / q_factorial(k - j, q) for j in range(min(k, 1) + 1))
        assert short[k] == pytest.approx(want, rel=1e-13)


@given(
    st.sampled_from(["one", "affine", "quad"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.3, max_value=0.95),
)
def test_weights_nonnegative(name, frac, q):
    # y over the guarded domain [0, SAFETY/(1-q)], where the weight series converges
    c, _, _ = scaled_weights(family_by_name(name), frac * SAFETY / (1.0 - q), q)
    assert np.all(c >= 0.0)


def test_functionals_hand_values():
    q = 0.5
    one = family_functionals(family_by_name("one"), q)
    assert one == (1.0, 0.0, 0.0, 0.0)
    aff = family_functionals(family_by_name("affine"), q)
    assert aff.A1 == 2.0
    assert aff.DqA1 == 1.0
    assert aff.DqAq == 1.0
    assert aff.Dq2A1 == 0.0
    quad = family_functionals(family_by_name("quad"), q)
    # A1 = 1+1+0.5; DqA1 = [1] + 0.5[2]; DqAq = 1 + 0.5[2]q; Dq2A1 = 0.5[2][1]
    assert quad.A1 == 2.5
    assert quad.DqA1 == pytest.approx(1.75, rel=1e-15)
    assert quad.DqAq == pytest.approx(1.375, rel=1e-15)
    assert quad.Dq2A1 == pytest.approx(0.75, rel=1e-15)


def test_moment_sum_against_dense_partial_sums():
    q = 0.8
    y = 2.0
    fam = family_by_name("affine")
    # 400 terms, far past the default cut at K = 38
    c, _ = _weights(fam, y, q, k_min=399)
    kq = np.array([q_integer(k, q) for k in range(len(c))])
    assert len(c) == 400
    for power in (0, 1, 2):
        dense = float(np.sum(c * kq**power))
        # the sum for a power alone, and within the sums up to power 2
        for top in (power, 2):
            sums, shift = moment_sum(fam, y, q, top)
            assert sums[power] * np.exp(shift) == pytest.approx(dense, rel=1e-11)


def test_moment_sum_small_y():
    # y = 0: only k <= degree contribute through the shifted powers
    fam = family_by_name("affine")
    q = 0.5
    # c_0 = 1, c_1 = 1, c_k = 0 beyond the degree at y = 0
    sums, shift = moment_sum(fam, 0.0, q, 1)
    assert shift == 0.0  # the largest term is t_0 = 1, so the sums are at true scale
    assert sums == pytest.approx([2.0, 1.0], rel=1e-12)
    assert moment_sum(fam, 0.0, q, 0)[0] == pytest.approx([2.0], rel=1e-12)


def test_moment_sum_cap_outside_radius():
    with pytest.raises(TruncationCapError):
        moment_sum(family_by_name("one"), 22562.5, 0.999999, 0)


def test_family_is_frozen():
    fam = family_by_name("one")
    with pytest.raises(Exception):
        fam.coeffs = (2.0,)
