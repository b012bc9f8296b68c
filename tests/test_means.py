"""Tests for the mean-value functions and the unrestricted heat rate."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hxtwin.means import (
    DomainError,
    arith_mean,
    geom_mean,
    heat_rate,
    log_mean,
)
from oracles import beta_lm_value, heat_rate_slope, weighted_mean


def test_arith_geom_textbook_values():
    assert arith_mean(2.0, 4.0) == 3.0
    assert geom_mean(4.0, 9.0) == 6.0


def test_log_mean_analytic_value():
    # LM(1, e) = (1 - e)/ln(1/e) = e - 1
    assert log_mean(1.0, math.e) == pytest.approx(math.e - 1.0, rel=1e-14)


def test_log_mean_equal_args_rejected():
    with pytest.raises(DomainError):
        log_mean(5.0, 5.0)


def test_log_mean_nonpositive_rejected():
    for z1, z2 in [(-1.0, 2.0), (0.0, 2.0), (3.0, 0.0), (3.0, -4.0)]:
        with pytest.raises(DomainError):
            log_mean(z1, z2)


def test_geom_mean_mixed_sign_rejected():
    with pytest.raises(DomainError):
        geom_mean(-1.0, 4.0)


def test_log_mean_series_against_extended_precision():
    # Oracle: AM * e / atanh(e) in 80-bit floats.  The quotient form
    # (z1-z2)/log(z1/z2) is useless as an oracle here: even in extended
    # precision the log of a near-1 ratio keeps only ~|log| relative
    # accuracy, while the atanh form stays fully accurate.
    z2 = np.longdouble(37.0)
    for rel in [3e-9, 1e-10, 1e-12]:
        z1 = z2 * (np.longdouble(1.0) + np.longdouble(rel))
        e = (z1 - z2) / (z1 + z2)
        exact = float(np.longdouble(0.5) * (z1 + z2) * e / np.arctanh(e))
        got = log_mean(float(z1), float(z2))
        assert got == pytest.approx(exact, rel=1e-13)


def test_log_mean_continuous_at_series_switch():
    # The two sample points differ by 1e-11 relative in their arithmetic
    # mean, so agreement can only be required at that level, not tighter.
    z2 = 42.0
    below = log_mean(z2 * (1.0 + 0.999e-8), z2)
    above = log_mean(z2 * (1.0 + 1.001e-8), z2)
    assert below == pytest.approx(above, rel=1e-10)


def test_log_mean_past_the_atanh_edge():
    # Once z1/z2 passes about 2e16, e = (z1 - z2)/(z1 + z2) rounds to 1
    # and atanh(e) is infinite; the quotient of logarithms takes over.
    assert (1.0 - 1e-17) / (1.0 + 1e-17) == 1.0
    want = 1.0 / (17.0 * math.log(10.0))
    assert log_mean(1.0, 1e-17) == pytest.approx(want, rel=1e-15)
    assert log_mean(1e-17, 1.0) == log_mean(1.0, 1e-17)
    assert heat_rate(1.0, 1e-17, 2.0) == 2.0 * log_mean(1.0, 1e-17)
    assert 0.0 < beta_lm_value(1.0, 1e-17) < 1.0


# the positive floats, subnormals included, up to where z1 + z2 stays
# finite; ratios up to 1e600 reach far past the atanh edge near 2e16
positive_floats = st.floats(min_value=5e-324, max_value=1e300)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(z1=positive_floats, z2=positive_floats)
@example(z1=1.0, z2=1e-17)
@example(z1=1e-17, z2=1.0)
@example(z1=1.0, z2=2.0 ** -54)
@example(z1=1.0, z2=1e-16)
@example(z1=5e-324, z2=1e300)
@example(z1=1e300, z2=1e-300)
@example(z1=42.0 * (1.0 + 0.999e-8), z2=42.0)
@example(z1=1.0 + 2.0 ** -52, z2=1.0)
def test_log_mean_is_a_mean_over_its_whole_domain(z1, z2):
    # GM <= LM <= AM, and for ratios of 2 and more the quotient of
    # logarithms within the rounding of both forms: e carries one
    # rounding, which atanh(e) turns into a relative error of about
    # eps*r/(2 ln r) at the ratio r, largest (a few percent) just below
    # the edge; the quotient's logarithms lose eps*(|ln z1| + |ln z2|).
    assume(z1 != z2)
    lm = log_mean(z1, z2)
    tiny = 1e-322  # a few subnormal steps, the absolute grain below 2.2e-308
    lo, hi = min(z1, z2), max(z1, z2)
    assert lo - tiny <= lm <= hi + tiny
    gm, am = math.sqrt(z1) * math.sqrt(z2), 0.5 * z1 + 0.5 * z2
    assert gm * (1.0 - 1e-14) - tiny <= lm <= am * (1.0 + 1e-14) + tiny
    r = hi / lo
    if r >= 2.0:
        quotient = (z1 - z2) / (math.log(z1) - math.log(z2))
        eps = 2.0 ** -52
        # past the edge (r > 2e16) log_mean is the quotient itself
        tol = (eps * (min(r, 1e17) + 4.0 * (abs(math.log(z1)) + abs(math.log(z2))) + 8.0)
               / math.log(r))
        assert abs(lm - quotient) <= tol * quotient + tiny


def test_weighted_mean_endpoints():
    assert weighted_mean(7.0, 11.0, 0.0) == arith_mean(7.0, 11.0)
    assert weighted_mean(4.0, 9.0, 1.0) == 6.0


def test_weighted_mean_beta_out_of_range():
    with pytest.raises(DomainError):
        weighted_mean(1.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        weighted_mean(1.0, 2.0, -0.1)


def test_weighted_mean_at_beta_lm_reproduces_log_mean():
    # With beta = (AM - LM)/(AM - GM) the blend equals LM by construction;
    # all three oracle means evaluated independently of log_mean here.
    z1, z2 = 10.0, 5.0
    am = 0.5 * (z1 + z2)
    gm = math.sqrt(z1 * z2)
    lm = (z1 - z2) / math.log(z1 / z2)
    beta_lm = (am - lm) / (am - gm)
    assert 0.0 < beta_lm < 1.0
    assert weighted_mean(z1, z2, beta_lm) == pytest.approx(lm, rel=1e-14)
    assert log_mean(z1, z2) == pytest.approx(5.0 / math.log(2.0), rel=1e-14)


def test_heat_rate_branch_values():
    assert heat_rate(10.0, 10.0, 100.0) == 1000.0
    assert heat_rate(10.0, 5.0, 100.0) == pytest.approx(100.0 * 5.0 / math.log(2.0), rel=1e-14)
    assert heat_rate(-2.0, 5.0, 100.0) == 150.0
    assert heat_rate(0.0, 8.0, 100.0) == 400.0


def test_heat_rate_continuous_across_equal_args():
    # The perturbed pair itself shifts the mean by ~5e-10 relative; the
    # point is that no O(1) branch jump appears at z1 == z2.
    z, c = 25.0, 300.0
    at_equal = heat_rate(z, z, c)
    near = heat_rate(z * (1.0 + 1e-9), z, c)
    assert near == pytest.approx(at_equal, rel=1e-8)


def test_heat_rate_symmetry_and_mean_ordering():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        z1, z2 = rng.uniform(1e-3, 200.0, size=2)
        if z1 == z2:
            continue
        gm, lm, am = geom_mean(z1, z2), log_mean(z1, z2), arith_mean(z1, z2)
        assert gm < lm < am
        c = rng.uniform(1.0, 1e4)
        assert heat_rate(z1, z2, c) == pytest.approx(heat_rate(z2, z1, c), rel=1e-14)


@pytest.mark.parametrize("z1, z2", [
    (3.0, 5.0), (10.0, 0.1), (0.02, 40.0), (7.0, 7.0 * (1.0 + 1e-7)),  # log mean
    (2.0, -1.0), (-3.0, -0.5), (5.0, 5.0),  # arithmetic branch
])
def test_heat_rate_slope_matches_central_difference(z1, z2):
    z3 = 1200.0
    q = heat_rate(z1, z2, z3)
    h1, h2 = 1e-6 * abs(z1), 1e-6 * abs(z2)
    d1 = (heat_rate(z1 + h1, z2, z3) - heat_rate(z1 - h1, z2, z3)) / (2.0 * h1)
    d2 = (heat_rate(z1, z2 + h2, z3) - heat_rate(z1, z2 - h2, z3)) / (2.0 * h2)
    assert heat_rate_slope(z1, z2, z3, q) == pytest.approx(d1, rel=1e-5)
    assert heat_rate_slope(z2, z1, z3, q) == pytest.approx(d2, rel=1e-5)


def test_weighted_mean_monotone_in_beta_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z1, z2 = rng.uniform(0.01, 100.0, size=2)
        betas = np.linspace(0.0, 1.0, 11)
        vals = [weighted_mean(z1, z2, b) for b in betas]
        gm, am = geom_mean(z1, z2), arith_mean(z1, z2)
        for v in vals:
            assert gm - 1e-12 <= v <= am + 1e-12
        if z1 != z2:
            assert all(a > b for a, b in zip(vals, vals[1:]))
