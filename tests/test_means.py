"""Tests for the mean-value functions and the unrestricted heat rate."""

import math

import numpy as np
import pytest

from hxtwin.means import (
    DomainError,
    arith_mean,
    geom_mean,
    heat_rate,
    log_mean,
)
from oracles import heat_rate_slope, weighted_mean


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
