"""Tests for the conductance correlations."""

import math
from dataclasses import replace

import pytest

from hxtwin.correlations import (
    REFERENCE_COLD,
    REFERENCE_HOT,
    CorrelationParams,
    NonPositiveConductanceError,
    alpha_A,
    reference_alpha_A,
    serial_conductance,
)


def test_alpha_A_worked_example():
    # upsilon = 100 W/K, mdot exponent 0.6 at 41 kg/s
    p = CorrelationParams(exp1=0.6)
    value = alpha_A(p, 100.0, 41.0)
    assert value == pytest.approx(100.0 * math.exp(0.6 * math.log(41.0)), rel=1e-12)
    assert value == pytest.approx(928.2614481346684, rel=1e-12)


def test_alpha_A_constant_form():
    p = CorrelationParams()
    assert alpha_A(p, 66000.0, 30.0) == 66000.0
    assert alpha_A(p, 66000.0, 0.5, cp_mean=4000.0) == 66000.0


def test_alpha_A_offset_and_cp_exponent():
    p = CorrelationParams(exp1=0.0, exp2=0.5, offset=25.0)
    assert alpha_A(p, 50.0, 3.0, cp_mean=4.0) == pytest.approx(50.0 * 2.0 + 25.0, rel=1e-12)


def test_alpha_A_power_law_homogeneity():
    p = CorrelationParams(exp1=0.8, exp2=0.3)
    base = alpha_A(p, 120.0, 10.0, cp_mean=1000.0)
    assert alpha_A(p, 120.0, 20.0, cp_mean=1000.0) / base == pytest.approx(2.0**0.8, rel=1e-12)
    assert alpha_A(p, 120.0, 10.0, cp_mean=2000.0) / base == pytest.approx(2.0**0.3, rel=1e-12)


def test_alpha_A_rejects_bad_inputs():
    p = CorrelationParams(exp1=0.6)
    with pytest.raises(NonPositiveConductanceError):
        alpha_A(p, 100.0, 0.0)
    with pytest.raises(NonPositiveConductanceError):
        alpha_A(p, 100.0, -1.0)
    with pytest.raises(NonPositiveConductanceError):
        alpha_A(p, 100.0, 1.0, cp_mean=0.0)
    sink = CorrelationParams(offset=-100.0)
    with pytest.raises(NonPositiveConductanceError):
        alpha_A(sink, 10.0, 5.0)


def test_reference_hot_frozen_value():
    # 37 * 30^0.8 * 1319^(1/3) * (2.8e-5)^(-7/15) * 0.085^(2/3)
    value = reference_alpha_A(REFERENCE_HOT, 30.0, 1319.0)
    oracle = (
        37.0
        * math.exp(0.8 * math.log(30.0))
        * math.exp(math.log(1319.0) / 3.0)
        * math.exp(-7.0 / 15.0 * math.log(2.8e-5))
        * math.exp(2.0 / 3.0 * math.log(0.085))
    )
    assert value == pytest.approx(oracle, rel=1e-12)
    assert value == pytest.approx(158825.12124472272, rel=1e-12)


def test_reference_cold_frozen_value():
    value = reference_alpha_A(REFERENCE_COLD, 41.0, 3420.0)
    assert value == pytest.approx(76553.30350380865, rel=1e-12)
    # cp enters linearly on the cold side
    assert reference_alpha_A(REFERENCE_COLD, 41.0, 1710.0) == pytest.approx(
        value / 2.0, rel=1e-12
    )
    # halving the flow scales by 2^-0.8
    half = reference_alpha_A(REFERENCE_COLD, 20.5, 3420.0)
    assert half == pytest.approx(value * 0.5**0.8, rel=1e-12)
    assert half == pytest.approx(43968.326902206885, rel=1e-12)


def test_reference_rejects_bad_inputs():
    with pytest.raises(NonPositiveConductanceError):
        reference_alpha_A(REFERENCE_HOT, 0.0, 1000.0)
    with pytest.raises(NonPositiveConductanceError):
        reference_alpha_A(REFERENCE_HOT, 10.0, -1.0)
    with pytest.raises(NonPositiveConductanceError, match="gave inf W/K"):
        reference_alpha_A(replace(REFERENCE_HOT, coefficient=1e308), 30.0, 1319.0)


def test_serial_conductance():
    assert serial_conductance(1000.0, 3000.0) == pytest.approx(750.0, rel=1e-14)
    assert serial_conductance(3000.0, 1000.0) == pytest.approx(750.0, rel=1e-14)
    assert serial_conductance(2000.0, 2000.0) == pytest.approx(1000.0, rel=1e-14)
    # always below the weaker side
    assert serial_conductance(500.0, 1.0e9) < 500.0
    with pytest.raises(NonPositiveConductanceError):
        serial_conductance(0.0, 1000.0)
    with pytest.raises(NonPositiveConductanceError):
        serial_conductance(1000.0, -5.0)


def test_design_point_composition():
    # The reduced-information scenario's pre-step serial rating.
    aA_h = reference_alpha_A(REFERENCE_HOT, 30.0, 1319.0)
    aA_c = reference_alpha_A(REFERENCE_COLD, 41.0, 3420.0)
    assert serial_conductance(aA_h, aA_c) == pytest.approx(51655.489, abs=1e-2)
