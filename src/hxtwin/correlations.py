"""Heat transfer coefficient correlations and conductance composition.

Both the plant truth and the monitor express the per-side conductance
alpha*A as a power law in operating conditions.  The generic engineering
form is Nu = C Re^a Pr^b, i.e.

    alpha*A = (lambda/d) * C * (mdot d / (A_c eta))^a * (cp eta / lambda)^b * A

with the geometry constants absorbed into a single leading coefficient.
Two concrete shapes are used here:

* the monitored correlation alpha*A = upsilon * mdot^exp1 * cp_mean^exp2
  + offset, whose leading factor upsilon is what the filter estimates;
* a richer truth correlation including fixed viscosity and conductivity
  factors, used only to synthesize plant behavior.

All quantities are nondimensionalized by their SI unit (mdot by 1 kg/s,
cp_mean by 1 J/(kg K), eta by 1 Pa s, lambda by 1 W/(m K)), so upsilon
and the coefficient carry plain W/K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "NonPositiveConductanceError",
    "CorrelationParams",
    "ReferenceCorrelation",
    "alpha_A",
    "reference_alpha_A",
    "serial_conductance",
]


class NonPositiveConductanceError(ValueError):
    """A correlation evaluated to a nonpositive conductance."""


@dataclass(frozen=True, slots=True)
class CorrelationParams:
    """Monitored correlation alpha*A = upsilon * mdot^exp1 * cp^exp2 + offset,
    less its leading factor upsilon, which the filter state supplies."""

    exp1: float = 0.0  # mass flow exponent
    exp2: float = 0.0  # mean specific heat exponent
    offset: float = 0.0  # W/K


@dataclass(frozen=True, slots=True)
class ReferenceCorrelation:
    """Truth-side correlation with fixed transport properties.

    alpha*A = coefficient * mdot^exp_mdot * cp^exp_cp * eta^exp_eta
              * lam^exp_lam, nondimensionalized by SI units.
    """

    coefficient: float  # W/K
    exp_mdot: float
    exp_cp: float
    exp_eta: float
    exp_lam: float
    eta: float  # Pa s
    lam: float  # W/(m K)


def alpha_A(params: CorrelationParams, upsilon: float, mdot: float,
            cp_mean: float = 1.0) -> float:
    """Evaluate the monitored correlation at the leading factor upsilon (W/K);
    raises if the result is not a usable conductance (for instance a
    negative offset dominating)."""
    if mdot <= 0.0:
        raise NonPositiveConductanceError(f"mdot must be positive, got {mdot}")
    if cp_mean <= 0.0:
        raise NonPositiveConductanceError(f"cp_mean must be positive, got {cp_mean}")
    value = upsilon * mdot**params.exp1 * cp_mean**params.exp2 + params.offset
    if not value > 0.0:
        raise NonPositiveConductanceError(
            f"correlation gave alpha*A = {value} W/K for mdot={mdot}"
        )
    return value


def reference_alpha_A(
    corr: ReferenceCorrelation, mdot: float, cp_mean: float
) -> float:
    """Evaluate the truth correlation, finite and positive, at a mass flow and mean cp."""
    if mdot <= 0.0 or cp_mean <= 0.0:
        raise NonPositiveConductanceError(
            f"mdot and cp_mean must be positive, got ({mdot}, {cp_mean})"
        )
    value = (
        corr.coefficient
        * mdot**corr.exp_mdot
        * cp_mean**corr.exp_cp
        * corr.eta**corr.exp_eta
        * corr.lam**corr.exp_lam
    )
    if not 0.0 < value < math.inf:
        raise NonPositiveConductanceError(f"truth correlation gave {value} W/K")
    return value


def serial_conductance(aA_h: float, aA_c: float) -> float:
    """Serial two-resistance rating kA = (1/aA_h + 1/aA_c)^-1."""
    if aA_h <= 0.0 or aA_c <= 0.0:
        raise NonPositiveConductanceError(
            f"side conductances must be positive, got ({aA_h}, {aA_c})"
        )
    return 1.0 / (1.0 / aA_h + 1.0 / aA_c)
