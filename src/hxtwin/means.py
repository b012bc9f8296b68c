"""Mean-value functions and the unrestricted heat-rate function.

Provides the arithmetic, geometric, and logarithmic means of two real
arguments and the total (unrestricted) heat-rate function used by both
exchanger models.  approx_model.approx_side blends GM and AM into its
one-step surrogate for the logarithmic mean.  The reference model's
Newton side solve (reference_model._solve_side) evaluates heat_rate and
its slope inline, with the same float operations and LM_SERIES_SWITCH.

All functions are pure and stateless.
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "arith_mean",
    "geom_mean",
    "log_mean",
    "heat_rate",
]

# Relative closeness of z1/z2 to 1 below which log_mean switches to its
# series expansion to avoid catastrophic cancellation in ln(z1/z2).
LM_SERIES_SWITCH = 1e-8


class DomainError(ValueError):
    """Arguments outside the mathematical domain of a mean function."""


def arith_mean(z1: float, z2: float) -> float:
    """Arithmetic mean (z1 + z2) / 2."""
    return 0.5 * (z1 + z2)


def geom_mean(z1: float, z2: float) -> float:
    """Geometric mean sqrt(z1 * z2).

    Requires z1 * z2 >= 0 so the square root stays real.
    """
    if z1 * z2 < 0.0:
        raise DomainError(f"geom_mean requires z1*z2 >= 0, got ({z1}, {z2})")
    return math.sqrt(z1 * z2)


def log_mean(z1: float, z2: float) -> float:
    """Logarithmic mean (z1 - z2) / ln(z1 / z2) on the domain L.

    Evaluated as AM * e / atanh(e) with e = (z1 - z2)/(z1 + z2), which
    is the same function (ln(z1/z2) = 2 atanh(e)) but keeps full
    relative accuracy as z1 -> z2, where the naive quotient loses one
    digit per decade of closeness.  For |z1/z2 - 1| < 1e-8 the value
    switches to the series AM * (1 - e**2 / 3 + ...), the analytic
    continuation through the removable singularity.
    """
    if z1 <= 0.0 or z2 <= 0.0 or z1 == z2:
        raise DomainError(f"log_mean needs z1, z2 > 0 and z1 != z2, got ({z1}, {z2})")
    e = (z1 - z2) / (z1 + z2)
    if abs(z1 / z2 - 1.0) < LM_SERIES_SWITCH:
        return 0.5 * (z1 + z2) * (1.0 - e * e / 3.0)
    return 0.5 * (z1 + z2) * e / math.atanh(e)


def heat_rate(z1: float, z2: float, z3: float) -> float:
    """Unrestricted heat-rate function Q(z1, z2, z3).

    Returns z3 * log_mean(z1, z2) when (z1, z2) lies in the log-mean
    domain L and z3 * arith_mean(z1, z2) otherwise.  The arithmetic
    branch extends the function continuously to zero, negative, and
    equal temperature differences, which occur in transient phases.
    z3 is a thermal conductance in W/K.
    """
    if z1 > 0.0 and z2 > 0.0 and z1 != z2:
        return z3 * log_mean(z1, z2)
    return z3 * 0.5 * (z1 + z2)
