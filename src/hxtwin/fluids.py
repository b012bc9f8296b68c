"""Specific-enthalpy models and mean-specific-heat evaluation.

Three interchangeable fluid models provide h(T, p) in J/kg:

* ``CaloricallyPerfect``: constant cp, h = cp * T.
* ``ThermallyPerfect``: cp depends on temperature only, given as
  polynomial coefficients in T; h is the exact integral of cp.
* ``Tabulated``: bilinear interpolation of h on a rectangular (T, p)
  grid, loaded from a plain-text table file.

Each model also gives ``curve(p)``: a callable T -> (h, dh/dT) at a
fixed pressure, with the float operations and the hull errors of
``enthalpy``, that looks the pressure up once; the slope alone
(``enthalpy_slope``) is its second value.  Each model gives the inverse
T(h, p) (``temperature``) too.  The reference model's Newton takes h and
its slope from one curve call per iterate; a ``StreamConfig`` builds
its curve on first use and keeps it.

All temperatures are absolute kelvin, pressures Pa, enthalpies J/kg.
Models are immutable after construction, apart from the per-pressure
slices that ``Tabulated`` builds on first use (a pure function of the
grid, so concurrent reads stay safe).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

__all__ = [
    "OutOfRangeError",
    "ParseError",
    "NonMonotonicAxisError",
    "FluidModel",
    "CaloricallyPerfect",
    "ThermallyPerfect",
    "Tabulated",
    "StreamConfig",
    "load_fluid_table",
    "save_fluid_table",
]

# Degenerate-secant threshold and the centered finite-difference half step
# used for the point specific heat.
_SECANT_EPS = 1e-6  # K
_POINT_CP_STEP = 0.01  # K
# Safeguarded Newton of ThermallyPerfect.temperature: stop once a step
# moves T by at most this fraction of (1 K + |T|); bisection halves the
# bracket on every rejected step, so the cap is never reached in practice.
_INVERSE_RTOL = 1e-14
_INVERSE_MAX_ITER = 100
# Pressure slices a Tabulated model keeps; streams use one pressure each,
# so the cap only bounds memory under a pressure sweep.
_MAX_SLICES = 64

_TABLE_HEADER = ("T/K", "p/Pa", "h/(J/kg)")


class OutOfRangeError(ValueError):
    """Query outside a fluid model's validity hull."""


class ParseError(ValueError):
    """Malformed fluid-table file; the message starts with "<source>, line
    N: ", or "line N: " for a source with no name (a file-like)."""

    def __init__(self, message: str, line: int, source: str = ""):
        super().__init__(f"{source}, line {line}: {message}" if source
                         else f"line {line}: {message}")
        self.line = line
        self.reason = message


class NonMonotonicAxisError(ValueError):
    """Table axis not strictly increasing; message carries axis and index."""

    def __init__(self, axis: str, index: int):
        super().__init__(
            f"axis '{axis}' must be strictly increasing, violated at position {index}"
        )
        self.axis = axis
        self.index = index


class FluidModel:
    """Base class for enthalpy providers.

    Subclasses implement ``enthalpy(T, p)``, ``curve(p)`` (h and its
    slope dh/dT at a fixed pressure) and the inverse
    ``temperature(h, p)``, and expose ``hull_T`` and ``hull_p`` as
    (min, max) tuples used for range validation.
    """

    hull_T: tuple[float, float] = (-math.inf, math.inf)
    hull_p: tuple[float, float] = (-math.inf, math.inf)

    def enthalpy(self, T: float, p: float) -> float:
        raise NotImplementedError

    def curve(self, p: float) -> Callable[[float], tuple[float, float]]:
        """T -> (enthalpy(T, p), dh/dT in J/(kg K)) at the pressure p."""
        raise NotImplementedError

    def enthalpy_slope(self, T: float, p: float) -> float:
        """dh/dT at (T, p) in J/(kg K): the slope of ``curve(p)``."""
        return self.curve(p)(T)[1]

    def temperature(self, h: float, p: float) -> float:
        """The T with enthalpy(T, p) = h; OutOfRangeError outside the hull."""
        raise NotImplementedError

    def _check_hull(self, T: float, p: float) -> None:
        if not self.hull_T[0] <= T <= self.hull_T[1]:
            raise OutOfRangeError(
                f"T={T} K outside model hull [{self.hull_T[0]}, {self.hull_T[1]}] K"
            )
        if not self.hull_p[0] <= p <= self.hull_p[1]:
            raise OutOfRangeError(
                f"p={p} Pa outside model hull [{self.hull_p[0]}, {self.hull_p[1]}] Pa"
            )

    def mean_specific_heat(self, T_from: float, T_to: float, p: float) -> float:
        """Secant (h(T_to) - h(T_from)) / (T_to - T_from), or the point cp
        when the interval degenerates below 1e-6 K."""
        if abs(T_to - T_from) < _SECANT_EPS:
            return self._point_cp(0.5 * (T_from + T_to), p)
        return (self.enthalpy(T_to, p) - self.enthalpy(T_from, p)) / (T_to - T_from)

    def _point_cp(self, T: float, p: float) -> float:
        # Centered difference with 0.01 K half-width; the stencil is shifted
        # inward when T sits on a hull edge so both samples stay valid.
        lo, hi = T - _POINT_CP_STEP, T + _POINT_CP_STEP
        t_min, t_max = self.hull_T
        if lo < t_min:
            hi += t_min - lo
            lo = t_min
        elif hi > t_max:
            lo -= hi - t_max
            hi = t_max
        if lo < t_min or hi <= lo:
            raise OutOfRangeError(f"hull too narrow for point cp stencil at T={T} K")
        return (self.enthalpy(hi, p) - self.enthalpy(lo, p)) / (hi - lo)


class CaloricallyPerfect(FluidModel):
    """Constant specific heat: h(T, p) = cp * T."""

    def __init__(self, cp: float):
        if cp <= 0.0:
            raise ValueError(f"cp must be positive, got {cp}")
        self.cp = float(cp)

    def enthalpy(self, T: float, p: float) -> float:
        return self.cp * T

    def curve(self, p: float) -> Callable[[float], tuple[float, float]]:
        cp = self.cp
        return lambda T: (cp * T, cp)

    def temperature(self, h: float, p: float) -> float:
        return h / self.cp

    def mean_specific_heat(self, T_from: float, T_to: float, p: float) -> float:
        return self.cp

    def __repr__(self):
        return f"CaloricallyPerfect(cp={self.cp!r})"


class ThermallyPerfect(FluidModel):
    """Temperature-dependent specific heat, pressure-independent enthalpy.

    cp is a polynomial in T (``cp_coeffs`` in ascending powers,
    J/(kg K)).  Enthalpy is the analytic integral of cp with h = 0 at
    the lower hull edge (offsets cancel in all uses).
    """

    def __init__(
        self,
        cp_coeffs: Sequence[float],
        hull_T: tuple[float, float] = (150.0, 1500.0),
    ):
        self.hull_T = (float(hull_T[0]), float(hull_T[1]))
        coeffs = [float(c) for c in cp_coeffs]
        # Horner runs from the highest power down, over the coefficients
        # of cp and of its antiderivative h(T)/T.
        self._cp_rev = coeffs[::-1]
        self._int_rev = [c / (i + 1) for i, c in enumerate(coeffs)][::-1]
        for T in _sample_grid(*self.hull_T, 64):
            if self._cp_poly(T) <= 0.0:
                raise ValueError(f"cp polynomial nonpositive at T={T:.2f} K")
        # h = 0 at the lower hull edge: enthalpy subtracts the
        # antiderivative there, evaluated once with a zero offset.
        self._h_offset = 0.0
        self._h_offset = self._h_poly(self.hull_T[0])
        self._h_max = self._h_poly(self.hull_T[1])
        if not math.isfinite(self._h_max):
            raise ValueError("enthalpy polynomial not finite on the hull")

    def _cp_poly(self, T: float) -> float:
        acc = 0.0
        for c in self._cp_rev:
            acc = acc * T + c
        return acc

    def _h_poly(self, T: float) -> float:
        acc = 0.0
        for c in self._int_rev:
            acc = acc * T + c
        return acc * T - self._h_offset

    # enthalpy and curve inline _h_poly and _cp_poly, and test the hull
    # once: p's hull is the whole line, so only a NaN p leaves it

    def enthalpy(self, T: float, p: float) -> float:
        lo, hi = self.hull_T
        if not lo <= T <= hi or p != p:
            self._check_hull(T, p)
        acc = 0.0
        for c in self._int_rev:
            acc = acc * T + c
        return acc * T - self._h_offset

    def curve(self, p: float) -> Callable[[float], tuple[float, float]]:
        lo, hi = self.hull_T
        int_rev, cp_rev, h_offset, check = (self._int_rev, self._cp_rev, self._h_offset,
                                            self._check_hull)

        def h_and_slope(T: float) -> tuple[float, float]:
            if not lo <= T <= hi or p != p:
                check(T, p)
            h = 0.0
            for c in int_rev:
                h = h * T + c
            dh = 0.0
            for c in cp_rev:
                dh = dh * T + c
            return h * T - h_offset, dh

        return h_and_slope

    def temperature(self, h: float, p: float) -> float:
        """Newton on h(T) - h with cp as the slope, safeguarded by
        bisection of the hull so every iterate stays inside it."""
        if not 0.0 <= h <= self._h_max:
            raise OutOfRangeError(
                f"h={h} J/kg outside model hull [0.0, {self._h_max}] J/kg"
            )
        a, b = self.hull_T
        w = h / self._h_max
        T = (1.0 - w) * a + w * b
        for _ in range(_INVERSE_MAX_ITER):
            r = self._h_poly(T) - h
            if r == 0.0:
                return T
            if r > 0.0:
                b = T
            else:
                a = T
            T_next = T - r / self._cp_poly(T)
            if not a <= T_next <= b:
                T_next = 0.5 * (a + b)
            if abs(T_next - T) <= _INVERSE_RTOL * (1.0 + abs(T)):
                return T_next
            T = T_next
        return T

    def __repr__(self):
        return f"ThermallyPerfect(poly, hull_T={self.hull_T})"


class Tabulated(FluidModel):
    """Bilinear interpolation of h on a rectangular (T, p) grid.

    Axes must be strictly increasing and every grid column must be
    strictly increasing in T (positive heat capacity).  Queries outside
    the grid hull raise OutOfRangeError.

    A stream's pressure is fixed, so the pressure interpolation is done
    once per pressure: the slice H_i = (1-pp) h[i][j] + pp h[i][j+1] is
    kept per instance, and enthalpy is (1-tt) H_i + tt H_{i+1} with the
    same float operations as the full bilinear formula.  On the slice,
    h is piecewise linear in T, so ``temperature`` inverts it exactly.
    """

    def __init__(
        self,
        T_grid: Sequence[float],
        p_grid: Sequence[float],
        h_grid: Sequence[Sequence[float]],
    ):
        self._T = [float(v) for v in T_grid]
        self._p = [float(v) for v in p_grid]
        if len(self._T) < 2:
            raise ValueError("T axis needs at least 2 points")
        if len(self._p) < 2:
            raise ValueError("p axis needs at least 2 points")
        for i in range(1, len(self._T)):
            if self._T[i] <= self._T[i - 1]:
                raise NonMonotonicAxisError("T", i)
        for j in range(1, len(self._p)):
            if self._p[j] <= self._p[j - 1]:
                raise NonMonotonicAxisError("p", j)
        self._h = [[float(v) for v in row] for row in h_grid]
        if len(self._h) != len(self._T) or any(len(r) != len(self._p) for r in self._h):
            raise ValueError("h grid shape must be (len(T), len(p))")
        for j in range(len(self._p)):
            for i in range(1, len(self._T)):
                if self._h[i][j] <= self._h[i - 1][j]:
                    raise ValueError(
                        f"enthalpy must increase with T; violated at T index {i}, "
                        f"p index {j}"
                    )
        self.hull_T = (self._T[0], self._T[-1])
        self.hull_p = (self._p[0], self._p[-1])
        self._slices: dict[float, list[float]] = {}

    @property
    def T_grid(self):
        return tuple(self._T)

    @property
    def p_grid(self):
        return tuple(self._p)

    @property
    def h_grid(self):
        return tuple(tuple(r) for r in self._h)

    def _slice(self, p: float) -> list[float]:
        """h over the T axis at pressure p, built on first use."""
        H = self._slices.get(p)
        if H is None:
            pg = self._p
            if not pg[0] <= p <= pg[-1]:
                raise OutOfRangeError(
                    f"p={p} Pa outside table hull [{pg[0]}, {pg[-1]}] Pa"
                )
            j = bisect_right(pg, p) - 1
            if j > len(pg) - 2:
                j = len(pg) - 2
            pp = (p - pg[j]) / (pg[j + 1] - pg[j])
            H = [(1.0 - pp) * row[j] + pp * row[j + 1] for row in self._h]
            if len(self._slices) >= _MAX_SLICES:
                self._slices.clear()
            self._slices[p] = H
        return H

    # enthalpy and curve find the cell [T_i, T_i+1] holding T inline: bisecting over T[1:-1] gives i in [0, len - 2], so
    # the hull edge T[-1] falls in the last cell.

    def enthalpy(self, T: float, p: float) -> float:
        Tg = self._T
        if not Tg[0] <= T <= Tg[-1]:
            raise OutOfRangeError(f"T={T} K outside table hull [{Tg[0]}, {Tg[-1]}] K")
        i = bisect_right(Tg, T, 1, len(Tg) - 1) - 1
        H = self._slices.get(p) or self._slice(p)
        tt = (T - Tg[i]) / (Tg[i + 1] - Tg[i])
        return (1.0 - tt) * H[i] + tt * H[i + 1]

    def curve(self, p: float) -> Callable[[float], tuple[float, float]]:
        """The slice at p, built here (the pressure's hull error raises
        now), with enthalpy's value and the slope of the cell holding T
        (the right-hand cell at an interior node), found once."""
        H, Tg = self._slice(p), self._T
        t_lo, t_hi, n = Tg[0], Tg[-1], len(Tg) - 1

        def h_and_slope(T: float) -> tuple[float, float]:
            if not t_lo <= T <= t_hi:
                raise OutOfRangeError(f"T={T} K outside table hull [{t_lo}, {t_hi}] K")
            i = bisect_right(Tg, T, 1, n) - 1
            T_i, H_i, H_j = Tg[i], H[i], H[i + 1]
            width = Tg[i + 1] - T_i
            tt = (T - T_i) / width
            return (1.0 - tt) * H_i + tt * H_j, (H_j - H_i) / width

        return h_and_slope

    def temperature(self, h: float, p: float) -> float:
        H = self._slice(p)
        if not H[0] <= h <= H[-1]:
            raise OutOfRangeError(
                f"h={h} J/kg outside table hull [{H[0]}, {H[-1]}] J/kg at p={p} Pa"
            )
        i = bisect_right(H, h) - 1
        if i > len(H) - 2:
            i = len(H) - 2
        w = (h - H[i]) / (H[i + 1] - H[i])
        return (1.0 - w) * self._T[i] + w * self._T[i + 1]

    def __repr__(self):
        return (
            f"Tabulated({len(self._T)}x{len(self._p)} grid, "
            f"T in {self.hull_T}, p in {self.hull_p})"
        )


@dataclass(frozen=True)
class StreamConfig:
    """A fluid model together with its fixed stream pressure."""

    fluid: FluidModel
    pressure: float  # Pa

    def __post_init__(self):
        if not 0.0 < self.pressure < math.inf:
            raise ValueError(f"pressure must be positive and finite, got {self.pressure}")

    @cached_property
    def curve(self) -> Callable[[float], tuple[float, float]]:
        """fluid.curve(pressure), built on first use and kept: once per
        stream, and a table's pressure error stays where the stream is
        first used, not where it is loaded."""
        return self.fluid.curve(self.pressure)


def _sample_grid(lo: float, hi: float, n: int):
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


# ---------------------------------------------------------------------------
# Table file format
#
#   # comments and blank lines are ignored; '#' starts an inline comment
#   T/K p/Pa h/(J/kg)          header, exact tokens
#   T: 280 300 320             T axis, strictly increasing
#   p: 1e6 2e6                 p axis, strictly increasing
#   <len(T)*len(p) lines>      one h value per line, row-major (T outer)
# ---------------------------------------------------------------------------


def _content_lines(source):
    """Yield (line_number, content) pairs with comments and blanks removed."""
    if hasattr(source, "read"):
        raw = source.read().splitlines()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
        try:
            raw = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})",
                             data.count(b"\n", 0, exc.start) + 1) from None
    for n, line in enumerate(raw, start=1):
        content = line.split("#", 1)[0].strip()
        if content:
            yield n, content


def _parse_floats(tokens, line_no):
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise ParseError(f"expected a number, got {tok!r}", line_no) from None
    return out


def load_fluid_table(source) -> Tabulated:
    """Load a Tabulated fluid model from a table file (path or file-like).

    Raises ParseError on malformed content, naming the line and, for a
    path, the file; and NonMonotonicAxisError when an axis is not
    strictly increasing.
    """
    try:
        return _read_table(_content_lines(source))
    except ParseError as exc:
        if hasattr(source, "read"):
            raise
        raise ParseError(exc.reason, exc.line, str(source)) from None


def _read_table(lines) -> Tabulated:
    """load_fluid_table on the (line number, content) pairs of a table."""
    last_line = 0
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise ParseError("empty table file", 1) from None
    if tuple(header.split()) != _TABLE_HEADER:
        raise ParseError(
            f"header must be {' '.join(_TABLE_HEADER)!r}, got {header!r}", line_no
        )

    axes: dict[str, list[float]] = {}
    for name in ("T", "p"):
        try:
            line_no, content = next(lines)
        except StopIteration:
            raise ParseError(f"missing '{name}:' axis line", line_no) from None
        if not content.startswith(name + ":"):
            raise ParseError(f"expected '{name}:' axis line, got {content!r}", line_no)
        vals = _parse_floats(content[len(name) + 1 :].split(), line_no)
        if len(vals) < 2:
            raise ParseError(f"axis '{name}' needs at least 2 values", line_no)
        for i in range(1, len(vals)):
            if vals[i] <= vals[i - 1]:
                raise NonMonotonicAxisError(name, i)
        axes[name] = vals
        last_line = line_no

    n_T, n_p = len(axes["T"]), len(axes["p"])
    values = []
    for line_no, content in lines:
        toks = content.split()
        if len(toks) != 1:
            raise ParseError(
                f"expected one h value per line, got {len(toks)} tokens", line_no
            )
        values.extend(_parse_floats(toks, line_no))
        last_line = line_no
        if len(values) > n_T * n_p:
            raise ParseError(
                f"too many grid cells: expected {n_T * n_p}", line_no
            )
    if len(values) != n_T * n_p:
        raise ParseError(
            f"missing grid cells: expected {n_T * n_p}, got {len(values)}",
            last_line + 1,
        )
    h_grid = [values[i * n_p : (i + 1) * n_p] for i in range(n_T)]
    return Tabulated(axes["T"], axes["p"], h_grid)


def save_fluid_table(model: Tabulated, path) -> None:
    """Write a Tabulated model in the table file format (round-trip safe)."""
    lines = [" ".join(_TABLE_HEADER)]
    lines.append("T: " + " ".join(repr(v) for v in model.T_grid))
    lines.append("p: " + " ".join(repr(v) for v in model.p_grid))
    for row in model.h_grid:
        for v in row:
            lines.append(repr(v))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
