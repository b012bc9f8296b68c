"""Comparison metrics: windowed rating errors, innovation means, flow
recovery time, the model-free rating and the ``compare`` report."""

from __future__ import annotations

import math

from .fluids import StreamConfig
from .means import log_mean
from .records import MonitorRecord, TelemetryRecord

__all__ = [
    "model_free_rating",
    "WindowOutOfRange",
    "window_errors",
    "innovation_means",
    "recovery_time",
    "compare_report",
]


def model_free_rating(rec: TelemetryRecord, hot: StreamConfig) -> float:
    """Direct rating |Hdot_h| / LMTD from one noisy telemetry record.

    Uses measured outlets and no dynamic model at all; returns NaN when
    the temperature differences collapse or invert (the degenerate case
    a storage-aware model avoids).
    """
    z1 = rec.T_h1_K - rec.T_c2_meas_K
    z2 = rec.T_h2_meas_K - rec.T_c1_K
    if z1 <= 0.0 or z2 <= 0.0:
        return math.nan
    dTm = z1 if z1 == z2 else log_mean(z1, z2)
    if dTm <= 0.0:
        return math.nan
    hdot = rec.mdot_h_kg_s * (
        hot.fluid.enthalpy(rec.T_h1_K, rec.p_h_Pa)
        - hot.fluid.enthalpy(rec.T_h2_meas_K, rec.p_h_Pa)
    )
    return abs(hdot) / dTm


class WindowOutOfRange(ValueError):
    """A requested evaluation window is not covered by the data."""


def window_errors(
    times,
    estimates,
    truths,
    t_start: float,
    window_s: float,
    agg: str = "mean",
) -> list[float]:
    """Relative errors |est - truth|/truth aggregated over consecutive
    windows of width window_s starting at t_start.

    ``agg`` is "mean" or "max"; NaN estimates are skipped, and a window
    with no valid estimate aggregates to inf.  Raises ValueError unless
    window_s > 0 and t_start is finite, WindowOutOfRange if not even one
    full window fits after t_start, and ValueError if the full windows
    would outnumber the samples (a window_s so small that the start
    barely moves, or not at all).
    """
    if agg not in ("mean", "max"):
        raise ValueError(f"agg must be 'mean' or 'max', got {agg!r}")
    if not window_s > 0.0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
    times = list(times)
    if not times or t_start + window_s > times[-1] + 1e-9:
        raise WindowOutOfRange(
            f"no full window of {window_s} s fits after t={t_start} s "
            f"(data ends at {times[-1] if times else 'nothing'})"
        )
    starts, start = [], t_start
    while start + window_s <= times[-1] + 1e-9:
        if len(starts) == len(times):
            raise ValueError(f"window_s = {window_s} s is too small: it gives more full "
                             f"windows after t={t_start} s than the {len(times)} samples")
        starts.append(start)
        start += window_s
    out = []
    for start in starts:
        errs = [
            abs(est - tru) / abs(tru)
            for t, est, tru in zip(times, estimates, truths)
            if start <= t < start + window_s and not math.isnan(est)
        ]
        if not errs:
            out.append(math.inf)
        elif agg == "mean":
            out.append(sum(errs) / len(errs))
        else:
            out.append(max(errs))
    return out


def innovation_means(
    monitor: list[MonitorRecord], t_from: float, t_to: float = math.inf
) -> tuple[float, float]:
    """Mean innovation per channel over [t_from, t_to], NaN-aware."""
    hs = [r.innov_h_K for r in monitor
          if t_from <= r.t_s <= t_to and not math.isnan(r.innov_h_K)]
    cs = [r.innov_c_K for r in monitor
          if t_from <= r.t_s <= t_to and not math.isnan(r.innov_c_K)]
    mean_h = sum(hs) / len(hs) if hs else math.nan
    mean_c = sum(cs) / len(cs) if cs else math.nan
    return mean_h, mean_c


def recovery_time(
    monitor: list[MonitorRecord],
    t_event: float,
    target: float,
    rel_tol: float,
) -> float | None:
    """First time after t_event from which mdot_c_hat stays within
    rel_tol of target for the rest of the run; None if it never settles."""
    tail = [r for r in monitor if r.t_s >= t_event]
    if not tail:
        return None
    last_outside = None
    for i, r in enumerate(tail):
        if abs(r.mdot_c_hat_kg_s - target) > rel_tol * abs(target):
            last_outside = i
    if last_outside is None:
        return tail[0].t_s
    if last_outside == len(tail) - 1:
        return None
    return tail[last_outside + 1].t_s


def compare_report(
    telemetry: list[TelemetryRecord],
    monitor: list[MonitorRecord],
    hot: StreamConfig | None = None,
    window_s: float = 300.0,
    settle_s: float = 300.0,
) -> str:
    """Plain-text comparison of monitored rating vs truth.

    Joins the two series on time, tabulates per-window relative kA
    errors (model-based, and model-free when a hot stream is given for
    the enthalpy evaluation), and summarizes innovations over the final
    third of the run.  Raises ValueError unless settle_s is finite and
    nonnegative.
    """
    if not 0.0 <= settle_s < math.inf:
        raise ValueError(f"settle_s must be finite and nonnegative, got {settle_s}")
    mon_by_t = {r.t_s: r for r in monitor}
    times, est, tru = [], [], []
    for rec in telemetry:
        m = mon_by_t.get(rec.t_s)
        if m is None:
            continue
        times.append(rec.t_s)
        est.append(m.kA_hat_W_K)
        tru.append(rec.kA_W_K)
    if not times:
        raise ValueError("telemetry and monitor share no timestamps")
    t0 = times[0] + settle_s
    model_errs = window_errors(times, est, tru, t0, window_s, agg="mean")
    lines = [
        "thermal rating comparison",
        f"records joined: {len(times)}",
        f"settling skipped: {settle_s:g} s, window: {window_s:g} s",
        "",
        "window  t_from_s  t_to_s  model_kA_relerr",
    ]
    free_errs = None
    if hot is not None:
        free = [model_free_rating(rec, hot) for rec in telemetry
                if rec.t_s in mon_by_t]
        free_errs = window_errors(times, free, tru, t0, window_s, agg="mean")
        lines[-1] += "  free_kA_relerr"
    for j, err in enumerate(model_errs):
        row = (f"{j:6d}  {t0 + j * window_s:8g}  {t0 + (j + 1) * window_s:6g}"
               f"  {err:15.6f}")
        if free_errs is not None:
            row += f"  {free_errs[j]:14.6f}"
        lines.append(row)
    span = times[-1] - times[0]
    t_tail = times[-1] - span / 3.0
    mean_h, mean_c = innovation_means(monitor, t_tail)
    lines += [
        "",
        f"final-third mean innovation: hot {mean_h:.6g} K, cold {mean_c:.6g} K",
        f"worst model window relerr: {max(model_errs):.6f}",
    ]
    if free_errs is not None:
        finite = [e for e in free_errs if math.isfinite(e)]
        worst = max(finite) if finite else math.inf
        lines.append(f"worst model-free window relerr: {worst:.6f}")
    return "\n".join(lines) + "\n"
