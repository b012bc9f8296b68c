"""Telemetry and monitor records and their CSV round trip.

The CSV columns are the record fields in order; the readers reject a
bad header or row with a ValueError that names the file and the line.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

from .reference_model import InletConditions

__all__ = [
    "TelemetryRecord",
    "MonitorRecord",
    "TELEMETRY_COLUMNS",
    "MONITOR_COLUMNS",
    "write_telemetry_csv",
    "read_telemetry_csv",
    "write_monitor_csv",
    "read_monitor_csv",
]


@dataclass
class TelemetryRecord:
    t_s: float
    T_h1_K: float
    T_c1_K: float
    mdot_h_kg_s: float
    mdot_c_kg_s: float
    T_h2_true_K: float
    T_c2_true_K: float
    T_h2_meas_K: float
    T_c2_meas_K: float
    T_w1_K: float
    T_w2_K: float
    aA_h_W_K: float
    aA_c_W_K: float
    kA_W_K: float
    p_h_Pa: float
    p_c_Pa: float

    def inlets(self) -> InletConditions:
        return InletConditions(
            self.T_h1_K, self.T_c1_K, self.mdot_h_kg_s, self.mdot_c_kg_s
        )


@dataclass
class MonitorRecord:
    t_s: float
    T_w1_hat_K: float
    T_w2_hat_K: float
    upsilon_h_hat_W_K: float
    upsilon_c_hat_W_K: float
    mdot_c_hat_kg_s: float
    kA_hat_W_K: float
    innov_h_K: float
    innov_c_K: float
    eps_h_K: float
    eps_c_K: float
    flags: str


# The CSV columns are the record fields in order; every monitor column
# but the trailing flags is a number.
TELEMETRY_COLUMNS = tuple(f.name for f in fields(TelemetryRecord))
MONITOR_COLUMNS = tuple(f.name for f in fields(MonitorRecord))
_MONITOR_NUMERIC = len(MONITOR_COLUMNS) - 1


def _write_records(records, path, columns: tuple, n_numeric: int) -> None:
    """CSV with the given header, one row per record; the first n_numeric
    fields are written as %.12g, the rest as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow(["%.12g" % getattr(rec, col) for col in columns[:n_numeric]]
                            + [getattr(rec, col) for col in columns[n_numeric:]])


def _read_records(path, kind: str, columns: tuple, n_numeric: int, make) -> list:
    """make(*row) for each row of a CSV with the given header, whose
    first n_numeric fields are numbers; a bad header or row raises
    ValueError naming the file and the line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise ValueError(f"unexpected {kind} header in {path}: {header}")
        out = []
        for row in reader:
            try:
                if len(row) != len(columns):
                    raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
                out.append(make(*map(float, row[:n_numeric]), *row[n_numeric:]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        return out


def write_telemetry_csv(records, path) -> None:
    _write_records(records, path, TELEMETRY_COLUMNS, len(TELEMETRY_COLUMNS))


def read_telemetry_csv(path) -> list[TelemetryRecord]:
    return _read_records(path, "telemetry", TELEMETRY_COLUMNS,
                         len(TELEMETRY_COLUMNS), TelemetryRecord)


def write_monitor_csv(records, path) -> None:
    _write_records(records, path, MONITOR_COLUMNS, _MONITOR_NUMERIC)


def read_monitor_csv(path) -> list[MonitorRecord]:
    return _read_records(path, "monitor", MONITOR_COLUMNS, _MONITOR_NUMERIC, MonitorRecord)

