"""Golden outputs: the telemetry and monitor CSVs of the shipped scenarios
must match the committed files.

The monitor CSVs must match byte for byte.  The monitor runs over the
committed telemetry, as ``hxtwin monitor`` does, so a telemetry change
does not hide a monitor change.  A mismatch names the first differing
row and column and the size of the difference.  The filter's covariance
algebra runs on floats, not on numpy's BLAS, so the bytes do not depend
on the OpenBLAS kernel picked for the CPU: one test forces two other
kernels (OPENBLAS_CORETYPE) in subprocesses.

The telemetry CSVs are compared column by column within fixed bounds
(tolerance mode): the reference root solves stop at a residual
tolerance, so a change of solver moves outlets and walls in the last
printed digit.  Time, inlet, flow and pressure columns are excitation
and must match exactly.  A mismatch lists the largest difference in
every column.

Regenerate the goldens only with a change that is meant to alter the
outputs, and say so in its description:

    PYTHONPATH=src python tests/test_golden.py

This rewrites a telemetry golden only where the tolerance mode flags it,
and builds every monitor golden from the telemetry golden on disk, so a
run on an unchanged tree leaves every golden as it is.
"""

import csv
import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hxtwin.harness import Monitor, run_monitor, run_truth_sim
from hxtwin.records import read_telemetry_csv, write_monitor_csv, write_telemetry_csv
from hxtwin.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# scenario -> (duration override in s or None, monitored variants)
CASES = {
    "smoke_constant": (None, ("A",)),
    "coolant_step": (None, ("A", "B", "C")),
    "chirp_tracking": (600.0, ("A",)),
}


def _scenario(name):
    scn = load_scenario(ROOT / "scenarios" / f"{name}.cfg")
    duration = CASES[name][0]
    return scn if duration is None else dataclasses.replace(scn, duration_s=duration)


def telemetry_path(name) -> Path:
    return GOLDEN / f"{name}.telemetry.csv"


def monitor_path(name, variant) -> Path:
    return GOLDEN / f"{name}.{variant}.monitor.csv"


def write_telemetry(name, path) -> None:
    write_telemetry_csv(run_truth_sim(_scenario(name)), path)


def write_monitor(name, variant, path) -> None:
    telemetry = read_telemetry_csv(telemetry_path(name))
    write_monitor_csv(run_monitor(_scenario(name), telemetry, variant=variant), path)


def first_difference(golden: bytes, actual: bytes) -> str | None:
    """None for equal bytes, else where and by how much the CSVs differ."""
    if golden == actual:
        return None
    g_rows = list(csv.reader(golden.decode("utf-8").splitlines()))
    a_rows = list(csv.reader(actual.decode("utf-8").splitlines()))
    header = g_rows[0] if g_rows else []
    for i, (g_row, a_row) in enumerate(zip(g_rows, a_rows)):
        for j, (g, a) in enumerate(zip(g_row, a_row)):
            if g == a:
                continue
            col = header[j] if j < len(header) else f"#{j}"
            try:
                size = f"difference {float(a) - float(g):.3e}"
            except ValueError:
                size = "non-numeric"
            return f"row {i} column {col}: golden {g!r}, got {a!r} ({size})"
        if len(g_row) != len(a_row):
            return f"row {i}: golden has {len(g_row)} fields, got {len(a_row)}"
    if len(g_rows) != len(a_rows):
        return f"golden has {len(g_rows)} rows, got {len(a_rows)}"
    return "same fields, different bytes (line endings or quoting)"


def _assert_matches(golden_path: Path, actual_path: Path) -> None:
    diff = first_difference(golden_path.read_bytes(), actual_path.read_bytes())
    assert diff is None, f"{golden_path.name}: {diff}"


# Telemetry tolerance mode: column -> (bound, relative?).  Columns not
# listed must match exactly.
TEMPERATURE_TOL_K = 1e-8
CONDUCTANCE_RTOL = 1e-9
TELEMETRY_BOUNDS = {
    **{col: (TEMPERATURE_TOL_K, False) for col in (
        "T_h2_true_K", "T_c2_true_K", "T_h2_meas_K", "T_c2_meas_K", "T_w1_K", "T_w2_K",
    )},
    **{col: (CONDUCTANCE_RTOL, True) for col in ("aA_h_W_K", "aA_c_W_K", "kA_W_K")},
}


def column_differences(golden: str, actual: str) -> dict[str, float]:
    """Largest difference per column of two numeric CSVs with the same
    header and row count; relative for the columns bounded relatively."""
    g_rows = list(csv.reader(golden.splitlines()))
    a_rows = list(csv.reader(actual.splitlines()))
    assert a_rows[0] == g_rows[0], f"header {a_rows[0]} != golden {g_rows[0]}"
    assert len(a_rows) == len(g_rows), f"golden has {len(g_rows)} rows, got {len(a_rows)}"
    header = g_rows[0]
    largest = dict.fromkeys(header, 0.0)
    for g_row, a_row in zip(g_rows[1:], a_rows[1:]):
        for col, g, a in zip(header, g_row, a_row):
            diff = abs(float(a) - float(g))
            if TELEMETRY_BOUNDS.get(col, (0.0, False))[1]:
                diff /= abs(float(g))
            largest[col] = max(largest[col], diff)
    return largest


def telemetry_violations(largest: dict[str, float]) -> list[str]:
    """Columns whose largest difference exceeds their bound."""
    return [
        f"{col}: {diff:.3e} > {TELEMETRY_BOUNDS.get(col, (0.0, False))[0]:.0e}"
        for col, diff in largest.items()
        if not diff <= TELEMETRY_BOUNDS.get(col, (0.0, False))[0]
    ]


@pytest.mark.parametrize("name", list(CASES))
def test_telemetry_matches_golden(name, tmp_path):
    out = tmp_path / "telemetry.csv"
    write_telemetry(name, out)
    largest = column_differences(
        telemetry_path(name).read_text(encoding="utf-8"), out.read_text(encoding="utf-8")
    )
    report = ", ".join(f"{col} {diff:.1e}" for col, diff in largest.items())
    print(f"{name} largest telemetry differences: {report}")
    assert telemetry_violations(largest) == [], f"{name}: {report}"


@pytest.mark.parametrize("name, variant", [
    (name, variant) for name, (_dur, variants) in CASES.items() for variant in variants
])
def test_monitor_matches_golden(name, variant, tmp_path):
    out = tmp_path / "monitor.csv"
    write_monitor(name, variant, out)
    _assert_matches(monitor_path(name, variant), out)


def test_monitors_stepped_in_turn_match_their_goldens(tmp_path):
    # one record each in turn over the first 300 records (t < 300 s) of
    # coolant_step, which cover the flow step at 120 s and C's indefinite P
    # near 270 s: each run keeps its own golden's bytes, so the monitors
    # share no state
    name, n_records = "coolant_step", 300
    scn, variants = _scenario(name), CASES[name][1]
    telemetry = read_telemetry_csv(telemetry_path(name))[:n_records]
    monitors = [Monitor(scn, telemetry[0], variant) for variant in variants]
    logs = [[monitor.init] for monitor in monitors]
    for rec in telemetry[1:]:
        for monitor, log in zip(monitors, logs):
            log.append(monitor.step(rec))
    for variant, log in zip(variants, logs):
        out = tmp_path / f"{variant}.monitor.csv"
        write_monitor_csv(log, out)
        lines = monitor_path(name, variant).read_bytes().splitlines(keepends=True)
        diff = first_difference(b"".join(lines[:1 + n_records]), out.read_bytes())
        assert diff is None, f"{name}.{variant} stepped in turn: {diff}"


def test_monitor_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # numpy's matmul runs on an OpenBLAS kernel picked for the CPU; the
    # filter's covariance algebra runs on floats, so forcing another
    # kernel leaves the monitor's bytes as they are
    name = "smoke_constant"
    runs = {}
    for core in ("Sandybridge", "Haswell"):
        out = tmp_path / f"{core}.monitor.csv"
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        runs[core, out] = subprocess.Popen(
            [sys.executable, "-m", "hxtwin.cli", "monitor", str(telemetry_path(name)),
             str(ROOT / "scenarios" / f"{name}.cfg"), "-o", str(out), "--variant", "A"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for (core, out), proc in runs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{core}: {err}"
        diff = first_difference(monitor_path(name, "A").read_bytes(), out.read_bytes())
        assert diff is None, f"OPENBLAS_CORETYPE={core}: {diff}"


def test_first_difference_names_row_column_and_size():
    golden = b"t_s,kA_W_K,flags\r\n0,1000,ok\r\n1,1000,ok\r\n"
    assert first_difference(golden, golden) is None
    moved = golden.replace(b"1,1000,ok", b"1,1000.5,ok")
    assert first_difference(golden, moved) == (
        "row 2 column kA_W_K: golden '1000', got '1000.5' (difference 5.000e-01)"
    )
    assert first_difference(golden, golden + b"2,1000,ok\r\n") == (
        "golden has 3 rows, got 4"
    )


def test_telemetry_bounds_per_column():
    golden = "t_s,T_w1_K,kA_W_K\r\n0,300,30000\r\n1,301,30000\r\n"
    moved = "t_s,T_w1_K,kA_W_K\r\n0,300,30000.00002\r\n1,301.000000009,30000\r\n"
    largest = column_differences(golden, moved)
    assert largest["t_s"] == 0.0
    assert largest["T_w1_K"] == pytest.approx(9e-9, rel=1e-3)
    assert largest["kA_W_K"] == pytest.approx(2e-5 / 30000, rel=1e-3)
    assert telemetry_violations(largest) == []
    assert telemetry_violations({"T_w1_K": 2e-8, "kA_W_K": 0.0, "t_s": 1e-12}) == [
        "T_w1_K: 2.000e-08 > 1e-08", "t_s: 1.000e-12 > 0e+00",
    ]


def telemetry_flagged(golden: Path, fresh: Path) -> bool:
    """True when the fresh telemetry breaks the golden's bounds, or the
    golden is missing or has another header or row count."""
    if not golden.exists():
        return True
    try:
        largest = column_differences(golden.read_text(encoding="utf-8"),
                                     fresh.read_text(encoding="utf-8"))
    except AssertionError:
        return True
    return telemetry_violations(largest) != []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, (_dur, case_variants) in CASES.items():
            fresh = Path(tmp) / f"{case}.telemetry.csv"
            write_telemetry(case, fresh)
            if telemetry_flagged(telemetry_path(case), fresh):
                telemetry_path(case).write_bytes(fresh.read_bytes())
                print(f"rewrote {telemetry_path(case).name}")
            for v in case_variants:
                write_monitor(case, v, monitor_path(case, v))
            print(f"wrote monitor goldens for {case}")
