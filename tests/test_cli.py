"""End-to-end tests for the hxtwin command line."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hxtwin.cli as cli
import hxtwin.reference_model as reference_model
from hxtwin.records import read_monitor_csv, read_telemetry_csv, write_telemetry_csv

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SMOKE = str(SCENARIOS / "smoke_constant.cfg")


def test_simulate_writes_telemetry(tmp_path, capsys):
    out = tmp_path / "tel.csv"
    assert cli.main(["simulate", SMOKE, "-o", str(out)]) == 0
    assert "121 telemetry records" in capsys.readouterr().out
    recs = read_telemetry_csv(out)
    assert len(recs) == 121
    assert recs[0].t_s == 0.0 and recs[-1].t_s == 60.0


def test_simulate_seed_override(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    cli.main(["simulate", SMOKE, "-o", str(a)])
    cli.main(["simulate", SMOKE, "-o", str(b), "--seed", "99"])
    cli.main(["simulate", SMOKE, "-o", str(c), "--seed", "99"])
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()  # same seed, same bytes


def test_monitor_and_compare_pipeline(tmp_path, capsys):
    tel = tmp_path / "tel.csv"
    mon = tmp_path / "mon.csv"
    rep = tmp_path / "report.txt"
    cli.main(["simulate", SMOKE, "-o", str(tel)])
    assert cli.main(["monitor", str(tel), SMOKE, "-o", str(mon)]) == 0
    assert "(variant A)" in capsys.readouterr().out
    records = read_monitor_csv(mon)
    assert len(records) == 121
    assert records[0].flags == "init"
    assert cli.main([
        "compare", str(tel), str(mon), "-o", str(rep),
        "--config", SMOKE, "--window-s", "20", "--settle-s", "10",
    ]) == 0
    text = rep.read_text()
    assert "thermal rating comparison" in text
    assert "free_kA_relerr" in text


def test_monitor_variant_override(tmp_path, capsys):
    tel = tmp_path / "tel.csv"
    mon = tmp_path / "mon.csv"
    cli.main(["simulate", SMOKE, "-o", str(tel)])
    cli.main(["monitor", str(tel), SMOKE, "-o", str(mon), "--variant", "B"])
    assert "(variant B)" in capsys.readouterr().out
    hats = [r.mdot_c_hat_kg_s for r in read_monitor_csv(mon)]
    assert any(h != hats[0] for h in hats)  # fifth state actually estimated


def test_bench_prints_table(capsys):
    assert cli.main(["bench", SMOKE, "-n", "20"]) == 0
    out = capsys.readouterr().out
    assert "reference" in out and "approximate" in out
    assert "speedup" in out


def test_verify_uniqueness_passes_smoke(capsys):
    assert cli.main(["verify-uniqueness", SMOKE]) == 0
    out = capsys.readouterr().out
    assert "sign changes:        1" in out
    assert "passed:              True" in out


def test_verify_uniqueness_failure_exit_code(monkeypatch, capsys):
    failing = reference_model.UniquenessReport(
        sign_changes=2, monotone_hot=False, monotone_cold=True,
        rs3_residual=1.0, rs4_residual=0.0, passed=False,
    )
    monkeypatch.setattr(reference_model, "verify_uniqueness",
                        lambda *a, **k: failing)
    assert cli.main(["verify-uniqueness", SMOKE]) == 2
    assert "passed:              False" in capsys.readouterr().out


def test_input_errors_print_one_line_and_exit_1(tmp_path, capsys):
    tel, mon = tmp_path / "tel.csv", tmp_path / "mon.csv"
    cli.main(["simulate", SMOKE, "-o", str(tel)])
    cli.main(["monitor", str(tel), SMOKE, "-o", str(mon)])
    capsys.readouterr()
    compare = ["compare", str(tel), str(mon), "-o", str(tmp_path / "r.txt")]
    # 60 s of data leave no room for the default 300 s window
    assert cli.main(compare) == 1
    assert cli.main(compare + ["--window-s", "1e-300", "--settle-s", "10"]) == 1
    for settle_s in ("nan", "-1000"):
        assert cli.main(compare + ["--window-s", "20", "--settle-s", settle_s]) == 1
    missing = str(tmp_path / "missing.cfg")
    assert cli.main(["simulate", missing, "-o", str(tel)]) == 1
    # a bad time at record 30 (t = 15 s): not finite, or a jump to 1e12 s
    records = read_telemetry_csv(tel)
    for t_s in (math.inf, math.nan, 1e12):
        records[30].t_s = t_s
        write_telemetry_csv(records, tmp_path / "bad.csv")
        assert cli.main(["monitor", str(tmp_path / "bad.csv"), SMOKE, "-o", str(mon)]) == 1
    # a NaN measured hot outlet at record 60 (t = 30 s)
    records = read_telemetry_csv(tel)
    records[60].T_h2_meas_K = math.nan
    write_telemetry_csv(records, tmp_path / "bad.csv")
    assert cli.main(["monitor", str(tmp_path / "bad.csv"), SMOKE, "-o", str(mon)]) == 1
    # a NaN first time, which no dt catches, and a zero hot flow at t = 30 s
    for k, column, value in ((0, "t_s", math.nan), (60, "mdot_h_kg_s", 0.0)):
        records = read_telemetry_csv(tel)
        setattr(records[k], column, value)
        write_telemetry_csv(records, tmp_path / "bad.csv")
        assert cli.main(["monitor", str(tmp_path / "bad.csv"), SMOKE, "-o", str(mon)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "hxtwin compare: no full window of 300.0 s fits after t=300.0 s "
        "(data ends at 60.0)",
        "hxtwin compare: window_s = 1e-300 s is too small: it gives more full "
        "windows after t=10.0 s than the 121 samples",
        "hxtwin compare: settle_s must be finite and nonnegative, got nan",
        "hxtwin compare: settle_s must be finite and nonnegative, got -1000.0",
        f"hxtwin simulate: [Errno 2] No such file or directory: '{missing}'",
        "hxtwin monitor: telemetry times must increase by at most duration_s = 60.0 s, "
        "got dt=inf at t=inf",
        "hxtwin monitor: telemetry times must increase by at most duration_s = 60.0 s, "
        "got dt=nan at t=nan",
        "hxtwin monitor: telemetry times must increase by at most duration_s = 60.0 s, "
        "got dt=999999999985.5 at t=1000000000000.0",
        "hxtwin monitor: telemetry reading T_h2_meas_K must be finite, got nan at t=30.0",
        "hxtwin monitor: telemetry reading t_s must be finite, got nan at t=nan",
        "hxtwin monitor: telemetry reading mdot_h_kg_s must be positive, got 0.0 at t=30.0",
    ]


def test_file_faults_print_one_line_naming_the_file_and_exit_1(tmp_path, capsys):
    def damaged(source, name, line, edit):
        lines = Path(source).read_bytes().split(b"\n")
        lines[line - 1] = edit(lines[line - 1])
        (tmp_path / name).write_bytes(b"\n".join(lines))
        return str(tmp_path / name)

    golden = ROOT / "tests" / "golden" / "smoke_constant.telemetry.csv"
    big = damaged(golden, "big.csv", 6,
                  lambda row: b'"' + b"9" * 140_000 + b'"' + row[row.index(b","):])
    byte = damaged(golden, "byte.csv", 7, lambda row: b"\xff" + row)
    quote = damaged(golden, "quote.csv", 4, lambda row: b'"' + row)
    mon = str(tmp_path / "mon.csv")
    for tel in (big, byte, quote):
        assert cli.main(["monitor", tel, SMOKE, "-o", mon]) == 1
    cfg = damaged(SMOKE, "byte.cfg", 4, lambda line: line + b" # \xff")
    assert cli.main(["simulate", cfg, "-o", str(tmp_path / "tel.csv")]) == 1
    # a table scenario beside a table with a bad byte on line 5
    chirp = SCENARIOS / "chirp_tracking.cfg"
    table = damaged(SCENARIOS / "co2_like.txt", "co2_like.txt", 5, lambda line: line + b"\xfe")
    (tmp_path / "chirp.cfg").write_bytes(chirp.read_bytes())
    table_line = chirp.read_text().splitlines().index("table_path = co2_like.txt") + 1
    assert cli.main(["simulate", str(tmp_path / "chirp.cfg"), "-o", str(tmp_path / "t.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"hxtwin monitor: {big}, line 6: field larger than field limit (131072)",
        f"hxtwin monitor: {byte}, line 7: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte",
        f"hxtwin monitor: {quote}, line 4: expected 16 fields, got 1",
        f"hxtwin simulate: {cfg}, line 4: not UTF-8 text (invalid start byte)",
        f"hxtwin simulate: {tmp_path / 'chirp.cfg'}, line {table_line}: fluid table {table}, "
        "line 5: not UTF-8 text (invalid start byte)",
    ]


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


# Runs the seven subcommands in one fresh process and reports, as JSON,
# their exit codes and whether numpy was loaded after them.
NUMPY_GUARD = """
import json, sys
from hxtwin.cli import main
tel, cfg, out = sys.argv[1:]
codes = [main(["monitor", tel, cfg, "-o", f"{out}/{v}.csv", "--variant", v]) for v in "ABC"]
codes.append(main(["compare", tel, f"{out}/A.csv", "-o", f"{out}/report.txt",
                   "--window-s", "30", "--settle-s", "10"]))
codes.append(main(["bench", cfg, "-n", "10"]))
codes.append(main(["verify-uniqueness", cfg]))
codes.append(main(["simulate", cfg, "-o", f"{out}/tel.csv"]))
print(json.dumps([codes, "numpy" in sys.modules]))
"""


def test_no_command_loads_numpy(tmp_path):
    # the filter runs on floats and noise.py draws the truth's seeded noise
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_GUARD, str(ROOT / "tests" / "golden" /
                                                "smoke_constant.telemetry.csv"),
         SMOKE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    codes, loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * 7
    assert not loaded, "an hxtwin command loaded numpy"


@pytest.mark.parametrize("seed", ["-1", "-4294967297"])
def test_simulate_rejects_a_negative_seed_in_one_line(tmp_path, capsys, seed):
    out = tmp_path / "tel.csv"
    assert cli.main(["simulate", SMOKE, "-o", str(out), "--seed", seed]) == 1
    assert capsys.readouterr().err == (
        f"hxtwin simulate: seed must be a non-negative int, got {seed}\n")
    assert not out.exists()
