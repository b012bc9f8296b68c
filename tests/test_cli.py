"""End-to-end tests for the hxtwin command line."""

from pathlib import Path

import pytest

import hxtwin.cli as cli
import hxtwin.reference_model as reference_model
from hxtwin.records import read_monitor_csv, read_telemetry_csv

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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
        rs3_residual=1.0, rs4_residual=0.0, degenerate=False, passed=False,
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
    ]


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
