"""The cost ledger: Python-level calls per monitor record and per truth
sample, against ceilings kept here.

Timings on a shared host swing by tens of percent between runs; the
number of Python function calls a run makes is exact for a given tree
and interpreter.  Each case counts the sys.setprofile "call" events of
one fixed slice of work:

- a monitor run: N golden-telemetry records stepped after Monitor init,
  for each shipped scenario and variant A/B/C;
- a truth run: run_truth_sim of each shipped scenario over N samples
  (duration_s = N * dt_s), set-up included.

Each ceiling is the total count over the N records or samples.  A change
that lowers a count lowers its ceiling with it; a change that raises one
says why.  Run with -s to see the measured counts.
"""

import functools
import gc
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hxtwin.harness import Monitor, run_truth_sim
from hxtwin.records import read_telemetry_csv
from hxtwin.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
# 50 keeps the ledger near 1 s on a 2-core host; 100 took about 2 s
N = 50

CEILINGS = {
    ("smoke_constant", "A"): 14_202,
    ("smoke_constant", "B"): 15_852,
    ("smoke_constant", "C"): 15_852,
    ("smoke_constant", "truth"): 21_698,
    ("coolant_step", "A"): 20_123,
    ("coolant_step", "B"): 22_096,
    ("coolant_step", "C"): 21_966,
    ("coolant_step", "truth"): 22_034,
    ("chirp_tracking", "A"): 16_728,
    ("chirp_tracking", "B"): 18_378,
    ("chirp_tracking", "C"): 18_378,
    ("chirp_tracking", "truth"): 21_929,
}


@functools.cache
def scenario_and_telemetry(name):
    return (load_scenario(ROOT / "scenarios" / f"{name}.cfg"),
            read_telemetry_csv(ROOT / "tests" / "golden" / f"{name}.telemetry.csv")[:N + 1])


def count_calls(fn) -> int:
    """The sys.setprofile "call" events while fn() runs, with the cyclic
    garbage collector off, so that no finalizer of garbage that earlier
    tests left runs inside the count."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@pytest.mark.parametrize("name, run", list(CEILINGS), ids=[f"{n}-{r}" for n, r in CEILINGS])
def test_calls_stay_under_their_ceiling(name, run):
    scn, tel = scenario_and_telemetry(name)
    if run == "truth":
        # a one-sample run first makes the imports that the first run of
        # a process makes
        run_truth_sim(replace(scn, duration_s=scn.dt_s))
        short = replace(scn, duration_s=N * scn.dt_s)
        calls = count_calls(lambda: run_truth_sim(short))
    else:
        monitor = Monitor(scn, tel[0], run)
        calls = count_calls(lambda: [monitor.step(rec) for rec in tel[1:]])
    print(f"{name} {run}: {calls} calls over {N}, {calls / N:.2f} per "
          f"{'sample' if run == 'truth' else 'record'}")
    assert calls <= CEILINGS[name, run]
