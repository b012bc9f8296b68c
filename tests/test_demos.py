"""The quick demos run to the end.

Demos 04 and 05 simulate whole scenarios, which the acceptance and
golden tests already cover, so they stay out of the suite.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_fluid_models.py",
    "02_reference_vs_approx.py",
    "03_wall_dynamics_relaxation.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
