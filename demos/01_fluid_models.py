#!/usr/bin/env python3
"""Tour of the three fluid property models.

Builds a calorically perfect gas, a polynomial-cp coolant, and the
tabulated supercritical fluid shipped in scenarios/co2_like.txt, then
prints enthalpy and mean specific heat samples for each.  The tabulated
model interpolates enthalpy bilinearly in (T, p); its specific heat
peaks near the pseudocritical temperature, which is what makes a
constant-cp shortcut risky for the hot stream.
"""

from pathlib import Path

from hxtwin.fluids import CaloricallyPerfect, Tabulated, load_fluid_table
from hxtwin.sampledata import make_coolant_model

ROOT = Path(__file__).resolve().parent.parent


def main():
    gas = CaloricallyPerfect(cp=1005.0)
    coolant = make_coolant_model()  # cp(T) = 2800 + 2.0 * T
    table = load_fluid_table(ROOT / "scenarios" / "co2_like.txt")

    print("calorically perfect gas, cp = 1005 J/(kg K)")
    for T in (300.0, 350.0, 400.0):
        h = gas.enthalpy(T, 1.0e5)
        print(f"  T = {T:5.1f} K   h = {h:12.1f} J/kg")

    print("\npolynomial coolant, cp linear in T")
    for T in (300.0, 320.0, 350.0):
        cpm = coolant.mean_specific_heat(290.0, T, 4.0e5)
        print(f"  T = {T:5.1f} K   h = {coolant.enthalpy(T, 4.0e5):12.1f} J/kg"
              f"   mean cp from 290 K = {cpm:8.1f}")

    print("\ntabulated fluid, grid "
          f"{len(table.T_grid)} x {len(table.p_grid)} points")
    assert isinstance(table, Tabulated)
    for p in (9.0e6, 1.0e7, 1.1e7):
        # crude peak search: largest local mean cp over 2 K cells
        best_T, best_cp = None, 0.0
        T = table.T_grid[0]
        while T + 2.0 <= table.T_grid[-1]:
            cp = table.mean_specific_heat(T, T + 2.0, p)
            if cp > best_cp:
                best_T, best_cp = T + 1.0, cp
            T += 2.0
        print(f"  p = {p / 1e6:5.2f} MPa   cp peak ~ {best_cp:7.1f} J/(kg K)"
              f" near T = {best_T:.0f} K")

    print("\nmean cp of the hot stream over a 330 -> 289 K cooling span "
          "at 10 MPa:")
    print(f"  {table.mean_specific_heat(330.0, 289.0, 1.0e7):8.1f} J/(kg K)"
          "   (a constant 2300 misses the pseudocritical shoulder)")


if __name__ == "__main__":
    main()
