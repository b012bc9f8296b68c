"""hxtwin: digital twin toolkit for counterflow heat exchangers.

Three layers, each imported from its own module:

* ``hxtwin.reference_model``: an accurate reference model that resolves
  nonlinear fluid properties by iterative root search (plant truth and
  validation);
* ``hxtwin.approx_model``: a one-step approximate model built on
  weighted temperature-difference means (fast path for online use);
* ``hxtwin.ekf``: a joint extended Kalman filter that tracks wall
  temperatures and heat transfer parameters from noisy outlet
  measurements, yielding a live estimate of the thermal rating kA.

Scenario-driven experiments with a CSV/config file interface sit on
top: ``hxtwin.scenario`` loads a scenario config, ``hxtwin.harness``
runs the truth simulation and the monitor, ``hxtwin.records`` reads and
writes their CSV files, and ``hxtwin.metrics`` compares the estimates
against truth.  ``hxtwin.cli`` is the `hxtwin` console script.  Import
names from their modules; each library module lists its public names in
``__all__``.
"""

__version__ = "0.1.0"
