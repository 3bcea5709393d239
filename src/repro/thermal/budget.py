"""The surrogate kernel's error budget — one module, one set of numbers.

The ``surrogate`` kernel tier (DESIGN.md §2.18) is *not* byte-identical to
the exact ``vector`` kernel: it advances district-aggregate thermal state
through a reduced-order model and accepts a bounded, declared error in
exchange for O(districts) instead of O(rooms) per-tick work.  This module declares that
budget.  Every tolerance assertion in the test suite imports these constants
— the differential fuzz harness in ``tests/test_kernel_equivalence.py``
asserts each metric against *these names* — so tightening the budget is a
one-line diff here, and a silently drifting surrogate fails CI rather than
shipping a wider error bar.

The budget is stated against the ``vector`` kernel over the seeded random
cities of the fuzz suite, under the surrogate-eligibility conditions
documented in EXPERIMENTS.md.  Sampled and zoomed districts are exempt from the budget entirely: they must match
the vector kernel **exactly** (byte-identical trajectories), which the fuzz
suite asserts separately.
"""

from __future__ import annotations

__all__ = [
    "DISTRICT_MEAN_TEMP_TOL_C",
    "COMFORT_VIOLATION_RATE_TOL",
    "FLEET_ENERGY_REL_TOL",
    "AGGREGATE_ENERGY_RESIDUAL_REL",
]

#: |surrogate − vector| per-district time-mean air temperature (°C).  The
#: aggregate 2R2C carries the exact mean dynamics of identical rooms; the
#: error comes from the clipped-PI mean and the fitted power map.
DISTRICT_MEAN_TEMP_TOL_C = 0.35

#: |surrogate − vector| comfort-violation rate (absolute fraction of tracked
#: time outside the ±1 °C band, i.e. ``1 − time_in_band``).
COMFORT_VIOLATION_RATE_TOL = 0.06

#: |surrogate − vector| / vector total fleet electrical energy.  The
#: surrogate's modelled energy replaces the quiesced districts' metered
#: energy through the calibrated power map.
FLEET_ENERGY_REL_TOL = 0.10

#: Per-tick energy-balance residual of the aggregate model, relative to the
#: heat flux through the district that tick (float round-off only — the
#: update is exact forward Euler, so this is machine-epsilon territory).
AGGREGATE_ENERGY_RESIDUAL_REL = 1e-9
