"""A6's trajectory, pinned request by request.

The golden table (``tests/golden/A6.txt``) shows rounded rates and waste
totals, and it runs only in the slow tier.  This test hashes the full
record of every request of two cells, plus the fleet's energy, executed
cycles and event count, so a change in event order, RNG draws or float
fold order anywhere on the churn request path fails in the fast tier.
Both exact kernels must produce the same digest (CI runs this file under
``REPRO_KERNEL=scalar`` and ``REPRO_KERNEL=vector``).

Request ids are left out: they come from a process-global counter, so
they depend on what else the process built before.
"""

from __future__ import annotations

import hashlib

from repro.experiments import a6_churn
from repro.sim.calendar import DAY, HOUR

#: the harshest churn with every policy armed, and plain first-completion
#: cloning at a milder level: together they cover salvage, retry,
#: checkpointing, failover and both clone outcomes
CELLS = (("mtbf=2h", "all"), ("mtbf=8h", "clone"))

#: sha256 over both cells at seed 101
EXPECTED = "15c4053f4cfc2d2c5d8d87665e092b5212847d20a9f0b2c9f290b73dcdae9734"


def trajectory_digest(seed: int = 101) -> str:
    """sha256 of the per-request record of :data:`CELLS` at ``seed``."""
    h = hashlib.sha256()
    for mtbf_label, bundle in CELLS:
        mw, t0, edge, cloud = a6_churn._build_cell(
            seed, a6_churn.MTBF_LEVELS_S[mtbf_label],
            a6_churn.BUNDLES[bundle])
        mw.run_until(t0 + DAY + 2 * HOUR)
        for r in edge + cloud:
            h.update(repr((r.status.value, r.started_at, r.completed_at,
                           r.executed_on, r.network_delay_s)).encode())
        h.update(repr((mw.fleet_energy_j(), mw.total_cycles_executed(),
                       mw.engine.events_executed)).encode())
    return h.hexdigest()


def test_a6_trajectory_is_pinned():
    assert trajectory_digest() == EXPECTED
