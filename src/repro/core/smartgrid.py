"""The smart-grid manager (paper §III-A, closing).

"An obvious task of the smart-grid manager is to ensure that the heat
processing of computing requests produces the heat requested by customers.
The manager must also negotiate with external systems (e.g. energy operators,
edge computing services, smart-cities services) to calibrate its energy
consumption and service delivery to the demand."

The manager aggregates every server's regulator state into fleet-level
signals — how much power the heat demand authorises, how many cores that
unlocks — and applies grid-operator constraints (demand-response caps) by
scaling regulator budgets down.  Experiment E3's seasonal-capacity series is
the manager's :attr:`capacity_log` accumulated over a year.

The fleet's regulators live in a
:class:`~repro.core.regulation.FleetRegulatorBank` (see
:meth:`SmartGridManager.attach_bank`), so the per-tick fleet signals are
computed from the bank's arrays instead of walking ``(server, regulator)``
pairs in Python.  Float sums that land in logged outputs are performed as
sequential left-folds over the elementwise-computed products — never as
numpy reductions, whose pairwise association would change low-order bits —
so the logs keep the fold order the goldens pin (DESIGN.md §2.13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.sim.calendar import SimCalendar

__all__ = ["SmartGridManager"]


@dataclass
class _FleetEntry:
    server: object           # ComputeServer
    regulator: object        # HeatRegulator


class SmartGridManager:
    """Fleet-level heat/compute coordination.

    Register each (server, regulator) pair; boilers register with their water
    loop's ``headroom`` as a pseudo-regulator via :meth:`register_boiler`.
    Then :meth:`attach_bank` the frozen bank holding the registered
    regulators, and call :meth:`tick` on the thermal tick, *after*
    regulators updated.
    """

    def __init__(self, engine):
        self.engine = engine
        self._fleet: List[_FleetEntry] = []
        self._boilers: List[object] = []
        self.grid_cap_w: Optional[float] = None
        self._cal = SimCalendar()
        #: month → accumulated available core-seconds (E3's series)
        self.capacity_log: Dict[int, float] = {}
        #: month → accumulated authorised energy (J)
        self.energy_budget_log: Dict[int, float] = {}
        self.curtailment_events = 0
        self._bank = None               # FleetRegulatorBank, see attach_bank
        self._pmax_w: Optional[np.ndarray] = None
        self._ncores: Optional[np.ndarray] = None
        self._min_on: Optional[np.ndarray] = None
        #: surrogate kernel only: False entries are quiesced (their district
        #: is aggregate-modelled) — excluded from actuation and filler
        self._actuation_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def register(self, server, regulator) -> None:
        """Track a heater-class server with its heat regulator."""
        self._fleet.append(_FleetEntry(server=server, regulator=regulator))

    def register_boiler(self, boiler) -> None:
        """Track a digital boiler (heat demand = its tank headroom)."""
        self._boilers.append(boiler)

    def attach_bank(self, bank) -> None:
        """Read the fleet's regulator state from ``bank``.

        The bank's attach order must match this manager's registration order
        (entry *i*'s regulator is ``bank.regulators[i]``) — the middleware
        builds both in the same loop, and this method verifies it.
        """
        if len(bank) != len(self._fleet):
            raise ValueError(
                f"bank holds {len(bank)} regulators, fleet has {len(self._fleet)}"
            )
        for e, reg in zip(self._fleet, bank.regulators):
            if e.regulator is not reg:
                raise ValueError("bank order does not match fleet registration order")
        self._bank = bank
        self._pmax_w = np.asarray(
            [e.server.spec.p_max_w for e in self._fleet], dtype=np.float64)
        self._ncores = np.asarray(
            [e.server.n_cores for e in self._fleet], dtype=np.int64)
        self._min_on = np.asarray(
            [e.regulator.config.min_on_fraction for e in self._fleet],
            dtype=np.float64)
        # one shared DVFS ladder (the usual fleet: one Q.rad model) lets the
        # per-tick budget→P-state lookups collapse into a single searchsorted
        ladders = {id(e.server.spec.ladder) for e in self._fleet}
        self._shared_scales: Optional[np.ndarray] = None
        if len(ladders) == 1:
            self._shared_scales = np.asarray(
                self._fleet[0].server.spec.ladder._power_scales, dtype=np.float64)

    @property
    def fleet_size(self) -> int:
        """Number of registered heater servers."""
        return len(self._fleet)

    # ------------------------------------------------------------------ #
    # fleet signals
    # ------------------------------------------------------------------ #
    def authorized_power_w(self) -> float:
        """Power the current heat demand authorises across the fleet (W)."""
        # elementwise products, then a sequential left-fold over the list
        p = sum((self._bank.power_fraction * self._pmax_w).tolist())
        p += sum(min(b.heat_demand_w(), b.spec.p_max_w) for b in self._boilers)
        return p

    def available_cores(self) -> int:
        """Cores on servers whose room currently wants heat (+ boiler cores).

        Boiler cores count whenever the tank has meaningful headroom — the
        §III-C observation that boilers decouple compute from space-heating
        seasons.
        """
        cores = int((self._ncores * self._bank.heat_wanted_mask()).sum())
        cores += sum(
            b.n_cores for b in self._boilers if b.heat_demand_w() > 0.05 * b.spec.p_max_w
        )
        return cores

    def heat_wanted_servers(self) -> List[object]:
        """Heater servers whose regulator currently requests heat.

        Quiesced servers (actuation mask False) never appear: their heat is
        aggregate-modelled, so they must not attract filler compute.
        """
        fleet = self._fleet
        mask = self._bank.heat_wanted_mask()
        if self._actuation_mask is not None:
            mask = mask & self._actuation_mask
        return [fleet[i].server for i in np.flatnonzero(mask).tolist()]

    # ------------------------------------------------------------------ #
    # grid negotiation
    # ------------------------------------------------------------------ #
    def set_actuation_mask(self, mask: Optional[np.ndarray]) -> None:
        """Limit per-server actuation to the True entries of ``mask``.

        The surrogate kernel masks aggregate districts out of DVFS/power
        actuation and filler targeting while it models their heat; passing
        ``None`` clears the mask.  Fleet-level signals (authorised power,
        capacity logs) intentionally keep covering the whole fleet — they are
        aggregate views, and the bank rows of masked districts carry the
        aggregate command.
        """
        if mask is not None and len(mask) != len(self._fleet):
            raise ValueError(
                f"mask has {len(mask)} entries, fleet has {len(self._fleet)}"
            )
        self._actuation_mask = mask

    def set_grid_cap(self, cap_w: Optional[float]) -> None:
        """Apply (or clear) a demand-response power cap from the operator."""
        if cap_w is not None and cap_w < 0:
            raise ValueError("grid cap must be >= 0")
        self.grid_cap_w = cap_w

    def _apply_cap(self) -> float:
        """Scale regulator outputs down to the grid cap; returns the scale."""
        if self.grid_cap_w is None:
            return 1.0
        p = self.authorized_power_w()
        if p <= self.grid_cap_w or p == 0:
            return 1.0
        scale = self.grid_cap_w / p
        self.curtailment_events += 1
        self._bank.scale_power(scale)
        return scale

    # ------------------------------------------------------------------ #
    def tick(self, now: float, dt: float) -> None:
        """Fleet bookkeeping for one thermal tick.

        Applies the grid cap, re-actuates every server from its (possibly
        scaled) regulator output, and accumulates the monthly capacity and
        energy-budget logs.
        """
        self._apply_cap()
        self._actuate()
        month = self._cal.month(now)
        self.capacity_log[month] = (
            self.capacity_log.get(month, 0.0) + self.available_cores() * dt
        )
        self.energy_budget_log[month] = (
            self.energy_budget_log.get(month, 0.0) + self.authorized_power_w() * dt
        )

    def _actuate(self) -> None:
        """Per-entry ``HeatRegulator.apply_to_server``, fleet-wide.

        The heat-wanted test and the power budget are computed for the whole
        fleet in two array ops; the per-server actuation (``set_freq_cap``
        with its sync and completion reschedule) stays per-server, and runs
        even when the cap is unchanged — skipping it would recompute
        completion horizons at different times and drift the event stream
        (DESIGN.md §2.13).
        """
        bank = self._bank
        act = self._actuation_mask
        fleet = self._fleet
        wanted = bank.heat_wanted_mask().tolist()
        # masked entries take neither branch, so iterating only the True
        # indices (ascending, same visit order) is behaviour-identical and
        # keeps the per-tick loop O(live) under the surrogate tier
        indices = (range(len(fleet)) if act is None
                   else np.flatnonzero(act).tolist())
        # apply_to_server: max(power_fraction, min_on_fraction) per regulator
        budget = np.maximum(bank.power_fraction, self._min_on)
        if self._shared_scales is not None:
            # index_for_power_budget = largest i with scale[i] <= budget+1e-12
            # (scales ascend); searchsorted(side="right") counts exactly the
            # elements <= the probe, so count-1 (floored at state 0) matches
            caps = np.maximum(
                np.searchsorted(self._shared_scales, budget + 1e-12,
                                side="right") - 1,
                0,
            ).tolist()
            for i in indices:
                server = fleet[i].server
                if wanted[i]:
                    if not server.enabled:
                        server.power_on()
                    server.set_freq_cap(caps[i])
                elif server.enabled and server.idle:
                    server.power_off()
            return
        budget = budget.tolist()
        for i in indices:
            server = fleet[i].server
            if wanted[i]:
                if not server.enabled:
                    server.power_on()
                server.set_freq_cap(
                    server.spec.ladder.index_for_power_budget(budget[i]))
            elif server.enabled and server.idle:
                server.power_off()

    # ------------------------------------------------------------------ #
    def monthly_capacity_core_hours(self) -> Dict[int, float]:
        """Month → available core-hours (the E3 table / §IV seasonality)."""
        return {m: v / 3600.0 for m, v in sorted(self.capacity_log.items())}

    def heat_match_error(self) -> float:
        """|consumed − authorised| / authorised, instantaneous.

        The §III-B regulator goal: energy consumed should track heat demand.
        """
        auth = self.authorized_power_w()
        used = sum(e.server.power_w() for e in self._fleet) + sum(
            b.power_w() for b in self._boilers
        )
        if auth <= 0:
            return 0.0 if used == 0 else float("inf")
        return abs(used - auth) / auth
