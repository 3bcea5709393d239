"""City-fused thermal stepping: every building in one elementwise pass.

:meth:`repro.thermal.building.Building.step` advances one building at a
time: it builds three small per-room arrays and runs the 2R2C forward-Euler
update on them.  For a city of B buildings that would be B numpy-call
cascades per tick on arrays of a handful of elements each, which is pure
interpreter overhead: the buildings share one weather, are thermally
independent of each other, and (in every city the middleware builds)
integrate with the same sub-step count and room count.

:class:`FusedCityThermal` therefore concatenates the room state of all
buildings into flat city-wide arrays and performs the *same* elementwise
update once per tick.  Because every operation is elementwise — the RC model
never reduces across rooms, and uncoupled networks have no cross-room terms —
each room's new temperature is bit-for-bit the float the per-building step
would have produced (IEEE-754 arithmetic is deterministic per element; only
re-association changes bits).  After each step the per-building
``RCNetwork.t_air`` / ``t_env`` are rebound to slice views of the flat
arrays, so every existing consumer (regulators, comfort, heat-demand
queries) keeps reading live state through the unchanged ``Building`` API.

The constructor raises :class:`ValueError` unless its preconditions hold —
no inter-room couplings, one shared weather, a single sub-step count, the
same room count in every building.  The middleware builds every city that
way, so this is its only thermal path (DESIGN.md §2.13); ``Building.step``
stays the per-building reference the tests compare against.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.sim.calendar import SimCalendar
from repro.thermal.building import Building

__all__ = ["FusedCityThermal"]


class FusedCityThermal:
    """Steps many :class:`Building` instances as one flat RC network.

    Parameters
    ----------
    buildings:
        The city's buildings in a fixed order; that order defines the flat
        room layout (building-major, rooms in index order) and must match
        the order of any per-room arrays callers hand back to it.  The
        layout is a dense (buildings, rooms) grid: ``t_air.reshape(B, -1)``
        is one row per building.
    """

    def __init__(self, buildings: Sequence[Building]):
        self.buildings: List[Building] = list(buildings)
        nets = [b.network for b in self.buildings]
        if not (
            self.buildings
            and all(not n.coupled for n in nets)
            and len({n._dt_max for n in nets}) == 1
            and len({len(b.rooms) for b in self.buildings}) == 1
            and all(b.weather is self.buildings[0].weather for b in self.buildings)
        ):
            raise ValueError(
                "cannot fuse these buildings: need uncoupled rooms, one "
                "weather, one sub-step count and one room count")
        self.weather = self.buildings[0].weather
        self._cal = SimCalendar()
        self._dt_max = nets[0]._dt_max
        self.slices: List[slice] = []
        rooms = []
        offset = 0
        for b in self.buildings:
            self.slices.append(slice(offset, offset + len(b.rooms)))
            rooms.extend(b.rooms)
            offset += len(b.rooms)
        self.rooms = rooms
        self.n = offset
        cat = np.concatenate
        self.c_air = cat([n.c_air for n in nets])
        self.c_env = cat([n.c_env for n in nets])
        self.g_ie = cat([n.g_ie for n in nets])
        self.g_ea = cat([n.g_ea for n in nets])
        self.g_inf = cat([n.g_inf for n in nets])
        self.t_air = cat([n.t_air for n in nets])
        self.t_env = cat([n.t_env for n in nets])
        self._rebind()
        self.gain_w = np.array([r.config.occupant_gain_w for r in rooms])
        self.occ_lo = np.array([r.config.occupied_hours[0] for r in rooms])
        self.occ_hi = np.array([r.config.occupied_hours[1] for r in rooms])
        self.aperture = np.array([r.config.solar_aperture_m2 for r in rooms])

    def _rebind(self) -> None:
        """Point each building's network at its slice of the flat state."""
        for b, sl in zip(self.buildings, self.slices):
            b.network.t_air = self.t_air[sl]
            b.network.t_env = self.t_env[sl]

    def step(self, now: float, dt: float) -> List[float]:
        """Advance every room by ``dt`` ending at ``now``.

        Returns the per-room heater powers (W, flat order, builtin floats)
        that drove the step, so the caller can reuse them for the
        useful-heat ledger without polling the servers again (a second
        ``heater_power_w()`` poll would read the same unchanged values).
        """
        p_heat_list = [r.heater_power_w() for r in self.rooms]
        t_out = self.weather.outdoor_temperature(now)
        hod = self._cal.hour_of_day(now)
        irr = self.weather.solar_irradiance(now)
        p_heat = np.array(p_heat_list)
        p_gain = np.where(
            (self.occ_lo <= hod) & (hod < self.occ_hi), self.gain_w, 0.0
        )
        p_solar = self.aperture * irr * 0.6
        nsub = max(1, int(np.ceil(dt / self._dt_max)))
        h = dt / nsub
        ta, te = self.t_air, self.t_env
        # identical expressions (including the zero adjacency term) and
        # association order as RCNetwork.step — elementwise, hence bitwise
        q_adj = np.zeros(self.n)
        for _ in range(nsub):
            q_ie = self.g_ie * (te - ta)
            q_inf = self.g_inf * (t_out - ta)
            q_ea = self.g_ea * (t_out - te)
            ta = ta + h * (q_ie + q_inf + q_adj + p_heat + p_gain) / self.c_air
            te = te + h * (-q_ie + q_ea + p_solar) / self.c_env
        self.t_air, self.t_env = ta, te
        self._rebind()
        return p_heat_list
