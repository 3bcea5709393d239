"""Reduced-order surrogate kernel: district-aggregate thermal state.

The third kernel tier (``--kernel surrogate``, DESIGN.md §2.18).  The exact
kernels integrate every room's 2R2C state each tick — O(rooms) work that
dominates simulation time at 100×–1000× city scale even after the vector
kernel removed the interpreter overhead.  The surrogate collapses each
*aggregate* district to one 2R2C node plus one PI controller and advances
the whole city in a handful of fused numpy operations per tick:

* **warm-up** — for the first ``warmup_ticks`` ticks the city runs the
  unmodified vector kernel while the controller passively records each
  district's mean power fraction and mean heater power;
* **switch** — a least-squares map ``p̄_heat ≈ a·p̄f + b`` is fitted per
  district from the warm-up window (the response of the DVFS ladder +
  filler occupancy to the PI command), per-room offsets from the district
  mean are frozen, and every aggregate district's servers are quiesced
  (filler preempted, boards powered off, smart-grid actuation masked);
* **aggregate tick** — one clipped PI step on the district-mean error, the
  fitted power map, and the exact mean 2R2C update (identical rooms make
  the mean dynamics exact — the model error is confined to the clipped-PI
  mean and the power map).  Reconstructed per-room temperatures
  (``mean + frozen offset``) are written back into the fused flat arrays,
  so every consumer — regulators, comfort tracking, the twin's views —
  keeps reading live state through unchanged APIs.

A deterministic **sample** of districts (drawn from the dedicated
``surrogate-calibration`` RNG stream, so enabling the surrogate never
perturbs any other stream's draw order) never aggregates: those districts
run the exact vector path end to end and are asserted byte-identical to a
pure vector run.  Aggregate districts **materialise** back to the exact
path on demand — an edge/cloud request targeting them, a churn fault, or
the district-mean error exceeding ``slo_zoom_threshold_c`` — and *lazy
zoom-in* re-integrates any aggregate district's trajectory exactly from
the last checkpointed aggregate state without touching live state.

Error discipline: the declared tolerance budget lives in
:mod:`repro.thermal.budget` and is enforced by the differential fuzz
harness in ``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.thermal import budget

__all__ = ["SurrogateConfig", "DistrictAggregateModel", "SurrogateController",
           "DistrictZoom"]


@dataclass(frozen=True)
class SurrogateConfig:
    """Knobs of the surrogate tier.

    ``warmup_ticks`` exact ticks feed the calibration fit; ``sample_districts``
    districts (drawn deterministically from the ``surrogate-calibration``
    stream) stay on the exact path forever; aggregate state is checkpointed
    every ``checkpoint_every`` ticks for lazy zoom-in; a district whose mean
    setpoint error exceeds ``slo_zoom_threshold_c`` is materialised (the
    SLO-flagged case).
    """

    warmup_ticks: int = 12
    sample_districts: int = 1
    checkpoint_every: int = 16
    slo_zoom_threshold_c: float = 3.0

    def __post_init__(self) -> None:
        if self.warmup_ticks < 2:
            raise ValueError("warmup_ticks must be >= 2 (the fit needs a window)")
        if self.sample_districts < 0:
            raise ValueError("sample_districts must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.slo_zoom_threshold_c <= 0:
            raise ValueError("slo_zoom_threshold_c must be > 0")


class DistrictAggregateModel:
    """The aggregate 2R2C node: exact mean dynamics of identical rooms.

    All rooms of a middleware-built city share one
    :class:`~repro.thermal.rc_model.RoomThermalParams`, so the mean of the
    per-room forward-Euler updates equals the update of the means for every
    linear term — the only approximation upstream is the mean heater power.
    ``step`` is vectorised over districts; replay calls it on length-1
    arrays, and elementwise IEEE-754 arithmetic makes the replayed floats
    bit-identical to the live ones.
    """

    def __init__(self, c_air: float, c_env: float, g_ie: float, g_ea: float,
                 g_inf: float, dt_max: float):
        if min(c_air, c_env) <= 0 or min(g_ie, g_ea, g_inf) < 0 or dt_max <= 0:
            raise ValueError("invalid aggregate thermal parameters")
        self.c_air = float(c_air)
        self.c_env = float(c_env)
        self.g_ie = float(g_ie)
        self.g_ea = float(g_ea)
        self.g_inf = float(g_inf)
        self.dt_max = float(dt_max)

    def step(self, t_air, t_env, dt: float, t_out: float, p_heat,
             p_gain: float, p_solar: float):
        """One tick: returns the new ``(t_air, t_env)`` arrays."""
        ta, te, _ = self.step_with_flux(t_air, t_env, dt, t_out, p_heat,
                                        p_gain, p_solar)
        return ta, te

    def step_with_flux(self, t_air, t_env, dt: float, t_out: float, p_heat,
                       p_gain: float, p_solar: float):
        """Tick + the external heat (J) that entered each district node.

        The flux fold mirrors the update's own sub-step terms, so
        ``c_air·Δt_air + c_env·Δt_env − flux`` is pure float round-off —
        the energy-balance property the test suite pins against
        :data:`repro.thermal.budget.AGGREGATE_ENERGY_RESIDUAL_REL`.
        """
        nsub = max(1, int(np.ceil(dt / self.dt_max)))
        h = dt / nsub
        ta, te = t_air, t_env
        flux = np.zeros_like(np.asarray(ta, dtype=np.float64))
        for _ in range(nsub):
            q_ie = self.g_ie * (te - ta)
            q_inf = self.g_inf * (t_out - ta)
            q_ea = self.g_ea * (t_out - te)
            flux = flux + h * (q_inf + q_ea + p_heat + p_gain + p_solar)
            ta = ta + h * (q_ie + q_inf + p_heat + p_gain) / self.c_air
            te = te + h * (-q_ie + q_ea + p_solar) / self.c_env
        return ta, te, flux


def fit_power_map(pf_samples, heat_samples) -> Tuple[float, float]:
    """Least-squares ``p̄_heat ≈ a·p̄f + b`` from one district's warm-up.

    Degenerate windows fall back gracefully: a constant power fraction gets
    a proportional map (so the prediction still responds to PI commands),
    and an all-zero window predicts zero.
    """
    x = np.asarray(pf_samples, dtype=np.float64)
    y = np.asarray(heat_samples, dtype=np.float64)
    var = float(x.var())
    if var > 1e-12:
        a = float(((x - x.mean()) * (y - y.mean())).mean() / var)
        b = float(y.mean() - a * x.mean())
    elif float(x.mean()) > 1e-9:
        a = float(y.mean() / x.mean())
        b = 0.0
    else:
        a = 0.0
        b = float(y.mean())
    return a, b


class DistrictZoom:
    """Read-only lazy zoom-in on one (current or former) aggregate district.

    Materialises the district's full per-room trajectory by re-integrating
    the aggregate model exactly from the last checkpoint and adding the
    frozen per-room offsets.  Never mutates controller state — zoom-in
    followed by zoom-out (dropping this object) leaves the aggregate state
    bit-identical, by construction.
    """

    def __init__(self, controller: "SurrogateController", district: int):
        self._ctl = controller
        self.district = district

    def aggregate_trajectory(self) -> List[Tuple[float, float]]:
        """Replayed ``(t̄_air, t̄_env)`` per tick since the last checkpoint."""
        return self._ctl.replay(self.district)

    def room_trajectory(self) -> np.ndarray:
        """Per-room air temperatures, shape ``(ticks, rooms)``."""
        bars = self.aggregate_trajectory()
        delta = self._ctl.delta_air(self.district)
        if not bars:
            return np.empty((0, delta.size))
        return np.asarray([t for t, _ in bars])[:, None] + delta[None, :]


class SurrogateController:
    """Owns the surrogate life cycle for one :class:`DF3Middleware`.

    The middleware delegates its three vector tick stages here once
    :meth:`begin_tick` reports the warm-up window is over; before that the
    controller only records calibration samples off the unmodified vector
    path.  See the module docstring for the phase diagram.
    """

    def __init__(self, mw, config: Optional[SurrogateConfig] = None):
        self.mw = mw
        self.config = config or SurrogateConfig()
        cfg = mw.config
        bank = mw._bank
        fused = mw._fused_thermal
        self.n_districts = cfg.n_districts
        self.rooms_per_district = (
            cfg.buildings_per_district * cfg.rooms_per_building)
        # the aggregate model is only exact-mean when every room (and every
        # regulator, and every heater spec) in the city is identical — true
        # for every city the middleware builds from one MiddlewareConfig
        for name, arr in (("c_air", fused.c_air), ("c_env", fused.c_env),
                          ("g_ie", fused.g_ie), ("g_ea", fused.g_ea),
                          ("g_inf", fused.g_inf), ("gain_w", fused.gain_w),
                          ("occ_lo", fused.occ_lo), ("occ_hi", fused.occ_hi),
                          ("aperture", fused.aperture),
                          ("kp", bank._kp), ("ki", bank._ki),
                          ("int_limit", bank._int_limit),
                          ("off_threshold", bank._off_threshold)):
            if np.unique(np.asarray(arr)).size != 1:
                raise ValueError(
                    f"surrogate kernel requires a homogeneous fleet ({name} varies)")
        specs = {(e[0].spec.p_max_w, e[0].spec.heat_fraction)
                 for e in mw._bank_entries}
        if len(specs) != 1:
            raise ValueError("surrogate kernel requires one heater spec fleet-wide")
        p_max_w, heat_fraction = specs.pop()
        self._heat_fraction = float(heat_fraction)
        self._p_heat_max = float(p_max_w) * self._heat_fraction
        self.model = DistrictAggregateModel(
            float(fused.c_air[0]), float(fused.c_env[0]), float(fused.g_ie[0]),
            float(fused.g_ea[0]), float(fused.g_inf[0]), float(fused._dt_max))
        self._gain_w = float(fused.gain_w[0])
        self._occ_lo = float(fused.occ_lo[0])
        self._occ_hi = float(fused.occ_hi[0])
        self._aperture = float(fused.aperture[0])
        self._kp = float(bank._kp[0])
        self._ki = float(bank._ki[0])
        self._int_limit = float(bank._int_limit[0])
        self._off_threshold = float(bank._off_threshold[0])

        # deterministic sample selection from the DEDICATED stream: deriving
        # it from (seed, "surrogate-calibration") means enabling the
        # surrogate never advances any other stream's state
        rng = mw.rngs.stream("surrogate-calibration")
        k = min(self.config.sample_districts, self.n_districts)
        perm = rng.permutation(self.n_districts)
        self.sample_districts: List[int] = sorted(int(d) for d in perm[:k])
        self.live = set(self.sample_districts)

        self.switched = False
        self._tick_index = 0
        self._warm_pf: List[np.ndarray] = []
        self._warm_heat: List[np.ndarray] = []
        #: (sim time, district, reason) for every on-demand materialisation
        self.materialised: List[Tuple[float, int, str]] = []
        self.modeled_energy_j = 0.0
        # budget-monitor state (observability only; never feeds back into
        # the simulation): rolling sample-vs-aggregate drift and zoom count
        self.last_drift_c = 0.0
        self.max_drift_c = 0.0
        self.zooms = 0
        # filled at the switch
        self.agg_ids: List[int] = []
        self.fit_a: Dict[int, float] = {}
        self.fit_b: Dict[int, float] = {}
        self._t_air_bar = np.empty(0)
        self._t_env_bar = np.empty(0)
        self._int_bar = np.empty(0)
        self._u_bar = np.empty(0)
        self._sbar = np.empty(0)
        self._delta_air: Dict[int, np.ndarray] = {}
        self._delta_env: Dict[int, np.ndarray] = {}
        self._delta_int: Dict[int, np.ndarray] = {}
        # row-stacked copies of the offsets and fit coefficients, aligned
        # with agg_ids, so each tick is pure broadcasts — no district loops
        self._delta_air_stack = np.empty((0, self.rooms_per_district))
        self._delta_env_stack = np.empty((0, self.rooms_per_district))
        self._fit_a_stack = np.empty(0)
        self._fit_b_stack = np.empty(0)
        self._agg_idx = np.empty(0, dtype=np.intp)
        self._live_room_idx = np.arange(len(bank), dtype=np.intp)
        self._live_buildings = set(mw.buildings)
        self._mask: Optional[np.ndarray] = None
        self._quiesce_pending: List = []
        self._times: List[float] = []
        self._dts: List[float] = []
        self._heat_hist: Dict[int, List[float]] = {}
        self._tbar_hist: Dict[int, List[Tuple[float, float]]] = {}
        self._checkpoints: Dict[int, List[Tuple[int, float, float]]] = {}

    # ------------------------------------------------------------------ #
    # phase machinery
    # ------------------------------------------------------------------ #
    def begin_tick(self, now: float) -> bool:
        """Advance the tick counter; switch when warm-up ends.

        Returns True once the surrogate owns the tick stages (the middleware
        then routes regulation/thermal through this controller).
        """
        self._tick_index += 1
        if not self.switched and self._tick_index > self.config.warmup_ticks:
            self._switch(now)
        return self.switched

    def record_warmup(self, p_heat_list) -> None:
        """One calibration sample per district off the exact thermal stage."""
        if self.switched:
            return
        rpd = self.rooms_per_district
        pf = np.asarray(self.mw._bank.power_fraction, dtype=np.float64)
        heat = np.asarray(p_heat_list, dtype=np.float64)
        self._warm_pf.append(pf.reshape(self.n_districts, rpd).mean(axis=1))
        self._warm_heat.append(heat.reshape(self.n_districts, rpd).mean(axis=1))

    def _d_slice(self, district: int) -> slice:
        rpd = self.rooms_per_district
        return slice(district * rpd, (district + 1) * rpd)

    def _rebuild_live_index(self) -> None:
        rpd = self.rooms_per_district
        live = sorted(self.live)
        if live:
            self._live_room_idx = np.concatenate(
                [np.arange(d * rpd, (d + 1) * rpd, dtype=np.intp) for d in live])
        else:
            self._live_room_idx = np.empty(0, dtype=np.intp)
        bpd = self.mw.config.buildings_per_district
        self._live_buildings = {
            f"district-{d}/building-{b}" for d in live for b in range(bpd)}

    def _switch(self, now: float) -> None:
        mw = self.mw
        bank = mw._bank
        fused = mw._fused_thermal
        rpd = self.rooms_per_district
        self.agg_ids = [d for d in range(self.n_districts) if d not in self.live]
        pf = np.stack(self._warm_pf)        # (warmup_ticks, n_districts)
        heat = np.stack(self._warm_heat)
        for d in range(self.n_districts):
            self.fit_a[d], self.fit_b[d] = fit_power_map(pf[:, d], heat[:, d])
        t_air = np.asarray(fused.t_air).reshape(self.n_districts, rpd)
        t_env = np.asarray(fused.t_env).reshape(self.n_districts, rpd)
        integral = np.asarray(bank._integral).reshape(self.n_districts, rpd)
        agg = np.asarray(self.agg_ids, dtype=np.intp)
        self._t_air_bar = t_air[agg].mean(axis=1) if agg.size else np.empty(0)
        self._t_env_bar = t_env[agg].mean(axis=1) if agg.size else np.empty(0)
        self._int_bar = integral[agg].mean(axis=1) if agg.size else np.empty(0)
        self._u_bar = np.zeros(agg.size)
        self._sbar = np.zeros(agg.size)
        for pos, d in enumerate(self.agg_ids):
            self._delta_air[d] = t_air[d] - self._t_air_bar[pos]
            self._delta_env[d] = t_env[d] - self._t_env_bar[pos]
            self._delta_int[d] = integral[d] - self._int_bar[pos]
            self._heat_hist[d] = []
            self._tbar_hist[d] = []
            self._checkpoints[d] = [
                (0, float(self._t_air_bar[pos]), float(self._t_env_bar[pos]))]
        if self.agg_ids:
            self._delta_air_stack = np.stack(
                [self._delta_air[d] for d in self.agg_ids])
            self._delta_env_stack = np.stack(
                [self._delta_env[d] for d in self.agg_ids])
            self._fit_a_stack = np.asarray(
                [self.fit_a[d] for d in self.agg_ids])
            self._fit_b_stack = np.asarray(
                [self.fit_b[d] for d in self.agg_ids])
            self._agg_idx = agg
        self._rebuild_live_index()
        # quiesce: masked out of smart-grid actuation, filler preempted and
        # boards powered off as they drain (§III-A off-when-no-heat, en masse)
        self._mask = np.ones(len(bank), dtype=bool)
        for d in self.agg_ids:
            self._mask[self._d_slice(d)] = False
        mw.smartgrid.set_actuation_mask(self._mask)
        self._quiesce_pending = [
            mw._bank_entries[i][0]
            for d in self.agg_ids
            for i in range(self._d_slice(d).start, self._d_slice(d).stop)]
        self.switched = True
        self._warm_pf = []
        self._warm_heat = []
        if mw.obs.active:
            mw.obs.emit("surrogate", "surrogate.switch", now,
                        aggregate_districts=len(self.agg_ids),
                        sample_districts=list(self.sample_districts))

    # ------------------------------------------------------------------ #
    # the three delegated tick stages
    # ------------------------------------------------------------------ #
    def tick_regulation(self, now: float, dt: float) -> None:
        """Exact PI for live rooms, one clipped PI per aggregate district."""
        mw = self.mw
        bank = mw._bank
        temps_parts = []
        for bname, building in mw.buildings.items():
            if bname not in self._live_buildings:
                continue
            temps = building.temperatures
            ctrl = mw.collectives.get(bname)
            if ctrl is not None and ctrl.active:
                ctrl.update(temps)
            temps_parts.append(temps)
        if temps_parts:
            bank.update_subset(dt, np.concatenate(temps_parts),
                               self._live_room_idx)
        if self.agg_ids:
            rpd = self.rooms_per_district
            agg = self._agg_idx
            sp = np.asarray(bank.setpoints).reshape(self.n_districts, rpd)
            sbar = sp[agg].mean(axis=1)
            err = sbar - self._t_air_bar
            self._sbar = sbar
            self._int_bar = np.clip(self._int_bar + err * dt / 3600.0,
                                    -self._int_limit, self._int_limit)
            u = np.clip(self._kp * err + self._ki * self._int_bar, 0.0, 1.0)
            self._u_bar = u
            # broadcast the aggregate command into the bank rows so every
            # consumer (heat-wanted masks, authorised power, capacity logs,
            # cloud routing, twin views) keeps working off aggregate views
            pf = bank._power_fraction.reshape(self.n_districts, rpd)
            pf[agg] = u[:, None]
            le = bank._last_error.reshape(self.n_districts, rpd)
            le[agg] = err[:, None]
            bank.version += 1

    def quiesce_pending(self) -> None:
        """Drain the aggregate fleet: preempt filler, power off idle boards."""
        if not self._quiesce_pending:
            return
        still = []
        for server in self._quiesce_pending:
            server.preempt_kind("filler")
            if server.enabled:
                if server.idle:
                    server.power_off()
                else:
                    still.append(server)    # real work drains first
        self._quiesce_pending = still

    def tick_thermal(self, now: float, dt: float) -> None:
        """Exact subset step for live rooms + one aggregate step, then the
        comfort/ledger/energy bookkeeping off the reconstructed arrays."""
        mw = self.mw
        bank = mw._bank
        fused = mw._fused_thermal
        t_out = fused.weather.outdoor_temperature(now)
        hod = fused._cal.hour_of_day(now)
        irr = fused.weather.solar_irradiance(now)
        month = mw.cal.month(now)
        rpd = self.rooms_per_district

        # --- live rooms: the vector kernel's elementwise update, gathered --
        idx = self._live_room_idx
        live_p_heat: List[float] = []
        if idx.size:
            rooms = fused.rooms
            live_p_heat = [rooms[i].heater_power_w() for i in idx.tolist()]
            p_heat = np.array(live_p_heat)
            p_gain = np.where(
                (fused.occ_lo[idx] <= hod) & (hod < fused.occ_hi[idx]),
                fused.gain_w[idx], 0.0)
            p_solar = fused.aperture[idx] * irr * 0.6
            nsub = max(1, int(np.ceil(dt / fused._dt_max)))
            h = dt / nsub
            g_ie, g_ea, g_inf = fused.g_ie[idx], fused.g_ea[idx], fused.g_inf[idx]
            c_air, c_env = fused.c_air[idx], fused.c_env[idx]
            ta, te = fused.t_air[idx], fused.t_env[idx]
            q_adj = np.zeros(idx.size)
            for _ in range(nsub):
                q_ie = g_ie * (te - ta)
                q_inf = g_inf * (t_out - ta)
                q_ea = g_ea * (t_out - te)
                ta = ta + h * (q_ie + q_inf + q_adj + p_heat + p_gain) / c_air
                te = te + h * (-q_ie + q_ea + p_solar) / c_env
            fused.t_air[idx] = ta
            fused.t_env[idx] = te

        # --- aggregate districts: one fused step, then reconstruction ------
        heat = np.empty(0)
        wanted_agg = np.empty(0, dtype=bool)
        if self.agg_ids:
            agg = self._agg_idx
            a = self._fit_a_stack
            b = self._fit_b_stack
            wanted_agg = self._u_bar > self._off_threshold
            heat = np.clip(a * self._u_bar + b, 0.0, self._p_heat_max)
            heat = np.where(wanted_agg, heat, 0.0)
            p_gain_bar = (self._gain_w
                          if self._occ_lo <= hod < self._occ_hi else 0.0)
            p_solar_bar = self._aperture * irr * 0.6
            self._t_air_bar, self._t_env_bar = self.model.step(
                self._t_air_bar, self._t_env_bar, dt, t_out, heat,
                p_gain_bar, p_solar_bar)
            t_air_grid = fused.t_air.reshape(self.n_districts, rpd)
            t_env_grid = fused.t_env.reshape(self.n_districts, rpd)
            # scalar-per-district + offset row ≡ column broadcast + stacked
            # offsets, elementwise — bit-identical reconstruction in one op
            t_air_grid[agg] = self._t_air_bar[:, None] + self._delta_air_stack
            t_env_grid[agg] = self._t_env_bar[:, None] + self._delta_env_stack
            self._times.append(now)
            self._dts.append(dt)
            n_ticks = len(self._times)
            heat_l = heat.tolist()
            ta_l = self._t_air_bar.tolist()
            te_l = self._t_env_bar.tolist()
            hh, th = self._heat_hist, self._tbar_hist
            for pos, d in enumerate(self.agg_ids):
                hh[d].append(heat_l[pos])
                th[d].append((ta_l[pos], te_l[pos]))
            if n_ticks % self.config.checkpoint_every == 0:
                cps = self._checkpoints
                for pos, d in enumerate(self.agg_ids):
                    cps[d].append((n_ticks, ta_l[pos], te_l[pos]))

        # --- comfort: same batched entry point as the vector kernel --------
        nb = len(fused.buildings)
        mw.comfort.add_rows(dt, fused.t_air.reshape(nb, -1),
                            np.asarray(bank.setpoints).reshape(nb, -1),
                            month=month)

        # --- useful-heat ledger + modelled energy --------------------------
        add_useful = mw.ledger.add_useful_heat
        if idx.size:
            wanted_live = bank.heat_wanted_mask()[idx].tolist()
            for p, w in zip(live_p_heat, wanted_live):
                if p > 0 and w:
                    add_useful(p * dt)
        if self.agg_ids:
            heat_l = heat.tolist()
            for h, w in zip(heat_l, wanted_agg.tolist()):
                if w and h > 0:
                    add_useful(h * rpd * dt)
            # quiesced boards consume no metered power; the district's
            # electrical draw is modelled from the same fitted map
            p_elec = sum((heat / self._heat_fraction).tolist())
            self.modeled_energy_j += p_elec * rpd * dt

        # --- SLO flagging: a drifting district zooms back in ---------------
        if self.agg_ids:
            dev = np.abs(self._sbar - self._t_air_bar)
            drift = float(dev.max()) if dev.size else 0.0
            self.last_drift_c = drift
            if drift > self.max_drift_c:
                self.max_drift_c = drift
            if mw.obs.active:
                # budget-monitor telemetry at checkpoint cadence: where the
                # worst aggregate district sits inside the declared budget
                if len(self._times) % self.config.checkpoint_every == 0:
                    mw.obs.emit(
                        "surrogate", "surrogate.drift", now,
                        max_drift_c=round(drift, 6),
                        budget_c=budget.DISTRICT_MEAN_TEMP_TOL_C,
                        aggregated=len(self.agg_ids), live=len(self.live))
                mw.obs.gauge("surrogate_drift_c").set(round(drift, 6))
                mw.obs.gauge("surrogate_aggregated_districts").set(
                    len(self.agg_ids))
            over = np.flatnonzero(dev > self.config.slo_zoom_threshold_c)
            for d in [self.agg_ids[i] for i in over.tolist()]:
                self.ensure_live(d, reason="slo")

    # ------------------------------------------------------------------ #
    # materialise-on-demand (live zoom-in)
    # ------------------------------------------------------------------ #
    def ensure_live(self, district: int, reason: str) -> None:
        """Return ``district`` to the exact per-room path, immediately.

        The reconstructed per-room temperatures already *are* the live state
        (they sit in the fused flat arrays); this restores the per-room PI
        integrals from the aggregate + frozen offsets, unmasks smart-grid
        actuation and re-actuates the boards, so the next event sees a fully
        materialised district.
        """
        if not self.switched or district in self.live:
            return
        mw = self.mw
        bank = mw._bank
        pos = self.agg_ids.index(district)
        sl = self._d_slice(district)
        integ = np.clip(self._int_bar[pos] + self._delta_int[district],
                        -self._int_limit, self._int_limit)
        bank._integral[sl] = integ
        bank.version += 1
        self.agg_ids.pop(pos)
        for name in ("_t_air_bar", "_t_env_bar", "_int_bar", "_u_bar", "_sbar",
                     "_fit_a_stack", "_fit_b_stack"):
            arr = getattr(self, name)
            if arr.size > pos:
                setattr(self, name, np.delete(arr, pos))
        for name in ("_delta_air_stack", "_delta_env_stack"):
            setattr(self, name, np.delete(getattr(self, name), pos, axis=0))
        self._agg_idx = np.asarray(self.agg_ids, dtype=np.intp)
        self.live.add(district)
        self._rebuild_live_index()
        self._mask[sl] = True
        for i in range(sl.start, sl.stop):
            server, _d = mw._bank_entries[i]
            bank.regulators[i].apply_to_server(server)
        self.materialised.append((mw.engine.now, district, reason))
        if mw.obs.active:
            mw.obs.emit("surrogate", "surrogate.materialize", mw.engine.now,
                        district=district, reason=reason,
                        live=len(self.live), aggregated=len(self.agg_ids))
            mw.obs.counter("surrogate_materializations").inc()

    # ------------------------------------------------------------------ #
    # lazy zoom-in: exact replay from the last checkpoint
    # ------------------------------------------------------------------ #
    def delta_air(self, district: int) -> np.ndarray:
        """Frozen per-room offsets from the district mean (read-only copy)."""
        return self._delta_air[district].copy()

    def replay(self, district: int) -> List[Tuple[float, float]]:
        """Re-integrate ``district`` from its last checkpoint.

        Weather inputs are recomputed from the recorded tick times (the
        weather series is precomputed and time-indexed, hence exact) and the
        heater power from the recorded per-tick history; the model step is
        the same elementwise code path, so every replayed float is
        bit-identical to the recorded live trajectory.
        """
        if district not in self._tbar_hist:
            raise ValueError(f"district {district} was never aggregated")
        hist = self._heat_hist[district]
        i0, ta0, te0 = self._checkpoints[district][-1]
        fused = self.mw._fused_thermal
        ta = np.array([ta0])
        te = np.array([te0])
        out: List[Tuple[float, float]] = []
        for i in range(i0, len(hist)):
            now = self._times[i]
            t_out = fused.weather.outdoor_temperature(now)
            hod = fused._cal.hour_of_day(now)
            irr = fused.weather.solar_irradiance(now)
            p_gain = self._gain_w if self._occ_lo <= hod < self._occ_hi else 0.0
            p_solar = self._aperture * irr * 0.6
            ta, te = self.model.step(ta, te, self._dts[i], t_out,
                                     np.array([hist[i]]), p_gain, p_solar)
            out.append((float(ta[0]), float(te[0])))
        return out

    def recorded_trajectory(self, district: int) -> List[Tuple[float, float]]:
        """The live ``(t̄_air, t̄_env)`` history replay must reproduce."""
        if district not in self._tbar_hist:
            raise ValueError(f"district {district} was never aggregated")
        i0 = self._checkpoints[district][-1][0]
        return list(self._tbar_hist[district][i0:])

    def zoom_in(self, district: int) -> DistrictZoom:
        """Lazy per-building materialisation; see :class:`DistrictZoom`."""
        if district not in self._tbar_hist:
            raise ValueError(f"district {district} was never aggregated")
        self.zooms += 1
        mw = self.mw
        if mw.obs.active:
            mw.obs.emit("surrogate", "surrogate.zoom", mw.engine.now,
                        district=district, zooms=self.zooms)
            mw.obs.counter("surrogate_zooms").inc()
        return DistrictZoom(self, district)

    # ------------------------------------------------------------------ #
    def aggregate_view(self) -> Dict[int, Dict[str, float]]:
        """Per-district aggregate state for twins/SLO consumers."""
        view: Dict[int, Dict[str, float]] = {}
        rpd = self.rooms_per_district
        bank = self.mw._bank
        fused = self.mw._fused_thermal
        t_air = np.asarray(fused.t_air).reshape(self.n_districts, rpd)
        pf = np.asarray(bank.power_fraction).reshape(self.n_districts, rpd)
        for d in range(self.n_districts):
            view[d] = {
                "mean_temp_c": float(t_air[d].mean()),
                "mean_power_fraction": float(pf[d].mean()),
                "live": d in self.live or not self.switched,
            }
        return view

    def budget_status(self) -> Dict[str, object]:
        """Where the surrogate sits inside its declared error budget.

        JSON-ready: surfaced on the twin's ``/api/state`` (and hence the SSE
        ``state`` feed) and rendered as the budget panel in HTML reports.
        ``drift_budget_share`` is the worst observed sample-vs-aggregate
        drift as a fraction of the declared district-mean tolerance — the
        single number that says how much headroom the tier has left.
        """
        tol = budget.DISTRICT_MEAN_TEMP_TOL_C
        return {
            "switched": self.switched,
            "live_districts": len(self.live),
            "aggregated_districts": len(self.agg_ids),
            "sample_districts": list(self.sample_districts),
            "materializations": len(self.materialised),
            "zooms": self.zooms,
            "last_drift_c": round(self.last_drift_c, 6),
            "max_drift_c": round(self.max_drift_c, 6),
            "drift_budget_share": round(self.max_drift_c / tol, 4),
            "modeled_energy_j": round(self.modeled_energy_j, 3),
            "budget": {
                "district_mean_temp_tol_c": tol,
                "comfort_violation_rate_tol":
                    budget.COMFORT_VIOLATION_RATE_TOL,
                "fleet_energy_rel_tol": budget.FLEET_ENERGY_REL_TOL,
            },
        }
