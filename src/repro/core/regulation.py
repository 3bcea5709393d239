"""The per-server heat regulator (paper §III-B, last paragraph).

"To make sure that the expectations will be complied, we propose to add a heat
regulator system in each DF server.  The heat regulator implements a DVFS
based technique (voltage and frequency regulation) to guarantee that the
energy consumed corresponds to the heat demand."

The regulator is a PI controller on room-temperature error:

* **input** — the room's thermostat setpoint and measured air temperature;
* **output** — a *power-budget fraction* in [0, 1] of the server's envelope,
  actuated as (a) a DVFS frequency cap chosen with
  :meth:`~repro.hardware.cpu.DVFSLadder.index_for_power_budget` and (b) a
  ``heat_wanted`` admission flag the middleware uses to decide whether this
  server should receive filler compute (and whether idle motherboards may be
  powered off — the Qarnot hybrid-infrastructure behaviour of §III-A).

Anti-windup: the integral term is clamped so a long cold spell cannot latch
the controller at saturation for hours after the error clears.

Observability: the regulator itself knows neither time nor room name, so it
exposes an :attr:`HeatRegulator.observer` hook — a callable invoked with the
regulator after every :meth:`HeatRegulator.update`.  The middleware binds one
per room to emit ``regulator.*`` trace records and power-fraction gauges; the
default (``None``) costs a single attribute check per tick.

Fleet-scale fast path: a city of thousands of regulators all tick on the same
period, so the per-tick PI arithmetic is embarrassingly data-parallel.
:class:`FleetRegulatorBank` holds the mutable state of many regulators in
numpy arrays and steps them all in one :meth:`FleetRegulatorBank.update_all`
pass.  An *attached* regulator keeps its full scalar API — every attribute
read/write is redirected into the bank's arrays — so collective controllers,
the smart-grid manager, faults and tests keep working unchanged, while the
detached :meth:`HeatRegulator.update` remains the reference implementation
the bank pass is tested byte-for-byte against (see DESIGN.md §2.13 for the
float-order discipline that makes byte-identity achievable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = ["RegulatorConfig", "HeatRegulator", "FleetRegulatorBank"]


@dataclass(frozen=True)
class RegulatorConfig:
    """PI gains and actuation limits.

    ``kp`` is in power-fraction per °C; ``ki`` in power-fraction per °C·hour.
    ``off_threshold`` — below this commanded fraction the server's boards may
    be switched off (no heat wanted at all); ``min_on_fraction`` — floor
    fraction when on (idle power exists anyway).
    """

    kp: float = 0.5
    ki: float = 0.4
    integral_limit: float = 2.5
    off_threshold: float = 0.05
    min_on_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0:
            raise ValueError("gains must be >= 0")
        if self.integral_limit <= 0:
            raise ValueError("integral limit must be > 0")
        if not 0 <= self.off_threshold <= 1 or not 0 <= self.min_on_fraction <= 1:
            raise ValueError("thresholds must be in [0, 1]")


class HeatRegulator:
    """PI controller binding one server to one room.

    Call :meth:`update` on the thermal tick; read :attr:`power_fraction` and
    :attr:`heat_wanted`, and let it drive the server's DVFS cap via
    :meth:`apply_to_server`.

    A regulator is either *detached* (state lives in plain attributes — the
    per-regulator reference implementation) or *attached* to a
    :class:`FleetRegulatorBank` (state lives at one index of the bank's
    arrays, stepped by the vectorised pass).  The public API is identical in
    both modes.
    """

    __slots__ = ("config", "observer", "_bank", "_idx",
                 "_sp", "_int", "_pf", "_err")

    def __init__(self, config: RegulatorConfig = RegulatorConfig()):
        self.config = config
        self._bank: Optional["FleetRegulatorBank"] = None
        self._idx = -1
        self._sp = 20.0
        self._int = 0.0
        self._pf = 0.0
        self._err = 0.0
        #: observability hook, called as ``observer(self)`` after each update
        self.observer: Optional[Callable[["HeatRegulator"], None]] = None

    # ------------------------------------------------------------------ #
    # state accessors: plain attributes when detached, bank slots when
    # attached.  Getters convert to builtin float so formatting/rounding of
    # downstream consumers never sees a numpy scalar.
    # ------------------------------------------------------------------ #
    @property
    def setpoint_c(self) -> float:
        """Comfort target (°C)."""
        b = self._bank
        return self._sp if b is None else float(b._setpoint[self._idx])

    @setpoint_c.setter
    def setpoint_c(self, value: float) -> None:
        if self._bank is None:
            self._sp = value
        else:
            self._bank._setpoint[self._idx] = value

    @property
    def _integral(self) -> float:
        b = self._bank
        return self._int if b is None else float(b._integral[self._idx])

    @_integral.setter
    def _integral(self, value: float) -> None:
        if self._bank is None:
            self._int = value
        else:
            self._bank._integral[self._idx] = value

    @property
    def power_fraction(self) -> float:
        """Commanded power-budget fraction in [0, 1]."""
        b = self._bank
        return self._pf if b is None else float(b._power_fraction[self._idx])

    @power_fraction.setter
    def power_fraction(self, value: float) -> None:
        if self._bank is None:
            self._pf = value
        else:
            self._bank._power_fraction[self._idx] = value
            self._bank.version += 1

    @property
    def last_error_c(self) -> float:
        """Temperature error (°C) observed by the most recent update."""
        b = self._bank
        return self._err if b is None else float(b._last_error[self._idx])

    @last_error_c.setter
    def last_error_c(self, value: float) -> None:
        if self._bank is None:
            self._err = value
        else:
            self._bank._last_error[self._idx] = value

    # ------------------------------------------------------------------ #
    def set_target(self, setpoint_c: float) -> None:
        """Update the comfort target (a heating request landing)."""
        if not 5.0 <= setpoint_c <= 30.0:
            raise ValueError(f"setpoint {setpoint_c} outside sane range")
        self.setpoint_c = float(setpoint_c)

    def update(self, dt_s: float, room_temp_c: float) -> float:
        """Advance the controller by ``dt_s``; returns the power fraction.

        This per-regulator path is the reference implementation;
        :meth:`FleetRegulatorBank.update_all` performs the same operations in
        the same per-element order and is asserted byte-identical to it.
        """
        if dt_s <= 0:
            raise ValueError(f"dt must be > 0, got {dt_s}")
        cfg = self.config
        err = self.setpoint_c - room_temp_c
        self.last_error_c = err
        integral = self._integral + err * dt_s / 3600.0
        self._integral = max(min(integral, cfg.integral_limit), -cfg.integral_limit)
        u = cfg.kp * err + cfg.ki * self._integral
        self.power_fraction = max(0.0, min(1.0, u))
        if self.observer is not None:
            self.observer(self)
        return self.power_fraction

    @property
    def heat_wanted(self) -> bool:
        """True when the room needs heat (server should receive compute)."""
        return self.power_fraction > self.config.off_threshold

    def apply_to_server(self, server) -> None:
        """Actuate the server: DVFS cap, and power on/off when safe.

        A server with running tasks is never powered off here — draining and
        migration are the scheduler's job; the regulator only gates idle
        boards (the §III-A "motherboards are turned off when no heat is
        requested" behaviour).
        """
        if self.heat_wanted:
            if not server.enabled:
                server.power_on()
            budget = max(self.power_fraction, self.config.min_on_fraction)
            server.set_freq_cap(server.spec.ladder.index_for_power_budget(budget))
        else:
            if server.enabled and not server.running_tasks:
                server.power_off()

    def reset(self) -> None:
        """Clear integral state (e.g. on season change)."""
        self._integral = 0.0
        self.power_fraction = 0.0


class FleetRegulatorBank:
    """Steps every attached :class:`HeatRegulator` in one numpy pass.

    Usage: :meth:`attach` regulators in a fixed order (the order defines the
    array layout and the observer call order), :meth:`freeze` once the fleet
    is complete, then call :meth:`update_all` on the thermal tick with the
    per-regulator room temperatures in attach order.

    **Byte-identity contract** — for any temperature sequence, the arrays
    after :meth:`update_all` hold exactly the floats the scalar
    :meth:`HeatRegulator.update` would have produced regulator by regulator:
    every elementwise numpy operation below mirrors the scalar expression's
    association order, and reductions are never used (IEEE-754 float64
    arithmetic is deterministic per element; only re-association changes
    bits).  ``tests/test_core_regulation.py`` enforces this.
    """

    def __init__(self) -> None:
        self.regulators: List[HeatRegulator] = []
        self._setpoint: "np.ndarray | list" = []
        self._integral: "np.ndarray | list" = []
        self._power_fraction: "np.ndarray | list" = []
        self._last_error: "np.ndarray | list" = []
        self._kp: "np.ndarray | list" = []
        self._ki: "np.ndarray | list" = []
        self._int_limit: "np.ndarray | list" = []
        self._off_threshold: "np.ndarray | list" = []
        self._frozen = False
        #: bumped on every power-fraction mutation; consumers may cache any
        #: heat-wanted derived view for as long as the version stands still
        self.version = 0

    def __len__(self) -> int:
        return len(self.regulators)

    # ------------------------------------------------------------------ #
    def attach(self, reg: HeatRegulator) -> int:
        """Adopt a regulator's state into the bank; returns its index."""
        if self._frozen:
            raise RuntimeError("cannot attach to a frozen bank")
        if reg._bank is not None:
            raise ValueError("regulator is already attached to a bank")
        idx = len(self.regulators)
        # copy current scalar state before redirecting the accessors
        self._setpoint.append(reg.setpoint_c)
        self._integral.append(reg._integral)
        self._power_fraction.append(reg.power_fraction)
        self._last_error.append(reg.last_error_c)
        cfg = reg.config
        self._kp.append(cfg.kp)
        self._ki.append(cfg.ki)
        self._int_limit.append(cfg.integral_limit)
        self._off_threshold.append(cfg.off_threshold)
        self.regulators.append(reg)
        reg._bank = self
        reg._idx = idx
        return idx

    def freeze(self) -> None:
        """Convert the staging lists to arrays; no more attachments after."""
        if self._frozen:
            return
        self._setpoint = np.asarray(self._setpoint, dtype=np.float64)
        self._integral = np.asarray(self._integral, dtype=np.float64)
        self._power_fraction = np.asarray(self._power_fraction, dtype=np.float64)
        self._last_error = np.asarray(self._last_error, dtype=np.float64)
        self._kp = np.asarray(self._kp, dtype=np.float64)
        self._ki = np.asarray(self._ki, dtype=np.float64)
        self._int_limit = np.asarray(self._int_limit, dtype=np.float64)
        self._neg_int_limit = -self._int_limit
        self._off_threshold = np.asarray(self._off_threshold, dtype=np.float64)
        self._frozen = True

    # ------------------------------------------------------------------ #
    @property
    def power_fraction(self) -> np.ndarray:
        """Per-regulator power fractions (attach order).  Read-only view."""
        return self._power_fraction

    @property
    def setpoints(self) -> np.ndarray:
        """Per-regulator comfort targets (°C, attach order).  Read-only view."""
        return self._setpoint

    def heat_wanted_mask(self) -> np.ndarray:
        """Boolean array: which regulators currently request heat."""
        if not self._frozen:
            raise RuntimeError("freeze() the bank before bulk queries")
        return self._power_fraction > self._off_threshold

    def heat_wanted_indices(self) -> np.ndarray:
        """Indices of heat-requesting regulators, ascending (attach order)."""
        return np.flatnonzero(self.heat_wanted_mask())

    def scale_power(self, scale: float) -> None:
        """Multiply every power fraction by ``scale`` (demand-response cap)."""
        if not self._frozen:
            raise RuntimeError("freeze() the bank before bulk updates")
        self._power_fraction *= scale
        self.version += 1

    # ------------------------------------------------------------------ #
    def update_all(self, dt_s: float, room_temps_c: Sequence[float]) -> None:
        """One PI step for every regulator; mirrors the scalar float order.

        ``room_temps_c`` must align with the attach order.  Observers are
        invoked afterwards in attach order — the same sequence the scalar
        loop produces — and must not mutate regulator state.
        """
        if not self._frozen:
            raise RuntimeError("freeze() the bank before update_all")
        if dt_s <= 0:
            raise ValueError(f"dt must be > 0, got {dt_s}")
        temps = np.asarray(room_temps_c, dtype=np.float64)
        if temps.shape != self._setpoint.shape:
            raise ValueError(
                f"expected {self._setpoint.shape[0]} temperatures, got {temps.shape}"
            )
        err = self._setpoint - temps
        self._last_error[:] = err
        # integral += err * dt / 3600, then the anti-windup clamp — the
        # multiply/divide/add association matches HeatRegulator.update
        self._integral += err * dt_s / 3600.0
        np.minimum(self._integral, self._int_limit, out=self._integral)
        np.maximum(self._integral, self._neg_int_limit, out=self._integral)
        u = self._kp * err
        u += self._ki * self._integral
        np.minimum(u, 1.0, out=u)
        np.maximum(u, 0.0, out=u)
        self._power_fraction[:] = u
        self.version += 1
        for reg in self.regulators:
            if reg.observer is not None:
                reg.observer(reg)

    def update_subset(self, dt_s: float, room_temps_c: Sequence[float],
                      idx: "np.ndarray") -> None:
        """One PI step for the regulators at ``idx`` only (attach order).

        The surrogate kernel's live districts tick through this path while
        aggregate districts are advanced by the reduced-order model.  Every
        gathered elementwise expression mirrors :meth:`update_all` — numpy
        fancy indexing preserves per-element IEEE-754 results — so a subset
        update produces, at those indices, exactly the floats a full
        :meth:`update_all` (and hence the scalar reference) would have.
        """
        if not self._frozen:
            raise RuntimeError("freeze() the bank before update_subset")
        if dt_s <= 0:
            raise ValueError(f"dt must be > 0, got {dt_s}")
        idx = np.asarray(idx, dtype=np.intp)
        temps = np.asarray(room_temps_c, dtype=np.float64)
        if temps.shape != idx.shape:
            raise ValueError(
                f"expected {idx.shape[0]} temperatures, got {temps.shape}"
            )
        err = self._setpoint[idx] - temps
        self._last_error[idx] = err
        integral = self._integral[idx] + err * dt_s / 3600.0
        np.minimum(integral, self._int_limit[idx], out=integral)
        np.maximum(integral, self._neg_int_limit[idx], out=integral)
        self._integral[idx] = integral
        u = self._kp[idx] * err
        u += self._ki[idx] * integral
        np.minimum(u, 1.0, out=u)
        np.maximum(u, 0.0, out=u)
        self._power_fraction[idx] = u
        self.version += 1
        regs = self.regulators
        for i in idx.tolist():
            reg = regs[i]
            if reg.observer is not None:
                reg.observer(reg)
