"""Non-homogeneous Poisson arrivals and diurnal rate profiles.

Both the DCC flow ("business opportunities") and the edge flow (human activity
in buildings) have time-varying arrival rates.  We sample them with the
standard thinning algorithm (Lewis & Shedler): draw candidate arrivals from a
homogeneous process at ``rate_max`` and accept each with probability
``rate(t)/rate_max``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.sim.calendar import DAY, HOUR, YEAR, SimCalendar

__all__ = ["sample_nhpp", "DiurnalProfile"]


def sample_nhpp(
    rng: np.random.Generator,
    rate_fn: Callable[[float], float],
    rate_max: float,
    t0: float,
    t1: float,
) -> List[float]:
    """Sample arrival times of a non-homogeneous Poisson process.

    Parameters
    ----------
    rng: random stream.
    rate_fn: instantaneous rate λ(t) in events/second; must satisfy
        ``0 <= rate_fn(t) <= rate_max`` on [t0, t1].
    rate_max: majorising constant for thinning.
    t0, t1: window.

    Returns
    -------
    Sorted arrival times in [t0, t1).
    """
    if rate_max <= 0:
        raise ValueError(f"rate_max must be > 0, got {rate_max}")
    if t1 < t0:
        raise ValueError(f"need t1 >= t0, got [{t0}, {t1}]")
    out: List[float] = []
    t = t0
    while True:
        t += float(rng.exponential(1.0 / rate_max))
        if t >= t1:
            break
        lam = rate_fn(t)
        if lam < -1e-12 or lam > rate_max * (1 + 1e-9):
            raise ValueError(
                f"rate_fn({t}) = {lam} outside [0, rate_max={rate_max}]"
            )
        if rng.random() < lam / rate_max:
            out.append(t)
    return out


@functools.lru_cache(maxsize=16)
def _season_factors(amplitude: float) -> Tuple[float, ...]:
    """``1 + amplitude * cos(2π(doy - 15)/365)`` for each day of the year.

    Day 365 is included: ``(t % YEAR)`` rounds up to ``YEAR`` for tiny
    negative ``t``.  Cached because 366 scalar ``np.cos`` calls cost more
    than the rest of a profile's construction.
    """
    return tuple(float(1.0 + amplitude * np.cos(2 * np.pi * (doy - 15) / 365.0))
                 for doy in range(366))


@dataclass(frozen=True)
class DiurnalProfile:
    """A λ(t) built from a base rate and multiplicative shape factors.

    ``hour_weights`` has 24 entries (local-hour multipliers, mean-normalised
    internally); ``weekend_factor`` scales Saturday/Sunday; an optional
    seasonal amplitude modulates over the year (peak mid-January — useful for
    building-activity signals that follow presence-at-home).
    """

    base_rate_hz: float
    hour_weights: Sequence[float] = field(default=tuple([1.0] * 24))
    weekend_factor: float = 1.0
    seasonal_amplitude: float = 0.0
    _cal: SimCalendar = field(default_factory=SimCalendar, repr=False)

    def __post_init__(self) -> None:
        if self.base_rate_hz < 0:
            raise ValueError("base rate must be >= 0")
        if len(self.hour_weights) != 24:
            raise ValueError(f"hour_weights needs 24 entries, got {len(self.hour_weights)}")
        if any(w < 0 for w in self.hour_weights):
            raise ValueError("hour weights must be >= 0")
        if not 0 <= self.seasonal_amplitude < 1:
            raise ValueError("seasonal amplitude must be in [0, 1)")
        # rate() runs once per thinning candidate: tabulate its hour and day
        # factors with the per-call expressions, so rates stay bitwise equal
        mean_w = sum(self.hour_weights) / 24.0
        hour = (tuple(float(w / mean_w) for w in self.hour_weights)
                if mean_w != 0 else None)
        season = (_season_factors(self.seasonal_amplitude)
                  if self.seasonal_amplitude > 0 else None)
        object.__setattr__(self, "_hour_factor", hour)
        object.__setattr__(self, "_season_factor", season)

    def rate(self, t: float) -> float:
        """Instantaneous rate (events/s) at simulated time ``t``.

        Inlines :class:`SimCalendar`'s hour/weekday/day-of-year arithmetic
        and applies the factors in the order of the per-call formula.
        """
        hour = self._hour_factor
        if hour is None:
            return 0.0
        wrapped = (t + self._cal.epoch_offset) % YEAR
        day = int(wrapped // DAY)
        w = hour[int((wrapped % DAY) / HOUR) % 24]
        if day % 7 >= 5:
            w *= self.weekend_factor
        if self._season_factor is not None:
            w *= self._season_factor[day]
        return self.base_rate_hz * w

    def rate_max(self) -> float:
        """A tight majorising constant for thinning."""
        mean_w = sum(self.hour_weights) / 24.0
        if mean_w == 0:
            return 1e-12
        peak = max(self.hour_weights) / mean_w
        peak *= max(1.0, self.weekend_factor)
        peak *= 1.0 + self.seasonal_amplitude
        return self.base_rate_hz * peak * (1 + 1e-9)

    def sample(self, rng: np.random.Generator, t0: float, t1: float) -> List[float]:
        """Arrival times over [t0, t1)."""
        return sample_nhpp(rng, self.rate, self.rate_max(), t0, t1)

    # -------------------------------------------------------------- #
    @staticmethod
    def office_hours(base_rate_hz: float) -> "DiurnalProfile":
        """Business-hours shape for the DCC flow."""
        w = [0.1] * 24
        for h in range(9, 18):
            w[h] = 1.0
        for h in (8, 18):
            w[h] = 0.5
        return DiurnalProfile(base_rate_hz, tuple(w), weekend_factor=0.2)

    @staticmethod
    def home_evenings(base_rate_hz: float) -> "DiurnalProfile":
        """Residential-presence shape for the edge flow."""
        w = [0.3] * 24
        for h in (7, 8):
            w[h] = 1.0
        for h in range(18, 23):
            w[h] = 1.5
        for h in range(0, 6):
            w[h] = 0.1
        return DiurnalProfile(base_rate_hz, tuple(w), weekend_factor=1.4,
                              seasonal_amplitude=0.2)
