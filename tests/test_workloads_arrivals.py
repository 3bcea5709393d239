"""Tests for NHPP sampling and diurnal profiles."""

import numpy as np
import pytest

from repro.sim.calendar import DAY, HOUR, YEAR, SimCalendar
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import DiurnalProfile, sample_nhpp


def rng(seed=0):
    return RngRegistry(seed).stream("arrivals")


def test_homogeneous_rate_count():
    """Constant-rate NHPP matches the Poisson mean within 5 sigma."""
    lam = 0.01
    arr = sample_nhpp(rng(), lambda t: lam, lam, 0.0, 1e6)
    expected = lam * 1e6
    assert abs(len(arr) - expected) < 5 * np.sqrt(expected)


def test_arrivals_sorted_and_in_window():
    arr = sample_nhpp(rng(), lambda t: 0.01, 0.01, 100.0, 5000.0)
    assert arr == sorted(arr)
    assert all(100.0 <= t < 5000.0 for t in arr)


def test_zero_rate_produces_nothing():
    arr = sample_nhpp(rng(), lambda t: 0.0, 1.0, 0.0, 1e5)
    assert arr == []


def test_rate_exceeding_max_raises():
    with pytest.raises(ValueError):
        sample_nhpp(rng(), lambda t: 2.0, 1.0, 0.0, 1e5)


def test_invalid_window_raises():
    with pytest.raises(ValueError):
        sample_nhpp(rng(), lambda t: 1.0, 1.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        sample_nhpp(rng(), lambda t: 1.0, 0.0, 0.0, 10.0)


def test_thinning_respects_shape():
    """A two-level rate yields ~the right ratio of arrivals per level."""
    def rate(t):
        return 0.02 if (t % 1000.0) < 500.0 else 0.002

    arr = np.array(sample_nhpp(rng(1), rate, 0.02, 0.0, 1e6))
    high = np.sum((arr % 1000.0) < 500.0)
    low = len(arr) - high
    assert high > 5 * low


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(-1.0)
    with pytest.raises(ValueError):
        DiurnalProfile(1.0, hour_weights=(1.0,) * 23)
    with pytest.raises(ValueError):
        DiurnalProfile(1.0, seasonal_amplitude=1.5)


def test_office_hours_shape():
    p = DiurnalProfile.office_hours(1.0)
    monday_noon = 12 * HOUR
    monday_3am = 3 * HOUR
    saturday_noon = 5 * DAY + 12 * HOUR
    assert p.rate(monday_noon) > 3 * p.rate(monday_3am)
    assert p.rate(saturday_noon) < p.rate(monday_noon)


def test_home_evenings_shape():
    p = DiurnalProfile.home_evenings(1.0)
    evening = 20 * HOUR
    night = 3 * HOUR
    assert p.rate(evening) > 5 * p.rate(night)


def test_rate_max_majorises():
    for p in (DiurnalProfile.office_hours(2.0), DiurnalProfile.home_evenings(2.0)):
        rmax = p.rate_max()
        ts = np.arange(0, 365 * DAY, 3571.0)
        rates = np.array([p.rate(float(t)) for t in ts])
        assert np.all(rates <= rmax + 1e-9)


def test_profile_mean_rate_close_to_base():
    """Normalised hour weights keep the weekday mean near base_rate."""
    p = DiurnalProfile(1.0, hour_weights=tuple(range(1, 25)))
    week_ts = np.arange(0, 5 * DAY, 600.0)  # Mon-Fri
    mean = np.mean([p.rate(float(t)) for t in week_ts])
    assert mean == pytest.approx(1.0, rel=0.05)


def test_profile_sampling_end_to_end():
    p = DiurnalProfile.home_evenings(100.0 / 3600.0)
    arr = p.sample(rng(2), 0.0, 7 * DAY)
    # ~100/h base over a week, modulated: sanity band
    assert 5000 < len(arr) < 30000


def _reference_rate(p, t):
    """``DiurnalProfile.rate`` as it was before it became table-driven:
    per-call mean weight, calendar calls and ``np.cos``."""
    cal = p._cal
    mean_w = sum(p.hour_weights) / 24.0
    if mean_w == 0:
        return 0.0
    w = p.hour_weights[int(cal.hour_of_day(t)) % 24] / mean_w
    if cal.is_weekend(t):
        w *= p.weekend_factor
    if p.seasonal_amplitude > 0:
        doy = cal.day_of_year(t)
        w *= 1.0 + p.seasonal_amplitude * np.cos(2 * np.pi * (doy - 15) / 365.0)
    return p.base_rate_hz * w


@pytest.mark.parametrize("profile", [
    DiurnalProfile.home_evenings(40.0 / 3600.0),
    DiurnalProfile.office_hours(10.0 / 3600.0),
    DiurnalProfile(1.0, hour_weights=(0.0,) * 24, seasonal_amplitude=0.3),
    DiurnalProfile(0.7, hour_weights=tuple(range(24)), weekend_factor=0.6,
                   seasonal_amplitude=0.5, _cal=SimCalendar(epoch_offset=5 * HOUR)),
], ids=["home_evenings", "office_hours", "all_zero", "shifted_epoch"])
def test_rate_table_bitwise_equals_reference(profile):
    """The tabulated rate is bitwise the per-call formula: every hour of the
    year (on the hour and mid-hour), across the YEAR wrap, and at a tiny
    negative time whose wrap rounds up to YEAR."""
    ts = [h * HOUR + off for h in range(365 * 24) for off in (0.0, 1799.5)]
    ts += [YEAR - 1e-6, YEAR, YEAR + 0.5, YEAR + 3 * DAY + 17 * HOUR,
           2 * YEAR + 30 * DAY, -1e-20, -HOUR]
    for t in ts:
        assert profile.rate(t) == _reference_rate(profile, t), t
