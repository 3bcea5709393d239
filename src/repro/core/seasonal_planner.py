"""Seasonal campaign planning (paper §IV).

"With data furnace, the variability is also on the number of computing
capacity: in winter, the heat demand increases the computing power that is
then reduced in the summer."  A batch customer with a deadline months away
should therefore *schedule around the seasons*: run in cheap, abundant winter
capacity and avoid the scarce summer.

:func:`plan_campaign` allocates a campaign's core-hours across the months
before its deadline, greedily filling the cheapest months first under the
capacity profile — the planning primitive a §IV-style SLA designer would
expose to customers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.pricing import SeasonalPricing

__all__ = ["CampaignPlan", "plan_campaign"]


@dataclass(frozen=True)
class CampaignPlan:
    """Result of planning one campaign."""

    allocation: Dict[int, float]   # month → core-hours
    total_cost_eur: float
    feasible: bool
    unplaced_core_hours: float

    @property
    def months_used(self) -> List[int]:
        """Months with non-zero allocation, chronological."""
        return [m for m in sorted(self.allocation) if self.allocation[m] > 0]

    def mean_price(self) -> float:
        """€ per core-hour actually paid."""
        placed = sum(self.allocation.values())
        return self.total_cost_eur / placed if placed > 0 else 0.0


def plan_campaign(
    core_hours: float,
    months: Tuple[int, ...],
    pricing: SeasonalPricing,
    capacity_share: float = 0.5,
) -> CampaignPlan:
    """Allocate ``core_hours`` over ``months``, cheapest-first.

    Parameters
    ----------
    core_hours: campaign demand.
    months: admissible months (ordered as the customer's window, e.g.
        ``(10, 11, 12, 1, 2)`` for an autumn-to-winter window).
    pricing: seasonal capacity + price model (one sellable capacity per month).
    capacity_share: fraction of each month's capacity one campaign may take
        (an operator never sells a whole month to one customer).

    Returns
    -------
    :class:`CampaignPlan`; ``feasible`` is False when the window cannot hold
    the demand, with the shortfall in ``unplaced_core_hours``.
    """
    if core_hours < 0:
        raise ValueError("core_hours must be >= 0")
    if not months:
        raise ValueError("need at least one admissible month")
    if not 0 < capacity_share <= 1:
        raise ValueError("capacity_share must be in (0, 1]")
    seen = set()
    for m in months:
        if m in seen:
            raise ValueError(f"month {m} listed twice")
        seen.add(m)

    by_price = sorted(months, key=lambda m: (pricing.spot_price(m), m))
    remaining = float(core_hours)
    allocation: Dict[int, float] = {m: 0.0 for m in months}
    cost = 0.0
    for m in by_price:
        if remaining <= 0:
            break
        sellable = pricing.capacity[m] * capacity_share
        take = min(sellable, remaining)
        if take > 0:
            allocation[m] = take
            cost += pricing.monthly_revenue(m, take)
            remaining -= take
    return CampaignPlan(
        allocation=allocation,
        total_cost_eur=cost,
        feasible=remaining <= 1e-9,
        unplaced_core_hours=max(remaining, 0.0),
    )
