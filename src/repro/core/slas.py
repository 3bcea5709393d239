"""SLA classes for a seasonal cloud (paper §IV).

"We are convinced that for SLAs designers, data furnace is a field of research
that can still lead to very innovative proposals."  The innovation the paper
points at: capacity is *seasonal*, so guarantees must be too.  This module
provides the vocabulary:

* :class:`SLATerm` — a latency-percentile guarantee for a flow (e.g. "95% of
  edge requests within 1 s"), optionally restricted to a month set, with a
  per-violated-request penalty;
* :class:`SLAContract` — a set of terms plus an availability floor;
* :class:`SLAAuditor` — checks a finished run's request lists against a
  contract and prices the violations.

The seasonal restriction is what makes DF SLAs novel: a contract can promise
hard guarantees November–March (capacity is physically guaranteed by heat
demand) and only best-effort in July.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.requests import RequestStatus
from repro.sim.calendar import SimCalendar

__all__ = ["SLATerm", "SLAContract", "SLAViolation", "SLAAuditor"]


@dataclass(frozen=True)
class SLATerm:
    """One guarantee: ``percentile`` of requests complete within ``latency_s``.

    ``months`` restricts the term's applicability (None = year-round) — the
    §IV seasonality knob.
    """

    name: str
    latency_s: float
    percentile: float = 95.0
    months: Optional[Tuple[int, ...]] = None
    penalty_eur_per_violation: float = 0.01

    def __post_init__(self) -> None:
        if self.latency_s <= 0:
            raise ValueError("latency bound must be > 0")
        if not 0 < self.percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.penalty_eur_per_violation < 0:
            raise ValueError("penalty must be >= 0")
        if self.months is not None and any(not 1 <= m <= 12 for m in self.months):
            raise ValueError("months must be in 1..12")

    def applies_at(self, t: float, cal: SimCalendar) -> bool:
        """Whether the term covers a request arriving at ``t``."""
        return self.months is None or cal.month(t) in self.months


@dataclass(frozen=True)
class SLAContract:
    """A named bundle of terms plus a completion-rate floor."""

    name: str
    terms: Tuple[SLATerm, ...]
    min_completion_rate: float = 0.99

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("contract needs at least one term")
        if not 0 < self.min_completion_rate <= 1:
            raise ValueError("completion-rate floor must be in (0, 1]")

    @staticmethod
    def winter_edge() -> "SLAContract":
        """The canonical DF3 seasonal contract: hard in winter, soft in summer."""
        return SLAContract(
            name="seasonal-edge",
            terms=(
                SLATerm("winter-hard", latency_s=0.5, percentile=95.0,
                        months=(11, 12, 1, 2, 3), penalty_eur_per_violation=0.05),
                SLATerm("year-soft", latency_s=2.0, percentile=90.0,
                        months=None, penalty_eur_per_violation=0.01),
            ),
            min_completion_rate=0.98,
        )


@dataclass(frozen=True)
class SLAViolation:
    """One breached term with its evidence."""

    term: str
    achieved_latency_s: float
    bound_s: float
    violating_requests: int
    penalty_eur: float


class SLAAuditor:
    """Audits request outcomes against a contract."""

    def __init__(self, contract: SLAContract):
        self.contract = contract
        self._cal = SimCalendar()

    # ------------------------------------------------------------------ #
    def audit(self, completed: Sequence, failed: Iterable = ()) -> "SLAReport":
        """Check every term; returns a :class:`SLAReport`.

        ``completed`` are requests with terminal COMPLETED status; ``failed``
        are rejected/expired ones (they count against the completion floor and
        as violations of every applicable term).
        """
        completed = [r for r in completed if r.status is RequestStatus.COMPLETED]
        failed = list(failed)
        total = len(completed) + len(failed)
        violations: List[SLAViolation] = []
        for term in self.contract.terms:
            in_scope = [r for r in completed if term.applies_at(r.time, self._cal)]
            failed_scope = [r for r in failed if term.applies_at(r.time, self._cal)]
            n = len(in_scope) + len(failed_scope)
            if n == 0:
                continue
            lat = np.array([r.response_time() for r in in_scope]) if in_scope else np.array([])
            achieved = (
                float(np.percentile(lat, term.percentile)) if lat.size else float("inf")
            )
            over = int(np.sum(lat > term.latency_s)) + len(failed_scope)
            allowed = int(np.floor(n * (1 - term.percentile / 100.0)))
            if over > allowed:
                violations.append(
                    SLAViolation(
                        term=term.name,
                        achieved_latency_s=achieved,
                        bound_s=term.latency_s,
                        violating_requests=over,
                        penalty_eur=(over - allowed) * term.penalty_eur_per_violation,
                    )
                )
        completion_rate = len(completed) / total if total else 1.0
        return SLAReport(
            contract=self.contract.name,
            total_requests=total,
            completion_rate=completion_rate,
            completion_ok=completion_rate >= self.contract.min_completion_rate,
            violations=tuple(violations),
        )


@dataclass(frozen=True)
class SLAReport:
    """Audit outcome."""

    contract: str
    total_requests: int
    completion_rate: float
    completion_ok: bool
    violations: Tuple[SLAViolation, ...]

    @property
    def compliant(self) -> bool:
        """True when every term held and the completion floor was met."""
        return self.completion_ok and not self.violations

    @property
    def total_penalty_eur(self) -> float:
        """Sum of term penalties (€)."""
        return sum(v.penalty_eur for v in self.violations)

    def __str__(self) -> str:
        status = "COMPLIANT" if self.compliant else "BREACHED"
        lines = [
            f"SLA {self.contract}: {status} "
            f"({self.total_requests} requests, completion {self.completion_rate:.1%})"
        ]
        for v in self.violations:
            lines.append(
                f"  breach {v.term}: p-latency {v.achieved_latency_s:.3f}s "
                f"> {v.bound_s}s ({v.violating_requests} over, €{v.penalty_eur:.2f})"
            )
        return "\n".join(lines)
