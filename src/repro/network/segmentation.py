"""Network segmentation and resource-sharing policy (paper §II-C, §III-B).

"As DF servers are also used for Internet requests, direct requests can raise
several security issues.  For their implementation, it is important to
formulate a good resource sharing and network segmentation model."  And
§III-B: "to guarantee the privacy of edge data, it is preferable to have two
local networks, one for edge and one for DCC ... we can envision to put the
dedicated edge servers in a (virtual) private network."

The model: servers belong to **segments** (edge VPN, DCC network, management),
and a :class:`SegmentationPolicy` states which request flows may execute on
which segments.  An :class:`IsolationAuditor` replays a run's placements and
reports violations — the security metric for the architecture-class and
direct-request discussions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Tuple

from repro.core.requests import EdgeRequest, Flow

__all__ = ["Segment", "SegmentationPolicy", "IsolationAuditor", "Violation"]


class Segment(str, Enum):
    """Network segments of a DF3 deployment."""

    EDGE_VPN = "edge-vpn"
    DCC_NET = "dcc-net"
    SHARED = "shared"      # one flat network (the class-1 default)
    MGMT = "mgmt"


@dataclass(frozen=True)
class SegmentationPolicy:
    """Which flows may run on which segments.

    Two canonical policies:

    * :meth:`flat` — one shared network, everything allowed (class 1 without
      isolation; fastest, weakest);
    * :meth:`isolated` — edge only on the edge VPN, DCC only on the DCC net
      (the class-2 recommendation).
    """

    allowed: Tuple[Tuple[Flow, Segment], ...]
    privacy_requires_vpn: bool = True

    def permits(self, flow: Flow, segment: Segment) -> bool:
        """Whether ``flow`` may execute on ``segment``."""
        return (flow, segment) in self.allowed

    def check(self, request, segment: Segment) -> bool:
        """Full check for one request placement."""
        flow = Flow.EDGE if isinstance(request, EdgeRequest) else Flow.CLOUD
        if not self.permits(flow, segment):
            return False
        if (
            self.privacy_requires_vpn
            and isinstance(request, EdgeRequest)
            and request.privacy_sensitive
            and segment is not Segment.EDGE_VPN
        ):
            return False
        return True

    @staticmethod
    def flat() -> "SegmentationPolicy":
        """One flat network; privacy constraint disabled (class-1 default)."""
        return SegmentationPolicy(
            allowed=(
                (Flow.EDGE, Segment.SHARED),
                (Flow.CLOUD, Segment.SHARED),
            ),
            privacy_requires_vpn=False,
        )

    @staticmethod
    def isolated() -> "SegmentationPolicy":
        """Strict class-2 isolation: edge↔VPN, DCC↔DCC-net."""
        return SegmentationPolicy(
            allowed=(
                (Flow.EDGE, Segment.EDGE_VPN),
                (Flow.CLOUD, Segment.DCC_NET),
            ),
            privacy_requires_vpn=True,
        )


@dataclass(frozen=True)
class Violation:
    """One placement that breached the policy."""

    request_id: str
    flow: str
    server: str
    segment: Segment
    privacy_sensitive: bool


class IsolationAuditor:
    """Audits executed placements against a segmentation policy.

    Parameters
    ----------
    policy: the rules.
    segment_of: server name → segment assignment.
    """

    def __init__(self, policy: SegmentationPolicy, segment_of: Dict[str, Segment]):
        self.policy = policy
        self.segment_of = dict(segment_of)

    @staticmethod
    def segments_for_cluster(cluster, shared: bool = False) -> Dict[str, Segment]:
        """Derive the natural segment map from a cluster's dedication split."""
        if shared:
            return {w.name: Segment.SHARED for w in cluster.workers}
        out: Dict[str, Segment] = {}
        dedicated = {w.name for w in cluster.edge_dedicated_workers}
        for w in cluster.workers:
            out[w.name] = Segment.EDGE_VPN if w.name in dedicated else Segment.DCC_NET
        return out

    def audit(self, requests: Iterable) -> List[Violation]:
        """Check every executed request; unknown servers are violations."""
        violations: List[Violation] = []
        for req in requests:
            if not req.executed_on or req.executed_on == "dc":
                continue  # datacenter placements are governed by can_vertical
            segment = self.segment_of.get(req.executed_on)
            flow = Flow.EDGE if isinstance(req, EdgeRequest) else Flow.CLOUD
            privacy = bool(getattr(req, "privacy_sensitive", False))
            if segment is None or not self.policy.check(req, segment):
                violations.append(
                    Violation(
                        request_id=req.request_id,
                        flow=flow.value,
                        server=req.executed_on,
                        segment=segment if segment is not None else Segment.MGMT,
                        privacy_sensitive=privacy,
                    )
                )
        return violations
