"""A1 (ablation) — cluster formation: per-building vs WSN-style (§III-B).

"To decide on the components of clusters, we can either use clustering
techniques developed in wireless sensor networks or define clusters as the set
of DF servers of a physical building or district."

The trade-off, quantified on a synthetic street of servers whose geographic
groups do not align with administrative buildings:

* **balance** — WSN clustering equalises cluster sizes (capacity per master),
  administrative clustering inherits whatever the buildings hold;
* **locality** — mean distance from a server to its cluster's centroid, a
  proxy for intra-cluster link latency.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.cluster import Cluster, ClusterConfig
from repro.experiments.common import ExperimentResult
from repro.hardware.qrad import QRad
from repro.metrics.report import Table
from repro.obs import get_obs
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

__all__ = ["run"]


def _layout(rng) -> Tuple[List, List[Tuple[float, float]], List[int]]:
    """A street of 3 'buildings' whose servers straggle geographically.

    Buildings own 8/3/1 servers (uneven, as real buildings are), and the
    positions form three spatial blobs that do not match building boundaries.
    """
    engine = Engine(**get_obs().engine_hooks())
    servers, positions, building_of = [], [], []
    blob_centers = [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0)]
    building_sizes = [8, 3, 1]
    i = 0
    for b, size in enumerate(building_sizes):
        for _ in range(size):
            blob = int(rng.integers(0, 3))
            cx, cy = blob_centers[blob]
            positions.append((cx + float(rng.normal(0, 6)), cy + float(rng.normal(0, 6))))
            servers.append(QRad(f"b{b}-s{i}", engine))
            building_of.append(b)
            i += 1
    return servers, positions, building_of


def _stats(clusters: List[Cluster], positions_of: Dict[str, Tuple[float, float]]):
    sizes = [len(c) for c in clusters]
    dists = []
    for c in clusters:
        pts = np.array([positions_of[w.name] for w in c.workers])
        centroid = pts.mean(axis=0)
        dists.extend(np.linalg.norm(pts - centroid, axis=1))
    return {
        "n_clusters": len(clusters),
        "size_imbalance": max(sizes) / max(min(sizes), 1),
        "mean_dist_m": float(np.mean(dists)),
    }


def run(seed: int = 59) -> ExperimentResult:
    """Compare the two §III-B cluster-formation rules on one street."""
    rng = RngRegistry(seed).stream("a1")
    servers, positions, building_of = _layout(rng)
    positions_of = {s.name: p for s, p in zip(servers, positions)}

    # administrative: cluster = servers of one building
    admin: Dict[int, Cluster] = {}
    for s, b in zip(servers, building_of):
        admin.setdefault(b, Cluster(ClusterConfig(name=f"building-{b}", district=b)))
        admin[b].add_worker(s)
    admin_stats = _stats(list(admin.values()), positions_of)

    # WSN-style: geographic k-means-like partition (same k)
    wsn = Cluster.partition_wsn(servers, positions, k=len(admin))
    wsn_stats = _stats(wsn, positions_of)

    table = Table(["formation rule", "clusters", "size_imbalance", "mean_dist_to_master_m"],
                  title="A1 — cluster formation: administrative vs WSN (§III-B)")
    table.add_row("per-building", admin_stats["n_clusters"],
                  round(admin_stats["size_imbalance"], 1),
                  round(admin_stats["mean_dist_m"], 1))
    table.add_row("wsn clustering", wsn_stats["n_clusters"],
                  round(wsn_stats["size_imbalance"], 1),
                  round(wsn_stats["mean_dist_m"], 1))
    return ExperimentResult(
        experiment_id="A1",
        title="Cluster-formation ablation (§III-B)",
        text=table.render(),
        data={"admin": admin_stats, "wsn": wsn_stats},
    )
