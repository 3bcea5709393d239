"""The service computing stack: container/VM deployment on DF servers.

Paper §I/§II-B1: each Q.rad "integrates a service computing stack that allows
external applications to deploy containers or virtual machines on them", and
§III-B worries that "the environment deployed on nodes (firmware, base system,
containers, etc.) must cover the need of edge and DCC requests.  Otherwise, we
should be able to reboot workers nodes."

This module models that stack:

* :class:`ContainerImage` — an image with a size and a start cost;
* :class:`Registry` — where images live; pulls ride a network link;
* :class:`DeploymentStack` — per-server image cache + running environments:
  ``ensure(image)`` returns the delay before a task of that image can start
  (0 when warm, pull + cold-start when not), with LRU eviction under a disk
  budget.

Schedulers consult the stack to price environment switches precisely instead
of the flat ``context_switch_s`` abstraction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.network.link import Link

__all__ = ["ContainerImage", "Registry", "DeploymentStack"]


@dataclass(frozen=True)
class ContainerImage:
    """A deployable environment."""

    name: str
    size_bytes: float
    cold_start_s: float = 2.0  # unpack + init once the image is local

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("image size must be > 0")
        if self.cold_start_s < 0:
            raise ValueError("cold start must be >= 0")


class Registry:
    """An image registry reachable over a link (the Qarnot fiber uplink)."""

    def __init__(self, link: Link):
        self.link = link
        self._images: Dict[str, ContainerImage] = {}
        self.pulls = 0
        self.bytes_served = 0.0

    def publish(self, image: ContainerImage) -> None:
        """Make an image pullable."""
        if image.name in self._images:
            raise ValueError(f"image {image.name!r} already published")
        self._images[image.name] = image

    def image(self, name: str) -> ContainerImage:
        """Look up a published image."""
        try:
            return self._images[name]
        except KeyError:
            raise KeyError(f"image {name!r} not in registry") from None

    def pull_delay(self, name: str) -> float:
        """Time to transfer the image to a server (seconds)."""
        img = self.image(name)
        self.pulls += 1
        self.bytes_served += img.size_bytes
        return self.link.delay(img.size_bytes)


class DeploymentStack:
    """Per-server image cache with LRU eviction.

    Parameters
    ----------
    registry: where misses are pulled from.
    disk_bytes: local image-cache budget.
    """

    def __init__(self, registry: Registry, disk_bytes: float = 50e9):
        if disk_bytes <= 0:
            raise ValueError("disk budget must be > 0")
        self.registry = registry
        self.disk_bytes = float(disk_bytes)
        self._cache: "OrderedDict[str, ContainerImage]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> float:
        """Bytes of cached images."""
        return sum(i.size_bytes for i in self._cache.values())

    def is_warm(self, name: str) -> bool:
        """Whether the image is already local."""
        return name in self._cache

    def ensure(self, name: str) -> float:
        """Make ``name`` runnable; returns the start delay (s).

        Warm: the cold-start cost only if the environment isn't the one most
        recently run (a warm *running* environment restarts for free).
        Miss: registry pull + cold start, evicting LRU images as needed.
        """
        if self.is_warm(name):
            self.hits += 1
            was_hot = next(reversed(self._cache)) == name
            self._cache.move_to_end(name)
            return 0.0 if was_hot else self._cache[name].cold_start_s
        self.misses += 1
        img = self.registry.image(name)
        if img.size_bytes > self.disk_bytes:
            raise ValueError(
                f"image {name!r} ({img.size_bytes:.2e} B) exceeds the disk budget"
            )
        delay = self.registry.pull_delay(name)
        while self.used_bytes + img.size_bytes > self.disk_bytes:
            evicted, _ = self._cache.popitem(last=False)
            self.evictions += 1
        self._cache[name] = img
        return delay + img.cold_start_s

    def prefetch(self, name: str) -> float:
        """Pull an image ahead of demand; returns the pull time (no start)."""
        if self.is_warm(name):
            return 0.0
        delay = self.ensure(name)
        return max(delay - self.registry.image(name).cold_start_s, 0.0)

    def hit_rate(self) -> float:
        """Cache hit rate so far (1.0 when nothing was requested)."""
        total = self.hits + self.misses
        return self.hits / total if total else 1.0
