"""Stable content hashing for sweep specs and the code-version fingerprint.

Cache keys must survive process restarts, so they cannot lean on ``hash()``
(salted per process) or ``pickle`` (protocol details drift).  Instead every
spec is rendered to a *canonical form*: a type-tagged, recursively sorted
text encoding in which equal values encode equally and values of different
types (``1`` vs ``1.0`` vs ``True`` vs ``"1"``) never collide.  The SHA-256
of that encoding is the key.

``code_version()`` fingerprints the ``repro`` package sources themselves, so
editing *any* simulator code invalidates every cached result.  That is
deliberately coarse: a stale cache silently reporting pre-change numbers is
far worse than recomputing a sweep after an unrelated edit.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from pathlib import Path
from typing import Any, Optional

__all__ = ["canonical", "stable_hash", "code_version", "kernel_cache_tag"]


def canonical(obj: Any) -> str:
    """Deterministic, type-tagged text encoding of ``obj``.

    Supported: None, bool, int, float, str, bytes, enums, tuples/lists,
    sets/frozensets (sorted by encoding), dicts (sorted by key encoding),
    dataclass instances (tagged with their qualified class name) and numpy
    scalars/arrays.  Anything else falls back to ``repr`` — fine for value
    objects with a faithful repr, and the property tests pin the rest.
    """
    if obj is None:
        return "N"
    if isinstance(obj, bool):  # before int: True would encode as i:1
        return f"b:{int(obj)}"
    if isinstance(obj, int):
        return f"i:{obj}"
    if isinstance(obj, float):
        # repr is exact for floats (round-trips the IEEE value); nan/inf fine
        return f"f:{obj!r}"
    if isinstance(obj, str):
        return f"s:{len(obj)}:{obj}"
    if isinstance(obj, bytes):
        return f"y:{obj.hex()}"
    if isinstance(obj, enum.Enum):
        return f"e:{type(obj).__qualname__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"D:{type(obj).__module__}.{type(obj).__qualname__}({fields})"
    if isinstance(obj, (tuple, list)):
        return f"l:[{','.join(canonical(v) for v in obj)}]"
    if isinstance(obj, (set, frozenset)):
        return f"S:{{{','.join(sorted(canonical(v) for v in obj))}}}"
    if isinstance(obj, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in obj.items())
        return f"d:{{{','.join(f'{k}->{v}' for k, v in items)}}}"
    # numpy without importing numpy at module scope (keep this module light)
    cls = type(obj)
    if cls.__module__ == "numpy":
        try:
            return f"np:{canonical(obj.tolist())}"
        except AttributeError:
            pass
    return f"r:{type(obj).__qualname__}:{obj!r}"


def stable_hash(obj: Any) -> str:
    """Hex SHA-256 of :func:`canonical`, stable across processes and runs."""
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def kernel_cache_tag() -> str:
    """Cache namespace of the active simulation kernel.

    The exact ``vector`` kernel keeps the default namespace — the tag is
    empty.  The surrogate tier is tolerance-budgeted, not exact: its results
    must never be served from (or poison) the exact kernel's cache, so it
    gets its own namespace.
    Read from the environment, like the kernel resolution itself, so sweep
    worker processes agree with the parent.
    """
    import os

    return "surrogate" if os.environ.get("REPRO_KERNEL") == "surrogate" else ""


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Fingerprint of every ``repro`` source file (cached per process).

    Hashes the sorted (relative path, contents) sequence of all ``*.py``
    files under the installed ``repro`` package, so any code edit — in the
    runner, an experiment, or the simulator core — yields a new version and
    therefore fresh cache keys.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION
