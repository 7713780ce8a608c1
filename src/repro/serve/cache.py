"""Response cache with a stale-while-revalidate degradation contract.

Expensive endpoints (search and suggestions) cache their last known
good result.  An entry is *fresh* for ``fresh_ttl`` (simulated) seconds
— served directly, no recomputation.  After that it stays *stale* for
``stale_ttl`` more seconds: normally a stale hit triggers synchronous
revalidation (recompute, re-cache), but when the backing computation is
circuit-broken the service degrades to the stale answer, marked
``stale: true, degraded: true``, instead of answering 500.  Beyond the
stale window the entry is dropped and a broken backend finally surfaces
as 503 + ``Retry-After``.

Only complete (non-degraded) answers are cached, so degradation never
compounds: a stale answer is always a full answer from a healthier
moment.  Each entry keeps the result's canonical JSON text beside the
result, so serving it again encodes nothing.  Eviction is deterministic
LRU over an ``OrderedDict``.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Hashable


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Freshness and capacity bounds of the response cache."""

    #: Seconds a cached result is served without recomputation.
    fresh_ttl: float = 30.0
    #: Seconds *after* freshness during which a stale result may still
    #: back a degraded answer; beyond this the entry is dropped.
    stale_ttl: float = 600.0
    #: Maximum cached responses (deterministic LRU beyond this).
    max_entries: int = 256

    def __post_init__(self) -> None:
        if self.fresh_ttl < 0 or self.stale_ttl < 0:
            raise ValueError("TTLs must be >= 0")
        if self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )


@dataclasses.dataclass
class CacheEntry:
    """One cached result payload plus its provenance."""

    result: object
    #: The result's canonical JSON text (``serve.api.result_text``).
    text: str
    etag: str
    stored_at: float
    hits: int = 0


#: States a lookup can find an entry in.
FRESH = "fresh"
STALE = "stale"
MISS = "miss"


class ResponseCache:
    """Keyed store of last-known-good endpoint results."""

    def __init__(self, config: CacheConfig, clock, metrics=None):
        self.config = config
        self._clock = clock
        self._metrics = metrics
        self._entries: "collections.OrderedDict[Hashable, CacheEntry]" = (
            collections.OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(name)

    def lookup(self, key: Hashable) -> tuple[CacheEntry | None, str]:
        """The entry under *key* and its state (fresh/stale/miss).

        Entries past the stale window are dropped on sight, so a
        lookup's answer is always still servable.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._count("serve.cache.miss")
            return None, MISS
        age = self._clock.now() - entry.stored_at
        if age > self.config.fresh_ttl + self.config.stale_ttl:
            del self._entries[key]
            self._count("serve.cache.expired")
            return None, MISS
        entry.hits += 1
        self._entries.move_to_end(key)
        if age <= self.config.fresh_ttl:
            self._count("serve.cache.hit")
            return entry, FRESH
        self._count("serve.cache.stale")
        return entry, STALE

    def store(
        self, key: Hashable, result: object, text: str, etag: str
    ) -> None:
        """Cache a complete result, its text and its ETag as the new
        last known good."""
        self._entries[key] = CacheEntry(
            result=result, text=text, etag=etag, stored_at=self._clock.now()
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.config.max_entries:
            self._entries.popitem(last=False)
            self._count("serve.cache.evicted")

    def snapshot(self) -> dict:
        """JSON-safe cache statistics for ``/statz``."""
        return {
            "entries": len(self._entries),
            "max_entries": self.config.max_entries,
            "fresh_ttl": self.config.fresh_ttl,
            "stale_ttl": self.config.stale_ttl,
        }


__all__ = [
    "CacheConfig",
    "CacheEntry",
    "FRESH",
    "MISS",
    "ResponseCache",
    "STALE",
]
