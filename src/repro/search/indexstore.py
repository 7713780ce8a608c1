"""The persistent join index: versioned, fingerprinted, torn-tolerant.

The LSH-filtered pair search (:mod:`repro.joinability.lshindex`) makes
*building* joinability cheap; this module makes it a **one-time** cost.
``ogdp-repro build-index`` persists each portal's verified
:class:`~repro.joinability.pairs.JoinablePair` set to a JSON artifact
that :class:`~repro.search.lake.DataLake` loads at construction instead
of recomputing ``portal.joinability()``, and that
``LakeService.join_suggest`` therefore serves from.

Persistence follows the repo's artifact discipline (crawl journals,
shard files, bench records):

* **versioned + fingerprinted** — every file embeds ``INDEX_VERSION``
  and the full corpus-config fingerprint (seed, scale, portal,
  threshold, unique-value floor, LSH geometry).  A mismatch loads as
  ``stale``, never as silently wrong answers;
* **atomic** — written to a temp file then ``os.replace``d, so a crash
  mid-write leaves either the old index or none;
* **torn-tolerant** — a truncated or corrupt file loads as ``miss``
  (the lake rebuilds and overwrites it), never as an exception;
* **integrity-checked by the caller** — the file records each
  profile's distinct-value count so the loader can cross-check the
  pair ids against freshly built profiles before adopting them.

Pair floats survive the round trip exactly: ``json`` serializes floats
via ``repr`` and parses back the closest double, which is the same
double — byte-identical analyses are preserved through disk.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

from ..joinability.lshindex import DEFAULT_LSH_PARAMS, LshParams
from ..joinability.pairs import JoinablePair

#: On-disk format version; bump on any incompatible layout change.
INDEX_VERSION = 1

#: Load statuses, mirrored by the lake's ``lake.index.*`` metrics.
HIT = "hit"
MISS = "miss"
STALE = "stale"


def index_fingerprint(
    config,
    portal_code: str,
    threshold: float,
    params: LshParams = DEFAULT_LSH_PARAMS,
) -> dict:
    """The corpus identity an index must match to be served.

    Everything the pair set is a function of: the generated corpus
    (seed, scale, portal), the join definition (threshold, unique-value
    floor), and the index geometry.  Format version rides along so a
    layout bump invalidates old artifacts through the same comparison.
    """
    return {
        "version": INDEX_VERSION,
        "portal": portal_code,
        "threshold": threshold,
        "seed": config.seed,
        "scale": config.scale,
        "min_unique": config.min_unique_values,
        "num_perm": params.num_perm,
        "bands": params.bands,
    }


@dataclasses.dataclass(frozen=True)
class StoredJoinIndex:
    """One portal's persisted pair set at one threshold."""

    portal_code: str
    threshold: float
    fingerprint: dict
    pairs: tuple[JoinablePair, ...]
    #: Per-profile distinct-value counts, in profile-id order — the
    #: loader's integrity check that pair ids still mean the same
    #: columns against freshly built profiles.
    column_check: tuple[int, ...]
    #: Informational build counters (candidates, verify ops, ...).
    counters: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def from_analysis(
        cls, config, portal_code: str, threshold: float, analysis
    ) -> "StoredJoinIndex":
        """The index of one portal's joinability analysis at *threshold*."""
        return cls(
            portal_code=portal_code,
            threshold=threshold,
            fingerprint=index_fingerprint(config, portal_code, threshold),
            pairs=tuple(analysis.pairs),
            column_check=tuple(p.num_unique for p in analysis.profiles),
            counters={"pairs": len(analysis.pairs)},
        )


@dataclasses.dataclass(frozen=True)
class LoadResult:
    """What :meth:`JoinIndexStore.load` found."""

    status: str
    index: StoredJoinIndex | None = None
    reason: str = ""


class JoinIndexStore:
    """Directory of per-(portal, threshold) join index artifacts."""

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def path(self, portal_code: str, threshold: float) -> pathlib.Path:
        """Where the ``(portal, threshold)`` index lives."""
        return self.root / f"join-{portal_code}-t{threshold}.json"

    def save(self, index: StoredJoinIndex) -> pathlib.Path:
        """Persist *index* atomically; returns the final path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(index.portal_code, index.threshold)
        document = {
            "version": INDEX_VERSION,
            "portal": index.portal_code,
            "threshold": index.threshold,
            "fingerprint": index.fingerprint,
            "column_check": list(index.column_check),
            "counters": dict(index.counters),
            "pairs": [
                [p.left, p.right, p.jaccard, p.overlap]
                for p in index.pairs
            ],
        }
        tmp = path.with_suffix(".json.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return path

    def load(
        self, portal_code: str, threshold: float, fingerprint: dict
    ) -> LoadResult:
        """The stored index, or why it cannot be served.

        ``miss`` — absent, torn, or structurally corrupt (rebuild and
        overwrite); ``stale`` — readable but fingerprinted for a
        different corpus/config (rebuild and overwrite); ``hit`` — the
        parsed index, pending the caller's profile integrity check.
        """
        path = self.path(portal_code, threshold)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return LoadResult(status=MISS, reason="absent")
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise TypeError("index document is not an object")
            if document.get("version") != INDEX_VERSION:
                return LoadResult(
                    status=STALE,
                    reason=f"version {document.get('version')!r}",
                )
            if document.get("fingerprint") != fingerprint:
                return LoadResult(status=STALE, reason="fingerprint")
            pairs = tuple(
                JoinablePair(
                    left=int(left),
                    right=int(right),
                    jaccard=float(jaccard),
                    overlap=int(overlap),
                )
                for left, right, jaccard, overlap in document["pairs"]
            )
            column_check = tuple(
                int(n) for n in document["column_check"]
            )
            counters = document.get("counters", {})
            if not isinstance(counters, dict):
                raise TypeError("counters is not an object")
        except (ValueError, TypeError, KeyError) as exc:
            return LoadResult(
                status=MISS, reason=f"torn: {type(exc).__name__}"
            )
        return LoadResult(
            status=HIT,
            index=StoredJoinIndex(
                portal_code=portal_code,
                threshold=threshold,
                fingerprint=fingerprint,
                pairs=pairs,
                column_check=column_check,
                counters=counters,
            ),
        )
