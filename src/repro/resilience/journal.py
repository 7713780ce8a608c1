"""Checkpoint journals: one fingerprinted, append-only JSONL format.

Every resumable piece of work — a crawled resource, an analysis unit,
a pool worker's finished unit — is checkpointed the same way, so a
process killed at any instant resumes without redoing finished work:

* the first line is a header naming the config fingerprint
  (:func:`config_fingerprint`) the records were produced under;
* every further line is one JSON record, appended and flushed as the
  work finishes, so a kill loses at most the record being written;
* loading is tolerant: invalid lines are skipped, and an unterminated
  last line (a write torn by a kill) is not a record;
* before the first append, that torn tail is cut off, so the appended
  record starts on a line of its own and survives the next load;
* a journal whose header is missing or names another fingerprint was
  written under a different config: it is loaded as empty, and its
  first append rewrites it from a fresh header, with one warning
  naming the file.

Subclasses supply only what differs between record types: the record
key and the JSON codec of one line.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pathlib
from typing import IO, Iterator

from ..obs.log import get_log


def config_fingerprint(config) -> dict:
    """The config identity a journal must match to be resumed.

    Every knob that can change a journaled record is in it: corpus,
    crawl retries (attempts and simulated waits are recorded), work
    budgets, poison rate, portals, and profiling (profiled runs ship
    frame counts in their shard envelopes).  Scheduling knobs
    (``workers``, ``unit_retries``, ``chaos_kill_rate``, ``shard_dir``)
    are left out on purpose: a pooled or chaos run resumes from a
    serial run's journals.
    """
    return {
        "seed": config.seed,
        "scale": config.scale,
        "max_retries": config.max_retries,
        "stage_budget": config.stage_budget,
        "max_lhs": config.max_lhs,
        "min_unique": config.min_unique_values,
        "poison_rate": config.poison_rate,
        "portals": list(config.portal_codes),
        "profiled": config.profile_out is not None,
    }


class MergeConflict(RuntimeError):
    """Two shard journals disagree about one completed unit.

    Raised by :func:`~repro.resilience.pool.merge_shards` when the same
    unit appears in several shards with *different* record contents.
    Under the determinism contract this is impossible for honestly
    computed units — equal inputs produce equal records — so a conflict
    always means shard corruption or a scheduler bug, and the merge
    refuses to guess which side is right.
    """


class Journal:
    """Keyed records in one fingerprinted, append-only JSONL file.

    Opening a journal loads the records of a previous run with the same
    *fingerprint* (a JSON object); ``record`` appends new ones and
    flushes each immediately.  With *metrics*, loading counts
    ``journal.torn_lines`` and ``journal.loaded_records``.

    Subclasses supply the record key, ``_key(record)``, and the JSON
    codec of one line, ``_encode(record) -> str`` and
    ``_decode(line) -> record``.
    """

    def __init__(
        self, path: str | pathlib.Path, fingerprint: dict, metrics=None
    ):
        self.path = pathlib.Path(path)
        self.fingerprint = fingerprint
        self._records: dict = {}
        self._handle: IO[str] | None = None
        #: Byte length of the file's complete lines when its header
        #: matches; None means the first append starts the file afresh.
        self._valid_bytes: int | None = None
        if self.path.exists():
            with self.path.open("rb") as handle:
                self._load(handle, metrics)

    def _load(self, handle: IO[bytes], metrics) -> None:
        header = handle.readline()
        try:
            fingerprint = json.loads(header)["fingerprint"]
        except (ValueError, KeyError, TypeError):
            fingerprint = None
        if not header.endswith(b"\n") or fingerprint != self.fingerprint:
            return
        valid_bytes = len(header)
        torn = 0
        for line in handle:
            if not line.endswith(b"\n"):
                torn += 1  # the last append, torn by a kill
                break
            valid_bytes += len(line)
            if not line.strip():
                continue
            try:
                record = self._decode(line)
                key = self._key(record)
            except (ValueError, KeyError, TypeError):
                # Damaged outside the program: the record is redone.
                torn += 1
                continue
            self._records[key] = record
        self._valid_bytes = valid_bytes
        if metrics is not None:
            if torn:
                metrics.inc("journal.torn_lines", torn)
            if self._records:
                metrics.inc("journal.loaded_records", len(self._records))

    def _open(self) -> IO[str]:
        """The append handle, after the torn-tail repair or a fresh header."""
        if self._valid_bytes is not None:
            os.truncate(self.path, self._valid_bytes)
            return self.path.open("a", encoding="utf-8")
        if self.path.exists():
            get_log().warn(
                "journal-foreign",
                path=str(self.path),
                reason="missing or different config fingerprint; "
                "starting afresh",
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = self.path.open("w", encoding="utf-8")
        handle.write(
            json.dumps({"fingerprint": self.fingerprint}, sort_keys=True)
            + "\n"
        )
        return handle

    def record(self, record) -> None:
        """Append *record* and flush it to disk immediately."""
        if self._handle is None:
            self._handle = self._open()
        self._records[self._key(record)] = record
        self._handle.write(self._encode(record) + "\n")
        self._handle.flush()

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator:
        return iter(self._records.values())

    def get(self, key):
        """The checkpointed record under *key*, if any."""
        return self._records.get(key)

    def close(self) -> None:
        """Close the append handle (records stay readable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """Everything one finished resource contributes to the report."""

    resource_id: str
    url: str
    #: ``FetchOutcome.name`` of the terminal state.
    outcome: str
    attempts: int
    recovered: bool
    circuit_skipped: bool
    #: Whether the kept payload was shorter than declared (DEGRADED).
    truncated: bool
    #: Simulated seconds spent waiting for this resource.
    waited: float
    #: Raw fetched bytes; only recorded for outcomes that yield a table.
    payload: bytes | None = None

    def to_json(self) -> str:
        record = dataclasses.asdict(self)
        record["payload"] = (
            base64.b64encode(self.payload).decode("ascii")
            if self.payload is not None
            else None
        )
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes) -> "JournalEntry":
        record = json.loads(line)
        payload = record.get("payload")
        record["payload"] = (
            base64.b64decode(payload) if payload is not None else None
        )
        return cls(**record)


class CrawlJournal(Journal):
    """Resource-keyed checkpoints of one portal crawl.

    ``ingest_portal`` records one :class:`JournalEntry` per finished
    resource (outcome, retry provenance, and — for resources that
    produced a table — the raw payload, base64).  Parsing is
    deterministic, so replaying the §2.2 parse over the recorded bytes
    rebuilds the exact ingested table without any network traffic.
    """

    _encode = staticmethod(JournalEntry.to_json)
    _decode = staticmethod(JournalEntry.from_json)

    @staticmethod
    def _key(entry: JournalEntry) -> str:
        return entry.resource_id


@dataclasses.dataclass(frozen=True)
class StageRecord:
    """One journalled (stage, table) analysis unit."""

    #: Stage identifier, e.g. ``"screen"``, ``"fd"``.
    stage: str
    #: Resource id of the table, or ``"*"`` for portal-wide stages.
    table_id: str
    #: ``StageStatus.name`` of the recorded outcome.
    status: str
    #: Ticks the unit charged against its meter.
    ticks: int
    #: Budget the unit ran under (None = unlimited).
    budget: int | None
    #: Human-readable failure/truncation detail.
    detail: str = ""
    #: Stage-specific JSON payload (replayed verbatim), or None.
    payload: object | None = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes) -> "StageRecord":
        return cls(**json.loads(line))


class StudyJournal(Journal):
    """``(stage, table_id)``-keyed checkpoints of one portal's analyses.

    The executor records each finished per-table unit with its outcome
    fields and stage payload (e.g. the table's FD/normalization
    contribution); a rerun replays them instead of recomputing.
    """

    _encode = staticmethod(StageRecord.to_json)
    _decode = staticmethod(StageRecord.from_json)

    @staticmethod
    def _key(record: StageRecord) -> tuple[str, str]:
        return (record.stage, record.table_id)
