"""The crawl-and-parse pipeline (paper §2.2).

For each declared-CSV resource of every dataset:

1. fetch the URL — HTTP 200 makes it *downloadable*;
2. sniff the bytes — they must actually be CSV (libmagic step);
3. infer the header row (first 500 rows heuristic);
4. parse the raw data into a typed table;
5. apply cleaning (trailing empty columns, >100-column cutoff).

Resources that clear steps 1–4 are *readable*; step 5 may still exclude
a table from the analyses (``clean`` is ``None`` for dropped-wide
tables), exactly mirroring the paper's accounting.

The fetch step runs through the resilient crawl layer
(:mod:`repro.resilience`): pass a
:class:`~repro.resilience.client.ResilientHttpClient` to enable retries,
per-host circuit breaking, and rate limiting; a plain
:class:`~repro.portal.http.HttpClient` is wrapped with a zero-retry
policy, reproducing the paper's single-shot crawl exactly.  Per-resource
retry provenance lands in :attr:`IngestReport.resilience`, and an
optional :class:`~repro.resilience.journal.CrawlJournal` makes the
crawl resumable: completed resources are replayed from the journal
instead of re-fetched.
"""

from __future__ import annotations

import dataclasses
import enum

from ..dataframe import (
    DataFrameError,
    Table,
    decode_bytes,
    read_raw_rows,
    rows_to_table,
)
from ..obs import maybe_span
from ..portal.ckan import CkanApi
from ..portal.http import HttpClient
from ..portal.magic import detect_mime
from ..resilience import (
    CrawlJournal,
    FetchResult,
    JournalEntry,
    ResilienceStats,
    ResilientHttpClient,
)
from .clean import clean_table
from .header import infer_header


class FetchOutcome(enum.Enum):
    """Terminal state of one resource in the pipeline."""

    READABLE = "readable"
    NOT_DOWNLOADABLE = "not downloadable"
    NOT_CSV = "not csv"
    UNPARSEABLE = "unparseable"
    #: Truncated-but-salvageable: the body was shorter than declared yet
    #: still parsed into a table.  Counted as readable, flagged degraded.
    DEGRADED = "degraded"


#: Outcomes that contribute a parsed table to the report.
_TABLE_OUTCOMES = frozenset({FetchOutcome.READABLE, FetchOutcome.DEGRADED})


@dataclasses.dataclass
class IngestedTable:
    """One successfully parsed table plus its pipeline provenance."""

    portal_code: str
    dataset_id: str
    resource_id: str
    name: str
    url: str
    #: Parsed table before cleaning (used for raw size statistics).
    raw: Table
    #: Cleaned table, or None when the width cutoff removed it.
    clean: Table | None
    raw_size_bytes: int
    header_index: int
    trailing_columns_removed: int
    dropped_as_wide: bool
    #: True when the payload was truncated in flight but still parsed.
    degraded: bool = False

    @property
    def analyzable(self) -> bool:
        """Whether the table survives into the §4–§6 analyses."""
        return self.clean is not None


@dataclasses.dataclass
class IngestReport:
    """Everything the pipeline learned about one portal."""

    portal_code: str
    total_datasets: int
    total_declared_tables: int
    downloadable_tables: int
    #: Parsed tables, including truncated-but-salvageable (DEGRADED) ones.
    readable_tables: int
    tables: list[IngestedTable]
    outcome_counts: dict[FetchOutcome, int]
    #: dataset id -> number of declared CSV tables (for Table 1's
    #: tables-per-dataset statistics).
    tables_per_dataset: dict[str, int]
    #: Retry/circuit/journal provenance of the crawl.
    resilience: ResilienceStats = dataclasses.field(
        default_factory=ResilienceStats
    )

    @property
    def clean_tables(self) -> list[IngestedTable]:
        """Tables that survive cleaning (the analysis corpus)."""
        return [t for t in self.tables if t.analyzable]


def ingest_portal(
    api: CkanApi,
    client: HttpClient | ResilientHttpClient,
    *,
    journal: CrawlJournal | None = None,
    obs=None,
) -> IngestReport:
    """Run the full pipeline over one portal's catalog.

    *client* may be a plain :class:`HttpClient` (single-shot crawl, the
    paper's behaviour) or a :class:`ResilientHttpClient` (retries,
    circuit breaking, rate limiting).  When *journal* is given, finished
    resources are checkpointed as the crawl progresses and resources
    already present in the journal are replayed without any fetch.

    With an *obs* observer, the whole crawl runs inside one
    ``ingest`` stage span whose operation count is the total number of
    fetch attempts, and the crawl's retry/breaker/journal provenance is
    folded into the metrics registry.
    """
    with maybe_span(
        obs, "ingest", kind="stage", portal=api.portal_code
    ) as span:
        report = _ingest_portal(api, client, journal=journal)
        if obs is not None:
            attempts = sum(
                report.resilience.attempts_per_resource.values()
            )
            span.add_ops(attempts)
            _feed_crawl_metrics(obs.metrics, report)
    return report


def _ingest_portal(
    api: CkanApi,
    client: HttpClient | ResilientHttpClient,
    *,
    journal: CrawlJournal | None = None,
) -> IngestReport:
    """The uninstrumented pipeline body (see :func:`ingest_portal`)."""
    resilient = (
        client
        if isinstance(client, ResilientHttpClient)
        else ResilientHttpClient(client)
    )
    stats = ResilienceStats(max_retries=resilient.policy.max_retries)
    outcome_counts = {outcome: 0 for outcome in FetchOutcome}
    tables: list[IngestedTable] = []
    tables_per_dataset: dict[str, int] = {}
    total_declared = 0
    downloadable = 0

    packages = api.package_search_all()
    for package in packages:
        dataset_id = package["id"]
        csv_resources = [
            r for r in package["resources"]
            if r["format"].strip().lower() == "csv"
        ]
        if csv_resources:
            tables_per_dataset[dataset_id] = len(csv_resources)
        for resource in csv_resources:
            total_declared += 1
            entry = (
                journal.get(resource["id"]) if journal is not None else None
            )
            if entry is not None:
                outcome, ingested = _replay_entry(
                    api.portal_code, dataset_id, resource, entry
                )
                stats.resumed_resources += 1
            else:
                result = resilient.fetch(resource["url"])
                outcome, ingested = _classify_fetch(
                    api.portal_code, dataset_id, resource, result
                )
                entry = _journal_entry(resource, result, outcome)
                if journal is not None:
                    journal.record(entry)
            _account(stats, resource["id"], entry)
            outcome_counts[outcome] += 1
            if outcome is not FetchOutcome.NOT_DOWNLOADABLE:
                downloadable += 1
            if ingested is not None:
                tables.append(ingested)

    stats.circuit_events = resilient.circuit_events()
    return IngestReport(
        portal_code=api.portal_code,
        total_datasets=len(packages),
        total_declared_tables=total_declared,
        downloadable_tables=downloadable,
        readable_tables=len(tables),
        tables=tables,
        outcome_counts=outcome_counts,
        tables_per_dataset=tables_per_dataset,
        resilience=stats,
    )


#: Fixed bucket boundaries for the attempts-per-resource histogram.
ATTEMPT_BUCKETS = (1, 2, 3, 5, 8)


def _feed_crawl_metrics(metrics, report: IngestReport) -> None:
    """Fold one portal's crawl provenance into the metrics registry."""
    stats = report.resilience
    attempts = stats.attempts_per_resource
    metrics.inc("crawl.resources", len(attempts))
    metrics.inc("crawl.attempts", sum(attempts.values()))
    metrics.inc(
        "crawl.retries", sum(max(0, a - 1) for a in attempts.values())
    )
    metrics.inc("crawl.recovered_after_retry", stats.recovered_after_retry)
    metrics.inc("crawl.circuit_open_skips", stats.circuit_open_skips)
    metrics.inc("crawl.breaker_transitions", len(stats.circuit_events))
    metrics.inc("crawl.degraded_tables", stats.degraded_tables)
    metrics.inc("crawl.resumed_resources", stats.resumed_resources)
    metrics.inc("crawl.wait_seconds", stats.simulated_wait_seconds)
    histogram = metrics.histogram(
        "crawl.attempts_per_resource", ATTEMPT_BUCKETS
    )
    for count in attempts.values():
        histogram.observe(count)
    for outcome, count in report.outcome_counts.items():
        if count:
            metrics.inc(f"crawl.outcome.{outcome.name.lower()}", count)


def _account(
    stats: ResilienceStats, resource_id: str, entry: JournalEntry
) -> None:
    """Fold one resource's provenance into the crawl statistics."""
    stats.attempts_per_resource[resource_id] = entry.attempts
    if entry.recovered:
        stats.recovered_after_retry += 1
    if entry.circuit_skipped:
        stats.circuit_open_skips += 1
    if entry.truncated and entry.outcome == FetchOutcome.DEGRADED.name:
        stats.degraded_tables += 1
    stats.simulated_wait_seconds += entry.waited


def _journal_entry(
    resource: dict, result: FetchResult, outcome: FetchOutcome
) -> JournalEntry:
    """Checkpoint record for one freshly fetched resource."""
    payload = None
    if outcome in _TABLE_OUTCOMES and result.response is not None:
        payload = result.response.content
    return JournalEntry(
        resource_id=resource["id"],
        url=resource["url"],
        outcome=outcome.name,
        attempts=result.attempts,
        recovered=result.recovered,
        circuit_skipped=result.circuit_skipped,
        truncated=result.truncated,
        waited=result.waited,
        payload=payload,
    )


def _replay_entry(
    portal_code: str,
    dataset_id: str,
    resource: dict,
    entry: JournalEntry,
) -> tuple[FetchOutcome, IngestedTable | None]:
    """Reconstruct a checkpointed resource without fetching.

    Outcomes without a table replay as-is; table outcomes re-run the
    deterministic parse over the journalled payload, rebuilding the
    exact :class:`IngestedTable` the original crawl produced.
    """
    outcome = FetchOutcome[entry.outcome]
    if entry.payload is None:
        return outcome, None
    return _parse_payload(
        portal_code,
        dataset_id,
        resource,
        entry.payload,
        truncated=entry.truncated,
    )


def _classify_fetch(
    portal_code: str,
    dataset_id: str,
    resource: dict,
    result: FetchResult,
) -> tuple[FetchOutcome, IngestedTable | None]:
    """Steps 1–5 for one freshly fetched resource."""
    if result.response is None or not result.response.ok:
        return FetchOutcome.NOT_DOWNLOADABLE, None
    return _parse_payload(
        portal_code,
        dataset_id,
        resource,
        result.response.content,
        truncated=result.response.truncated,
    )


def _parse_payload(
    portal_code: str,
    dataset_id: str,
    resource: dict,
    payload: bytes,
    *,
    truncated: bool = False,
) -> tuple[FetchOutcome, IngestedTable | None]:
    """Steps 2–5: sniff, infer header, parse, clean."""
    if detect_mime(payload) != "text/csv":
        return FetchOutcome.NOT_CSV, None
    try:
        raw_rows = read_raw_rows(decode_bytes(payload))
        if len(raw_rows) < 2:  # header plus at least one data row
            return FetchOutcome.UNPARSEABLE, None
        inference = infer_header(raw_rows)
        table = rows_to_table(
            resource["name"],
            raw_rows,
            inference.header_index,
            inference.num_columns,
        )
    except DataFrameError:
        return FetchOutcome.UNPARSEABLE, None
    if table.num_rows == 0 or table.num_columns == 0:
        return FetchOutcome.UNPARSEABLE, None

    cleaned = clean_table(table)
    ingested = IngestedTable(
        portal_code=portal_code,
        dataset_id=dataset_id,
        resource_id=resource["id"],
        name=resource["name"],
        url=resource["url"],
        raw=table,
        clean=cleaned.table,
        raw_size_bytes=len(payload),
        header_index=inference.header_index,
        trailing_columns_removed=cleaned.trailing_columns_removed,
        dropped_as_wide=cleaned.dropped_as_wide,
        degraded=truncated,
    )
    outcome = FetchOutcome.DEGRADED if truncated else FetchOutcome.READABLE
    return outcome, ingested
