"""Guarded analysis executor: budgets, quarantine, and stage provenance.

Real OGDP corpora contain pathological tables — FD lattice bombs,
ultra-wide schemas, giant cells — that can hang or crash a naive
analysis pass.  The executor runs each analysis unit (one ``(portal,
stage, table)`` triple, or a portal-wide stage) under a fresh
:class:`~repro.resilience.budget.WorkMeter` and converts every failure
shape into a recorded :class:`StageOutcome` instead of letting it kill
the study:

* ``OK`` — the unit finished within budget;
* ``TRUNCATED`` — the budget ran out but the unit produced a clean
  partial result (e.g. FD search stopped at the last completed level);
* ``QUARANTINED`` — the budget ran out with no usable partial: the
  table is set aside, excluded from downstream analyses, and (when a
  quarantine directory is configured) written out for inspection;
* ``FAILED`` — the unit raised an unexpected exception.

With a :class:`~repro.resilience.journal.StudyJournal` attached,
finished units are checkpointed as they complete and replayed on
resume, so a study killed mid-analysis picks up where it died without
recomputing anything it already finished.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pathlib
from typing import Callable, Mapping

from ..obs.profile import prof_scope
from ..obs.trace import write_atomic
from .budget import BudgetExceeded, WorkMeter
from .journal import StageRecord, StudyJournal

#: Table id used for portal-wide stages (join pair search, unionability).
PORTAL_WIDE = "*"

#: Fixed bucket boundaries for the per-unit tick histogram.
UNIT_TICK_BUCKETS = (10, 100, 1_000, 10_000, 100_000, 1_000_000)


class StageStatus(enum.Enum):
    """Terminal state of one guarded analysis unit."""

    OK = "ok"
    TRUNCATED = "truncated"
    QUARANTINED = "quarantined"
    FAILED = "failed"


@dataclasses.dataclass(frozen=True)
class UnitRequest:
    """Everything the guard needs to run one unit, wherever it runs.

    ``compute(meter)`` does the work; *classify* maps a clean result to
    OK/TRUNCATED; *encode*/*decode* carry a journaled result to and from
    its payload; *on_budget* and *fallback* say what a budget blowup
    with no usable partial records and stands in with.
    """

    compute: Callable[[WorkMeter], object]
    classify: Callable[[object], StageStatus] | None = None
    encode: Callable[[object], object] | None = None
    decode: Callable[[object], object] | None = None
    on_budget: StageStatus = StageStatus.QUARANTINED
    fallback: Callable[[], object] | None = None


def compute_unit(
    stage: str,
    table_id: str,
    request: UnitRequest,
    meter: WorkMeter,
    *,
    encode: bool = True,
) -> tuple[object | None, StageRecord]:
    """Run *request*'s compute under *meter* and record how it ended.

    The failure-shape contract shared by :meth:`AnalysisExecutor.guard`
    and pool worker processes, so a unit computed in a worker gets
    exactly the semantics the in-process guard would apply: a clean
    return is classified OK/TRUNCATED, an escaping
    :class:`BudgetExceeded` maps to ``request.on_budget`` with no
    result, and any other exception maps to FAILED.  Returns
    ``(result, record)``; the record carries the meter's spend and
    budget and, with *encode* set, a result and a ``request.encode``,
    the encoded payload.
    """
    try:
        result = request.compute(meter)
        status = (
            request.classify(result) if request.classify else StageStatus.OK
        )
        detail = ""
    except BudgetExceeded as exc:
        result, status, detail = None, request.on_budget, str(exc)
    except Exception as exc:  # noqa: BLE001 — the guard's whole point
        result, status = None, StageStatus.FAILED
        detail = f"{type(exc).__name__}: {exc}"
    return result, StageRecord(
        stage=stage,
        table_id=table_id,
        status=status.name,
        ticks=meter.spent,
        budget=meter.budget,
        detail=detail,
        payload=(
            request.encode(result)
            if encode and request.encode is not None and result is not None
            else None
        ),
    )


@dataclasses.dataclass(frozen=True)
class CompletedUnit:
    """A unit computed outside the executor, offered for adoption.

    Produced by pool workers: *record* is the finished
    :class:`StageRecord` (payload already encoded), *worker* names the
    lane that computed it, and *metrics* is the snapshot of counter
    metrics the unit's meter charged in the worker process, keyed by
    metric name with ``{"value": n}`` mappings.
    """

    record: StageRecord
    worker: str
    metrics: Mapping[str, Mapping[str, object]] = dataclasses.field(
        default_factory=dict
    )
    #: Frame-path tick counts the unit's worker-side profiler recorded
    #: (``;``-joined paths, see :mod:`repro.obs.profile`); empty when
    #: the run is not profiling.
    profile: Mapping[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class StageOutcome:
    """Provenance of one guarded ``(portal, stage, table)`` unit."""

    portal: str
    stage: str
    table_id: str
    status: StageStatus
    #: Ticks charged against the unit's meter.
    ticks: int
    #: Budget the unit ran under (None = unlimited).
    budget: int | None
    #: Failure / truncation detail (exception text), empty when OK.
    detail: str = ""
    #: Whether the outcome was replayed from a study journal.
    replayed: bool = False


class AnalysisExecutor:
    """Runs analysis units under budget with quarantine and checkpoints.

    One executor guards one portal's analyses.  It owns the per-study
    bookkeeping: the append-ordered outcome log (for the degradation
    appendix), each unit's terminal status (consulted by dependent
    units), the in-memory set of quarantined table ids, and the
    optional journal / quarantine directory.

    With an :class:`~repro.obs.Observer` attached, every unit —
    computed here, adopted from a pool worker, or replayed from the
    journal — additionally emits exactly one trace span
    (``kind="unit"``) whose operation count is the meter's spend, and
    feeds the outcome/journal counters of the metrics registry.  All
    three finish through :meth:`_settle`.
    """

    def __init__(
        self,
        portal_code: str,
        *,
        stage_budget: int | None = None,
        journal: StudyJournal | None = None,
        quarantine_dir: str | pathlib.Path | None = None,
        obs=None,
    ):
        self.portal_code = portal_code
        self.stage_budget = stage_budget
        self.journal = journal
        self.obs = obs
        self.quarantine_dir = (
            pathlib.Path(quarantine_dir) if quarantine_dir is not None else None
        )
        #: Outcomes in execution order (replayed units included).
        self.outcomes: list[StageOutcome] = []
        #: Table ids quarantined by any stage so far.
        self.quarantined: set[str] = set()
        #: Latest terminal status per ``(stage, table_id)`` unit.
        self._statuses: dict[tuple[str, str], StageStatus] = {}
        #: Units computed elsewhere (pool workers), adopted on demand:
        #: ``(stage, table_id) -> CompletedUnit``.  Adoption is the
        #: parallel path's identity trick — an adopted unit settles
        #: through the method an in-process computation settles
        #: through, so it emits the same span, counters, journal
        #: record, and quarantine side effects, and a sharded run's
        #: artifacts diff empty against a serial run.
        self.precomputed: dict[tuple[str, str], CompletedUnit] = {}

    # ------------------------------------------------------------------
    # the guard
    # ------------------------------------------------------------------
    def guard(
        self, stage: str, table_id: str, request: UnitRequest
    ) -> tuple[object | None, StageOutcome]:
        """Run one analysis unit under a fresh meter.

        ``request.compute(meter)`` does the work; analyses that truncate
        internally (FD discovery) flag their result and
        ``request.classify`` maps it to OK/TRUNCATED.  A
        :class:`BudgetExceeded` escaping the compute means no usable
        partial exists: the unit is recorded with ``request.on_budget``
        (QUARANTINED for per-table stages, TRUNCATED for portal-wide
        ones) and ``request.fallback`` supplies the degraded stand-in
        result.  Any other exception records FAILED.

        A unit is journaled if and only if a journal is attached and it
        is a per-table unit (*table_id* is not :data:`PORTAL_WIDE`):
        its finished record is checkpointed (payload via
        ``request.encode``) and future calls replay it (via
        ``request.decode``) without recomputation.
        """
        journaled = self.journal is not None and table_id != PORTAL_WIDE
        if journaled:
            record = self.journal.get((stage, table_id))
            if record is not None:
                return self._settle(record, request, replayed=True)

        completed = self.precomputed.pop((stage, table_id), None)
        if completed is not None:
            return self._settle(
                completed.record,
                request,
                adopted=completed,
                journaled=journaled,
            )

        profiler = self.obs.profiler if self.obs is not None else None
        meter = WorkMeter(
            self.stage_budget,
            metrics=self.obs.metrics if self.obs is not None else None,
            profiler=profiler,
        )
        with prof_scope(profiler, self.portal_code, stage):
            result, record = compute_unit(
                stage, table_id, request, meter, encode=journaled
            )
        return self._settle(
            record, request, result=result, journaled=journaled
        )

    def _settle(
        self,
        record: StageRecord,
        request: UnitRequest,
        *,
        result: object | None = None,
        adopted: CompletedUnit | None = None,
        replayed: bool = False,
        journaled: bool = False,
    ) -> tuple[object | None, StageOutcome]:
        """Record one finished unit, however it was obtained.

        A unit computed here brings its in-memory *result*; one
        *adopted* from a pool worker brings the worker's counter
        metrics and profile frames, merged here exactly as if computed
        in process; one *replayed* from the study journal charges no
        ops this run and keeps its recorded spend as an attribute.
        Either way the unit emits one span, its outcome counters and
        quarantine side effects; computed and adopted units are this
        run's work, so with *journaled* set their record is appended to
        the study journal.  The result is the in-memory one, else the
        payload decoded by *request*, else its fallback's degraded
        stand-in.
        """
        status = StageStatus[record.status]
        outcome = StageOutcome(
            portal=self.portal_code,
            stage=record.stage,
            table_id=record.table_id,
            status=status,
            ticks=record.ticks,
            budget=record.budget,
            detail=record.detail,
            replayed=replayed,
        )
        if self.obs is not None:
            metrics = self.obs.metrics
            attrs = {"replayed": replayed}
            if adopted is not None:
                attrs["worker"] = adopted.worker
            if replayed:
                attrs["recorded_ticks"] = record.ticks
            if record.detail:
                attrs["detail"] = record.detail
            span = self.obs.tracer.start(
                record.stage,
                kind="unit",
                portal=self.portal_code,
                stage=record.stage,
                table=record.table_id,
                **attrs,
            )
            self.obs.tracer.finish(
                span, status=status.value, ops=0 if replayed else record.ticks
            )
            if adopted is not None:
                for name, snapshot in adopted.metrics.items():
                    metrics.inc(name, int(snapshot["value"]))
                if adopted.profile and self.obs.profiler is not None:
                    self.obs.profiler.absorb(adopted.profile)
            metrics.inc(f"stage.{status.value}")
            if replayed:
                metrics.inc("journal.resume_hits")
                metrics.inc("stage.replayed")
            else:
                metrics.histogram("unit.ticks", UNIT_TICK_BUCKETS).observe(
                    record.ticks
                )
        self._note(outcome)
        if journaled:
            self.journal.record(record)
            if self.obs is not None:
                self.obs.metrics.inc("journal.records_written")
        if (
            result is None
            and record.payload is not None
            and request.decode is not None
        ):
            result = request.decode(record.payload)
        if result is None and request.fallback is not None:
            result = request.fallback()
        return result, outcome

    def _note(self, outcome: StageOutcome) -> None:
        """Log one outcome and apply its quarantine side effects."""
        self.outcomes.append(outcome)
        self._statuses[(outcome.stage, outcome.table_id)] = outcome.status
        if outcome.status is StageStatus.QUARANTINED:
            self.quarantined.add(outcome.table_id)
            self._write_quarantine_file(outcome)
        elif outcome.status is StageStatus.FAILED and not outcome.replayed:
            # Crashed tables are excluded like quarantined ones (a table
            # that crashed profiling will crash every later stage too)
            # but carry the FAILED label and skip the quarantine dir.
            self.quarantined.add(outcome.table_id)

    def _write_quarantine_file(self, outcome: StageOutcome) -> None:
        if self.quarantine_dir is None or outcome.table_id == PORTAL_WIDE:
            return
        write_atomic(
            self.quarantine_dir / f"{outcome.portal}-{outcome.table_id}.json",
            json.dumps(
                {
                    "portal": outcome.portal,
                    "stage": outcome.stage,
                    "table_id": outcome.table_id,
                    "status": outcome.status.name,
                    "ticks": outcome.ticks,
                    "budget": outcome.budget,
                    "detail": outcome.detail,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n",
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_quarantined(self, table_id: str) -> bool:
        """Whether *table_id* has been set aside by any stage."""
        return table_id in self.quarantined

    def status_of(self, stage: str, table_id: str) -> StageStatus | None:
        """The terminal status of unit ``(stage, table_id)``, if it ran."""
        return self._statuses.get((stage, table_id))

    def status_counts(self) -> dict[StageStatus, int]:
        """Outcome counts by status, for the degradation appendix."""
        counts = {status: 0 for status in StageStatus}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    @property
    def ticks_spent(self) -> int:
        """Total ticks charged across all units (replays excluded)."""
        return sum(o.ticks for o in self.outcomes if not o.replayed)

    def close(self) -> None:
        """Close the attached journal, if any."""
        if self.journal is not None:
            self.journal.close()
