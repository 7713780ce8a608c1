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

With a :class:`~repro.resilience.study_journal.StudyJournal` attached,
finished units are checkpointed as they complete and replayed on
resume, so a study killed mid-analysis picks up where it died without
recomputing anything it already finished.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import pathlib
from typing import Callable, Mapping

from ..obs.profile import prof_scope
from .budget import BudgetExceeded, WorkMeter
from .study_journal import StageRecord, StudyJournal

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


def compute_unit(
    compute: Callable[[WorkMeter], object],
    meter: WorkMeter,
    *,
    classify: Callable[[object], StageStatus] | None = None,
    on_budget: StageStatus = StageStatus.QUARANTINED,
) -> tuple[object | None, StageStatus, str]:
    """Run one unit's compute under *meter*, mapping failures to statuses.

    The failure-shape contract of :meth:`AnalysisExecutor.guard`,
    extracted so a pool worker process can execute a unit with exactly
    the semantics the in-process guard would apply: a clean return is
    classified OK/TRUNCATED, an escaping :class:`BudgetExceeded` maps to
    *on_budget* with no result, and any other exception maps to FAILED.
    Returns ``(result, status, detail)``.
    """
    try:
        result = compute(meter)
        status = classify(result) if classify else StageStatus.OK
        return result, status, ""
    except BudgetExceeded as exc:
        return None, on_budget, str(exc)
    except Exception as exc:  # noqa: BLE001 — the guard's whole point
        return None, StageStatus.FAILED, f"{type(exc).__name__}: {exc}"


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
    computed or replayed — additionally emits exactly one trace span
    (``kind="unit"``) whose operation count is the meter's spend, and
    feeds the outcome/journal counters of the metrics registry.
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
        #: parallel path's identity trick — an adopted unit emits the
        #: same span, counters, journal record, and quarantine side
        #: effects the in-process computation would have, so a sharded
        #: run's artifacts diff empty against a serial run.
        self.precomputed: dict[tuple[str, str], CompletedUnit] = {}

    # ------------------------------------------------------------------
    # the guard
    # ------------------------------------------------------------------
    def guard(
        self,
        stage: str,
        table_id: str,
        compute: Callable[[WorkMeter], object],
        *,
        classify: Callable[[object], StageStatus] | None = None,
        encode: Callable[[object], object] | None = None,
        decode: Callable[[object], object] | None = None,
        journal_stage: bool = False,
        on_budget: StageStatus = StageStatus.QUARANTINED,
        fallback: Callable[[], object] | None = None,
    ) -> tuple[object | None, StageOutcome]:
        """Run one analysis unit under a fresh meter.

        ``compute(meter)`` does the work; analyses that truncate
        internally (FD discovery) flag their result and ``classify``
        maps it to OK/TRUNCATED.  A :class:`BudgetExceeded` escaping
        ``compute`` means no usable partial exists: the unit is recorded
        with *on_budget* (QUARANTINED for per-table stages, TRUNCATED
        for portal-wide ones) and *fallback* supplies the degraded
        stand-in result.  Any other exception records FAILED.

        With ``journal_stage=True`` and a journal attached, finished
        units are checkpointed (payload via *encode*) and future calls
        replay them (via *decode*) without recomputation.
        """
        if journal_stage and self.journal is not None:
            record = self.journal.get(stage, table_id)
            if record is not None:
                return self._replay(record, decode, fallback)

        completed = self.precomputed.pop((stage, table_id), None)
        if completed is not None:
            return self._adopt(
                completed, decode, fallback, journal_stage=journal_stage
            )

        profiler = self.obs.profiler if self.obs is not None else None
        meter = WorkMeter(
            self.stage_budget,
            metrics=self.obs.metrics if self.obs is not None else None,
            profiler=profiler,
        )
        span = None
        if self.obs is not None:
            span = self.obs.tracer.start(
                stage,
                kind="unit",
                portal=self.portal_code,
                stage=stage,
                table=table_id,
            )
        with prof_scope(profiler, self.portal_code, stage):
            result, status, detail = compute_unit(
                compute, meter, classify=classify, on_budget=on_budget
            )

        outcome = StageOutcome(
            portal=self.portal_code,
            stage=stage,
            table_id=table_id,
            status=status,
            ticks=meter.spent,
            budget=self.stage_budget,
            detail=detail,
        )
        if span is not None:
            span.attrs["replayed"] = False
            if detail:
                span.attrs["detail"] = detail
            self.obs.tracer.finish(span, status=status.value, ops=meter.spent)
            self._observe_outcome(outcome)
        self._note(outcome)
        if journal_stage and self.journal is not None:
            payload = (
                encode(result)
                if encode is not None and result is not None
                else None
            )
            self.journal.record(
                StageRecord(
                    stage=stage,
                    table_id=table_id,
                    status=status.name,
                    ticks=meter.spent,
                    budget=self.stage_budget,
                    detail=detail,
                    payload=payload,
                )
            )
            if self.obs is not None:
                self.obs.metrics.inc("journal.records_written")
        if result is None and fallback is not None:
            result = fallback()
        return result, outcome

    def guard_unit(
        self,
        request,
        stage: str,
        table_id: str,
        *,
        journal_stage: bool = True,
    ) -> tuple[object | None, StageOutcome]:
        """Run one catalogued unit request (see ``resilience.units``).

        Thin adapter over :meth:`guard` unpacking a ``UnitRequest``'s
        hooks, so the serial path and the pool plan share one unit
        definition.
        """
        return self.guard(
            stage,
            table_id,
            request.compute,
            classify=request.classify,
            encode=request.encode,
            decode=request.decode,
            journal_stage=journal_stage,
            on_budget=request.on_budget,
            fallback=request.fallback,
        )

    def _adopt(
        self,
        completed: CompletedUnit,
        decode: Callable[[object], object] | None,
        fallback: Callable[[], object] | None,
        *,
        journal_stage: bool,
    ) -> tuple[object | None, StageOutcome]:
        """Take ownership of a unit a pool worker already computed.

        Unlike :meth:`_replay`, adoption is *this run's* computation —
        it merely happened in another process.  The unit therefore
        emits a full-spend span (``replayed=False``), merges the
        worker-side counter increments into this registry, appends the
        record to the canonical journal, and applies quarantine side
        effects, exactly as the local compute path would have.
        """
        record = completed.record
        status = StageStatus[record.status]
        outcome = StageOutcome(
            portal=self.portal_code,
            stage=record.stage,
            table_id=record.table_id,
            status=status,
            ticks=record.ticks,
            budget=record.budget,
            detail=record.detail,
        )
        if self.obs is not None:
            span = self.obs.tracer.start(
                record.stage,
                kind="unit",
                portal=self.portal_code,
                stage=record.stage,
                table=record.table_id,
                worker=completed.worker,
            )
            span.attrs["replayed"] = False
            if record.detail:
                span.attrs["detail"] = record.detail
            self.obs.tracer.finish(span, status=status.value, ops=record.ticks)
            for name, snapshot in completed.metrics.items():
                self.obs.metrics.inc(name, int(snapshot["value"]))
            if completed.profile and self.obs.profiler is not None:
                self.obs.profiler.absorb(completed.profile)
            self._observe_outcome(outcome)
        self._note(outcome)
        if journal_stage and self.journal is not None:
            self.journal.record(record)
            if self.obs is not None:
                self.obs.metrics.inc("journal.records_written")
        result = None
        if record.payload is not None and decode is not None:
            result = decode(record.payload)
        if result is None and fallback is not None:
            result = fallback()
        return result, outcome

    def _replay(
        self,
        record: StageRecord,
        decode: Callable[[object], object] | None,
        fallback: Callable[[], object] | None,
    ) -> tuple[object | None, StageOutcome]:
        """Reconstruct a checkpointed unit without recomputation."""
        status = StageStatus[record.status]
        outcome = StageOutcome(
            portal=self.portal_code,
            stage=record.stage,
            table_id=record.table_id,
            status=status,
            ticks=record.ticks,
            budget=record.budget,
            detail=record.detail,
            replayed=True,
        )
        if self.obs is not None:
            # Replays charge 0 ops this run (no work was redone); the
            # originally recorded spend stays visible as an attribute.
            span = self.obs.tracer.start(
                record.stage,
                kind="unit",
                portal=self.portal_code,
                stage=record.stage,
                table=record.table_id,
                replayed=True,
                recorded_ticks=record.ticks,
            )
            if record.detail:
                span.attrs["detail"] = record.detail
            self.obs.tracer.finish(span, status=status.value, ops=0)
            self.obs.metrics.inc("journal.resume_hits")
            self._observe_outcome(outcome)
        self._note(outcome)
        result = None
        if record.payload is not None and decode is not None:
            result = decode(record.payload)
        if result is None and fallback is not None:
            result = fallback()
        return result, outcome

    def _observe_outcome(self, outcome: StageOutcome) -> None:
        """Feed one outcome's counters into the metrics registry."""
        metrics = self.obs.metrics
        metrics.inc(f"stage.{outcome.status.value}")
        if outcome.replayed:
            metrics.inc("stage.replayed")
        else:
            metrics.histogram("unit.ticks", UNIT_TICK_BUCKETS).observe(
                outcome.ticks
            )

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
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        path = (
            self.quarantine_dir
            / f"{outcome.portal}-{outcome.table_id}.json"
        )
        text = (
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
            + "\n"
        )
        # Write-then-rename so a process killed mid-write (a real event
        # under the chaos-enabled pool) never leaves a torn record.
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

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
