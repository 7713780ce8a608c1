"""The catalog of per-table analysis units: enumerable, computable anywhere.

Every study runs its per-table stages as units of one *enumerable*
plan:

* :func:`plan_portal_units` lists every per-table ``(portal, stage,
  table)`` unit a portal's analysis will execute, before executing any
  of them — the list :class:`~repro.core.study.PortalStudy` walks in
  process and the sharded worker pool schedules over;
* :func:`unit_request` builds, for any planned unit, the exact compute
  closure (plus classify/encode/decode hooks) the in-process executor
  uses, so a unit computed in a worker process is **definitionally**
  the same computation the in-process executor would have run.

Only per-table stages live here.  Portal-wide stages (join pair
search, unionability) consume the *results* of these units and always
run in the supervising process — but the ``joinsig`` stage moves the
expensive per-column half of join pair search (MinHash signature
construction, see :mod:`repro.joinability.lshindex`) into the unit
plan, so ``--workers N`` parallelizes the index build and the
supervisor only merges signatures and verifies candidates.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable

from ..joinability.lshindex import (
    SignatureMemo,
    TableJoinSignatures,
    compute_table_signatures,
    empty_table_signatures,
)
from ..normalize.analysis import (
    TableNormalization,
    passes_size_filter,
    table_normalization,
)
from ..profiling.screen import screen_table
from .executor import StageStatus

#: Stage ids of the per-table units.  ``screen`` guards raw data
#: volume; ``fd`` is FD discovery plus BCNF decomposition; ``joinsig``
#: builds the MinHash signature shard of the join index.
SCREEN_STAGE = "screen"
FD_STAGE = "fd"
JOINSIG_STAGE = "joinsig"

#: Per-table stages in execution order (fd and joinsig depend on
#: screen).
UNIT_STAGES = (SCREEN_STAGE, FD_STAGE, JOINSIG_STAGE)


@dataclasses.dataclass(frozen=True)
class PlannedUnit:
    """One enumerable ``(portal, stage, table)`` analysis unit."""

    portal: str
    stage: str
    table_id: str

    @property
    def key(self) -> tuple[str, str, str]:
        """The pool-wide identity of this unit."""
        return (self.portal, self.stage, self.table_id)

    @property
    def journal_key(self) -> tuple[str, str]:
        """The per-portal study-journal key of this unit."""
        return (self.stage, self.table_id)

    @property
    def depends_on(self) -> tuple[str, str, str] | None:
        """Key of the unit that must complete OK before this one runs.

        FD discovery and signature building only run on tables the
        screen stage passed, so ``fd`` and ``joinsig`` units depend on
        their own table's ``screen`` unit.  This is the one statement
        of that rule: the serial path skips a dependent unit whose
        screen did not end OK, and the worker pool runs dependent
        units in a second wave, planning only those whose screen ended
        OK.
        """
        if self.stage in (FD_STAGE, JOINSIG_STAGE):
            return (self.portal, SCREEN_STAGE, self.table_id)
        return None


@dataclasses.dataclass(frozen=True)
class UnitRequest:
    """Everything the guard needs to run one unit, wherever it runs."""

    compute: Callable
    classify: Callable | None = None
    encode: Callable | None = None
    decode: Callable | None = None
    on_budget: StageStatus = StageStatus.QUARANTINED
    fallback: Callable | None = None


def plan_portal_units(
    portal_code: str, report, stages: tuple[str, ...] = UNIT_STAGES
) -> list[PlannedUnit]:
    """Every per-table unit *report*'s analyses will run, in order.

    The one plan of every run, serial or pooled: one ``screen`` unit
    per cleaned table, one ``fd`` unit per cleaned table passing the
    paper's §4.2 size filter, and one ``joinsig`` unit per cleaned
    table (join eligibility is per *column*, so every table may
    contribute signatures).  Whether a dependent unit actually executes
    still depends on its screen outcome (see
    :attr:`PlannedUnit.depends_on`).  *stages* restricts the plan —
    e.g. ``build-index`` plans no ``fd`` units.
    """
    units: list[PlannedUnit] = []
    if SCREEN_STAGE in stages:
        units.extend(
            PlannedUnit(portal_code, SCREEN_STAGE, ingested.resource_id)
            for ingested in report.clean_tables
        )
    if FD_STAGE in stages:
        units.extend(
            PlannedUnit(portal_code, FD_STAGE, ingested.resource_id)
            for ingested in report.clean_tables
            if ingested.clean is not None
            and passes_size_filter(ingested.clean)
        )
    if JOINSIG_STAGE in stages:
        units.extend(
            PlannedUnit(portal_code, JOINSIG_STAGE, ingested.resource_id)
            for ingested in report.clean_tables
            if ingested.clean is not None
        )
    return units


def unit_request(
    planned: PlannedUnit,
    table,
    config,
    memo: SignatureMemo | None = None,
) -> UnitRequest:
    """The canonical compute request for *planned* over *table*.

    *config* supplies the seed and FD knobs; the closure is pure in
    everything else, so executing it in a worker process (with a fresh
    meter) yields bit-for-bit the record the serial path journals.
    The per-table BCNF RNG is derived from ``(seed, portal, table)``
    inside the closure, so retried executions never share RNG state.
    *memo* is an optional :class:`SignatureMemo` (built with the
    config's seed) shared by one portal's in-process ``joinsig`` units;
    it builds the hasher once, saves rehashing values repeated across
    tables, and never changes a result.
    """
    if planned.stage == SCREEN_STAGE:
        return UnitRequest(
            compute=lambda meter: screen_table(table, meter),
        )
    if planned.stage == FD_STAGE:
        rng_key = f"{config.seed}:{planned.portal}:bcnf:{planned.table_id}"
        return UnitRequest(
            compute=lambda meter: table_normalization(
                table,
                random.Random(rng_key),
                max_lhs=config.max_lhs,
                meter=meter,
            ),
            classify=lambda c: (
                StageStatus.TRUNCATED if c.truncated else StageStatus.OK
            ),
            encode=lambda c: c.to_payload(),
            decode=TableNormalization.from_payload,
        )
    if planned.stage == JOINSIG_STAGE:
        return UnitRequest(
            compute=lambda meter: compute_table_signatures(
                table,
                planned.table_id,
                min_unique=config.min_unique_values,
                seed=config.seed,
                meter=meter,
                memo=memo,
            ),
            encode=lambda s: s.to_payload(),
            decode=TableJoinSignatures.from_payload,
            # A budget blowup mid-signature degrades to "no signatures
            # for this table" — the pair search then skips the band
            # filter for its columns (slower, identical answers) —
            # rather than quarantining a perfectly servable table.
            on_budget=StageStatus.TRUNCATED,
            fallback=lambda: empty_table_signatures(planned.table_id),
        )
    raise ValueError(f"unknown per-table stage: {planned.stage!r}")
