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

Only per-table stages live here: the ``screen`` and ``fd`` units.
Portal-wide stages (join pair search, unionability) consume the
*results* of these units and always run in the supervising process.
"""

from __future__ import annotations

import dataclasses
import random

# Not called here: perfbench/spans.py's WRAPPED entry
# ("joinsig", "repro.resilience.units", "compute_table_signatures")
# resolves it.
from ..joinability.lshindex import compute_table_signatures  # noqa: F401
from ..normalize.analysis import (
    TableNormalization,
    passes_size_filter,
    table_normalization,
)
from ..profiling.screen import screen_table
from .executor import StageStatus, UnitRequest

#: Stage ids of the per-table units.  ``screen`` guards raw data
#: volume; ``fd`` is FD discovery plus BCNF decomposition.
SCREEN_STAGE = "screen"
FD_STAGE = "fd"

#: Per-table stages in execution order (fd depends on screen).
UNIT_STAGES = (SCREEN_STAGE, FD_STAGE)


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
    def depends_on(self) -> tuple[str, str, str] | None:
        """Key of the unit that must complete OK before this one runs.

        FD discovery only runs on tables the screen stage passed, so an
        ``fd`` unit depends on its own table's ``screen`` unit.  This is
        the one statement of that rule: the serial path skips a
        dependent unit whose screen did not end OK, and the worker pool
        runs dependent units in a second wave, planning only those whose
        screen ended OK.
        """
        if self.stage == FD_STAGE:
            return (self.portal, SCREEN_STAGE, self.table_id)
        return None


def plan_portal_units(
    portal_code: str, report, stages: tuple[str, ...] = UNIT_STAGES
) -> list[PlannedUnit]:
    """Every per-table unit *report*'s analyses will run, in order.

    The one plan of every run, serial or pooled: one ``screen`` unit
    per cleaned table and one ``fd`` unit per cleaned table passing the
    paper's §4.2 size filter.  Whether an ``fd`` unit actually executes
    still depends on its screen outcome (see
    :attr:`PlannedUnit.depends_on`).  *stages* restricts the plan: the
    serial path plans one stage at a time.
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
    return units


def unit_request(planned: PlannedUnit, table, config) -> UnitRequest:
    """The canonical compute request for *planned* over *table*.

    *config* supplies the seed and FD knobs; the closure is pure in
    everything else, so executing it in a worker process (with a fresh
    meter) yields bit-for-bit the record the serial path journals.
    The per-table BCNF RNG is derived from ``(seed, portal, table)``
    inside the closure, so retried executions never share RNG state.
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
    raise ValueError(f"unknown per-table stage: {planned.stage!r}")
