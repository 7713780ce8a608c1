"""Per-cell table screening: the guarded pipeline's first contact.

Before a table reaches the expensive analyses (FD lattice walks, join
pair search) the guarded executor runs it through this screen — a
single metered pass over every cell.  Screening itself is cheap; its
job is to *charge* the work budget proportionally to the table's raw
data volume (one tick per cell, plus one tick per 64 characters of
string payload), so that giant-cell and ultra-wide poison tables blow
their budget here, at the cheapest possible stage, and get quarantined
before any lattice algorithm ever sees them.
"""

from __future__ import annotations

import dataclasses

from ..dataframe import Table, is_null
from ..obs.profile import prof_scope
from ..resilience.budget import UNMETERED, WorkMeter

#: String cells charge one extra tick per this many characters, so a
#: 40 KB cell costs ~640x a scalar cell — data volume, not cell count,
#: is what dominates downstream analysis work.
CHARS_PER_TICK = 64


@dataclasses.dataclass(frozen=True)
class TableScreen:
    """Light per-table statistics from the screening pass."""

    table_name: str
    n_rows: int
    n_cols: int
    cells: int
    null_cells: int
    #: Length of the longest string cell, in characters.
    max_cell_chars: int


def screen_table(table: Table, meter: WorkMeter = UNMETERED) -> TableScreen:
    """One metered pass over every cell of *table*.

    Costs are charged per column (after scanning it) rather than per
    cell: the truncation point stays deterministic while the hot loop
    stays a plain Python scan.
    """
    cells = 0
    null_cells = 0
    max_cell_chars = 0
    with prof_scope(meter, "dataframe", "column_scan"):
        for column in table.columns:
            cost = 0
            for value in column.values:
                cost += 1
                if isinstance(value, str):
                    cost += len(value) // CHARS_PER_TICK
                    if len(value) > max_cell_chars:
                        max_cell_chars = len(value)
                elif is_null(value):
                    null_cells += 1
            cells += len(column)
            meter.tick(cost, op="screen.column")
    meter.event("screen.cells", cells)
    return TableScreen(
        table_name=table.name,
        n_rows=table.num_rows,
        n_cols=table.num_columns,
        cells=cells,
        null_cells=null_cells,
        max_cell_chars=max_cell_chars,
    )
