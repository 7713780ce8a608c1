"""Post-parse cleaning steps (paper §2.2, final bullets).

Two cleanups the paper applies before analysis:

* drop sequences of entirely-empty columns at the end of the column
  list (a trailing-comma publication artifact);
* drop very wide tables (> 100 columns), which are overwhelmingly
  malformed — repeated periodical column blocks or transposed tables.
"""

from __future__ import annotations

import dataclasses

from ..dataframe import Table

#: The paper's width cutoff: tables wider than this are removed.
WIDE_TABLE_CUTOFF = 100


@dataclasses.dataclass(frozen=True)
class CleanOutcome:
    """Result of cleaning one parsed table."""

    table: Table | None
    trailing_columns_removed: int
    dropped_as_wide: bool


def drop_trailing_empty_columns(table: Table) -> tuple[Table, int]:
    """Remove the run of entirely-null columns at the end of the schema.

    Only the *trailing* run is removed; fully-null columns in the middle
    of a table are genuine data problems the null analysis must count.
    """
    keep = table.num_columns
    while keep > 0 and table.column(keep - 1).is_entirely_null:
        keep -= 1
    removed = table.num_columns - keep
    if removed == 0:
        return table, 0
    return Table(table.name, [table.column(i) for i in range(keep)]), removed


def clean_table(table: Table, width_cutoff: int = WIDE_TABLE_CUTOFF) -> CleanOutcome:
    """Apply both cleaning steps; wide tables come back as ``None``."""
    trimmed, removed = drop_trailing_empty_columns(table)
    if trimmed.num_columns > width_cutoff:
        return CleanOutcome(
            table=None, trailing_columns_removed=removed, dropped_as_wide=True
        )
    return CleanOutcome(
        table=trimmed, trailing_columns_removed=removed, dropped_as_wide=False
    )
