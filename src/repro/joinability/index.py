"""Column profiles and the inverted index for joinability search.

Join discovery operates on *column signatures*: the set of distinct
values each column holds, normalized to strings so that ``5`` in one CSV
matches ``5`` in another regardless of inferred numeric type.  An
inverted index from value to column id makes the all-pairs overlap
computation near-linear in total posting-list size.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from ..dataframe import Cell, Column
from ..ingest.pipeline import IngestedTable
from ..obs.profile import prof_scope
from ..resilience.budget import UNMETERED, WorkMeter
from .coltypes import SemanticType, classify_column

#: The paper's floor on distinct values for a joinable column (§5.1):
#: the lowest median unique-value count across the corpora.
MIN_UNIQUE_VALUES = 10


def normalize_value(value: Cell) -> str:
    """Canonical string form of a cell for cross-table value matching.

    Integral floats collapse to their integer spelling so that ``2020``
    and ``2020.0`` — the same published value parsed through different
    rows — match.  Text is whitespace-trimmed but case-preserving, as
    value-overlap systems typically treat case as significant.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, str):
        return value.strip()
    return str(value)


@dataclasses.dataclass
class ColumnProfile:
    """Join-search signature of one column."""

    column_id: int
    table_index: int
    column_name: str
    values: frozenset[str]
    is_key: bool
    semantic_type: SemanticType
    num_rows: int

    @property
    def num_unique(self) -> int:
        """Number of distinct normalized values."""
        return len(self.values)


def profile_column(
    column_id: int, table_index: int, column: Column
) -> ColumnProfile:
    """Build the join-search profile of one column."""
    values = frozenset(
        normalize_value(v) for v in column.distinct_values()
    )
    return ColumnProfile(
        column_id=column_id,
        table_index=table_index,
        column_name=column.name,
        values=values,
        is_key=column.is_key,
        semantic_type=classify_column(column),
        num_rows=len(column),
    )


def build_profiles(
    tables: list[IngestedTable],
    min_unique: int = MIN_UNIQUE_VALUES,
    meter: WorkMeter = UNMETERED,
) -> tuple[list[ColumnProfile], int]:
    """Profiles for all join-eligible columns of the cleaned tables.

    Returns ``(profiles, total_columns)`` where *total_columns* counts
    every column before the unique-value floor, for Table 6's
    joinable-column percentages.  Each column charges *meter* one tick
    per cell; :class:`BudgetExceeded` propagates to the caller (a
    partial profile set would silently undercount joinability, so there
    is no clean truncation here).  Profiles depend only on the
    tables and *min_unique*, so one portal builds them once for every
    threshold (:class:`~repro.joinability.lshindex.JoinSearchState`)
    and later searches charge :func:`replay_profile_ticks` instead.
    """
    profiles: list[ColumnProfile] = []
    total_columns = 0
    with prof_scope(meter, "dataframe", "distinct_scan"):
        for table_index, ingested in enumerate(tables):
            table = ingested.clean
            assert table is not None
            for column in table.columns:
                total_columns += 1
                meter.tick(len(column), op="join.profile")
                if column.distinct_count < min_unique:
                    continue
                profiles.append(
                    profile_column(len(profiles), table_index, column)
                )
    return profiles, total_columns


def replay_profile_ticks(
    tables: list[IngestedTable], meter: WorkMeter
) -> None:
    """Charge the ticks :func:`build_profiles` charges, building nothing.

    One ``join.profile`` tick per cell of every column, in table order,
    under the same frame, so a search that reuses already built
    profiles truncates where a fresh build would.
    """
    with prof_scope(meter, "dataframe", "distinct_scan"):
        for ingested in tables:
            for column in ingested.clean.columns:
                meter.tick(len(column), op="join.profile")


def build_inverted_index(
    profiles: list[ColumnProfile],
) -> dict[str, list[int]]:
    """Inverted index: normalized value -> ids of columns containing it."""
    index: dict[str, list[int]] = defaultdict(list)
    for profile in profiles:
        for value in profile.values:
            index[value].append(profile.column_id)
    return index
