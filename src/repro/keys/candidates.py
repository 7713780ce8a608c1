"""Candidate-key discovery (paper §4.1 and Figure 6).

A single column is a key when its uniqueness score is exactly 1.0 (no
nulls, no repeats).  For tables without one, the paper searches for
composite candidate keys of size 2 and 3; ~10% of tables have none even
then, which it reads as evidence of heavy denormalization.

For composite keys we count distinct value *tuples* (nulls participate
as ordinary values, as distinct-counting tools do), and we prune
aggressively: a combination whose per-column distinct-count product is
below the row count can never be a key.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

from ..dataframe import Table

#: Reported when no candidate key of size <= max_size exists.
NO_KEY = 0


@dataclasses.dataclass(frozen=True)
class KeyReport:
    """Key findings for one table."""

    table_name: str
    num_rows: int
    num_columns: int
    #: Size of the smallest candidate key found (1..max_size), or
    #: :data:`NO_KEY` when none exists within the size bound.
    min_key_size: int
    #: Names of the single-column keys (may be several).
    single_keys: tuple[str, ...]
    #: One example minimal composite key (column names), if any.
    example_key: tuple[str, ...]

    @property
    def has_single_key(self) -> bool:
        """Whether a single-column key exists."""
        return self.min_key_size == 1

    @property
    def has_any_key(self) -> bool:
        """Whether any key of size <= max_size exists."""
        return self.min_key_size != NO_KEY


def single_key_columns(table: Table) -> tuple[str, ...]:
    """Names of columns with uniqueness score 1.0."""
    return tuple(c.name for c in table.columns if c.is_key)


def find_min_key(table: Table, max_size: int = 3) -> KeyReport:
    """Find the minimum candidate-key size of *table* (up to *max_size*)."""
    singles = single_key_columns(table)
    if singles:
        return _report(table, 1, singles, (singles[0],))
    n_rows = table.num_rows
    if n_rows == 0:
        return _report(table, NO_KEY, (), ())

    # Distinct counts including nulls-as-values.  Constant columns stay
    # in the candidate pool: they can complete a minimal key when the
    # partner column distinguishes rows only through nulls (size-1 keys
    # must be null-free, so such a column is not a key on its own).
    # The distinct-count-product prune below discards useless
    # constant-only combinations without scanning them.
    distincts: list[tuple[int, int]] = [
        (position, len(set(column.values)))
        for position, column in enumerate(table.columns)
    ]
    # Wider distinct counts first: they reach uniqueness soonest.
    distincts.sort(key=lambda item: -item[1])

    for size in range(2, max_size + 1):
        combo = _search_size(table, distincts, size, n_rows)
        if combo is not None:
            return _report(table, size, (), combo)
    return _report(table, NO_KEY, (), ())


def _search_size(
    table: Table,
    distincts: list[tuple[int, int]],
    size: int,
    n_rows: int,
) -> tuple[str, ...] | None:
    for combo in combinations(distincts, size):
        product = 1
        for _, count in combo:
            product *= count
        if product < n_rows:
            continue  # cannot possibly distinguish all rows
        positions = [position for position, _ in combo]
        if _is_composite_key(table, positions):
            return tuple(table.column(p).name for p in positions)
    return None


def _is_composite_key(table: Table, positions: list[int]) -> bool:
    """Whether no two rows share their values at *positions*.

    ``zip`` builds each row's key tuple in C; the scan stops at the
    first repeated key.
    """
    seen: set[tuple] = set()
    add = seen.add
    for key in zip(*(table.column(p).values for p in positions)):
        if key in seen:
            return False
        add(key)
    return True


def _report(
    table: Table,
    min_size: int,
    singles: tuple[str, ...],
    example: tuple[str, ...],
) -> KeyReport:
    return KeyReport(
        table_name=table.name,
        num_rows=table.num_rows,
        num_columns=table.num_columns,
        min_key_size=min_size,
        single_keys=singles,
        example_key=example,
    )


@dataclasses.dataclass(frozen=True)
class KeySizeDistribution:
    """Figure 6's per-portal distribution of minimum key sizes."""

    portal_code: str
    #: counts indexed by key size: {1: n1, 2: n2, 3: n3, NO_KEY: n_none}
    counts: dict[int, int]
    total_tables: int

    def fraction(self, size: int) -> float:
        """Share of tables whose minimum key has the given size."""
        return self.counts.get(size, 0) / self.total_tables if self.total_tables else 0.0


def key_size_distribution(
    portal_code: str, tables: list[Table], max_size: int = 3
) -> KeySizeDistribution:
    """Distribution of minimum candidate key sizes over *tables*."""
    counts: dict[int, int] = {size: 0 for size in (1, 2, 3, NO_KEY)}
    for table in tables:
        report = find_min_key(table, max_size=max_size)
        counts[report.min_key_size] = counts.get(report.min_key_size, 0) + 1
    return KeySizeDistribution(
        portal_code=portal_code, counts=counts, total_tables=len(tables)
    )
