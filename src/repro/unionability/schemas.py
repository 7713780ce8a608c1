"""Schema-based unionability analysis (paper §6, Table 11).

Two tables are unionable when their schemas — column names and data
types, in order — are exactly equal.  This is the paper's deliberately
strict notion; its Table 11 statistics are all derived from grouping
tables by this schema fingerprint.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from ..core.stats import fraction, median
from ..dataframe import Table
from ..ingest.pipeline import IngestedTable
from ..obs.profile import prof_scope
from ..resilience.budget import UNMETERED, WorkMeter

#: Schema fingerprint: ((name, dtype), ...) with names case-folded.
Fingerprint = tuple[tuple[str, str], ...]


def schema_fingerprint(table: Table) -> Fingerprint:
    """The unionability fingerprint of one table."""
    return tuple(
        (name.lower(), dtype.value) for name, dtype in table.schema()
    )


@dataclasses.dataclass
class UnionGroup:
    """A set of tables sharing one schema."""

    fingerprint: Fingerprint
    table_indexes: list[int]
    dataset_ids: set[str]

    @property
    def size(self) -> int:
        """Number of tables sharing this schema."""
        return len(self.table_indexes)

    @property
    def is_unionable(self) -> bool:
        """Whether at least two tables share the schema."""
        return self.size >= 2

    @property
    def single_dataset(self) -> bool:
        """Whether every table of the group lives in one dataset."""
        return len(self.dataset_ids) == 1


@dataclasses.dataclass(frozen=True)
class UnionabilityStats:
    """One portal's column of the paper's Table 11."""

    portal_code: str
    total_tables: int
    unionable_tables: int
    median_degree: float
    max_degree: int
    unique_schemas: int
    avg_tables_per_schema: float
    unionable_schemas: int
    unionable_schemas_single_dataset: int

    @property
    def frac_unionable_tables(self) -> float:
        """Fraction of tables that are unionable."""
        return fraction(self.unionable_tables, self.total_tables)

    @property
    def frac_unionable_schemas(self) -> float:
        """Fraction of unique schemas shared by 2+ tables."""
        return fraction(self.unionable_schemas, self.unique_schemas)

    @property
    def frac_single_dataset_schemas(self) -> float:
        """Fraction of unionable schemas confined to one dataset."""
        return fraction(
            self.unionable_schemas_single_dataset, self.unionable_schemas
        )


@dataclasses.dataclass
class UnionabilityAnalysis:
    """Groups plus stats, for the labeling step."""

    portal_code: str
    tables: list[IngestedTable]
    groups: list[UnionGroup]
    stats: UnionabilityStats

    def unionable_groups(self) -> list[UnionGroup]:
        """The groups with at least two member tables."""
        return [g for g in self.groups if g.is_unionable]


def empty_unionability_analysis(
    portal_code: str, tables: list[IngestedTable]
) -> UnionabilityAnalysis:
    """The degraded stand-in when schema grouping blew its budget."""
    stats = UnionabilityStats(
        portal_code=portal_code,
        total_tables=len(tables),
        unionable_tables=0,
        median_degree=0.0,
        max_degree=0,
        unique_schemas=0,
        avg_tables_per_schema=0.0,
        unionable_schemas=0,
        unionable_schemas_single_dataset=0,
    )
    return UnionabilityAnalysis(
        portal_code=portal_code, tables=tables, groups=[], stats=stats
    )


def analyze_unionability(
    portal_code: str,
    tables: list[IngestedTable],
    meter: WorkMeter = UNMETERED,
) -> UnionabilityAnalysis:
    """Group a portal's cleaned tables by schema and compute Table 11.

    Each fingerprint charges *meter* one tick per schema column;
    :class:`BudgetExceeded` propagates (a partial grouping would
    misreport schema multiplicities, so the executor's fallback takes
    over instead of truncating here).
    """
    by_fingerprint: dict[Fingerprint, list[int]] = defaultdict(list)
    with prof_scope(meter, "dataframe", "schema_fingerprint"):
        for index, ingested in enumerate(tables):
            table = ingested.clean
            assert table is not None
            meter.tick(max(1, len(table.column_names)), op="union.fingerprint")
            by_fingerprint[schema_fingerprint(table)].append(index)

    meter.event("union.tables_grouped", len(tables))
    meter.event("union.unique_schemas", len(by_fingerprint))
    groups = [
        UnionGroup(
            fingerprint=fingerprint,
            table_indexes=indexes,
            dataset_ids={tables[i].dataset_id for i in indexes},
        )
        for fingerprint, indexes in sorted(by_fingerprint.items())
    ]
    unionable = [g for g in groups if g.is_unionable]
    degrees = [
        g.size - 1 for g in unionable for _ in range(g.size)
    ]  # per-table degree: group size minus itself
    stats = UnionabilityStats(
        portal_code=portal_code,
        total_tables=len(tables),
        unionable_tables=sum(g.size for g in unionable),
        median_degree=median(degrees),
        max_degree=max(degrees, default=0),
        unique_schemas=len(groups),
        avg_tables_per_schema=(
            len(tables) / len(groups) if groups else 0.0
        ),
        unionable_schemas=len(unionable),
        unionable_schemas_single_dataset=sum(
            1 for g in unionable if g.single_dataset
        ),
    )
    return UnionabilityAnalysis(
        portal_code=portal_code, tables=tables, groups=groups, stats=stats
    )
