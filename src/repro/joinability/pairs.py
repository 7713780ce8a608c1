"""All-pairs joinable-column discovery and portal statistics (Table 6).

The paper's joinable-pair definition (§5.1): a quadruplet
``(t_i, c_k, t_j, c_l)`` whose columns have Jaccard similarity above a
high threshold (0.9; 0.7 in the supplementary sensitivity analysis) and
at least 10 unique values each.  We compute exact Jaccard for every
candidate pair via the inverted index.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from ..core.stats import fraction, median
from ..ingest.pipeline import IngestedTable
from ..obs.profile import prof_scope
from ..resilience.budget import BudgetExceeded, WorkMeter
from .index import (
    MIN_UNIQUE_VALUES,
    ColumnProfile,
    build_inverted_index,
    build_profiles,
)

#: The paper's primary Jaccard threshold.
JACCARD_THRESHOLD = 0.9

#: The supplementary sensitivity threshold.
JACCARD_THRESHOLD_LOW = 0.7


@dataclasses.dataclass(frozen=True)
class JoinablePair:
    """One joinable quadruplet, by column-profile ids."""

    left: int
    right: int
    jaccard: float
    overlap: int


def find_joinable_pairs(
    profiles: list[ColumnProfile],
    threshold: float = JACCARD_THRESHOLD,
    meter: WorkMeter | None = None,
) -> list[JoinablePair]:
    """Every cross-table column pair with Jaccard >= *threshold*.

    Pairs within a single table are excluded: joining a table to itself
    is not a data-integration suggestion.  Output pairs are normalized
    to ``left < right`` and sorted for determinism.
    """
    pairs, _ = joinable_pairs_flagged(profiles, threshold, meter)
    return pairs


def joinable_pairs_flagged(
    profiles: list[ColumnProfile],
    threshold: float = JACCARD_THRESHOLD,
    meter: WorkMeter | None = None,
) -> tuple[list[JoinablePair], bool]:
    """:func:`find_joinable_pairs` plus a truncation flag.

    With a *meter*, overlap accumulation charges one tick per posting
    comparison; a budget blowup there propagates (partially accumulated
    overlaps would produce *wrong* Jaccards, not fewer ones).  The final
    Jaccard filter charges one tick per candidate pair and truncates
    cleanly instead: it walks candidates in sorted order, so equal
    budgets always confirm the same deterministic prefix of pairs.
    """
    index = build_inverted_index(profiles)
    overlaps: dict[tuple[int, int], int] = defaultdict(int)
    with prof_scope(meter, "allpairs", "overlap"):
        for posting in index.values():
            if len(posting) < 2:
                continue
            for i, left in enumerate(posting):
                left_table = profiles[left].table_index
                for right in posting[i + 1 :]:
                    if meter is not None:
                        meter.tick(op="join.overlap")
                    if profiles[right].table_index == left_table:
                        continue
                    overlaps[(left, right)] += 1

    if meter is not None:
        meter.event("join.candidate_pairs", len(overlaps))
    pairs: list[JoinablePair] = []
    truncated = False
    try:
        with prof_scope(meter, "verify", "jaccard"):
            for left, right in sorted(overlaps):
                if meter is not None:
                    meter.tick(op="join.jaccard")
                overlap = overlaps[(left, right)]
                union = (
                    profiles[left].num_unique
                    + profiles[right].num_unique
                    - overlap
                )
                jaccard = overlap / union if union else 0.0
                if jaccard >= threshold:
                    pairs.append(
                        JoinablePair(
                            left=left,
                            right=right,
                            jaccard=jaccard,
                            overlap=overlap,
                        )
                    )
    except BudgetExceeded:
        truncated = True
    if meter is not None:
        meter.event("join.pairs_verified", len(pairs))
        if not truncated:
            meter.event("join.pairs_pruned", len(overlaps) - len(pairs))
    pairs.sort(key=lambda p: (p.left, p.right))
    return pairs, truncated


@dataclasses.dataclass(frozen=True)
class JoinabilityStats:
    """One portal's column of the paper's Table 6."""

    portal_code: str
    total_pairs: int
    total_tables: int
    joinable_tables: int
    median_table_degree: float
    max_table_degree: int
    total_columns: int
    joinable_columns: int
    key_joinable_columns: int
    nonkey_joinable_columns: int
    median_column_degree: float
    max_column_degree: int

    @property
    def frac_joinable_tables(self) -> float:
        """Fraction of tables with at least one joinable partner."""
        return fraction(self.joinable_tables, self.total_tables)

    @property
    def frac_joinable_columns(self) -> float:
        """Fraction of columns with at least one joinable partner."""
        return fraction(self.joinable_columns, self.total_columns)

    @property
    def frac_key_joinable(self) -> float:
        """Fraction of joinable columns that are key columns."""
        return fraction(self.key_joinable_columns, self.joinable_columns)


@dataclasses.dataclass
class JoinabilityAnalysis:
    """Profiles + pairs + stats bundled for downstream analyses."""

    portal_code: str
    tables: list[IngestedTable]
    profiles: list[ColumnProfile]
    pairs: list[JoinablePair]
    stats: JoinabilityStats
    #: column-profile id -> ids of its joinable partner columns.
    column_neighbors: dict[int, list[int]]
    #: table index -> set of joinable partner table indexes.
    table_neighbors: dict[int, set[int]]
    #: Whether a work budget cut the pair search short.
    truncated: bool = False


def empty_joinability_analysis(
    portal_code: str,
    tables: list[IngestedTable],
    truncated: bool = True,
) -> JoinabilityAnalysis:
    """The degraded stand-in when the pair search blew its budget.

    Table counts stay honest; everything join-specific is zero.
    """
    stats = JoinabilityStats(
        portal_code=portal_code,
        total_pairs=0,
        total_tables=len(tables),
        joinable_tables=0,
        median_table_degree=0.0,
        max_table_degree=0,
        total_columns=0,
        joinable_columns=0,
        key_joinable_columns=0,
        nonkey_joinable_columns=0,
        median_column_degree=0.0,
        max_column_degree=0,
    )
    return JoinabilityAnalysis(
        portal_code=portal_code,
        tables=tables,
        profiles=[],
        pairs=[],
        stats=stats,
        column_neighbors={},
        table_neighbors={},
        truncated=truncated,
    )


def analyze_joinability(
    portal_code: str,
    tables: list[IngestedTable],
    threshold: float = JACCARD_THRESHOLD,
    min_unique: int = MIN_UNIQUE_VALUES,
    meter: WorkMeter | None = None,
) -> JoinabilityAnalysis:
    """Run joinable-pair discovery and compute Table 6's statistics.

    With a *meter*, profiling and overlap accumulation propagate
    :class:`BudgetExceeded` (no clean partial exists at those stages —
    the executor's fallback takes over), while the Jaccard filter
    truncates cleanly to a deterministic prefix of pairs flagged via
    ``JoinabilityAnalysis.truncated``.
    """
    profiles, total_columns = build_profiles(
        tables, min_unique=min_unique, meter=meter
    )
    pairs, truncated = joinable_pairs_flagged(profiles, threshold, meter)
    return assemble_joinability(
        portal_code, tables, profiles, total_columns, pairs, truncated
    )


def assemble_joinability(
    portal_code: str,
    tables: list[IngestedTable],
    profiles: list[ColumnProfile],
    total_columns: int,
    pairs: list[JoinablePair],
    truncated: bool = False,
) -> JoinabilityAnalysis:
    """Table 6's statistics bundle from an already-found pair set.

    Shared by the all-pairs path and the prefix-filtered path: the
    derived stats are a pure function of ``(profiles, pairs)``, so both
    entry points produce identical analyses for identical pair sets.
    """
    column_neighbors: dict[int, list[int]] = defaultdict(list)
    table_neighbors: dict[int, set[int]] = defaultdict(set)
    for pair in pairs:
        column_neighbors[pair.left].append(pair.right)
        column_neighbors[pair.right].append(pair.left)
        left_table = profiles[pair.left].table_index
        right_table = profiles[pair.right].table_index
        table_neighbors[left_table].add(right_table)
        table_neighbors[right_table].add(left_table)

    table_degrees = [len(v) for v in table_neighbors.values()]
    column_degrees = [len(v) for v in column_neighbors.values()]
    joinable_column_ids = sorted(column_neighbors)
    key_joinable = sum(
        1 for cid in joinable_column_ids if profiles[cid].is_key
    )

    stats = JoinabilityStats(
        portal_code=portal_code,
        total_pairs=len(pairs),
        total_tables=len(tables),
        joinable_tables=len(table_neighbors),
        median_table_degree=median(table_degrees),
        max_table_degree=max(table_degrees, default=0),
        total_columns=total_columns,
        joinable_columns=len(joinable_column_ids),
        key_joinable_columns=key_joinable,
        nonkey_joinable_columns=len(joinable_column_ids) - key_joinable,
        median_column_degree=median(column_degrees),
        max_column_degree=max(column_degrees, default=0),
    )
    return JoinabilityAnalysis(
        portal_code=portal_code,
        tables=tables,
        profiles=profiles,
        pairs=pairs,
        stats=stats,
        column_neighbors=dict(column_neighbors),
        table_neighbors=dict(table_neighbors),
        truncated=truncated,
    )
