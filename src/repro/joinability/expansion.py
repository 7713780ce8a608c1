"""Join expansion-ratio analysis (paper §5.2, Figure 8).

Expansion ratio = inner-join output size / size of the larger input
table.  Computed in closed form from the two join columns' value
multiplicities, so hundreds of thousands of pairs are cheap.  A
column's multiplicities are counted once per portal and kept in the
analysis's ``value_counts`` memo, which both thresholds' analyses of a
portal share.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from ..ingest.pipeline import IngestedTable
from .index import ColumnProfile, normalize_value
from .pairs import JoinablePair, JoinabilityAnalysis


def column_value_counts(
    tables: list[IngestedTable], profile: ColumnProfile
) -> Counter:
    """Normalized-value multiplicities of a profiled column."""
    table = tables[profile.table_index].clean
    assert table is not None
    counts: Counter = Counter()
    for value, count in table.column(profile.column_name).value_counts().items():
        counts[normalize_value(value)] += count
    return counts


def pair_expansion_ratio(
    analysis: JoinabilityAnalysis, pair: JoinablePair
) -> float:
    """Expansion ratio of one joinable pair.

    Reads each column's counts from ``analysis.value_counts``, counting
    a column on first use only: Figure 8 at both thresholds, the
    §5.3.1 sample and every served join suggestion of a portal share
    its memo.
    """
    left_profile = analysis.profiles[pair.left]
    right_profile = analysis.profiles[pair.right]
    left_counts = _memoized_counts(analysis, pair.left)
    right_counts = _memoized_counts(analysis, pair.right)
    if len(right_counts) < len(left_counts):
        left_counts, right_counts = right_counts, left_counts
    output = sum(
        count * right_counts[value]
        for value, count in left_counts.items()
        if value in right_counts
    )
    larger = max(left_profile.num_rows, right_profile.num_rows)
    return output / larger if larger else 0.0


def _memoized_counts(analysis: JoinabilityAnalysis, column_id: int) -> Counter:
    counts = analysis.value_counts.get(column_id)
    if counts is None:
        counts = analysis.value_counts[column_id] = column_value_counts(
            analysis.tables, analysis.profiles[column_id]
        )
    return counts


@dataclasses.dataclass(frozen=True)
class ExpansionStats:
    """Per-portal expansion-ratio distribution (Figure 8's raw data)."""

    portal_code: str
    ratios: tuple[float, ...]


def expansion_stats(analysis: JoinabilityAnalysis) -> ExpansionStats:
    """Expansion ratios of every joinable pair in *analysis*."""
    ratios = tuple(
        pair_expansion_ratio(analysis, pair) for pair in analysis.pairs
    )
    return ExpansionStats(portal_code=analysis.portal_code, ratios=ratios)
