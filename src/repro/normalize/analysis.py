"""FD-prevalence and decomposition statistics (paper Table 5, Figure 7).

Runs FUN plus BCNF decomposition over a portal's size-filtered tables
and aggregates exactly the quantities Table 5 reports.
"""

from __future__ import annotations

import dataclasses
import random

from ..core.stats import fraction, mean
from ..dataframe import Table
from ..fd.fun import DEFAULT_MAX_LHS, discover_fds
from ..resilience.budget import WorkMeter
from .bcnf import DecompositionResult, bcnf_decompose

#: The paper's size filter for the superlinear analyses (§4.2).
MIN_ROWS, MAX_ROWS = 10, 10_000
MIN_COLS, MAX_COLS = 5, 20


def passes_size_filter(table: Table) -> bool:
    """The paper's 10<=rows<=10000, 5<=cols<=20 filter."""
    return (
        MIN_ROWS <= table.num_rows <= MAX_ROWS
        and MIN_COLS <= table.num_columns <= MAX_COLS
    )


@dataclasses.dataclass(frozen=True)
class NormalizationStats:
    """One portal's column of the paper's Table 5 plus Figure 7 data."""

    portal_code: str
    total_tables: int
    total_columns: int
    avg_columns: float
    tables_with_fd: int
    tables_with_single_lhs_fd: int
    avg_fragments_not_bcnf: float
    avg_fragment_columns: float
    avg_uniqueness_gain: float
    #: fragment-count -> table count (1 = already in BCNF), Figure 7.
    fragment_histogram: dict[int, int]

    @property
    def frac_with_fd(self) -> float:
        """Fraction of tables with a non-trivial FD."""
        return fraction(self.tables_with_fd, self.total_tables)

    @property
    def frac_with_single_lhs_fd(self) -> float:
        """Fraction of tables with a |LHS|=1 FD."""
        return fraction(self.tables_with_single_lhs_fd, self.total_tables)


@dataclasses.dataclass(frozen=True)
class TableNormalization:
    """One table's contribution to :class:`NormalizationStats`.

    The analysis executor computes, journals, and replays these
    per-table records; :func:`aggregate_normalization` folds them back
    into the portal-level stats.  The payload round-trips through JSON
    exactly (ints, bools, and repr-round-tripping floats only).
    """

    #: Whether a work budget cut FD discovery short (the decomposition
    #: of a truncated FD set keeps the table whole).
    truncated: bool
    has_fd: bool
    has_single: bool
    #: Final fragment count (1 = already in bounded BCNF).
    fragments: int
    fragment_columns: tuple[int, ...]
    gains: tuple[float, ...]

    def to_payload(self) -> dict:
        """JSON-safe form for the study journal."""
        return {
            "truncated": self.truncated,
            "has_fd": self.has_fd,
            "has_single": self.has_single,
            "fragments": self.fragments,
            "fragment_columns": list(self.fragment_columns),
            "gains": list(self.gains),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TableNormalization":
        return cls(
            truncated=payload["truncated"],
            has_fd=payload["has_fd"],
            has_single=payload["has_single"],
            fragments=payload["fragments"],
            fragment_columns=tuple(payload["fragment_columns"]),
            gains=tuple(payload["gains"]),
        )


def table_normalization(
    table: Table,
    rng: random.Random,
    max_lhs: int = DEFAULT_MAX_LHS,
    meter: WorkMeter | None = None,
) -> TableNormalization:
    """FD discovery + BCNF decomposition for one table."""
    fds = discover_fds(table, max_lhs=max_lhs, meter=meter)
    if not fds.has_nontrivial:
        return TableNormalization(
            truncated=fds.truncated,
            has_fd=False,
            has_single=False,
            fragments=1,
            fragment_columns=(),
            gains=(),
        )
    result = bcnf_decompose(table, fds, rng)
    return TableNormalization(
        truncated=fds.truncated,
        has_fd=True,
        has_single=fds.has_single_lhs,
        fragments=result.num_fragments,
        fragment_columns=tuple(f.num_columns for f in result.fragments),
        gains=tuple(_uniqueness_gains(result)),
    )


def aggregate_normalization(
    portal_code: str,
    tables: list[Table],
    contributions: list[TableNormalization],
) -> NormalizationStats:
    """Fold per-table contributions into one portal's Table 5 column."""
    with_fd = 0
    with_single = 0
    fragment_histogram: dict[int, int] = {}
    fragment_counts: list[int] = []
    fragment_columns: list[int] = []
    gains: list[float] = []
    for contribution in contributions:
        count = contribution.fragments
        fragment_histogram[count] = fragment_histogram.get(count, 0) + 1
        if not contribution.has_fd:
            continue
        with_fd += 1
        if contribution.has_single:
            with_single += 1
        fragment_counts.append(count)
        fragment_columns.extend(contribution.fragment_columns)
        gains.extend(contribution.gains)

    return NormalizationStats(
        portal_code=portal_code,
        total_tables=len(tables),
        total_columns=sum(t.num_columns for t in tables),
        avg_columns=mean([t.num_columns for t in tables]),
        tables_with_fd=with_fd,
        tables_with_single_lhs_fd=with_single,
        avg_fragments_not_bcnf=mean(fragment_counts),
        avg_fragment_columns=mean(fragment_columns),
        avg_uniqueness_gain=_winsorized_mean(gains),
        fragment_histogram=fragment_histogram,
    )


#: Cap applied to individual uniqueness-gain ratios before averaging: a
#: single 10k-row table decomposing a 50-value dimension yields a 200x
#: ratio that would swamp the average the paper's 2.2-3.0x range
#: describes.
GAIN_CAP = 25.0


def _winsorized_mean(ratios: list[float]) -> float:
    """Arithmetic mean of uniqueness gains, winsorized at GAIN_CAP."""
    positive = [min(r, GAIN_CAP) for r in ratios if r > 0]
    if not positive:
        return 1.0
    return sum(positive) / len(positive)


def _uniqueness_gains(result: DecompositionResult) -> list[float]:
    """Per-column uniqueness-score ratios (after / before) for columns
    that were not repeated by the decomposition."""
    before = {
        column.name: column.uniqueness_score
        for column in result.original.columns
    }
    gains: list[float] = []
    for name in result.unrepeated_columns():
        fragment = next(
            f for f in result.fragments if f.has_column(name)
        )
        previous = before.get(name, 0.0)
        if previous <= 0.0:
            continue  # entirely-null columns have no meaningful ratio
        gains.append(fragment.column(name).uniqueness_score / previous)
    return gains
