"""Turning topic instances into publishable table drafts.

This is where the paper's central pathology is manufactured: publishers
join their base tables into single wide CSVs before publishing
("pre-joined versions of multiple base tables", §4.3).  A
:class:`TableDraft` is a concrete table plus its column lineage, ready
for a publication style to group into datasets and for the corruption
layer to serialize.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Sequence

from .base_tables import DimInstance, TopicInstance, draws_below, stable_index
from .domains import DomainKind
from .lineage import ColumnLineage, ColumnRole

#: Names publishers give to incremental surrogate-key columns.
ID_COLUMN_NAMES = ("objectid", "id", "record_id", "row_id", "_id")

#: Values of the low-cardinality "status" bookkeeping column.
_STATUS_VALUES = ("Final", "Provisional", "Revised", "Active", "Closed")

#: Occasional free-text notes (the column is mostly null).
_NOTE_VALUES = (
    "Revised estimate", "Preliminary", "See methodology notes",
    "Suppressed for confidentiality", "Imputed",
)


@dataclasses.dataclass
class TableDraft:
    """A generated table before corruption and serialization."""

    name: str
    #: (column name, value list) pairs in schema order.
    columns: list[tuple[str, list]]
    lineage_columns: list[ColumnLineage]
    subtable_kind: str
    period: str | None = None
    partition_value: str | None = None

    @property
    def num_rows(self) -> int:
        """Number of rows in the draft."""
        return len(self.columns[0][1]) if self.columns else 0

    @property
    def header(self) -> list[str]:
        """Column names in schema order."""
        return [name for name, _ in self.columns]


def role_for_dim(dim: DimInstance) -> ColumnRole:
    """Ground-truth role of a dimension key column, from its domain."""
    if dim.domain.kind in (DomainKind.TEMPORAL, DomainKind.YEAR):
        return ColumnRole.TEMPORAL
    if dim.domain.kind is DomainKind.GEO:
        return ColumnRole.GEO
    return ColumnRole.ENTITY_KEY


def fact_draft(
    instance: TopicInstance,
    rng: random.Random,
    *,
    name: str,
    inline_attr_probability: float,
    add_id_probability: float,
    row_indices: Sequence[int] | None = None,
    drop_columns: Sequence[str] = (),
    subtable_kind: str = "fact",
    period: str | None = None,
    partition_value: str | None = None,
    link_entities: bool = False,
    extra_columns: int = 0,
) -> TableDraft:
    """Build a published fact table draft.

    Each dimension key column is emitted, then (with
    *inline_attr_probability* per dimension) its descriptive attributes —
    the denormalization that plants ``key -> attribute`` FDs.  With
    *add_id_probability* an incremental surrogate key is prepended.
    *row_indices* restricts to a subset of fact rows (periodic /
    partitioned splits); *drop_columns* removes the split axis.
    *link_entities* marks entity-key columns as designated links (set by
    the semi-normalized style, which also publishes the entity tables).
    """
    rows = instance.fact_rows
    indices = range(len(rows)) if row_indices is None else row_indices
    dropped = set(drop_columns)

    columns: list[tuple[str, list]] = []
    lineage: list[ColumnLineage] = []

    indices = list(indices)
    if rng.random() < add_id_probability:
        _append_id_column(columns, lineage, instance, name, len(indices))

    for position, dim in enumerate(instance.dims):
        if dim.column in dropped:
            continue
        values = [rows[i][position] for i in indices]
        columns.append((dim.column, values))
        lineage.append(
            ColumnLineage(
                name=dim.column,
                domain_name=dim.domain.name,
                role=role_for_dim(dim),
                is_link=link_entities and dim.is_entity,
            )
        )
        if dim.attribute_maps and rng.random() < inline_attr_probability:
            _append_attributes(columns, lineage, dim, values)

    n_dims = len(instance.dims)
    for offset, measure in enumerate(instance.measures):
        values = [rows[i][n_dims + offset] for i in indices]
        columns.append((measure.column, values))
        lineage.append(
            ColumnLineage(
                name=measure.column,
                domain_name=f"measure.{instance.family_id}.{measure.column}",
                role=ColumnRole.MEASURE,
            )
        )
    _append_extras(columns, lineage, instance, rng, len(indices), extra_columns)
    return TableDraft(
        name=name,
        columns=columns,
        lineage_columns=lineage,
        subtable_kind=subtable_kind,
        period=period,
        partition_value=partition_value,
    )


def entity_draft(
    instance: TopicInstance,
    dim: DimInstance,
    rng: random.Random,
    *,
    add_id_probability: float = 0.2,
) -> TableDraft:
    """Build an entity (dimension) table draft: key plus its attributes.

    These are the "useful sub-tables" the paper's §4.3 anecdotes describe
    (industry hierarchies, fund codes with descriptions).
    """
    name = f"{dim.column}_reference"
    columns: list[tuple[str, list]] = []
    lineage: list[ColumnLineage] = []
    if rng.random() < add_id_probability:
        _append_id_column(columns, lineage, instance, name, len(dim.values))
    columns.append((dim.column, list(dim.values)))
    lineage.append(
        ColumnLineage(
            name=dim.column,
            domain_name=dim.domain.name,
            role=role_for_dim(dim),
            is_link=True,
        )
    )
    _append_attributes(columns, lineage, dim, dim.values)
    return TableDraft(
        name=name,
        columns=columns,
        lineage_columns=lineage,
        subtable_kind=f"entity:{dim.column}",
    )


def aspect_draft(
    instance: TopicInstance,
    dim: DimInstance,
    rng: random.Random,
    *,
    name: str,
) -> TableDraft:
    """Build a secondary "aspect" table sharing attributes with the fact.

    Models the paper's NSERC example: *Awards* and *Co-Applicants* both
    carry an ``Institution``-like column, so they join accidentally on a
    non-link attribute (R-Acc) even though they belong together.
    """
    sample_size = max(5, min(len(dim.values), rng.randint(10, 40)))
    keys = [rng.choice(dim.values) for _ in range(sample_size)]
    columns: list[tuple[str, list]] = [(f"co_{dim.column}", keys)]
    lineage = [
        ColumnLineage(
            name=f"co_{dim.column}",
            domain_name=dim.domain.name,
            role=role_for_dim(dim),
            is_link=False,
        )
    ]
    for attr_column, mapping in dim.attribute_maps.items():
        columns.append((f"co_{attr_column}", [mapping[k] for k in keys]))
        lineage.append(
            ColumnLineage(
                name=f"co_{attr_column}",
                domain_name=dim.attribute_domains[attr_column],
                role=ColumnRole.ATTRIBUTE,
                fd_parent=f"co_{dim.column}",
            )
        )
    columns.append(
        ("contribution_share", [round(rng.uniform(0.05, 0.95), 2) for _ in keys])
    )
    lineage.append(
        ColumnLineage(
            name="contribution_share",
            domain_name=f"measure.{instance.family_id}.contribution_share",
            role=ColumnRole.MEASURE,
        )
    )
    return TableDraft(
        name=name,
        columns=columns,
        lineage_columns=lineage,
        subtable_kind="aspect",
    )


def _append_id_column(
    columns: list[tuple[str, list]],
    lineage: list[ColumnLineage],
    instance: TopicInstance,
    table_name: str,
    n_rows: int,
) -> None:
    # The id column's name and numbering offset are a property of the
    # publishing system, i.e. of the *family*: periodic and partitioned
    # siblings must agree on them or their schemas would diverge.  The
    # offset is not always 1 (exports carry source-system offsets),
    # which keeps same-length id columns from always overlapping
    # perfectly across unrelated tables.
    rng = random.Random(f"ids:{instance.family_id}")
    id_name = rng.choice(ID_COLUMN_NAMES)
    start = rng.choices(
        (1, 1001, 5001, 10001), weights=(0.6, 0.15, 0.15, 0.1)
    )[0]
    columns.append((id_name, list(range(start, start + n_rows))))
    lineage.append(
        ColumnLineage(
            name=id_name,
            domain_name=f"id.{instance.family_id}.{table_name}",
            role=ColumnRole.ID,
        )
    )


def _append_extras(
    columns: list[tuple[str, list]],
    lineage: list[ColumnLineage],
    instance: TopicInstance,
    rng: random.Random,
    n_rows: int,
    count: int,
) -> None:
    """Append bookkeeping columns publishers habitually add.

    These columns widen the published tables toward the paper's 10-ish
    median width and contribute textbook low-value-variety columns:
    statuses, sparse notes, constant source labels, update dates.
    """
    makers = [
        _extra_status, _extra_last_updated, _extra_notes,
        _extra_source, _extra_quality, _extra_pct, _extra_flag,
    ]
    # Selection must be stable per family so that periodic/partitioned
    # siblings keep identical schemas; only the values use *rng*.
    random.Random(f"extras:{instance.family_id}").shuffle(makers)
    for maker in makers[: max(0, count)]:
        maker(columns, lineage, instance, rng, n_rows)


def _extra_status(columns, lineage, instance, rng, n_rows) -> None:
    picks = draws_below(rng, len(_STATUS_VALUES), n_rows)
    columns.append(("status", [_STATUS_VALUES[i] for i in picks]))
    lineage.append(
        ColumnLineage("status", "cat.record_status", ColumnRole.ATTRIBUTE)
    )


def _extra_last_updated(columns, lineage, instance, rng, n_rows) -> None:
    # Updates cluster in a per-publisher maintenance window: different
    # families touch their data in different months, so these columns
    # do not accidentally share near-complete date domains.  Each row
    # draws randint(anchor, min(12, anchor + 2)) then randint(1, 28):
    # draws_below's rejection loop, inlined because the two alternate.
    anchor = 1 + stable_index(instance.family_id, 10)
    months, days = min(12, anchor + 2) - anchor + 1, 28
    month_bits, day_bits = months.bit_length(), days.bit_length()
    getrandbits = rng.getrandbits
    dates = []
    for _ in range(n_rows):
        month = getrandbits(month_bits)
        while month >= months:
            month = getrandbits(month_bits)
        day = getrandbits(day_bits)
        while day >= days:
            day = getrandbits(day_bits)
        dates.append(f"2021-{anchor + month:02d}-{1 + day:02d}")
    columns.append(("last_updated", dates))
    lineage.append(
        ColumnLineage("last_updated", "time.date.2021", ColumnRole.TEMPORAL)
    )


def _extra_notes(columns, lineage, instance, rng, n_rows) -> None:
    # rng.choice(_NOTE_VALUES) if rng.random() < 0.45 else None, per
    # row, with choice's draws_below loop inlined.
    random_, getrandbits = rng.random, rng.getrandbits
    n = len(_NOTE_VALUES)
    k = n.bit_length()
    values = []
    for _ in range(n_rows):
        if random_() < 0.45:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            values.append(_NOTE_VALUES[r])
        else:
            values.append(None)
    columns.append(("notes", values))
    lineage.append(
        ColumnLineage("notes", "str.notes", ColumnRole.ATTRIBUTE)
    )


def _extra_source(columns, lineage, instance, rng, n_rows) -> None:
    label = f"Statistical Office {stable_index(instance.family_id, 40)}"
    columns.append(("source", [label] * n_rows))
    lineage.append(
        ColumnLineage("source", "str.source", ColumnRole.ATTRIBUTE)
    )


def _extra_quality(columns, lineage, instance, rng, n_rows) -> None:
    # Per-family lattice jitter: two publishers' quality scores must
    # not share a value grid (that would make them spuriously joinable).
    step = 0.5 * (0.3 + stable_index(instance.family_id + "q", 700) / 1000)
    values = [round(r * step, 2) for r in draws_below(rng, 201, n_rows)]
    columns.append(("data_quality", values))
    lineage.append(
        ColumnLineage(
            "data_quality",
            f"measure.{instance.family_id}.data_quality",
            ColumnRole.MEASURE,
        )
    )


def _extra_pct(columns, lineage, instance, rng, n_rows) -> None:
    step = 0.1 * (0.3 + stable_index(instance.family_id + "p", 700) / 1000)
    values = [round(r * step, 2) for r in draws_below(rng, 1001, n_rows)]
    columns.append(("pct_of_total", values))
    lineage.append(
        ColumnLineage(
            "pct_of_total",
            f"measure.{instance.family_id}.pct_of_total",
            ColumnRole.MEASURE,
        )
    )


def _extra_flag(columns, lineage, instance, rng, n_rows) -> None:
    values = [rng.random() < 0.06 for _ in range(n_rows)]
    columns.append(("suppressed", values))
    lineage.append(
        ColumnLineage("suppressed", "cat.flag", ColumnRole.ATTRIBUTE)
    )


def _append_attributes(
    columns: list[tuple[str, list]],
    lineage: list[ColumnLineage],
    dim: DimInstance,
    key_values: Sequence,
) -> None:
    for attr_column, mapping in dim.attribute_maps.items():
        columns.append((attr_column, [mapping[k] for k in key_values]))
        lineage.append(
            ColumnLineage(
                name=attr_column,
                domain_name=dim.attribute_domains[attr_column],
                role=ColumnRole.ATTRIBUTE,
                fd_parent=dim.column,
            )
        )
