"""Publication styles: how a logical database becomes published CSVs.

Each style function maps one :class:`TopicInstance` to a list of
:class:`DraftDataset` objects, reproducing the publication patterns the
paper identifies (§5.2, §5.3.4, §6): single pre-joined tables,
semi-normalized multi-table datasets, periodic re-publication,
categorical partitioning, and Singapore's standardized melted schemas.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict

from .base_tables import TopicInstance, draws_below, stable_index
from .denormalize import TableDraft, aspect_draft, entity_draft, fact_draft
from .lineage import ColumnLineage, ColumnRole, PublicationStyle


@dataclasses.dataclass
class StyleKnobs:
    """Per-portal parameters controlling how styles publish."""

    inline_attr_probability: float = 0.85
    add_id_probability: float = 0.25
    #: Probability a semi-normalized dataset also publishes an "aspect"
    #: table sharing attribute columns with the fact (R-Acc generator).
    aspect_probability: float = 0.35
    #: Periodic style: all periods under one dataset (CA/UK habit) vs one
    #: dataset per period (US habit).
    periodic_same_dataset_probability: float = 0.8
    #: Periodic style: probability each period also carries entity
    #: sub-tables ("semi-normalized under periodically published").
    periodic_entities_probability: float = 0.2
    max_periods: tuple[int, int] = (3, 10)
    max_partitions: tuple[int, int] = (3, 10)
    #: SG-standard style: probability the melted table uses the shared
    #: island-wide category hierarchy instead of topic-specific values.
    sg_shared_hierarchy_probability: float = 0.75
    sg_with_level2_probability: float = 0.6
    sg_with_level3_probability: float = 0.22
    #: Range of bookkeeping columns (status/notes/source/...) appended
    #: to fact tables; selection is stable per family.
    extra_column_range: tuple[int, int] = (0, 3)


@dataclasses.dataclass
class DraftDataset:
    """A dataset (CKAN package) before ids/URLs/corruption are assigned."""

    title: str
    description: str
    topic: str
    category: str
    style: PublicationStyle
    family_id: str
    tables: list[TableDraft]


def publish(
    instance: TopicInstance,
    style: PublicationStyle,
    rng: random.Random,
    knobs: StyleKnobs,
) -> list[DraftDataset]:
    """Publish *instance* using *style*; returns one or more datasets."""
    builder = _STYLE_BUILDERS[style]
    return builder(instance, rng, knobs)


def _dataset(
    instance: TopicInstance,
    style: PublicationStyle,
    tables: list[TableDraft],
    title_suffix: str = "",
) -> DraftDataset:
    blueprint = instance.blueprint
    title = blueprint.title + (f" — {title_suffix}" if title_suffix else "")
    return DraftDataset(
        title=title,
        description=(
            f"{blueprint.title}: official statistics on "
            f"{blueprint.topic.replace('_', ' ')}."
        ),
        topic=blueprint.topic,
        category=blueprint.category,
        style=style,
        family_id=instance.family_id,
        tables=tables,
    )


# ----------------------------------------------------------------------
# style: one big pre-joined table
# ----------------------------------------------------------------------
def _denormalized_single(
    instance: TopicInstance, rng: random.Random, knobs: StyleKnobs
) -> list[DraftDataset]:
    draft = fact_draft(
        instance,
        rng,
        name=instance.blueprint.topic,
        inline_attr_probability=max(0.95, knobs.inline_attr_probability),
        add_id_probability=knobs.add_id_probability,
        extra_columns=rng.randint(*knobs.extra_column_range),
    )
    return [_dataset(instance, PublicationStyle.DENORMALIZED_SINGLE, [draft])]


# ----------------------------------------------------------------------
# style: fact + entity tables in one dataset
# ----------------------------------------------------------------------
def _semi_normalized(
    instance: TopicInstance, rng: random.Random, knobs: StyleKnobs
) -> list[DraftDataset]:
    tables = [
        fact_draft(
            instance,
            rng,
            name=instance.blueprint.topic,
            inline_attr_probability=knobs.inline_attr_probability * 0.4,
            add_id_probability=knobs.add_id_probability,
            link_entities=True,
            extra_columns=rng.randint(*knobs.extra_column_range),
        )
    ]
    entity_dims = [d for d in instance.dims if d.is_entity]
    for dim in entity_dims:
        tables.append(entity_draft(instance, dim, rng))
    if entity_dims and rng.random() < knobs.aspect_probability:
        dim = rng.choice([d for d in entity_dims if d.attribute_maps] or entity_dims)
        tables.append(
            aspect_draft(instance, dim, rng, name=f"{instance.blueprint.topic}_details")
        )
    return [_dataset(instance, PublicationStyle.SEMI_NORMALIZED, tables)]


# ----------------------------------------------------------------------
# style: one table per period, identical schemas
# ----------------------------------------------------------------------
def _periodic(
    instance: TopicInstance, rng: random.Random, knobs: StyleKnobs
) -> list[DraftDataset]:
    axis = instance.temporal_column
    assert axis is not None, "periodic style requires a temporal dimension"
    groups = _group_rows(instance, axis)
    periods = sorted(groups, key=str)[-rng.randint(*knobs.max_periods):]
    inline = rng.random() < knobs.inline_attr_probability
    add_entities = rng.random() < knobs.periodic_entities_probability
    # Decide id/inline/extras once so every period's schema is identical.
    add_id = rng.random() < knobs.add_id_probability
    extra_columns = rng.randint(*knobs.extra_column_range)

    per_period_tables: dict[str, list[TableDraft]] = {}
    for period in periods:
        label = str(period)
        tables = [
            fact_draft(
                instance,
                rng,
                name=f"{instance.blueprint.topic}_{label}",
                inline_attr_probability=1.0 if inline else 0.0,
                add_id_probability=1.0 if add_id else 0.0,
                row_indices=groups[period],
                drop_columns=(axis,),
                period=label,
                extra_columns=extra_columns,
            )
        ]
        if add_entities and rng.random() < 0.55:
            for dim in instance.dims:
                if dim.is_entity and dim.column != axis:
                    entity = entity_draft(instance, dim, rng, add_id_probability=0.0)
                    entity.name = f"{entity.name}_{label}"
                    entity.period = label
                    tables.append(entity)
        per_period_tables[label] = tables

    same_dataset = rng.random() < knobs.periodic_same_dataset_probability
    if same_dataset:
        all_tables = [t for tables in per_period_tables.values() for t in tables]
        return [_dataset(instance, PublicationStyle.PERIODIC, all_tables)]
    return [
        _dataset(instance, PublicationStyle.PERIODIC, tables, title_suffix=label)
        for label, tables in per_period_tables.items()
    ]


# ----------------------------------------------------------------------
# style: one table per category value
# ----------------------------------------------------------------------
def _partitioned(
    instance: TopicInstance, rng: random.Random, knobs: StyleKnobs
) -> list[DraftDataset]:
    axis = instance.partition_column
    assert axis is not None, "partitioned style requires a partition dimension"
    groups = _group_rows(instance, axis)
    values = sorted(groups, key=str)
    rng.shuffle(values)
    values = values[: rng.randint(*knobs.max_partitions)]
    inline = rng.random() < knobs.inline_attr_probability
    add_id = rng.random() < knobs.add_id_probability
    extra_columns = rng.randint(*knobs.extra_column_range)
    tables = [
        fact_draft(
            instance,
            rng,
            name=f"{instance.blueprint.topic}_{_slug(value)}",
            inline_attr_probability=1.0 if inline else 0.0,
            add_id_probability=1.0 if add_id else 0.0,
            row_indices=groups[value],
            drop_columns=(axis,),
            partition_value=str(value),
            extra_columns=extra_columns,
        )
        for value in values
    ]
    return [_dataset(instance, PublicationStyle.PARTITIONED, tables)]


# ----------------------------------------------------------------------
# style: Singapore's standardized melted schemas
# ----------------------------------------------------------------------
SG_SCHEMA_WITH_L2 = ("level_1", "level_2", "year", "value")
SG_SCHEMA_NO_L2 = ("level_1", "year", "value")


def _sg_standard(
    instance: TopicInstance, rng: random.Random, knobs: StyleKnobs
) -> list[DraftDataset]:
    """Melt the topic into SG's {level_1[, level_2], year, value} shape.

    With high probability the levels come from the island-wide shared
    statistical hierarchy, which is what makes wildly different SG
    datasets share both schema *and* values (the paper's SG-specific
    accidental join/union pattern).
    """
    shared = rng.random() < knobs.sg_shared_hierarchy_probability
    with_level2 = rng.random() < knobs.sg_with_level2_probability
    with_level3 = (
        with_level2 and rng.random() < knobs.sg_with_level3_probability
    )
    years = [y for y in range(2000, 2023)][-rng.randint(4, 10):]

    if shared:
        level1_domain_name = "cat.sg_level1"
        level2_domain_name = "cat.sg_level2"
        level1_values = _shared_sg_level1(instance, rng)
        level2_map = {v: _shared_sg_level2(v) for v in level1_values}
    else:
        primary = instance.dims[0]
        level1_domain_name = primary.domain.name
        level2_domain_name = f"{primary.domain.name}.sub"
        level1_values = list(primary.values)[: rng.randint(4, 12)]
        level2_map = {
            v: [f"{v} — Subgroup {k}" for k in range(1, rng.randint(2, 4) + 1)]
            for v in level1_values
        }

    # A measure grid keeps published values repeating the way rounded
    # official statistics do (drives SG's key-column scarcity).  The
    # span is jittered per family so two datasets never share a lattice.
    grid = rng.choice((200, 1000, 5000, 100_000))
    span = 500_000.0 * rng.uniform(0.4, 1.5)

    rows_l1: list = []
    rows_l2: list = []
    rows_l3: list = []
    rows_year: list = []
    for level1 in level1_values:
        level2_values = level2_map[level1] if with_level2 else [None]
        for level2 in level2_values:
            level3_values = (
                _shared_sg_level3(level2) if with_level3 else [None]
            )
            for level3 in level3_values:
                for year in years:
                    rows_l1.append(level1)
                    rows_l2.append(level2)
                    rows_l3.append(level3)
                    rows_year.append(year)
    # One randint(0, grid) per row, in row order.
    step = span / grid
    rows_value = [
        round(position * step, 1)
        for position in draws_below(rng, grid + 1, len(rows_year))
    ]

    columns: list[tuple[str, list]] = [("level_1", rows_l1)]
    lineage = [
        ColumnLineage("level_1", level1_domain_name, ColumnRole.LEVEL)
    ]
    if with_level2:
        columns.append(("level_2", rows_l2))
        lineage.append(
            ColumnLineage(
                "level_2", level2_domain_name, ColumnRole.LEVEL, fd_parent="level_1"
            )
        )
    if with_level3:
        columns.append(("level_3", rows_l3))
        lineage.append(
            ColumnLineage(
                "level_3", "cat.sg_level3", ColumnRole.LEVEL, fd_parent="level_2"
            )
        )
    columns.append(("year", rows_year))
    lineage.append(ColumnLineage("year", "time.year", ColumnRole.TEMPORAL))
    value_column = rng.choices(
        ("value", "amount", "count", "rate"), weights=(0.45, 0.2, 0.2, 0.15)
    )[0]
    columns.append((value_column, rows_value))
    lineage.append(
        ColumnLineage(
            value_column,
            f"measure.{instance.family_id}.value",
            ColumnRole.VALUE,
        )
    )
    draft = TableDraft(
        name=instance.blueprint.topic,
        columns=columns,
        lineage_columns=lineage,
        subtable_kind="melted",
    )
    return [_dataset(instance, PublicationStyle.SG_STANDARD, [draft])]


def _shared_sg_level1(instance: TopicInstance, rng: random.Random) -> list[str]:
    from . import vocab

    count = rng.randint(4, min(10, len(vocab.SG_LEVEL1)))
    start = stable_index(instance.family_id, len(vocab.SG_LEVEL1))
    return [
        vocab.SG_LEVEL1[(start + offset) % len(vocab.SG_LEVEL1)]
        for offset in range(count)
    ]


def _shared_sg_level2(level1: str) -> list[str]:
    """Deterministic shared sub-hierarchy: same across all SG datasets.

    ``level_2`` functionally determines ``level_1`` (the FD the paper's
    SG labour anecdote decomposes on).
    """
    count = 2 + stable_index(level1, 3)
    return [f"{level1} — Band {k}" for k in range(1, count + 1)]


def _shared_sg_level3(level2: str | None) -> list[str]:
    """Third hierarchy level, functionally dependent on level_2."""
    if level2 is None:
        return [None]
    count = 2 + stable_index(str(level2) + "3", 2)
    return [f"{level2} / Detail {k}" for k in range(1, count + 1)]


def _group_rows(instance: TopicInstance, axis_column: str) -> dict:
    position = next(
        i for i, dim in enumerate(instance.dims) if dim.column == axis_column
    )
    groups: dict = defaultdict(list)
    for index, row in enumerate(instance.fact_rows):
        groups[row[position]].append(index)
    return groups


def _slug(value) -> str:
    return str(value).lower().replace(" ", "_").replace("/", "_")


_STYLE_BUILDERS = {
    PublicationStyle.DENORMALIZED_SINGLE: _denormalized_single,
    PublicationStyle.SEMI_NORMALIZED: _semi_normalized,
    PublicationStyle.PERIODIC: _periodic,
    PublicationStyle.PARTITIONED: _partitioned,
    PublicationStyle.SG_STANDARD: _sg_standard,
}
