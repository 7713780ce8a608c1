"""Regression: DEGRADED (truncated-but-salvageable) tables must flow
through every analysis stage without crashing.

The ingest pipeline keeps truncated payloads that still parse
(``IngestedTable.degraded=True``) in ``clean_tables`` — so FD discovery,
joinability, unionability, and the guarded screen all see them.  Such
tables are often ragged at the tail (short final rows, a dangling
partial row dropped by the parser), which is exactly the shape that
used to trip naive per-column code.
"""

import random

import pytest

from repro.dataframe import Column, Table
from repro.fd import discover_fds
from repro.ingest.pipeline import IngestedTable
from repro.joinability import analyze_joinability
from repro.normalize.analysis import (
    aggregate_normalization,
    table_normalization,
)
from repro.profiling import screen_table
from repro.resilience import WorkMeter
from repro.unionability import analyze_unionability


def degraded(table: Table, dataset="d", resource=None) -> IngestedTable:
    return IngestedTable(
        portal_code="XX",
        dataset_id=dataset,
        resource_id=resource or table.name,
        name=table.name,
        url=f"https://x/{table.name}",
        raw=table,
        clean=table,
        raw_size_bytes=100,
        header_index=0,
        trailing_columns_removed=1,
        dropped_as_wide=False,
        degraded=True,
    )


@pytest.fixture
def tables():
    """A small degraded corpus: nulls at the tail, a shared key column."""
    rng = random.Random(13)
    n = 40
    ids = list(range(n))
    t1 = Table(
        "left",
        [
            Column("id", ids),
            Column("city", [f"city{v % 7}" for v in ids]),
            # Truncation nulls: the tail of the column never arrived.
            Column("pop", [rng.randint(0, 9) for _ in range(30)] + [None] * 10),
        ],
    )
    t2 = Table(
        "right",
        [
            Column("id", ids),
            Column("year", [2000 + (v % 3) for v in ids]),
        ],
    )
    t3 = Table(
        "empty_tail",
        [
            Column("id", []),
            Column("note", []),
        ],
    )
    return [
        degraded(t1, dataset="d1"),
        degraded(t2, dataset="d2"),
        degraded(t3, dataset="d3"),
    ]


def test_fd_discovery_survives(tables):
    for ingested in tables:
        fds = discover_fds(ingested.clean)
        assert not fds.truncated


def test_joinability_survives(tables):
    analysis = analyze_joinability("XX", tables, threshold=0.9, min_unique=10)
    assert analysis.stats.total_tables == 3
    # The shared id column should still be found joinable.
    assert analysis.stats.total_pairs >= 1


def test_unionability_survives(tables):
    analysis = analyze_unionability("XX", tables)
    assert analysis.stats.total_tables == 3
    assert analysis.stats.unique_schemas >= 2


def test_normalization_survives(tables):
    cleaned = [t.clean for t in tables]
    stats = aggregate_normalization(
        "XX",
        cleaned,
        [
            table_normalization(table, random.Random(7), max_lhs=4)
            for table in cleaned
        ],
    )
    assert stats.total_tables == 3


def test_guarded_paths_survive(tables):
    """Degraded tables work under a meter too (the guarded pipeline)."""
    for ingested in tables:
        screen = screen_table(ingested.clean, WorkMeter())
        assert screen.n_rows == ingested.clean.num_rows
        contribution = table_normalization(
            ingested.clean, random.Random(1), max_lhs=4, meter=WorkMeter()
        )
        assert not contribution.truncated
    analysis = analyze_joinability(
        "XX", tables, threshold=0.9, min_unique=10, meter=WorkMeter()
    )
    assert not analysis.truncated
    union = analyze_unionability("XX", tables, meter=WorkMeter())
    assert union.stats.total_tables == 3
