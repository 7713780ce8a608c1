"""The standing differential sweep: fast paths against their oracles.

``python -m repro.experiments.sweep [SCALE [SEED]]`` builds one study
(scale 0.3, seed 7 by default; ``make verify-sweep`` runs that) and
compares each fast path it covers with its oracle over the whole
study, logging ``sweep-ok`` and exiting 0, or logging
``sweep-mismatch`` and exiting 1.

It covers two pairs.  The FD pair: on every FD-filtered table (§4.2's
size filter), FUN's list must equal TANE's FD set in FUN's documented
order (by ``|X|``, then the sorted positions of X, then the position of
B, each name at its first occurrence), with equal ``lhs_cards``.  BCNF
draws its splits from that list, so its order is part of Table 5; the
property tests check it on small random tables, this on every table a
study decomposes.  The join pair: on every portal, at the paper's
threshold and the sensitivity one, the prefix-filtered search must give
the all-pairs walk's pairs, stats and neighbour maps.
"""

from __future__ import annotations

import sys
from typing import Sequence

from ..core.config import StudyConfig
from ..core.study import Study
from ..dataframe import Table
from ..fd import FD, FDSet, discover_fds, discover_fds_tane
from ..joinability.lshindex import analyze_joinability_lsh
from ..joinability.pairs import (
    JACCARD_THRESHOLD,
    JACCARD_THRESHOLD_LOW,
    analyze_joinability,
)
from ..obs.log import get_log


def fun_order(table: Table, fds: FDSet) -> list[FD]:
    """*fds* in the order :func:`repro.fd.discover_fds` emits them."""
    position: dict[str, int] = {}
    for index, name in enumerate(table.column_names):
        position.setdefault(name, index)
    return sorted(
        fds,
        key=lambda fd: (
            len(fd.lhs),
            sorted(position[name] for name in fd.lhs),
            position[fd.rhs],
        ),
    )


def fd_mismatches(study: Study) -> tuple[int, list[str]]:
    """FUN against TANE on every FD-filtered table of *study*.

    Returns the number of tables compared and the ``portal/table``
    names of those whose lists or ``lhs_cards`` differ.
    """
    max_lhs = study.config.max_lhs
    compared = 0
    mismatched: list[str] = []
    for portal in study:
        for table in portal.filtered_tables():
            compared += 1
            fun = discover_fds(table, max_lhs=max_lhs)
            tane = discover_fds_tane(table, max_lhs=max_lhs)
            if (
                list(fun) != fun_order(table, tane)
                or fun.lhs_cards != tane.lhs_cards
            ):
                mismatched.append(f"{portal.code}/{table.name}")
    return compared, mismatched


def pair_mismatches(study: Study) -> tuple[int, list[str]]:
    """The prefix search against all-pairs on every portal of *study*.

    Returns the number of analyses compared (one per portal and
    threshold) and the ``portal@threshold`` names of those whose pairs,
    stats or neighbour maps differ.
    """
    min_unique = study.config.min_unique_values
    compared = 0
    mismatched: list[str] = []
    for portal in study:
        tables = portal.screened_tables()
        for threshold in (JACCARD_THRESHOLD, JACCARD_THRESHOLD_LOW):
            compared += 1
            prefix = analyze_joinability_lsh(
                portal.code, tables, threshold, min_unique
            )
            exact = analyze_joinability(
                portal.code, tables, threshold, min_unique
            )
            if (
                prefix.pairs != exact.pairs
                or prefix.stats != exact.stats
                or prefix.column_neighbors != exact.column_neighbors
                or prefix.table_neighbors != exact.table_neighbors
            ):
                mismatched.append(f"{portal.code}@{threshold}")
    return compared, mismatched


def main(argv: Sequence[str] | None = None) -> int:
    """Run the sweep; the exit status is 1 on any mismatch."""
    args = list(sys.argv[1:] if argv is None else argv)
    scale = float(args[0]) if args else 0.3
    seed = int(args[1]) if len(args) > 1 else 7
    study = Study.build(StudyConfig(scale=scale, seed=seed))
    log = get_log()
    status = 0
    for pair, unit, (compared, mismatched) in (
        ("fun-tane", "tables", fd_mismatches(study)),
        ("prefix-allpairs", "analyses", pair_mismatches(study)),
    ):
        if mismatched:
            log.error(
                "sweep-mismatch",
                pair=pair,
                **{unit: compared},
                mismatched=len(mismatched),
                first=mismatched[0],
            )
            status = 1
        else:
            log.info("sweep-ok", pair=pair, **{unit: compared})
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
