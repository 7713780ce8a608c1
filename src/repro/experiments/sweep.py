"""The standing differential sweep: fast paths against their oracles.

``python -m repro.experiments.sweep [SCALE [SEED]]`` builds one study
(scale 0.3, seed 7 by default; ``make verify-sweep`` runs that) and
compares each fast path it covers with its oracle over the whole
study, logging ``sweep-ok`` and exiting 0, or logging
``sweep-mismatch`` and exiting 1.

It covers five pairs.  The FD pairs: on every FD-filtered table
(§4.2's size filter), FUN's list must equal TANE's FD set, and the
naive checker's, in FUN's documented order (by ``|X|``, then the
sorted positions of X, then the position of B, each name at its first
occurrence), with equal ``lhs_cards``.  BCNF draws its splits from that
list, so its order is part of Table 5; the property tests check it on
small random tables, this on every table a study decomposes.  Both
oracles share only ``encode_columns`` with FUN, so a defect in FUN's
lattice walk or partition kernel cannot reach them.  The fragment
pair: every fragment FD list BCNF derives from its table's FDs, on
every FD-filtered table with its unit's own RNG, must equal FUN re-run
on that fragment.  The join pair: on every portal, the study's own
analyses at the paper's threshold and then the sensitivity one (the
second reusing the portal's search state) must give the all-pairs
walk's pairs, stats and neighbour maps.  The pool pair: the same study
built again with ``workers=2`` must render every experiment to the
same text as the serial study, and every executor unit must end with
the same status, ticks, budget and detail.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Sequence

from ..core.config import StudyConfig
from ..core.study import Study
from ..dataframe import Table
from ..fd import FD, FDSet, discover_fds, discover_fds_naive, discover_fds_tane
from ..joinability.pairs import (
    JACCARD_THRESHOLD,
    JACCARD_THRESHOLD_LOW,
    analyze_joinability,
)
from ..normalize import bcnf
from ..obs.log import get_log
from ..resilience.budget import UNMETERED
from ..resilience.units import FD_STAGE, plan_portal_units, unit_request
from .registry import run_all


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


def fd_mismatches(study: Study, oracle=None) -> tuple[int, list[str]]:
    """FUN against *oracle* on every FD-filtered table of *study*.

    *oracle* is an FD engine with FUN's signature; None means
    :func:`~repro.fd.discover_fds_tane`.  Returns the number of tables
    compared and the ``portal/table`` names of those whose lists (the
    oracle's in FUN's order) or ``lhs_cards`` differ.
    """
    if oracle is None:
        oracle = discover_fds_tane
    max_lhs = study.config.max_lhs
    compared = 0
    mismatched: list[str] = []
    for portal in study:
        for table in portal.filtered_tables():
            compared += 1
            fun = discover_fds(table, max_lhs=max_lhs)
            expected = oracle(table, max_lhs=max_lhs)
            if (
                list(fun) != fun_order(table, expected)
                or fun.lhs_cards != expected.lhs_cards
            ):
                mismatched.append(f"{portal.code}/{table.name}")
    return compared, mismatched


def fragment_mismatches(study: Study) -> tuple[int, list[str]]:
    """Derived fragment FDs against FUN re-run on every fragment.

    Re-runs every ``fd`` unit of *study* (each FD-filtered table its
    screen passed, with the unit's own BCNF RNG), so BCNF splits exactly
    as the study did, and checks every
    :func:`repro.normalize.bcnf.fragment_fds` result on the way.
    Returns the number of derivations compared and the ``portal/table``
    names of the tables with a mismatched one.
    """
    max_lhs = study.config.max_lhs
    derive = bcnf.fragment_fds
    compared = 0
    mismatched: list[str] = []
    name = ""

    def checking(fragment: Table, fds: FDSet) -> list[FD]:
        nonlocal compared
        derived = derive(fragment, fds)
        compared += 1
        if derived != list(discover_fds(fragment, max_lhs=max_lhs)):
            if name not in mismatched:
                mismatched.append(name)
        return derived

    # bcnf_decompose looks fragment_fds up at call time, so the check
    # sees every derivation of the real decomposition walk.
    bcnf.fragment_fds = checking
    try:
        for portal in study:
            screened = {t.resource_id: t.clean for t in portal.screened_tables()}
            for planned in plan_portal_units(
                portal.code, portal.report, (FD_STAGE,)
            ):
                table = screened.get(planned.table_id)
                if table is None:
                    continue
                name = f"{portal.code}/{table.name}"
                unit_request(planned, table, study.config).compute(UNMETERED)
    finally:
        bcnf.fragment_fds = derive
    return compared, mismatched


def pair_mismatches(study: Study) -> tuple[int, list[str]]:
    """The study's pair search against all-pairs on every portal.

    Asks each portal for its analysis at :data:`JACCARD_THRESHOLD` and
    then :data:`JACCARD_THRESHOLD_LOW`, so the second search reuses the
    portal's search state as a study run does.  Returns the number of
    analyses compared (one per portal and threshold) and the
    ``portal@threshold`` names of those whose pairs, stats or neighbour
    maps differ.
    """
    min_unique = study.config.min_unique_values
    compared = 0
    mismatched: list[str] = []
    for portal in study:
        for threshold in (JACCARD_THRESHOLD, JACCARD_THRESHOLD_LOW):
            compared += 1
            prefix = portal.joinability(threshold)
            exact = analyze_joinability(
                portal.code, portal.screened_tables(), threshold, min_unique
            )
            if (
                prefix.pairs != exact.pairs
                or prefix.stats != exact.stats
                or prefix.column_neighbors != exact.column_neighbors
                or prefix.table_neighbors != exact.table_neighbors
            ):
                mismatched.append(f"{portal.code}@{threshold}")
    return compared, mismatched


def _outcomes(study: Study) -> dict[tuple[str, str, str], tuple]:
    """``(portal, stage, table_id) -> (status, ticks, budget, detail)``.

    A map, not the outcome logs: the sweep's other pairs ask a study
    for its stages in another order than ``run_all`` does.
    """
    return {
        (portal.code, o.stage, o.table_id): (
            o.status, o.ticks, o.budget, o.detail
        )
        for portal in study
        for o in portal.executor.outcomes
    }


def pooled_mismatches(study: Study) -> tuple[int, list[str]]:
    """*study* against the same study built with two pool workers.

    Runs every experiment on both studies, then compares the rendered
    texts and every executor unit's outcome.  Returns the number of
    outputs compared (texts plus units) and the names of those that
    differ: an experiment id, or ``portal/stage/table_id``.
    """
    pooled = Study.build(dataclasses.replace(study.config, workers=2))
    results = list(zip(run_all(study), run_all(pooled)))
    serial, other = _outcomes(study), _outcomes(pooled)
    units = sorted(set(serial) | set(other))
    mismatched = [a.experiment_id for a, b in results if a.text != b.text]
    mismatched += [
        "/".join(unit) for unit in units if serial.get(unit) != other.get(unit)
    ]
    return len(results) + len(units), mismatched


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
        ("fun-naive", "tables", fd_mismatches(study, discover_fds_naive)),
        ("fragment-fun", "derivations", fragment_mismatches(study)),
        ("prefix-allpairs", "analyses", pair_mismatches(study)),
        ("pooled-serial", "outputs", pooled_mismatches(study)),
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
