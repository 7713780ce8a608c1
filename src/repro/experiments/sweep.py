"""The standing differential sweep: fast paths against their oracles.

``python -m repro.experiments.sweep [SCALE [SEED]]`` builds one study
(scale 0.3, seed 7 by default; ``make verify-sweep`` runs that) and
compares each fast path it covers with its oracle over the whole
study, logging ``sweep-ok`` and exiting 0, or logging
``sweep-mismatch`` and exiting 1.

It starts with the FD pair.  On every FD-filtered table (§4.2's size
filter), FUN's list must equal TANE's FD set in FUN's documented
order (by ``|X|``, then the sorted positions of X, then the position of
B, each name at its first occurrence), with equal ``lhs_cards``.  BCNF
draws its splits from that list, so its order is part of Table 5; the
property tests check it on small random tables, this on every table a
study decomposes.
"""

from __future__ import annotations

import sys
from typing import Sequence

from ..core.config import StudyConfig
from ..core.study import Study
from ..dataframe import Table
from ..fd import FD, FDSet, discover_fds, discover_fds_tane
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


def main(argv: Sequence[str] | None = None) -> int:
    """Run the sweep; the exit status is 1 on any mismatch."""
    args = list(sys.argv[1:] if argv is None else argv)
    scale = float(args[0]) if args else 0.3
    seed = int(args[1]) if len(args) > 1 else 7
    study = Study.build(StudyConfig(scale=scale, seed=seed))
    compared, mismatched = fd_mismatches(study)
    log = get_log()
    if mismatched:
        log.error(
            "sweep-mismatch",
            pair="fun-tane",
            tables=compared,
            mismatched=len(mismatched),
            first=mismatched[0],
        )
        return 1
    log.info("sweep-ok", pair="fun-tane", tables=compared)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
