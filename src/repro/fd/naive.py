"""Brute-force exact FD discovery (cross-validation baseline).

Enumerates every LHS up to the size bound and checks the cardinality
criterion directly.  Exponentially slower than :mod:`repro.fd.fun` but
trivially correct, so the property tests compare the two on random
tables and the ablation bench compares their runtimes.
"""

from __future__ import annotations

import math
from itertools import combinations

from ..dataframe import Table
from ..resilience.budget import BudgetExceeded, WorkMeter
from .fun import DEFAULT_MAX_LHS, _commit
from .model import FD, FDSet
from .partitions import cardinality, encode_columns, partition_of


def discover_fds_naive(
    table: Table,
    max_lhs: int = DEFAULT_MAX_LHS,
    meter: WorkMeter | None = None,
) -> FDSet:
    """Minimal non-trivial FDs by exhaustive enumeration.

    Semantics match :func:`repro.fd.fun.discover_fds` exactly: nulls are
    values, duplicate column names are dropped after the first, FDs with
    candidate-key LHS are trivial, and constant columns yield
    empty-LHS FDs.  Budget semantics match too: partition computations
    charge ``n_rows`` ticks each and a blown budget truncates at the
    last completed LHS size.
    """
    names: list[str] = []
    positions: list[int] = []
    seen: set[str] = set()
    for position, name in enumerate(table.column_names):
        if name not in seen:
            seen.add(name)
            names.append(name)
            positions.append(position)

    fds = FDSet(table.name)
    n_rows = table.num_rows
    if n_rows == 0 or len(names) < 2:
        return fds

    all_encoded = encode_columns(table)
    encoded = [all_encoded[p] for p in positions]
    n_attrs = len(names)
    single_cards = [cardinality(encoded[a]) for a in range(n_attrs)]

    # A column is "constant" only when repetition proves it: in a 1-row
    # table every column is a candidate key, so FDs from it are trivial.
    constant_attrs = {
        a for a in range(n_attrs) if single_cards[a] <= 1 and n_rows > 1
    }

    # minimal_lhs[rhs] collects every minimal LHS found so far for rhs.
    minimal_lhs: dict[int, list[frozenset[int]]] = {a: [] for a in range(n_attrs)}
    usable = [a for a in range(n_attrs) if a not in constant_attrs]

    pending: list[tuple[FD, int]] = []
    # Same-size LHS sets never prune each other (a proper subset is
    # strictly smaller), so buffering the minimal_lhs additions per size
    # alongside the FDs changes nothing for an unlimited meter.
    pending_lhs: list[tuple[int, frozenset[int]]] = []
    try:
        for attr in sorted(constant_attrs):
            pending.append((FD(frozenset(), names[attr]), 1))

        for size in range(1, max_lhs + 1):
            if meter is not None:
                meter.event(
                    f"fd.level{size}.nodes", math.comb(len(usable), size)
                )
            _commit(fds, pending)
            for rhs, lhs_set in pending_lhs:
                minimal_lhs[rhs].append(lhs_set)
            pending_lhs.clear()
            for lhs in combinations(usable, size):
                lhs_set = frozenset(lhs)
                if meter is not None:
                    meter.tick(n_rows, op="fd.partition")
                lhs_labels = partition_of(encoded, list(lhs))
                lhs_card = cardinality(lhs_labels)
                if lhs_card == n_rows:
                    continue  # candidate key or superkey: trivial
                for rhs in usable:
                    if rhs in lhs_set:
                        continue
                    if any(prior <= lhs_set for prior in minimal_lhs[rhs]):
                        continue  # a smaller LHS already determines rhs
                    if meter is not None:
                        meter.tick(n_rows, op="fd.partition")
                    joint = cardinality(partition_of(encoded, list(lhs) + [rhs]))
                    if joint == lhs_card:
                        pending_lhs.append((rhs, lhs_set))
                        lhs_names = frozenset(names[a] for a in lhs_set)
                        pending.append((FD(lhs_names, names[rhs]), lhs_card))
        _commit(fds, pending)
    except BudgetExceeded:
        fds.truncated = True
    return fds
