"""TANE-style FD discovery with stripped partitions.

The paper notes (§7) that FUN was one choice among several exact FD
discovery algorithms — "any exact algorithm could have been used" —
citing the survey of seven algorithms [Papenbrock et al. 2015].  TANE
(Huhtala et al. 1999) is the classic alternative; implementing it gives
the repository a genuinely different engine to cross-validate FUN
against and to race in the ablation benchmarks.

TANE's signature ingredients, reproduced here:

* **stripped partitions** — equivalence classes of size 1 are dropped;
  validity of ``X -> A`` is checked by probing whether every surviving
  class of ``pi_X`` agrees on ``A``;
* **partition products** — ``pi_{X ∪ {A}}`` is built by refining a
  parent partition rather than rescanning the table;
* **rhs+ candidate sets (C+)** — each lattice node carries the set of
  attributes still allowed as RHS, giving the minimality and key
  prunes.

Semantics match :mod:`repro.fd.fun` exactly (nulls as values, key LHS
trivial, constants as empty-LHS FDs, first column wins duplicate
names), so ``discover_fds_tane(t).as_frozenset() ==
discover_fds(t).as_frozenset()`` for every table.
"""

from __future__ import annotations

from itertools import combinations

from ..dataframe import Table
from ..obs.profile import prof_scope
from ..resilience.budget import BudgetExceeded, WorkMeter
from .fun import DEFAULT_MAX_LHS, _commit
from .model import FD, FDSet
from .partitions import encode_columns

#: A stripped partition: equivalence classes with >= 2 rows only.
StrippedPartition = list[list[int]]


def stripped_partition(values: list[int]) -> StrippedPartition:
    """Stripped partition of one encoded column."""
    classes: dict[int, list[int]] = {}
    for row, value in enumerate(values):
        classes.setdefault(value, []).append(row)
    return [rows for rows in classes.values() if len(rows) >= 2]


def partition_product(
    left: StrippedPartition, right_labels: list[int], n_rows: int
) -> StrippedPartition:
    """The stripped partition of ``X ∪ {A}`` from ``pi_X`` and ``A``.

    Classic TANE product: only rows inside a surviving class of *left*
    can stay grouped, so each class is re-split by the right labels.
    """
    product: StrippedPartition = []
    for rows in left:
        buckets: dict[int, list[int]] = {}
        for row in rows:
            buckets.setdefault(right_labels[row], []).append(row)
        product.extend(
            bucket for bucket in buckets.values() if len(bucket) >= 2
        )
    return product


def _partition_error(partition: StrippedPartition) -> int:
    """TANE's e(X): rows minus classes, over surviving classes.

    ``X -> A`` holds iff e(X) == e(X ∪ {A}).
    """
    return sum(len(rows) - 1 for rows in partition)


def _is_key(partition: StrippedPartition) -> bool:
    """A set is a (super)key iff its stripped partition is empty."""
    return not partition


def discover_fds_tane(
    table: Table,
    max_lhs: int = DEFAULT_MAX_LHS,
    meter: WorkMeter | None = None,
) -> FDSet:
    """Minimal non-trivial FDs of *table* via the TANE lattice walk.

    Budget semantics match :func:`repro.fd.fun.discover_fds`: with a
    *meter*, every partition product charges ``n_rows`` ticks and a
    blown budget truncates at the last completed lattice level,
    flagging the result ``truncated``.
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

    pending: list[tuple[FD, int]] = []
    try:
        singleton_partitions = []
        with prof_scope(meter, "tane", "dataframe", "stripped_partition"):
            for column in encoded:
                if meter is not None:
                    meter.tick(n_rows, op="fd.partition")
                singleton_partitions.append(stripped_partition(column))

        constant_attrs = {
            a
            for a in range(n_attrs)
            if n_rows > 1 and len(set(encoded[a])) <= 1
        }
        for attr in sorted(constant_attrs):
            pending.append((FD(frozenset(), names[attr]), 1))

        usable = [a for a in range(n_attrs) if a not in constant_attrs]
        all_usable = frozenset(usable)

        # Lattice state: per node X, its stripped partition and C+(X).
        partitions: dict[frozenset[int], StrippedPartition] = {}
        rhs_candidates: dict[frozenset[int], frozenset[int]] = {
            frozenset(): all_usable
        }
        level: list[frozenset[int]] = []
        for attr in usable:
            node = frozenset((attr,))
            partition = singleton_partitions[attr]
            if _is_key(partition):
                continue  # single-column key: all FDs from it are trivial
            partitions[node] = partition
            level.append(node)
            rhs_candidates[node] = all_usable

        size = 1
        while level and size < max_lhs + 1:
            if meter is not None:
                meter.event(f"fd.level{size}.nodes", len(level))
            # Compute dependencies at this level: for X in level, check
            # (X \ {A}) -> A for A in X ∩ C+(X)  [level >= 2],
            # and X -> A for A outside X         [done via next level's
            # check, except we emit |LHS| = size FDs directly here].
            next_candidates: dict[frozenset[int], frozenset[int]] = {}
            with prof_scope(
                meter, "tane", f"level{size}", "dataframe", "partition_product"
            ):
                for node in level:
                    candidates = rhs_candidates.get(node, all_usable)
                    for rhs in sorted(set(usable) - node):
                        if rhs not in candidates:
                            continue
                        if meter is not None:
                            meter.tick(n_rows, op="fd.partition-product")
                        joint = partition_product(
                            partitions[node], encoded[rhs], n_rows
                        )
                        error = _partition_error(partitions[node])
                        if error == _partition_error(joint):
                            # X -> rhs holds; minimality: rhs must still
                            # be a candidate of every maximal proper
                            # subset.
                            if _minimal(
                                node, rhs, rhs_candidates, all_usable
                            ):
                                # |pi_X| = n_rows - e(X).
                                lhs = frozenset(names[a] for a in node)
                                pending.append(
                                    (FD(lhs, names[rhs]), n_rows - error)
                                )
                            next_candidates[node] = (
                                next_candidates.get(node, candidates)
                                - {rhs}
                            )
            for node, remaining in next_candidates.items():
                rhs_candidates[node] = remaining
            _commit(fds, pending)

            # Generate the next level (apriori join over same-prefix nodes).
            size += 1
            if size > max_lhs:
                break
            next_level: list[frozenset[int]] = []
            grouped: dict[frozenset[int], list[int]] = {}
            for node in level:
                ordered = sorted(node)
                grouped.setdefault(frozenset(ordered[:-1]), []).append(
                    ordered[-1]
                )
            with prof_scope(
                meter, "tane", f"level{size}", "dataframe", "partition_product"
            ):
                for prefix, tails in grouped.items():
                    for left, right in combinations(sorted(tails), 2):
                        candidate = prefix | {left, right}
                        subsets = [candidate - {a} for a in candidate]
                        if any(s not in partitions for s in subsets):
                            continue  # a subset was a key or was pruned
                        if meter is not None:
                            meter.tick(n_rows, op="fd.partition-product")
                        partition = partition_product(
                            partitions[frozenset(candidate - {right})],
                            encoded[right],
                            n_rows,
                        )
                        if _is_key(partition):
                            continue  # superkey: prune the subtree
                        node = frozenset(candidate)
                        partitions[node] = partition
                        next_level.append(node)
            level = next_level
        # Constants are still pending when the lattice had no usable
        # nodes at all (every column constant or a single-column key).
        _commit(fds, pending)
    except BudgetExceeded:
        fds.truncated = True

    return fds


def _minimal(
    lhs: frozenset[int],
    rhs: int,
    rhs_candidates: dict[frozenset[int], frozenset[int]],
    all_usable: frozenset[int],
) -> bool:
    """TANE's minimality test: no proper subset already determines rhs.

    A subset Y that determines rhs removed rhs from its own candidate
    set when its level was processed, so rhs missing from any subset's
    C+ means the dependency is not minimal.
    """
    for dropped in lhs:
        subset = lhs - {dropped}
        if rhs not in rhs_candidates.get(subset, all_usable):
            return False
    return True
