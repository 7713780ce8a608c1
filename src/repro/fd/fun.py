"""FD discovery with FUN's free-set pruning (Novelli & Cicchetti, 2001).

The paper runs FUN with LHS size capped at 4 over tables filtered to
10–10,000 rows and 5–20 columns.  We implement the same cardinality-based
formulation:

* ``X -> A`` holds iff ``|pi_{X∪A}| == |pi_X|``;
* a set ``X`` is *free* iff no proper subset has the same cardinality —
  only free sets can be minimal FD left-hand sides, so the level-wise
  lattice walk expands free, non-key sets only;
* sets that reach full cardinality are candidate keys: FDs with key
  left-hand sides are trivial and their supersets are pruned.

Each free set's partition is kept in first-row labels (see
:mod:`repro.fd.partitions`) over a subset of its rows that holds every
class with two or more rows, each row with its class's first row.
Level 1 strips every partition to exactly those rows.  A level-k
partition is stripped only when a later level refines from it and at
least ``2*classes - len(rows)`` of its rows are alone in their class;
otherwise its singletons stay, which changes no cardinality and fails
no check.  A level-k set is refined from whichever of its
(k-1)-subsets keeps the fewest rows.  First-row labels are canonical,
so every subset yields the same classes, and an FD check gives the
same answer whichever subset was the base.  Which partitions the walk
builds, the ticks it charges and the FDs it lists do not depend on the
representation; only the rows it scans do.

The lattice bookkeeping runs on ints.  A node is its ascending
attribute tuple, which candidate generation extends already in the
lexicographic order the walk visits (no set, no sort), and its bitmask,
which keys partitions, cardinalities and closures; a node's subsets are
its mask with one bit cleared.  On small tables this bookkeeping, not
the row scans, is most of FUN's time.

The exact same minimal FDs are produced by the brute-force checker in
:mod:`repro.fd.naive`, which the property tests cross-validate against.
"""

from __future__ import annotations

from itertools import combinations

from ..dataframe import Table
from ..obs.profile import prof_scope
from ..resilience.budget import UNMETERED, BudgetExceeded, WorkMeter
from .model import FD, FDSet
from .partitions import (
    Labels,
    Partition,
    cardinality,
    determines,
    encode_columns,
    refine,
    strip,
)

#: The paper's cap on left-hand-side size.
DEFAULT_MAX_LHS = 4


def discover_fds(
    table: Table,
    max_lhs: int = DEFAULT_MAX_LHS,
    meter: WorkMeter = UNMETERED,
) -> FDSet:
    """Minimal non-trivial FDs of *table* with ``|LHS| <= max_lhs``.

    Duplicate column names make FD semantics ambiguous, so the second
    occurrence onward is ignored.

    Every partition the walk builds and every FD check it makes charges
    ``n_rows`` ticks to *meter*.  When the budget runs out, the search
    stops cleanly at the last *completed* lattice level: the returned
    set is flagged ``truncated`` and contains exactly the minimal FDs
    of the levels it finished — FDs discovered mid-level are discarded
    so that equal budgets always yield identical results.

    FDs are listed by LHS size, then by the sorted positions of the LHS
    columns among the distinct column names, then by the RHS position.
    The set's ``lhs_cards`` records ``|pi_X|`` on *table* for every FD's
    left-hand side X (``|pi_∅| = 1``): the free-set cardinalities the
    walk computes anyway.  From both,
    :func:`repro.normalize.bcnf.fragment_fds` derives the FDs of any
    distinct projection, in this order, without walking its lattice
    again.
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

    try:
        with prof_scope(meter, "fun"):
            _discover_fun(fds, names, encoded, n_rows, max_lhs, meter)
    except BudgetExceeded:
        fds.truncated = True

    return fds


def _discover_fun(
    fds: FDSet,
    names: list[str],
    encoded: list[Labels],
    n_rows: int,
    max_lhs: int,
    meter: WorkMeter,
) -> None:
    """The lattice walk of :func:`discover_fds` (inside the ``fun`` frame).

    A lattice node is its ascending attribute tuple, which candidate
    generation extends, and its int mask (bit ``a`` set for attribute
    ``a``), which keys ``partitions`` and ``cards``; closures are masks
    too, and a node's subsets are its mask with one bit cleared.

    Profiler frames follow the lattice structure — one ``levelN`` frame
    per level, the partition-kernel work nested under ``dataframe``
    frames naming the partition primitive that does it
    (``cardinality``, ``refine`` or ``determines``), e.g.
    ``fun;level2;dataframe;determines``.  The ``refine`` and
    ``determines`` scopes are built once per table and entered per
    node; unprofiled, both are the shared null context.
    """
    # (FD, |pi_LHS|) pairs found at the level in progress; committed to
    # ``fds`` only when the whole level completes, so a budget blowup
    # mid-level truncates at the last completed level instead of an
    # arbitrary lattice node.
    pending: list[tuple[FD, int]] = []
    n_attrs = len(names)
    tick = meter.tick
    refining = prof_scope(meter, "dataframe", "refine")
    checking = prof_scope(meter, "dataframe", "determines")
    # Level 1 ----------------------------------------------------
    # Stripped partitions of the last level's free sets, and cards per
    # set; closures accumulate every RHS known to be determined by the
    # set or any subset (minimality checks).
    partitions: dict[int, Partition] = {}
    cards: dict[int, int] = {}
    closures: dict[int, int] = {}
    free_level: list[tuple[int, ...]] = []

    with prof_scope(meter, "level1"):
        constant = 0
        with prof_scope(meter, "dataframe", "cardinality"):
            for attr in range(n_attrs):
                tick(n_rows, "fd.cardinality")
                card = cardinality(encoded[attr])
                bit = 1 << attr
                cards[bit] = card
                if card == n_rows:
                    # Single-column candidate key: all FDs from it are
                    # trivial.
                    continue
                if card <= 1:
                    # Constant column: determined by the empty set; emit
                    # the empty-LHS FD and keep it out of larger LHS
                    # exploration.
                    constant |= bit
                    pending.append((FD(frozenset(), names[attr]), 1))
                    continue
                partitions[bit] = strip(range(n_rows), encoded[attr])
                free_level.append((attr,))
        # Every check's candidate right-hand sides.
        rhs_attrs = [a for a in range(n_attrs) if not constant >> a & 1]

        meter.event("fd.level1.nodes", len(free_level))

        # Check level-1 FDs: X={a} -> b.
        with checking:
            for (attr,) in free_level:
                bit = 1 << attr
                rows, firsts = partitions[bit]
                closure = bit
                for rhs in rhs_attrs:
                    if closure >> rhs & 1:
                        continue
                    tick(n_rows, "fd.refine")
                    if determines(rows, firsts, encoded[rhs]):
                        closure |= 1 << rhs
                        pending.append(
                            (FD(frozenset((names[attr],)), names[rhs]), cards[bit])
                        )
                closures[bit] = closure
    _commit(fds, pending)

    # Levels 2..max_lhs ------------------------------------------
    current_free = free_level
    for level in range(2, max_lhs + 1):
        if not current_free:
            break
        candidates = _generate_candidates(current_free, level)
        meter.event(f"fd.level{level}.nodes", len(candidates))
        next_free: list[tuple[int, ...]] = []
        next_partitions: dict[int, Partition] = {}
        # Strip only a partition a later level refines from.
        refined_again = level < max_lhs
        with prof_scope(meter, f"level{level}"):
            for candidate in candidates:
                mask = 0
                for attr in candidate:
                    mask |= 1 << attr
                # Over the subsets: the closure union (attributes already
                # determined), the largest card, and the base to refine.
                # Every subset yields the same classes; the one with the
                # fewest kept rows yields them fastest.
                inherited = 0
                top_card = 0
                base_size = n_rows + 1
                for attr in candidate:
                    subset = mask ^ (1 << attr)
                    partition = partitions.get(subset)
                    if partition is None:
                        break
                    inherited |= closures[subset]
                    subset_card = cards[subset]
                    if subset_card > top_card:
                        top_card = subset_card
                    size = len(partition[0])
                    if size < base_size:
                        base_size = size
                        base, extra_attr = partition, attr
                if partition is None:
                    continue  # some subset was non-free or a key: prune
                rows, firsts = base
                with refining:
                    tick(n_rows, "fd.refine")
                    refined, classes = refine(rows, firsts, encoded[extra_attr])
                # Rows alone under the base stay alone under the candidate.
                card = n_rows - len(rows) + classes
                cards[mask] = card
                # A superset never has fewer classes than its subsets, so
                # a subset with the candidate's card has the largest one.
                if card == top_card:
                    continue  # not free: a subset already induces this partition
                if card == n_rows:
                    continue  # candidate key: trivial FDs only, prune supersets
                closure = mask | inherited
                # Strip only when at least 2*classes - len(rows) of its
                # rows are alone in their class.  A kept singleton
                # changes no count and fails no check.
                if refined_again and 2 * classes > len(rows):
                    rows, firsts = strip(rows, refined)
                else:
                    firsts = refined
                with checking:
                    for rhs in rhs_attrs:
                        if closure >> rhs & 1:
                            continue
                        tick(n_rows, "fd.refine")
                        if determines(rows, firsts, encoded[rhs]):
                            closure |= 1 << rhs
                            lhs = frozenset(names[a] for a in candidate)
                            pending.append((FD(lhs, names[rhs]), card))
                closures[mask] = closure
                next_partitions[mask] = (rows, firsts)
                next_free.append(candidate)
        # The next level's subsets all come from this level: keep cards
        # and closures, drop the older partitions.
        partitions = next_partitions
        current_free = next_free
        _commit(fds, pending)


def _commit(fds: FDSet, pending: list[tuple[FD, int]]) -> None:
    """Move a completed level's FDs and LHS cardinalities into *fds*."""
    for fd, lhs_card in pending:
        fds.add(fd)
        fds.lhs_cards[fd.lhs] = lhs_card
    pending.clear()


def _generate_candidates(
    free_sets: list[tuple[int, ...]], level: int
) -> list[tuple[int, ...]]:
    """Apriori candidate generation: unions of free (level-1)-sets.

    A candidate is kept only if produced as a union of two free sets
    sharing level-2 attributes; the caller then verifies that *all*
    maximal subsets are free.

    *free_sets* are ascending attribute tuples in lexicographic order
    (level 1 in attribute order, later levels in candidate order), so
    the sets sharing a prefix ``free[:-1]`` are adjacent and their
    tails ascend.  Appending ``prefix + (left, right)`` for each pair of
    tails therefore lists the candidates in lexicographic order, the
    order FUN walks, and each candidate once: its prefix and its last
    two attributes name the one pair that produced it.  No set and no
    sort are needed.
    """
    candidates: list[tuple[int, ...]] = []
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for free in free_sets:
        by_prefix.setdefault(free[:-1], []).append(free[-1])
    for prefix, tails in by_prefix.items():
        for left, right in combinations(tails, 2):
            candidates.append(prefix + (left, right))
    return candidates
