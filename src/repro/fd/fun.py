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

The exact same minimal FDs are produced by the brute-force checker in
:mod:`repro.fd.naive`, which the property tests cross-validate against.
"""

from __future__ import annotations

from itertools import combinations

from ..dataframe import Table
from ..obs.profile import prof_scope
from ..resilience.budget import BudgetExceeded, WorkMeter
from .model import FD, FDSet
from .partitions import Labels, cardinality, determines, encode_columns, refine

#: The paper's cap on left-hand-side size.
DEFAULT_MAX_LHS = 4


def discover_fds(
    table: Table,
    max_lhs: int = DEFAULT_MAX_LHS,
    meter: WorkMeter | None = None,
) -> FDSet:
    """Minimal non-trivial FDs of *table* with ``|LHS| <= max_lhs``.

    Duplicate column names make FD semantics ambiguous, so the second
    occurrence onward is ignored.

    With a *meter*, every partition refinement charges ``n_rows`` ticks.
    When the budget runs out, the search stops cleanly at the last
    *completed* lattice level: the returned set is flagged
    ``truncated`` and contains exactly the minimal FDs of the levels it
    finished — FDs discovered mid-level are discarded so that equal
    budgets always yield identical results.

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
    meter: WorkMeter | None,
) -> None:
    """The lattice walk of :func:`discover_fds` (inside the ``fun`` frame).

    Profiler frames follow the lattice structure — one ``levelN`` frame
    per level, the partition-kernel work nested under ``dataframe``
    frames naming the partition primitive that does it
    (``cardinality``, ``refine`` or ``determines``), e.g.
    ``fun;level2;dataframe;determines``.
    """
    # (FD, |pi_LHS|) pairs found at the level in progress; committed to
    # ``fds`` only when the whole level completes, so a budget blowup
    # mid-level truncates at the last completed level instead of an
    # arbitrary lattice node.
    pending: list[tuple[FD, int]] = []
    n_attrs = len(names)
    # Level 1 ----------------------------------------------------
    # labels/cards per free set; closures accumulate every RHS known
    # to be determined by the set or any subset (minimality checks).
    labels: dict[frozenset[int], Labels] = {}
    cards: dict[frozenset[int], int] = {}
    closures: dict[frozenset[int], set[int]] = {}
    free_level: list[frozenset[int]] = []

    with prof_scope(meter, "level1"):
        constant_attrs: set[int] = set()
        with prof_scope(meter, "dataframe", "cardinality"):
            for attr in range(n_attrs):
                if meter is not None:
                    meter.tick(n_rows, op="fd.cardinality")
                card = cardinality(encoded[attr])
                single = frozenset((attr,))
                cards[single] = card
                if card == n_rows:
                    # Single-column candidate key: all FDs from it are
                    # trivial.
                    continue
                if card <= 1:
                    # Constant column: determined by the empty set; emit
                    # the empty-LHS FD and keep it out of larger LHS
                    # exploration.
                    constant_attrs.add(attr)
                    continue
                labels[single] = encoded[attr]
                closures[single] = {attr}
                free_level.append(single)

        for attr in sorted(constant_attrs):
            pending.append((FD(frozenset(), names[attr]), 1))

        if meter is not None:
            meter.event("fd.level1.nodes", len(free_level))

        # Check level-1 FDs: X={a} -> b.
        with prof_scope(meter, "dataframe", "determines"):
            for single in free_level:
                (attr,) = tuple(single)
                closure = closures[single]
                for rhs in range(n_attrs):
                    if rhs == attr or rhs in constant_attrs:
                        continue
                    if meter is not None:
                        meter.tick(n_rows, op="fd.refine")
                    if determines(labels[single], encoded[rhs]):
                        closure.add(rhs)
                        pending.append(
                            (FD(frozenset((names[attr],)), names[rhs]), cards[single])
                        )
    _commit(fds, pending)

    # Levels 2..max_lhs ------------------------------------------
    current_free = free_level
    for level in range(2, max_lhs + 1):
        if not current_free:
            break
        candidates = _generate_candidates(current_free, level)
        if meter is not None:
            meter.event(f"fd.level{level}.nodes", len(candidates))
        next_free: list[frozenset[int]] = []
        next_labels: dict[frozenset[int], Labels] = {}
        with prof_scope(meter, f"level{level}"):
            for candidate in candidates:
                subsets = [candidate - {attr} for attr in candidate]
                if any(s not in labels for s in subsets):
                    continue  # some subset was non-free or a key: prune
                subset_cards = [cards[s] for s in subsets]
                # Closure union of subsets: attributes already determined.
                inherited: set[int] = set()
                for subset in subsets:
                    inherited |= closures[subset]
                base_subset = subsets[0]
                extra_attr = next(iter(candidate - base_subset))
                with prof_scope(meter, "dataframe", "refine"):
                    if meter is not None:
                        meter.tick(n_rows, op="fd.refine")
                    candidate_labels, card = refine(
                        labels[base_subset], encoded[extra_attr]
                    )
                cards[candidate] = card
                if card in subset_cards:
                    continue  # not free: a subset already induces this partition
                if card == n_rows:
                    continue  # candidate key: trivial FDs only, prune supersets
                closure = set(candidate) | inherited
                closures[candidate] = closure
                with prof_scope(meter, "dataframe", "determines"):
                    for rhs in range(n_attrs):
                        if rhs in closure or rhs in constant_attrs:
                            continue
                        if meter is not None:
                            meter.tick(n_rows, op="fd.refine")
                        if determines(candidate_labels, encoded[rhs]):
                            closure.add(rhs)
                            lhs = frozenset(names[a] for a in candidate)
                            pending.append((FD(lhs, names[rhs]), card))
                next_labels[candidate] = candidate_labels
                next_free.append(candidate)
        # Free-set labels of the previous level are no longer needed
        # for refinement but *are* needed for subset checks: keep
        # cards and closures, roll labels forward.
        labels.update(next_labels)
        current_free = next_free
        _commit(fds, pending)


def _commit(fds: FDSet, pending: list[tuple[FD, int]]) -> None:
    """Move a completed level's FDs and LHS cardinalities into *fds*."""
    for fd, lhs_card in pending:
        fds.add(fd)
        fds.lhs_cards[fd.lhs] = lhs_card
    pending.clear()


def _generate_candidates(
    free_sets: list[frozenset[int]], level: int
) -> list[frozenset[int]]:
    """Apriori candidate generation: unions of free (level-1)-sets.

    A candidate is kept only if produced as a union of two free sets
    sharing level-2 attributes; the caller then verifies that *all*
    maximal subsets are free.
    """
    candidates: set[frozenset[int]] = set()
    by_prefix: dict[frozenset[int], list[int]] = {}
    for free in free_sets:
        ordered = sorted(free)
        prefix = frozenset(ordered[:-1])
        by_prefix.setdefault(prefix, []).append(ordered[-1])
    for prefix, tails in by_prefix.items():
        if len(tails) < 2:
            continue
        for left, right in combinations(sorted(tails), 2):
            candidates.add(prefix | {left, right})
    return sorted(candidates, key=sorted)
