"""BCNF decomposition (paper §4.3).

The paper uses the textbook algorithm: pick one remaining non-trivial FD
``X -> A`` uniformly at random, split the table into ``T1 = X ∪ A`` and
``T2 = X ∪ (attr(T) \\ A)``, and repeat on the newest tables until every
fragment is in BCNF.  Because FD discovery is bounded (|LHS| <= 4),
"in BCNF" here means "no bounded non-trivial FD remains", matching the
paper's bounded analysis.

Fragments are projections with duplicate rows removed (set semantics),
which is what produces the uniqueness-score gains Table 5 reports.

A fragment's FDs are the projection of its source table's FD set
(Abiteboul, Hull & Vianu, *Foundations of Databases*, 1995), not a new
profiler run.  For a fragment ``F = distinct(pi_S(T))`` and any
``X ⊆ S``, ``|pi_X|`` is the same on F as on T: two rows of F agree on
X and differ on B exactly when two rows of T do.  So every set free on
T is free on F, and ``X -> B`` holds on F iff it holds on T.  F only
has fewer rows, so some free sets become keys of F, and FUN drops the
FDs those keys determine.  FUN on F therefore finds exactly T's FDs
``X -> B`` with ``X ∪ {B} ⊆ S`` and ``|pi_X| < |F|``.
:func:`fragment_fds` lists them in the order FUN's lattice walk over F
emits them, so each split draws the same FD from ``rng.choice`` that a
re-run of FUN on the fragment would give it.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

from ..dataframe import Table
# Not called here: perfbench/spans.py's WRAPPED entry
# ("fd.bcnf_discover", "repro.normalize.bcnf", "discover_fds") resolves it.
from ..fd.fun import discover_fds  # noqa: F401
from ..fd.model import FD, FDSet

#: Safety valve: decomposition of a k-column table can produce at most
#: k-1 fragments, but we cap anyway against adversarial inputs.
MAX_FRAGMENTS = 24


@dataclasses.dataclass
class DecompositionResult:
    """Outcome of decomposing one table to (bounded) BCNF."""

    original: Table
    fragments: list[Table]
    #: Number of split steps performed (0 = already in BCNF).
    steps: int

    @property
    def was_in_bcnf(self) -> bool:
        """Whether the table needed no decomposition."""
        return self.steps == 0

    @property
    def num_fragments(self) -> int:
        """Number of final fragments."""
        return len(self.fragments)

    def unrepeated_columns(self) -> list[str]:
        """Original columns that ended up in exactly one fragment.

        Split columns (FD left-hand sides) are copied into both sides of
        each split; the paper's uniqueness-gain analysis deliberately
        excludes them because their scores are preserved by construction.
        """
        occurrences = Counter(
            name
            for fragment in self.fragments
            for name in fragment.column_names
        )
        return [
            name
            for name in self.original.column_names
            if occurrences.get(name, 0) == 1
        ]


def fragment_fds(fragment: Table, fds: FDSet) -> list[FD]:
    """The FDs FUN would discover on *fragment*, in FUN's order.

    *fds* is the complete (untruncated) :func:`discover_fds` result of a
    table T, and *fragment* is T itself or ``distinct(pi_S(T))`` for a
    list S of T's column names.  The result equals
    ``list(discover_fds(fragment))`` with the ``max_lhs`` *fds* was
    discovered with: T's FDs ``X -> B`` with ``X ∪ {B} ⊆ S`` and
    ``fds.lhs_cards[X] < fragment.num_rows``, ordered as FUN emits them,
    by ``|X|``, then by the sorted positions of X, then by the position
    of B.  A position counts each distinct column name once, at its
    first occurrence in *fragment*, as FUN ignores repeated names.
    """
    positions: dict[str, int] = {}
    for name in fragment.column_names:
        positions.setdefault(name, len(positions))
    names = frozenset(positions)
    n_rows = fragment.num_rows
    kept = [
        fd
        for fd in fds
        if fd.rhs in names
        and fd.lhs <= names
        and fds.lhs_cards[fd.lhs] < n_rows
    ]
    kept.sort(
        key=lambda fd: (
            len(fd.lhs),
            sorted(positions[name] for name in fd.lhs),
            positions[fd.rhs],
        )
    )
    return kept


def bcnf_decompose(
    table: Table,
    fds: FDSet,
    rng: random.Random,
    max_fragments: int = MAX_FRAGMENTS,
) -> DecompositionResult:
    """Decompose *table* into bounded-BCNF fragments.

    *fds* is *table*'s own :func:`discover_fds` result, which the caller
    already holds.  Each split draws from :func:`fragment_fds` of the
    table or fragment it splits, so no fragment is profiled again and
    decomposing costs no work-budget ticks.  A truncated *fds* may lack
    FDs of deeper lattice levels, from which no fragment's FDs can be
    derived, so *table* stays whole.
    """
    if fds.truncated:
        return DecompositionResult(original=table, fragments=[table], steps=0)
    worklist = [table]
    finished: list[Table] = []
    steps = 0
    while worklist:
        current = worklist.pop()
        candidates = fragment_fds(current, fds)
        if not candidates or len(finished) + len(worklist) + 2 > max_fragments:
            finished.append(current)
            continue
        chosen = rng.choice(candidates)
        steps += 1
        lhs = sorted(chosen.lhs)
        left_columns = lhs + [chosen.rhs]
        right_columns = [
            name for name in current.column_names if name != chosen.rhs
        ]
        left = current.project(
            left_columns, name=f"{current.name}~{chosen.rhs}"
        ).distinct()
        right = current.project(right_columns, name=current.name).distinct()
        worklist.append(left)
        worklist.append(right)
    return DecompositionResult(
        original=table, fragments=finished, steps=steps
    )
