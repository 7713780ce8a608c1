"""BCNF decomposition (paper §4.3).

The paper uses the textbook algorithm: pick one remaining non-trivial FD
``X -> A`` uniformly at random, split the table into ``T1 = X ∪ A`` and
``T2 = X ∪ (attr(T) \\ A)``, and repeat on the newest tables until every
fragment is in BCNF.  Because FD discovery is bounded (|LHS| <= 4),
"in BCNF" here means "no bounded non-trivial FD remains", matching the
paper's bounded analysis.

Fragments are projections with duplicate rows removed (set semantics),
which is what produces the uniqueness-score gains Table 5 reports.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

from ..dataframe import Table
from ..fd.fun import DEFAULT_MAX_LHS, discover_fds
from ..fd.model import FDSet
from ..resilience.budget import WorkMeter

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


def bcnf_decompose(
    table: Table,
    fds: FDSet,
    rng: random.Random,
    max_lhs: int = DEFAULT_MAX_LHS,
    max_fragments: int = MAX_FRAGMENTS,
    meter: WorkMeter | None = None,
) -> DecompositionResult:
    """Decompose *table* into bounded-BCNF fragments.

    *fds* is *table*'s own :func:`discover_fds` result for the same
    *max_lhs*, which the caller already holds.  FDs are re-discovered
    from the data of every fragment: projections can both lose FDs
    (columns gone) and expose none, so re-running the profiler is the
    faithful data-driven equivalent of projecting the dependency set.

    The *meter* is shared with those internal re-discoveries: once it
    is exhausted they return empty truncated FD sets, so every fragment
    still in the worklist finishes immediately and the decomposition
    terminates with whatever splits it had already committed.  A
    truncated *fds* means the meter ran out during the caller's
    discovery, so *table* stays whole.
    """
    worklist = [table]
    finished: list[Table] = []
    steps = 0
    while worklist:
        current = worklist.pop()
        if current is table:
            candidates = [] if fds.truncated else list(fds)
        else:
            candidates = list(
                discover_fds(current, max_lhs=max_lhs, meter=meter)
            )
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
