"""Functional-dependency value objects."""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator


@dataclasses.dataclass(frozen=True)
class FD:
    """A functional dependency ``lhs -> rhs`` over column names.

    Only non-trivial, minimal dependencies are materialized by the
    discovery algorithms: ``rhs`` is never in ``lhs``, ``lhs`` is never a
    candidate key of the source table, and no proper subset of ``lhs``
    determines ``rhs``.
    """

    lhs: frozenset[str]
    rhs: str

    def __post_init__(self):
        if self.rhs in self.lhs:
            raise ValueError(f"trivial FD: {self.rhs!r} is in its own LHS")
        if not self.lhs:
            # An empty LHS means the RHS column is constant; legal.
            pass

    @property
    def lhs_size(self) -> int:
        """Number of attributes on the left-hand side."""
        return len(self.lhs)

    def __str__(self) -> str:
        left = ", ".join(sorted(self.lhs)) or "∅"
        return f"{{{left}}} -> {self.rhs}"


class FDSet:
    """A collection of FDs discovered on one table.

    ``truncated`` marks a set produced by a budget-guarded discovery
    that stopped early: every FD present is genuinely minimal and
    non-trivial, but FDs at deeper lattice levels may be missing.

    ``lhs_cards`` maps the left-hand side X of every FD in the set to
    ``|pi_X|``, the number of distinct value combinations of X on the
    source table (``|pi_∅| = 1``).  FUN, TANE and the naive checker
    all fill it; BCNF decomposition derives fragment FDs from it.
    """

    def __init__(
        self, table_name: str, fds: Iterable[FD] = (), truncated: bool = False
    ):
        self.table_name = table_name
        self.truncated = truncated
        self._fds: list[FD] = list(fds)
        self.lhs_cards: dict[frozenset[str], int] = {}

    def __iter__(self) -> Iterator[FD]:
        return iter(self._fds)

    def __len__(self) -> int:
        return len(self._fds)

    def __contains__(self, fd: FD) -> bool:
        return fd in set(self._fds)

    def add(self, fd: FD) -> None:
        """Append one FD to the set."""
        self._fds.append(fd)

    @property
    def has_nontrivial(self) -> bool:
        """Whether a non-trivial FD with a non-empty LHS was found.

        Empty-LHS FDs (constant columns) are kept in the set — they are
        true dependencies and the decomposition may split on them — but
        the paper's Table 5 prevalence counts concern genuine
        column-to-column dependencies, so constants are excluded here.
        """
        return any(fd.lhs_size >= 1 for fd in self._fds)

    @property
    def has_single_lhs(self) -> bool:
        """Whether some FD has |LHS| = 1 (Table 5's simple-FD count)."""
        return any(fd.lhs_size == 1 for fd in self._fds)

    def as_frozenset(self) -> frozenset[tuple[frozenset[str], str]]:
        """Canonical form for comparing two discovery algorithms."""
        return frozenset((fd.lhs, fd.rhs) for fd in self._fds)
