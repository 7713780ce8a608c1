"""Deterministic work budgets for the analysis half of the pipeline.

The crawl layer (PR 1) keeps all timing on a simulated clock; the
analysis layer needs the same property for a different resource: CPU
work.  A wall-clock timeout would make truncation points depend on the
host machine, so budgets are expressed in *operation counts* instead —
one tick per unit of work actually performed (a cell visited during
profiling, a partition refinement in FD discovery, a candidate pair
checked in join search).  Equal inputs plus equal budgets therefore
truncate at exactly the same operation on every machine, which is what
makes guarded analyses reproducible and resumable.
"""

from __future__ import annotations


class BudgetExceeded(RuntimeError):
    """Raised by :meth:`WorkMeter.tick` when a stage's budget runs out."""

    def __init__(self, op: str, spent: int, budget: int):
        super().__init__(
            f"work budget exhausted during {op!r}: "
            f"spent {spent} of {budget} ticks"
        )
        self.op = op
        self.spent = spent
        self.budget = budget


class WorkMeter:
    """Operation-count budget for one analysis stage.

    Every analysis engine charges the meter it is given; the caller's
    meter alone decides whether the work is budgeted or observed.
    ``budget=None`` means unlimited: ticks are still counted (cheap
    integer adds) but :class:`BudgetExceeded` is never raised, so an
    unlimited meter yields exactly the result of :data:`UNMETERED`.

    With a *metrics* registry attached (see
    :class:`repro.obs.metrics.MetricsRegistry`), every tick also feeds
    a per-operation counter (``ops.<op>``) and :meth:`event` records
    named analysis-engine occurrences (lattice nodes per level, pairs
    pruned vs. verified); without one, both are single ``is None``
    branches, so unobserved runs pay nothing.

    With a *profiler* attached (see :class:`repro.obs.profile.Profiler`),
    every tick is additionally attributed to the profiler's current
    frame path — same opt-in contract: one ``is None`` branch when
    absent, so unprofiled runs are byte-identical to pre-profiler ones.
    """

    def __init__(self, budget: int | None = None, metrics=None,
                 profiler=None):
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be >= 1 or None, got {budget}")
        self.budget = budget
        self._metrics = metrics
        self.profiler = profiler
        self._spent = 0
        self._exhausted = False

    @property
    def spent(self) -> int:
        """Ticks charged so far (including the tick that exhausted us)."""
        return self._spent

    @property
    def unlimited(self) -> bool:
        """Whether this meter can never raise."""
        return self.budget is None

    @property
    def exhausted(self) -> bool:
        """Whether the budget has run out at least once."""
        return self._exhausted

    @property
    def remaining(self) -> int | None:
        """Ticks left before exhaustion; None when unlimited."""
        if self.budget is None:
            return None
        return max(0, self.budget - self._spent)

    def tick(self, cost: int = 1, op: str = "work") -> None:
        """Charge *cost* ticks; raise :class:`BudgetExceeded` over budget.

        The charge is applied *before* the check, so ``spent`` always
        reflects the full amount of work attempted — the exhausting
        operation included.  Once exhausted, every subsequent tick
        raises immediately, which is what lets a caller holding partial
        results unwind level by level without doing any further work.
        """
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        self._spent += cost
        if self._metrics is not None:
            self._metrics.inc("ops." + op, cost)
        if self.profiler is not None:
            # Attribute before the budget check: the exhausting tick is
            # part of `spent`, so it must be part of the profile too or
            # the reconciliation invariant would drift by one op.
            self.profiler.add(cost, op)
        if self.budget is not None and self._spent > self.budget:
            self._exhausted = True
            raise BudgetExceeded(op, self._spent, self.budget)

    def event(self, name: str, value: int = 1) -> None:
        """Record a named occurrence in the attached metrics registry.

        Free (a single branch) when no registry is attached; never
        charges the budget.  Analysis engines use this for structural
        telemetry that is not work — lattice nodes examined per level,
        candidate pairs pruned vs. verified, cells screened.
        """
        if self._metrics is not None:
            self._metrics.inc(name, value)


class _Unmetered(WorkMeter):
    """A meter that charges nothing: see :data:`UNMETERED`."""

    def tick(self, cost: int = 1, op: str = "work") -> None:
        pass

    def event(self, name: str, value: int = 1) -> None:
        pass


#: The engines' default meter, for callers with nothing to budget or
#: observe: no budget, registry or profiler; ``spent`` stays 0 and it
#: never raises.
UNMETERED: WorkMeter = _Unmetered()
