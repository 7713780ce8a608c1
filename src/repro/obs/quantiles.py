"""Order statistics shared by every report.

The load harness (:mod:`repro.serve.loadgen`), the serve report
(:mod:`repro.obs.servereport`) and the profiler's hotspot report judge
op-cost distributions by *exact* nearest-rank percentiles — never
histogram interpolation, so a percentile is always a value that
actually occurred and equal-seed runs agree byte for byte.  The
fidelity scoreboard and the SLO monitor fold verdicts to the worst on
their scale.  One implementation of each lives here so no two reports
can drift.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile_nearest_rank(values: Sequence[int], pct: float) -> int:
    """Nearest-rank percentile of pre-sorted *values* (0 when empty).

    The nearest-rank definition: the smallest element at or above the
    requested rank ``ceil(pct/100 * n)``, clamped to the first element
    for tiny *pct* and to the last for ``pct >= 100``.  Ties are
    inherently exact — repeated values occupy repeated ranks.
    """
    if not values:
        return 0
    rank = max(1, math.ceil(pct / 100.0 * len(values)))
    return values[min(rank, len(values)) - 1]


def rank_summary(values: Iterable[int]) -> dict:
    """Nearest-rank ``p50``, ``p99`` and ``max`` of *values* (0 if empty)."""
    ordered = sorted(values)
    return {
        "p50": percentile_nearest_rank(ordered, 50),
        "p99": percentile_nearest_rank(ordered, 99),
        "max": ordered[-1] if ordered else 0,
    }


def worst(verdicts: Iterable[str], scale: Sequence[str]) -> str:
    """The worst of *verdicts* on *scale* (best first); its best when empty."""
    return max(verdicts, key=scale.index, default=scale[0])


__all__ = ["percentile_nearest_rank", "rank_summary", "worst"]
