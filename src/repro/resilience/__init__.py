"""Resilience layer: fault-tolerant crawling *and* guarded analysis.

Real OGDP crawls are dominated by transient network behaviour —
timeouts, 429/503 rate limiting, truncated bodies — so faithful
downloadability numbers need a retry-aware crawler (§2.2 of the paper;
see also arXiv:2308.13560 and arXiv:2106.09590 on intermittently
fetchable portal resources).  This package provides that layer over the
simulated portal substrate, fully deterministic: all timing runs on a
:class:`SimulatedClock` and all jitter on a seeded RNG, never the wall
clock.

The analysis half of the pipeline gets the same treatment: a
:class:`WorkMeter` expresses budgets in operation counts rather than
wall time, the :class:`AnalysisExecutor` converts crashes and budget
blowups into recorded :class:`StageOutcome`s (quarantining poison
tables instead of dying), and a :class:`StudyJournal` checkpoints
finished analysis units so a killed study resumes without
recomputation.
"""

from .breaker import BreakerConfig, BreakerEvent, CircuitBreaker, CircuitState
from .budget import UNMETERED, BudgetExceeded, WorkMeter
from .client import FetchResult, ResilientHttpClient, host_of
from .clock import SimulatedClock
from .executor import (
    PORTAL_WIDE,
    AnalysisExecutor,
    CompletedUnit,
    StageOutcome,
    StageStatus,
    UnitRequest,
    compute_unit,
)
from .journal import (
    CrawlJournal,
    JournalEntry,
    MergeConflict,
    StageRecord,
    StudyJournal,
    config_fingerprint,
)
from .ratelimit import RateLimitConfig, TokenBucket
from .retry import DEFAULT_RETRYABLE_STATUSES, RetryPolicy
from .stats import ResilienceStats

__all__ = [
    "AnalysisExecutor",
    "BreakerConfig",
    "BreakerEvent",
    "BudgetExceeded",
    "CircuitBreaker",
    "CircuitState",
    "CompletedUnit",
    "CrawlJournal",
    "DEFAULT_RETRYABLE_STATUSES",
    "FetchResult",
    "JournalEntry",
    "MergeConflict",
    "PORTAL_WIDE",
    "RateLimitConfig",
    "ResilienceStats",
    "ResilientHttpClient",
    "RetryPolicy",
    "SimulatedClock",
    "StageOutcome",
    "StageRecord",
    "StageStatus",
    "StudyJournal",
    "TokenBucket",
    "UNMETERED",
    "UnitRequest",
    "WorkMeter",
    "compute_unit",
    "config_fingerprint",
    "host_of",
]
