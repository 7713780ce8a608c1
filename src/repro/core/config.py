"""Study configuration.

One :class:`StudyConfig` pins every knob of a reproduction run: corpus
scale and seed, which portals participate, and the thresholds the paper
fixes (Jaccard 0.9, unique-value floor 10, FD LHS cap 4, the FD-analysis
size filter).
"""

from __future__ import annotations

import dataclasses

#: Portal codes in the paper's presentation order.
DEFAULT_PORTALS = ("SG", "CA", "UK", "US")


@dataclasses.dataclass(frozen=True)
class StudyConfig:
    """All parameters of one study run."""

    #: Corpus scale (1.0 ~ 1/100 of the real portals; see DESIGN.md).
    scale: float = 1.0
    #: Master seed: generation, sampling and decomposition all derive
    #: sub-seeds from it, so equal configs give identical studies.
    seed: int = 7
    portal_codes: tuple[str, ...] = DEFAULT_PORTALS
    #: §5.1 joinability thresholds.
    jaccard_threshold: float = 0.9
    min_unique_values: int = 10
    #: §4.2 FD discovery cap.
    max_lhs: int = 4
    #: §5.3.1 join-sample size per (size bucket, key combo) cell.
    join_sample_per_subbucket: int = 17
    #: §6 union sample size per portal.
    union_sample_size: int = 25
    #: Table 3 metadata sample size per portal.
    metadata_sample_size: int = 100
    #: Crawl retry budget (see :mod:`repro.resilience`).  0 reproduces
    #: the paper's single-shot crawl bit-for-bit; > 0 also enables the
    #: per-host circuit breaker and token-bucket rate limiter.
    max_retries: int = 0
    #: Directory for the per-portal crawl and study journals; None
    #: disables checkpointing entirely.
    checkpoint_dir: str | None = None
    #: When False, existing crawl, study and shard journals are
    #: discarded, so every resource is re-fetched and every unit
    #: recomputed; checkpoints are still written for the new run.
    resume: bool = True
    #: Per-(stage, table) work budget in deterministic ticks (see
    #: :mod:`repro.resilience.budget`); None (the default) never
    #: truncates, so the analyses run to completion.
    stage_budget: int | None = None
    #: Directory where quarantined-table records are also written; None
    #: keeps quarantines in memory only.  Never changes a result.
    quarantine_dir: str | None = None
    #: Poison-table injection rate applied to every portal profile
    #: (see :func:`repro.generator.profiles.poison_profile`).  0.0 keeps
    #: the calibrated corpora bit-for-bit identical to the seed.
    poison_rate: float = 0.0
    #: Path of the JSONL telemetry trace (see :mod:`repro.obs`); None
    #: disables tracing entirely — zero overhead, byte-identical study
    #: outputs.
    trace_out: str | None = None
    #: Path of the deterministic profile artifact (see
    #: :mod:`repro.obs.profile`); None disables profiling entirely —
    #: zero overhead, byte-identical study outputs, same contract as
    #: ``trace_out``.
    profile_out: str | None = None
    #: Number of analysis worker processes (see
    #: :mod:`repro.resilience.pool`).  1 (the default) runs the per-table
    #: units in-process; any count yields byte-identical results.
    workers: int = 1
    #: Times a unit whose worker died mid-flight is re-dispatched before
    #: it is escalated to QUARANTINED as a poison unit.
    unit_retries: int = 3
    #: Seeded probability that a worker SIGKILLs itself mid-unit (chaos
    #: mode, exercising supervision); 0.0 disables chaos entirely.
    chaos_kill_rate: float = 0.0
    #: Directory for per-worker shard journals; None keeps them in a
    #: temporary directory that is discarded after the merge.
    shard_dir: str | None = None

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.stage_budget is not None and self.stage_budget < 1:
            raise ValueError(
                f"stage_budget must be >= 1 or None, got {self.stage_budget}"
            )
        if not 0.0 <= self.poison_rate <= 1.0:
            raise ValueError(
                f"poison_rate must be in [0, 1], got {self.poison_rate}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.unit_retries < 0:
            raise ValueError(
                f"unit_retries must be >= 0, got {self.unit_retries}"
            )
        if not 0.0 <= self.chaos_kill_rate <= 1.0:
            raise ValueError(
                f"chaos_kill_rate must be in [0, 1], got "
                f"{self.chaos_kill_rate}"
            )
        if not 0.0 < self.jaccard_threshold <= 1.0:
            raise ValueError(
                f"jaccard_threshold must be in (0, 1], got "
                f"{self.jaccard_threshold}"
            )
        if self.max_lhs < 1:
            raise ValueError(f"max_lhs must be >= 1, got {self.max_lhs}")
        unknown = set(self.portal_codes) - set(DEFAULT_PORTALS)
        if unknown:
            raise ValueError(f"unknown portal codes: {sorted(unknown)}")
