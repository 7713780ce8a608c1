"""Study orchestration: generate -> ingest -> cache shared analyses.

A :class:`Study` holds, per portal, the generated corpus, the ingestion
report, and lazily computed shared analyses (joinability, unionability,
FD/normalization, labeled samples).  The experiment modules all pull
from one study so that expensive intermediates are computed once.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import pathlib

from ..generator.portal_gen import GeneratedPortal, generate_portal
from ..generator.profiles import PROFILES_BY_CODE, poison_profile
from ..ingest.pipeline import IngestedTable, IngestReport, ingest_portal
from ..obs import Observer, maybe_span
from ..portal.ckan import CkanApi
from ..portal.http import HttpClient
from ..resilience import (
    PORTAL_WIDE,
    AnalysisExecutor,
    BreakerConfig,
    CrawlJournal,
    RateLimitConfig,
    ResilientHttpClient,
    RetryPolicy,
    StageStatus,
    StudyJournal,
    UnitRequest,
    config_fingerprint,
)
from .config import StudyConfig

if TYPE_CHECKING:  # imported lazily at runtime to keep imports acyclic
    from ..dataframe import Table
    from ..joinability.labeling import LabeledPair
    from ..joinability.pairs import JoinabilityAnalysis
    from ..normalize.analysis import NormalizationStats
    from ..unionability.labeling import LabeledUnionPair
    from ..unionability.schemas import UnionabilityAnalysis


@dataclasses.dataclass
class PortalStudy:
    """One portal's corpus, ingest report, and cached analyses.

    Every cached analysis runs through the portal's
    :class:`AnalysisExecutor`, whatever the config: per-table stages
    walk the unit plan of :mod:`repro.resilience.units` (the list the
    worker pool schedules), portal-wide stages run as one unit each.
    The default executor has no budget, so nothing truncates; a budget
    quarantines poison tables and degrades portal-wide stages to
    truncated or empty results, and a checkpoint dir replays finished
    per-table units from the study journal on resume.
    """

    config: StudyConfig
    generated: GeneratedPortal
    report: IngestReport
    executor: AnalysisExecutor
    obs: Observer | None = None
    _cache: dict = dataclasses.field(default_factory=dict)

    @property
    def code(self) -> str:
        """Portal code (SG/CA/UK/US)."""
        return self.report.portal_code

    def _run_units(self, stage: str) -> dict:
        """Run *stage*'s planned per-table units; results by table id.

        Walks :func:`~repro.resilience.units.plan_portal_units` — the
        list the worker pool schedules — and skips every unit whose
        ``depends_on`` screen did not end OK, so serial and pooled runs
        execute one unit set; callers of dependent stages run
        :meth:`screened_tables` first.  Units without a result
        (quarantined or failed, with no fallback) are absent from the
        map.
        """
        from ..resilience.units import plan_portal_units, unit_request

        tables = {t.resource_id: t.clean for t in self.report.clean_tables}
        results: dict = {}
        for planned in plan_portal_units(self.code, self.report, (stage,)):
            if planned.depends_on is not None:
                _, dependency, table_id = planned.depends_on
                status = self.executor.status_of(dependency, table_id)
                if status is not StageStatus.OK:
                    continue
            result, _ = self.executor.guard(
                stage,
                planned.table_id,
                unit_request(planned, tables[planned.table_id], self.config),
            )
            if result is not None:
                results[planned.table_id] = result
        return results

    # ------------------------------------------------------------------
    # screening
    # ------------------------------------------------------------------
    def screened_tables(self) -> list[IngestedTable]:
        """The analysis corpus: clean tables whose screen unit ended OK.

        Every table first runs through the per-cell screen (the
        cheapest stage at which data-volume poison can blow its
        budget); tables it quarantines or fails are excluded from every
        later stage.
        """
        from ..resilience.units import SCREEN_STAGE

        if "screened-tables" not in self._cache:
            with maybe_span(
                self.obs, "screen", kind="stage", portal=self.code
            ):
                self._run_units(SCREEN_STAGE)
            self._cache["screened-tables"] = [
                t
                for t in self.report.clean_tables
                if self.executor.status_of(SCREEN_STAGE, t.resource_id)
                is StageStatus.OK
            ]
        return self._cache["screened-tables"]

    # ------------------------------------------------------------------
    # joinability
    # ------------------------------------------------------------------
    def join_signatures(self) -> dict:
        """MinHash signatures per screened table; no analysis uses them.

        Keyed by position in :meth:`screened_tables`.  Only the
        wall-clock benchmark calls this (its ``lake`` workload and
        ``describe_corpus``), once per study, so it is a plain loop under
        one per-portal :class:`~repro.joinability.lshindex.SignatureMemo`:
        no executor unit, journal, span, budget or cache (a kept copy
        would stay alive beside a served study for nothing).  Delete it
        with the next benchmark change.
        """
        # Looked up at call time so a wrapper installed on the module
        # attribute sees every call.
        from ..joinability.lshindex import (
            SignatureMemo,
            compute_table_signatures,
        )

        memo = SignatureMemo.create(seed=self.config.seed)
        return {
            index: compute_table_signatures(
                ingested.clean,
                ingested.resource_id,
                min_unique=self.config.min_unique_values,
                seed=self.config.seed,
                memo=memo,
            )
            for index, ingested in enumerate(self.screened_tables())
        }

    def joinability(
        self, threshold: float | None = None
    ) -> "JoinabilityAnalysis":
        """Cached joinability analysis at the given threshold.

        Prefix- and size-filters candidates before the exact Jaccard
        verify; the pair set is byte-identical to the all-pairs walk
        (:func:`~repro.joinability.pairs.analyze_joinability`, kept as
        the oracle), only the op counts differ.  Every threshold's unit
        searches from the portal's one
        :class:`~repro.joinability.lshindex.JoinSearchState`: the first
        unit to finish building it leaves it for the rest, which charge
        the same ticks without rebuilding.
        """
        # Looked up at call time so a wrapper installed on the module
        # attribute sees every call.
        from ..joinability.lshindex import (
            JoinSearchState,
            analyze_joinability_lsh,
        )
        from ..joinability.pairs import empty_joinability_analysis

        threshold = (
            self.config.jaccard_threshold if threshold is None else threshold
        )
        key = ("joinability", threshold)
        if key not in self._cache:
            with maybe_span(
                self.obs,
                f"pairs@{threshold}",
                kind="stage",
                portal=self.code,
            ):
                tables = self.screened_tables()
                state = self._cache.setdefault(
                    "join-state", JoinSearchState()
                )
                analysis, _ = self.executor.guard(
                    f"pairs@{threshold}",
                    PORTAL_WIDE,
                    UnitRequest(
                        compute=lambda meter: analyze_joinability_lsh(
                            self.code,
                            tables,
                            threshold=threshold,
                            min_unique=self.config.min_unique_values,
                            meter=meter,
                            state=state,
                        ),
                        classify=lambda a: (
                            StageStatus.TRUNCATED
                            if a.truncated
                            else StageStatus.OK
                        ),
                        on_budget=StageStatus.TRUNCATED,
                        fallback=lambda: empty_joinability_analysis(
                            self.code, tables
                        ),
                    ),
                )
                self._cache[key] = analysis
        return self._cache[key]

    def labeled_join_sample(
        self, threshold: float | None = None
    ) -> list["LabeledPair"]:
        """Cached oracle-labeled stratified join sample."""
        from ..joinability.labeling import LineageOracle
        from ..joinability.sampling import stratified_sample

        threshold = (
            self.config.jaccard_threshold if threshold is None else threshold
        )
        key = ("join-sample", threshold)
        if key not in self._cache:
            oracle = LineageOracle.from_recorder(self.generated.lineage)
            self._cache[key], _ = stratified_sample(
                self.joinability(threshold),
                oracle,
                seed=self.config.seed,
                per_subbucket=self.config.join_sample_per_subbucket,
            )
        return self._cache[key]

    def expansion_ratios(
        self, threshold: float | None = None
    ) -> tuple[float, ...]:
        """Cached expansion ratios of every joinable pair."""
        from ..joinability.expansion import expansion_stats

        threshold = (
            self.config.jaccard_threshold if threshold is None else threshold
        )
        key = ("expansion", threshold)
        if key not in self._cache:
            self._cache[key] = expansion_stats(
                self.joinability(threshold)
            ).ratios
        return self._cache[key]

    # ------------------------------------------------------------------
    # unionability
    # ------------------------------------------------------------------
    def unionability(self) -> "UnionabilityAnalysis":
        """Cached unionability analysis."""
        from ..unionability.schemas import (
            analyze_unionability,
            empty_unionability_analysis,
        )

        if "unionability" not in self._cache:
            with maybe_span(
                self.obs, "union", kind="stage", portal=self.code
            ):
                tables = self.screened_tables()
                analysis, _ = self.executor.guard(
                    "union",
                    PORTAL_WIDE,
                    UnitRequest(
                        compute=lambda meter: analyze_unionability(
                            self.code, tables, meter=meter
                        ),
                        on_budget=StageStatus.TRUNCATED,
                        fallback=lambda: empty_unionability_analysis(
                            self.code, tables
                        ),
                    ),
                )
                self._cache["unionability"] = analysis
        return self._cache["unionability"]

    def labeled_union_sample(self) -> list["LabeledUnionPair"]:
        """Cached oracle-labeled union sample."""
        from ..unionability.labeling import UnionOracle, sample_union_pairs

        if "union-sample" not in self._cache:
            oracle = UnionOracle.from_recorder(self.generated.lineage)
            self._cache["union-sample"] = sample_union_pairs(
                self.unionability(),
                oracle,
                seed=self.config.seed,
                sample_size=self.config.union_sample_size,
            )
        return self._cache["union-sample"]

    # ------------------------------------------------------------------
    # FDs / normalization / keys
    # ------------------------------------------------------------------
    def _filtered_ingested(self) -> list[IngestedTable]:
        """Screened tables passing the paper's §4.2 size filter."""
        from ..normalize.analysis import passes_size_filter

        if "filtered-ingested" not in self._cache:
            self._cache["filtered-ingested"] = [
                t
                for t in self.screened_tables()
                if t.clean is not None and passes_size_filter(t.clean)
            ]
        return self._cache["filtered-ingested"]

    def filtered_tables(self) -> list["Table"]:
        """Tables passing the paper's §4.2 size filter."""
        return [t.clean for t in self._filtered_ingested()]

    def normalization(self) -> "NormalizationStats":
        """Cached FD/BCNF statistics over the filtered tables.

        One journaled ``fd`` unit runs per filtered table, each drawing
        its BCNF splits from its own RNG seeded by ``(seed, portal,
        table)`` — the study's only BCNF stream — so results do not
        depend on which tables were replayed, quarantined, recomputed,
        or pooled.
        """
        from ..normalize.analysis import aggregate_normalization
        from ..resilience.units import FD_STAGE

        if "normalization" not in self._cache:
            with maybe_span(self.obs, "fd", kind="stage", portal=self.code):
                filtered = self._filtered_ingested()
                contributions = self._run_units(FD_STAGE)
            kept = [t for t in filtered if t.resource_id in contributions]
            self._cache["normalization"] = aggregate_normalization(
                self.code,
                [t.clean for t in kept],
                [contributions[t.resource_id] for t in kept],
            )
        return self._cache["normalization"]

    def key_distribution(self):
        """Cached minimum-key-size distribution (Figure 6)."""
        from ..keys.candidates import key_size_distribution

        if "keys" not in self._cache:
            self._cache["keys"] = key_size_distribution(
                self.code, self.filtered_tables()
            )
        return self._cache["keys"]

    def single_key_fraction(self) -> float:
        """Fraction of *all* cleaned tables lacking a single-column key."""
        if "single-key-frac" not in self._cache:
            tables = self.screened_tables()
            without = sum(
                1
                for t in tables
                if t.clean is not None
                and not any(c.is_key for c in t.clean.columns)
            )
            self._cache["single-key-frac"] = (
                without / len(tables) if tables else 0.0
            )
        return self._cache["single-key-frac"]


class Study:
    """The full four-portal study."""

    def __init__(
        self,
        config: StudyConfig,
        portals: dict[str, PortalStudy],
        obs: Observer | None = None,
    ):
        self.config = config
        self.portals = portals
        self.obs = obs

    @classmethod
    def build(
        cls,
        config: StudyConfig,
        *,
        obs: Observer | None = None,
    ) -> "Study":
        """Generate and ingest every configured portal.

        The crawl honours the config's resilience knobs: a positive
        ``max_retries`` routes fetches through
        :class:`~repro.resilience.client.ResilientHttpClient` (retries
        plus circuit breaking and rate limiting), and ``checkpoint_dir``
        journals per-resource outcomes so an interrupted build resumes
        without re-fetching completed resources.

        With ``config.trace_out`` set (or an explicit *obs*), the whole
        study runs inside a root ``study`` span: per-portal build and
        analysis stages nest under it and every executor unit emits a
        trace span, until :meth:`close` finishes the trace.
        """
        if obs is None:
            obs = Observer.from_config(config)
        if obs is not None:
            obs.tracer.start(
                "study",
                kind="study",
                seed=config.seed,
                scale=config.scale,
                portals=",".join(config.portal_codes),
            )
            if obs.profiler is not None:
                # The root frame of every profiled path.  Deliberately
                # never popped: it scopes the whole study, and pooled
                # workers seed their per-unit profilers with the same
                # root so serial and sharded profiles merge identically.
                obs.profiler.push("study")
        portals: dict[str, PortalStudy] = {}
        for code in config.portal_codes:
            with maybe_span(obs, "build", kind="portal", portal=code):
                profile = PROFILES_BY_CODE[code]
                if config.poison_rate > 0:
                    profile = poison_profile(profile, config.poison_rate)
                with maybe_span(obs, "generate", kind="stage", portal=code):
                    generated = generate_portal(
                        profile, seed=config.seed, scale=config.scale
                    )
                client = _build_client(HttpClient(generated.store), config)
                journal = _open_journal(
                    config, CrawlJournal, f"crawl-{code}.jsonl"
                )
                try:
                    report = ingest_portal(
                        CkanApi(generated.portal),
                        client,
                        journal=journal,
                        obs=obs,
                    )
                finally:
                    if journal is not None:
                        journal.close()
                portals[code] = PortalStudy(
                    config=config,
                    generated=generated,
                    report=report,
                    executor=_build_executor(config, code, obs),
                    obs=obs,
                )
        if config.workers > 1:
            # Sharded execution: compute every per-table unit across
            # the worker pool up front, then let each executor adopt
            # the results lazily as the analyses ask for them (see
            # repro.resilience.pool).  Portal-wide stages still run
            # in this process, exactly as at --workers 1.
            from ..resilience.pool import run_pool

            run_pool(portals, config, obs)
        return cls(config=config, portals=portals, obs=obs)

    def __iter__(self):
        return iter(self.portals.values())

    def portal(self, code: str) -> PortalStudy:
        """The portal study for *code*."""
        return self.portals[code]

    @property
    def codes(self) -> tuple[str, ...]:
        """Portal codes in configuration order."""
        return tuple(self.portals)

    def close(self) -> None:
        """Close study journals, then finish and flush the trace."""
        for portal in self.portals.values():
            portal.executor.close()
        if self.obs is not None:
            self.obs.close()

    def __enter__(self) -> "Study":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _build_client(
    transport: HttpClient, config: StudyConfig
) -> HttpClient | ResilientHttpClient:
    """The crawl client the config asks for.

    ``max_retries == 0`` returns the bare transport client: one
    ``try_fetch`` per resource, reproducing the seed crawl bit-for-bit.
    """
    if config.max_retries == 0:
        return transport
    return ResilientHttpClient(
        transport,
        policy=RetryPolicy(max_retries=config.max_retries),
        breaker_config=BreakerConfig(),
        rate_limit=RateLimitConfig(),
        seed=config.seed,
    )


def _open_journal(
    config: StudyConfig, journal_type: type, name: str, metrics=None
):
    """The checkpoint dir's journal *name*, or None without a dir.

    ``--no-resume`` discards the file first; a file written under
    another config is started afresh by the journal itself.
    """
    if config.checkpoint_dir is None:
        return None
    path = pathlib.Path(config.checkpoint_dir) / name
    if not config.resume:
        path.unlink(missing_ok=True)
    return journal_type(path, config_fingerprint(config), metrics=metrics)


def _build_executor(
    config: StudyConfig, code: str, obs: Observer | None = None
) -> AnalysisExecutor:
    """The portal's analysis executor.

    Unbudgeted unless ``stage_budget`` is set; quarantines stay in
    memory unless ``quarantine_dir`` is set, which adds the on-disk
    records.  The study journal attaches whenever a checkpoint dir is
    configured.
    """
    return AnalysisExecutor(
        code,
        stage_budget=config.stage_budget,
        journal=_open_journal(
            config,
            StudyJournal,
            f"study-{code}.jsonl",
            metrics=obs.metrics if obs is not None else None,
        ),
        quarantine_dir=config.quarantine_dir,
        obs=obs,
    )
