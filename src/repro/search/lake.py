"""The data-lake facade: search, then suggest joins and unions.

``DataLake`` wraps a built :class:`~repro.core.study.Study` into the
interface the paper's motivating systems expose:

* :meth:`search` — keyword search over the four catalogs;
* :meth:`suggest_joins` — joinable partners for a table, ranked by the
  paper's usefulness signals rather than raw value overlap;
* :meth:`suggest_unions` — same-schema partners ranked by relatedness.

Everything downstream of search is pre-computed by the study's cached
analyses, so suggestions are dictionary lookups plus scoring.
"""

from __future__ import annotations

import dataclasses

from ..core.study import PortalStudy, Study
from ..dataframe import Table
from ..ingest.pipeline import IngestedTable
from ..joinability.coltypes import SemanticType
from ..joinability.expansion import pair_expansion_ratio
from ..joinability.index import normalize_value
from ..joinability.labeling import key_combination, pair_semantic_type
from ..joinability.pairs import JoinabilityAnalysis, JoinablePair
from ..joinability.topk import TopKOverlapSearcher
from ..obs.log import get_log
from ..resilience.budget import UNMETERED, BudgetExceeded, WorkMeter
from ..resilience.executor import StageStatus
from ..unionability.ranking import rank_union_partners
from .textindex import TextIndex


@dataclasses.dataclass(frozen=True)
class DatasetHit:
    """A catalog search result."""

    portal_code: str
    dataset_id: str
    title: str
    score: float
    matched_terms: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class JoinSuggestion:
    """One suggested joinable partner for a query table."""

    portal_code: str
    query_column: str
    partner_resource: str
    partner_table: str
    partner_column: str
    jaccard: float
    expansion_ratio: float
    key_combination: str
    data_type: str
    same_dataset: bool
    score: float


@dataclasses.dataclass(frozen=True)
class ExternalJoinHit:
    """A joinable partner for a column the user brought from outside."""

    portal_code: str
    resource_id: str
    table_name: str
    column_name: str
    overlap: int
    jaccard: float
    is_key: bool


@dataclasses.dataclass(frozen=True)
class UnionSuggestion:
    """One suggested union partner for a query table."""

    portal_code: str
    partner_resource: str
    partner_table: str
    relatedness: float
    same_dataset: bool


class DataLake:
    """Search and integration suggestions over a built study."""

    def __init__(self, study: Study, *, metrics=None):
        self._study = study
        self._metrics = metrics
        self._index = TextIndex()
        self._dataset_titles: dict[str, tuple[str, str]] = {}
        self._searchers: dict[str, TopKOverlapSearcher] = {}
        #: portal -> table_index -> pairs touching that table (memoized
        #: per-table view of analysis.pairs; see _pairs_for_table).
        self._pair_maps: dict[str, dict[int, list[JoinablePair]]] = {}
        #: portal -> resource_id -> table index (memoized lookup).
        self._resource_tables: dict[str, dict[str, int]] = {}
        for portal in study:
            self._index_portal(portal)

    def _note_skip(self, portal_code: str, entity: str, reason: str) -> None:
        """Record one skipped indexing unit: a log line plus a counter.

        A degraded study (quarantined tables, failed stages) must still
        be servable, so indexing problems are telemetry, never raises.
        """
        get_log().warn(
            "lake-index-skip",
            portal=portal_code,
            entity=entity,
            reason=reason,
        )
        if self._metrics is not None:
            self._metrics.inc("lake.index.skipped")

    def _servable_tables(self, portal: PortalStudy) -> list[IngestedTable]:
        """The portal's clean tables minus quarantined/FAILED ones.

        Runs the screen stage first (so data-volume poison is
        quarantined at the cheapest point), then drops anything the
        executor has quarantined or recorded as FAILED — each skip
        logged and counted instead of raised, so a degraded study still
        serves its healthy remainder.
        """
        executor = portal.executor
        try:
            portal.screened_tables()
        except Exception as exc:  # noqa: BLE001 — serving must survive
            self._note_skip(
                portal.code, "screen", f"{type(exc).__name__}: {exc}"
            )
        failed = {
            outcome.table_id
            for outcome in executor.outcomes
            if outcome.status is StageStatus.FAILED
        }
        kept: list[IngestedTable] = []
        for ingested in portal.report.clean_tables:
            resource_id = ingested.resource_id
            if executor.is_quarantined(resource_id):
                self._note_skip(portal.code, resource_id, "quarantined")
            elif resource_id in failed:
                self._note_skip(portal.code, resource_id, "failed")
            else:
                kept.append(ingested)
        return kept

    def _index_portal(self, portal: PortalStudy) -> None:
        tables_by_dataset: dict[str, list[str]] = {}
        for ingested in self._servable_tables(portal):
            tables_by_dataset.setdefault(ingested.dataset_id, []).append(
                ingested.name
            )
        for dataset in portal.generated.portal.datasets:
            doc_id = f"{portal.code}:{dataset.dataset_id}"
            text = " ".join(
                [
                    dataset.title,
                    dataset.description,
                    dataset.topic.replace("_", " "),
                    dataset.organization,
                    " ".join(
                        name.replace("_", " ")
                        for name in tables_by_dataset.get(
                            dataset.dataset_id, []
                        )
                    ),
                ]
            )
            try:
                self._index.add(doc_id, text)
            except ValueError as exc:
                self._note_skip(portal.code, doc_id, str(exc))
                continue
            self._dataset_titles[doc_id] = (portal.code, dataset.title)

    def _pairs_for_table(
        self, portal_code: str, analysis: JoinabilityAnalysis, table_index: int
    ) -> list[JoinablePair]:
        """The pairs touching one table, memoized per portal.

        ``suggest_joins`` used to scan every pair of the portal on
        every request; the per-table map is built once (in
        ``analysis.pairs`` order, so per-table relative order — and
        therefore ranking — is unchanged) and each request walks only
        its own table's pairs.
        """
        by_table = self._pair_maps.get(portal_code)
        if by_table is None:
            by_table = {}
            for pair in analysis.pairs:
                left_table = analysis.profiles[pair.left].table_index
                right_table = analysis.profiles[pair.right].table_index
                by_table.setdefault(left_table, []).append(pair)
                if right_table != left_table:
                    by_table.setdefault(right_table, []).append(pair)
            self._pair_maps[portal_code] = by_table
        return by_table.get(table_index, [])

    # ------------------------------------------------------------------
    # keyword search
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        limit: int = 10,
        meter: WorkMeter = UNMETERED,
    ) -> list[DatasetHit]:
        """Keyword search over every portal's catalog.

        The scan charges *meter* one tick per posting visited, which
        bounds it deterministically: on exhaustion the partial ranking
        scored so far is returned and the caller reads
        ``meter.exhausted`` to mark the answer degraded.
        """
        hits: list[DatasetHit] = []
        for hit in self._index.search(query, limit=limit, meter=meter):
            portal_code, title = self._dataset_titles[hit.doc_id]
            hits.append(
                DatasetHit(
                    portal_code=portal_code,
                    dataset_id=hit.doc_id.split(":", 1)[1],
                    title=title,
                    score=hit.score,
                    matched_terms=hit.matched_terms,
                )
            )
        return hits

    # ------------------------------------------------------------------
    # join suggestions
    # ------------------------------------------------------------------
    def suggest_joins(
        self,
        portal_code: str,
        resource_id: str,
        limit: int = 10,
        meter: WorkMeter = UNMETERED,
    ) -> list[JoinSuggestion]:
        """Joinable partners for one table, best first.

        Ranking applies the paper's §5.3 signals on top of value
        overlap: same-dataset partners, key-key pairs, non-incremental
        types, and non-growing joins score higher.  Each candidate pair
        examined charges *meter* one tick; on exhaustion the pairs
        scored so far are ranked and returned (a deterministic partial).
        Requests walk only the query table's pairs via the memoized
        per-table map, not the whole portal's pair list, and read value
        counts from the portal's memo, so a miss counts only columns no
        earlier request or analysis has counted.
        """
        portal = self._study.portal(portal_code)
        analysis = portal.joinability()
        table_index = self._table_index(portal_code, analysis, resource_id)
        query = analysis.tables[table_index]
        suggestions: list[JoinSuggestion] = []
        try:
            for pair in self._pairs_for_table(
                portal_code, analysis, table_index
            ):
                meter.tick(1, op="serve.join.pair")
                left = analysis.profiles[pair.left]
                right = analysis.profiles[pair.right]
                mine, partner = (
                    (left, right)
                    if left.table_index == table_index
                    else (right, left)
                )
                partner_table = analysis.tables[partner.table_index]
                expansion = pair_expansion_ratio(analysis, pair)
                combo = key_combination(left, right)
                semantic = pair_semantic_type(left, right)
                same_dataset = partner_table.dataset_id == query.dataset_id
                score = self._signal_score(
                    same_dataset, combo, semantic, expansion, pair.jaccard
                )
                suggestions.append(
                    JoinSuggestion(
                        portal_code=portal_code,
                        query_column=mine.column_name,
                        partner_resource=partner_table.resource_id,
                        partner_table=partner_table.name,
                        partner_column=partner.column_name,
                        jaccard=pair.jaccard,
                        expansion_ratio=expansion,
                        key_combination=combo,
                        data_type=semantic.value,
                        same_dataset=same_dataset,
                        score=score,
                    )
                )
        except BudgetExceeded:
            pass  # rank the candidates examined before the deadline hit
        suggestions.sort(key=lambda s: (-s.score, s.partner_resource))
        return suggestions[:limit]

    @staticmethod
    def _signal_score(
        same_dataset: bool,
        combo: str,
        semantic: SemanticType,
        expansion: float,
        jaccard: float,
    ) -> float:
        score = jaccard  # value overlap is the base signal
        if same_dataset:
            score += 2.0
        if combo == "key-key":
            score += 1.5
        elif combo == "key-nonkey":
            score += 0.5
        if semantic is not SemanticType.INCREMENTAL_INTEGER:
            score += 1.0
        if expansion <= 1.2:
            score += 1.0
        return score

    # ------------------------------------------------------------------
    # union suggestions
    # ------------------------------------------------------------------
    def suggest_unions(
        self,
        portal_code: str,
        resource_id: str,
        limit: int = 10,
        meter: WorkMeter = UNMETERED,
    ) -> list[UnionSuggestion]:
        """Same-schema partners for one table, ranked by relatedness.

        The table's whole schema group is ranked without charging
        *meter*; each partner returned (at most *limit*) then charges
        it one ``serve.union.partner`` tick, and exhaustion returns the
        partners built before it.
        """
        portal = self._study.portal(portal_code)
        analysis = portal.unionability()
        table_index = next(
            (
                i
                for i, t in enumerate(analysis.tables)
                if t.resource_id == resource_id
            ),
            None,
        )
        if table_index is None:
            raise KeyError(resource_id)
        group = next(
            (
                g
                for g in analysis.unionable_groups()
                if table_index in g.table_indexes
            ),
            None,
        )
        if group is None:
            return []
        query = analysis.tables[table_index]
        ranked = rank_union_partners(analysis, group, table_index)
        suggestions: list[UnionSuggestion] = []
        try:
            for p in ranked[:limit]:
                meter.tick(1, op="serve.union.partner")
                suggestions.append(
                    UnionSuggestion(
                        portal_code=portal_code,
                        partner_resource=analysis.tables[
                            p.table_index
                        ].resource_id,
                        partner_table=analysis.tables[p.table_index].name,
                        relatedness=p.score,
                        same_dataset=(
                            analysis.tables[p.table_index].dataset_id
                            == query.dataset_id
                        ),
                    )
                )
        except BudgetExceeded:
            pass  # return the partners ranked before the deadline hit
        return suggestions

    # ------------------------------------------------------------------
    # bring-your-own-table search (the Auctus augmentation flow)
    # ------------------------------------------------------------------
    def find_joinable_for_column(
        self, table: Table, column_name: str, k: int = 10
    ) -> list[ExternalJoinHit]:
        """Joinable partners for a column of a user-supplied table.

        The query table does not have to live in any portal: its column
        is profiled on the fly and matched against every portal's
        indexed columns with the exact top-k overlap search.  Results
        from all portals are merged, largest overlap first.
        """
        query_column = table.column(column_name)
        query_values = frozenset(
            normalize_value(v) for v in query_column.distinct_values()
        )
        hits: list[ExternalJoinHit] = []
        for portal in self._study:
            searcher = self._searcher_for(portal)
            analysis = portal.joinability()
            for result in searcher.search(query_values, k=k):
                profile = analysis.profiles[result.column_id]
                ingested = analysis.tables[profile.table_index]
                hits.append(
                    ExternalJoinHit(
                        portal_code=portal.code,
                        resource_id=ingested.resource_id,
                        table_name=ingested.name,
                        column_name=profile.column_name,
                        overlap=result.overlap,
                        jaccard=result.jaccard,
                        is_key=profile.is_key,
                    )
                )
        hits.sort(key=lambda h: (-h.overlap, h.portal_code, h.resource_id))
        return hits[:k]

    def _searcher_for(self, portal: PortalStudy) -> TopKOverlapSearcher:
        searcher = self._searchers.get(portal.code)
        if searcher is None:
            searcher = TopKOverlapSearcher(portal.joinability().profiles)
            self._searchers[portal.code] = searcher
        return searcher

    def _table_index(
        self,
        portal_code: str,
        analysis: JoinabilityAnalysis,
        resource_id: str,
    ) -> int:
        """Resource id -> table index, memoized per portal."""
        lookup = self._resource_tables.get(portal_code)
        if lookup is None:
            lookup = {
                ingested.resource_id: index
                for index, ingested in enumerate(analysis.tables)
            }
            self._resource_tables[portal_code] = lookup
        if resource_id not in lookup:
            raise KeyError(resource_id)
        return lookup[resource_id]
