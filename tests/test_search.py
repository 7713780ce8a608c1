"""Tests for the dataset-search facade (repro.search)."""

import pytest

from repro.resilience import WorkMeter
from repro.search import DataLake, TextIndex, tokenize


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("COVID-19 Daily Cases") == ["covid", "19", "daily",
                                                    "cases"]

    def test_stopwords_removed(self):
        assert tokenize("statistics of the fisheries") == ["fisheries"]

    def test_empty(self):
        assert tokenize("") == []


class TestTextIndex:
    def build(self):
        index = TextIndex()
        index.add("d1", "commercial fisheries landings by species")
        index.add("d2", "income tax filings by bracket")
        index.add("d3", "fisheries vessel registrations")
        return index

    def test_basic_search(self):
        hits = self.build().search("fisheries")
        assert {h.doc_id for h in hits} == {"d1", "d3"}

    def test_multi_term_coverage_preferred(self):
        hits = self.build().search("fisheries landings")
        assert hits[0].doc_id == "d1"
        assert set(hits[0].matched_terms) == {"fisheries", "landings"}

    def test_no_match(self):
        assert self.build().search("volcanoes") == []

    def test_limit(self):
        assert len(self.build().search("by", limit=1)) <= 1

    def test_duplicate_doc_rejected(self):
        index = TextIndex()
        index.add("d1", "x")
        with pytest.raises(ValueError):
            index.add("d1", "y")

    def test_len(self):
        assert len(self.build()) == 3


class TestTextIndexEdgeCases:
    def build(self):
        index = TextIndex()
        index.add("d1", "commercial fisheries landings by species")
        index.add("d2", "income tax filings by bracket")
        index.add("d3", "fisheries vessel registrations")
        return index

    def test_empty_query(self):
        assert self.build().search("") == []

    def test_stopword_only_query(self):
        assert self.build().search("of the and by") == []

    def test_punctuation_only_query(self):
        assert self.build().search("?!... --- ///") == []

    def test_query_against_empty_index(self):
        assert TextIndex().search("fisheries") == []

    def test_limit_zero_and_negative(self):
        index = self.build()
        assert index.search("fisheries", limit=0) == []
        assert index.search("fisheries", limit=-3) == []

    def test_tie_break_is_deterministic_by_doc_id(self):
        index = TextIndex()
        # Identical documents added in non-sorted order tie exactly.
        index.add("z9", "glacier melt observations")
        index.add("a1", "glacier melt observations")
        index.add("m5", "glacier melt observations")
        hits = index.search("glacier melt")
        assert [h.doc_id for h in hits] == ["a1", "m5", "z9"]
        assert len({h.score for h in hits}) == 1

    def test_meter_truncates_to_ranked_partial(self):
        # "fisheries" has two postings (d1, d3); a one-tick budget
        # exhausts on the second and ranks what was scored so far.
        index = self.build()
        full = index.search("fisheries")
        meter = WorkMeter(1)
        partial = index.search("fisheries", meter=meter)
        assert meter.exhausted
        assert len(partial) < len(full)
        # What was scored before exhaustion is still rank-ordered.
        scores = [h.score for h in partial]
        assert scores == sorted(scores, reverse=True)

    def test_unlimited_meter_matches_unmetered(self):
        index = self.build()
        meter = WorkMeter(None)
        assert index.search("fisheries by", meter=meter) == index.search(
            "fisheries by"
        )
        assert meter.spent > 0


class TestDataLake:
    @pytest.fixture(scope="class")
    def lake(self, study):
        return DataLake(study)

    def test_search_finds_topical_datasets(self, lake):
        hits = lake.search("fisheries landings", limit=8)
        assert hits
        assert any("Fisheries" in h.title for h in hits)

    def test_search_covers_multiple_portals(self, lake):
        # Every portal publishes from the same blueprint pool, so a
        # common topic should surface hits from several portals.
        hits = lake.search("waste collection", limit=40)
        assert len({h.portal_code for h in hits}) >= 2

    def test_suggest_joins_ranked(self, lake, study):
        portal = study.portal("US")
        analysis = portal.joinability()
        # Pick a table that definitely has joinable partners.
        table_index = next(iter(analysis.table_neighbors))
        resource = analysis.tables[table_index].resource_id
        suggestions = lake.suggest_joins("US", resource, limit=5)
        assert suggestions
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)
        for suggestion in suggestions:
            assert 0.0 < suggestion.jaccard <= 1.0
            assert suggestion.partner_resource != resource

    def test_pairs_for_table_are_its_pairs_in_analysis_order(
        self, lake, study
    ):
        """The memoized per-table list is exactly the pairs touching
        the table, in ``analysis.pairs`` order: the ranking contract."""
        touched = 0
        for portal in study:
            analysis = portal.joinability()
            for table_index in range(len(analysis.tables)):
                expected = [
                    pair
                    for pair in analysis.pairs
                    if table_index
                    in (
                        analysis.profiles[pair.left].table_index,
                        analysis.profiles[pair.right].table_index,
                    )
                ]
                assert (
                    lake._pairs_for_table(portal.code, analysis, table_index)
                    == expected
                )
                touched += bool(expected)
        assert touched

    def test_suggest_joins_unknown_resource(self, lake):
        with pytest.raises(KeyError):
            lake.suggest_joins("US", "nope")

    def test_suggest_unions(self, lake, study):
        portal = study.portal("UK")
        analysis = portal.unionability()
        group = max(analysis.unionable_groups(), key=lambda g: g.size)
        resource = analysis.tables[group.table_indexes[0]].resource_id
        suggestions = lake.suggest_unions("UK", resource, limit=5)
        assert suggestions
        assert len(suggestions) <= min(5, group.size - 1)
        relatedness = [s.relatedness for s in suggestions]
        assert relatedness == sorted(relatedness, reverse=True)

    def test_suggest_unions_solo_table(self, lake, study):
        portal = study.portal("UK")
        analysis = portal.unionability()
        solo = next(
            (g for g in analysis.groups if g.size == 1), None
        )
        if solo is not None:
            resource = analysis.tables[solo.table_indexes[0]].resource_id
            assert lake.suggest_unions("UK", resource) == []


class TestDegradedStudyIndexing:
    """A degraded study (quarantined/failed tables) must still index."""

    @pytest.fixture(scope="class")
    def poison_lake(self, tmp_path_factory):
        from repro.core.config import StudyConfig
        from repro.core.study import Study
        from repro.obs.metrics import MetricsRegistry

        study = Study.build(
            StudyConfig(
                scale=0.05,
                seed=7,
                poison_rate=0.25,
                stage_budget=40_000,
                quarantine_dir=str(
                    tmp_path_factory.mktemp("lake-poison") / "q"
                ),
            )
        )
        metrics = MetricsRegistry()
        lake = DataLake(study, metrics=metrics)
        yield lake, study, metrics
        study.close()

    def test_construction_skips_instead_of_raising(self, poison_lake):
        lake, study, metrics = poison_lake
        quarantined = {
            resource_id
            for portal in study
            for resource_id in portal.executor.quarantined
        }
        assert quarantined, "poison corpus produced no quarantined tables"
        assert metrics.value("lake.index.skipped") >= len(quarantined)

    def test_search_still_answers(self, poison_lake):
        lake, study, _ = poison_lake
        # Query with a term drawn from a real dataset title so the
        # assertion holds at any corpus scale.
        portal = next(iter(study))
        terms = [
            term
            for dataset in portal.generated.portal.datasets
            for term in tokenize(dataset.title)
        ]
        assert terms
        assert lake.search(terms[0], limit=5)

    def test_skips_are_logged_not_raised(self, tmp_path_factory, capsys):
        from repro.core.config import StudyConfig
        from repro.core.study import Study

        study = Study.build(
            StudyConfig(
                scale=0.05,
                seed=7,
                poison_rate=0.25,
                stage_budget=40_000,
                quarantine_dir=str(
                    tmp_path_factory.mktemp("lake-poison-log") / "q"
                ),
            )
        )
        try:
            DataLake(study)
        finally:
            study.close()
        err = capsys.readouterr().err
        assert "lake-index-skip" in err


class TestBringYourOwnTable:
    @pytest.fixture(scope="class")
    def lake(self, study):
        return DataLake(study)

    def test_external_column_finds_partners(self, lake, study):
        from repro.dataframe import Column, Table
        from repro.generator.vocab import CA_PROVINCES

        external = Table(
            "my_upload", [Column("region", list(CA_PROVINCES))]
        )
        hits = lake.find_joinable_for_column(external, "region", k=8)
        assert hits
        assert hits[0].overlap > 5
        # Provinces live in the CA portal's shared geo domain.
        assert any(h.portal_code == "CA" for h in hits)
        overlaps = [h.overlap for h in hits]
        assert overlaps == sorted(overlaps, reverse=True)

    def test_unmatchable_column_returns_nothing(self, lake):
        from repro.dataframe import Column, Table

        external = Table(
            "odd", [Column("x", [f"zzz-{i}" for i in range(30)])]
        )
        assert lake.find_joinable_for_column(external, "x", k=5) == []

    def test_unknown_column_raises(self, lake):
        from repro.dataframe import Column, Table

        external = Table("t", [Column("a", [1])])
        with pytest.raises(Exception):
            lake.find_joinable_for_column(external, "missing")
