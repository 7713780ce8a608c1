"""One join search state per portal (``lshindex.JoinSearchState``).

A portal's pair searches at every threshold share one state: the
profiles, every profile's token order and a memo of value counts.
Sharing must change no result, tick, event or truncation point,
whichever threshold asks first, and must count a column's values at
most once per portal.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.joinability import expansion
from repro.joinability.expansion import expansion_stats
from repro.joinability.labeling import LineageOracle
from repro.joinability.lshindex import JoinSearchState, analyze_joinability_lsh
from repro.joinability.pairs import analyze_joinability
from repro.joinability.sampling import stratified_sample
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.resilience.budget import BudgetExceeded, WorkMeter
from repro.resilience.executor import StageStatus
from repro.search.lake import DataLake
from tests.conftest import TEST_SCALE, TEST_SEED

THRESHOLDS = (0.9, 0.7)

#: The portal the budget tests cut: it has pairs at both thresholds and
#: no table whose screen alone would spend their budgets.
BUDGET_PORTAL = "UK"


def _study(**overrides) -> Study:
    """A fresh study of the conftest corpus (no analysis cached)."""
    return Study.build(
        StudyConfig(scale=TEST_SCALE, seed=TEST_SEED, **overrides)
    )


def _unit(portal, threshold):
    """``(status, ticks, detail)`` of the portal's ``pairs@t`` unit."""
    (outcome,) = [
        o for o in portal.executor.outcomes if o.stage == f"pairs@{threshold}"
    ]
    return outcome.status, outcome.ticks, outcome.detail


def _stateless(portal, threshold, budget=None):
    """The unit a search with a throwaway state makes, and its analysis."""
    meter = WorkMeter(budget)
    try:
        analysis = analyze_joinability_lsh(
            portal.code,
            portal.screened_tables(),
            threshold,
            portal.config.min_unique_values,
            meter,
        )
    except BudgetExceeded as exc:
        return (StageStatus.TRUNCATED, meter.spent, str(exc)), None
    status = StageStatus.TRUNCATED if analysis.truncated else StageStatus.OK
    return (status, meter.spent, ""), analysis


def _state(portal) -> JoinSearchState:
    return portal._cache["join-state"]


@pytest.fixture(scope="module")
def ordered_studies():
    """Two studies of the conftest corpus, keyed by the threshold every
    portal asked for first."""
    studies = {}
    for first in THRESHOLDS:
        study = _study()
        for portal in study:
            portal.joinability(first)
            for threshold in THRESHOLDS:
                portal.joinability(threshold)
        studies[first] = study
    return studies


class TestOrderIndependence:
    def test_analyses_and_units(self, ordered_studies):
        low_first, high_first = ordered_studies[0.7], ordered_studies[0.9]
        for code in low_first.codes:
            a, b = low_first.portal(code), high_first.portal(code)
            for threshold in THRESHOLDS:
                unit, fresh = _stateless(a, threshold)
                for analysis in (a.joinability(threshold), b.joinability(threshold)):
                    assert analysis.pairs == fresh.pairs
                    assert analysis.stats == fresh.stats
                    assert analysis.column_neighbors == fresh.column_neighbors
                    assert analysis.table_neighbors == fresh.table_neighbors
                assert _unit(a, threshold) == _unit(b, threshold) == unit

    def test_expansion_and_sample(self, ordered_studies):
        low_first, high_first = ordered_studies[0.7], ordered_studies[0.9]
        config = low_first.config
        for code in low_first.codes:
            a, b = low_first.portal(code), high_first.portal(code)
            oracle = LineageOracle.from_recorder(a.generated.lineage)
            for threshold in THRESHOLDS:
                _, fresh = _stateless(a, threshold)
                ratios = expansion_stats(fresh).ratios
                assert a.expansion_ratios(threshold) == ratios
                assert b.expansion_ratios(threshold) == ratios
                sample, _ = stratified_sample(
                    fresh,
                    oracle,
                    seed=config.seed,
                    per_subbucket=config.join_sample_per_subbucket,
                )
                assert a.labeled_join_sample(threshold) == sample
                assert b.labeled_join_sample(threshold) == sample

    def test_one_state_and_memo_per_portal(self, ordered_studies):
        memos = []
        for portal in ordered_studies[0.9]:
            high, low = portal.joinability(0.9), portal.joinability(0.7)
            assert high.profiles is low.profiles is _state(portal).profiles
            assert high.value_counts is low.value_counts
            memos.append(high.value_counts)
        assert len({id(memo) for memo in memos}) == len(memos)


class TestReplayedTicks:
    def test_reuse_charges_what_a_build_charges(self, study):
        """Same ticks, ``join.*`` events and profiler frames whether the
        state is built, reused at another threshold or reused again."""
        portal = study.portal("US")
        tables = portal.screened_tables()
        state = JoinSearchState()
        for threshold in (0.9, 0.7, 0.9):
            runs = []
            for shared in (None, state):
                metrics, profiler = MetricsRegistry(), Profiler()
                meter = WorkMeter(None, metrics=metrics, profiler=profiler)
                analysis = analyze_joinability_lsh(
                    portal.code, tables, threshold, meter=meter, state=shared
                )
                runs.append(
                    (
                        analysis.pairs,
                        meter.spent,
                        metrics.snapshot(),
                        profiler.snapshot(),
                    )
                )
            assert runs[0] == runs[1]
            assert runs[0][2]["ops.join.profile"]["value"] > 0

    def test_state_serves_only_its_tables_and_floor(self, study):
        us, ca = study.portal("US"), study.portal("CA")
        state = JoinSearchState()
        analyze_joinability_lsh("US", us.screened_tables(), state=state)
        with pytest.raises(ValueError):
            analyze_joinability_lsh("CA", ca.screened_tables(), state=state)
        with pytest.raises(ValueError):
            analyze_joinability_lsh(
                "US", us.screened_tables(), min_unique=11, state=state
            )


class TestBudgets:
    @staticmethod
    def _ops(portal, threshold) -> MetricsRegistry:
        metrics = MetricsRegistry()
        analyze_joinability_lsh(
            portal.code,
            portal.screened_tables(),
            threshold,
            portal.config.min_unique_values,
            WorkMeter(None, metrics=metrics),
        )
        return metrics

    def test_cut_while_building_keeps_no_state(self, study):
        reference = study.portal(BUDGET_PORTAL)
        budget = self._ops(reference, 0.9).value("ops.join.profile") // 2
        portal = _study(stage_budget=budget).portal(BUDGET_PORTAL)
        assert len(portal.screened_tables()) == len(reference.screened_tables())
        portal.joinability(0.9)
        assert _state(portal).tables is None
        portal.joinability(0.7)
        for threshold in THRESHOLDS:
            unit, _ = _stateless(portal, threshold, budget)
            assert unit[0] is StageStatus.TRUNCATED
            assert "'join.profile'" in unit[2]
            assert _unit(portal, threshold) == unit
        assert portal.joinability(0.7).pairs == []

    def test_cut_while_enumerating_keeps_the_state(self, study):
        reference = study.portal(BUDGET_PORTAL)
        ops = self._ops(reference, 0.9)
        budget = (
            ops.value("ops.join.profile")
            + ops.value("ops.join.prefix")
            + ops.value("ops.join.candidate") // 2
        )
        portal = _study(stage_budget=budget).portal(BUDGET_PORTAL)
        assert len(portal.screened_tables()) == len(reference.screened_tables())
        portal.joinability(0.9)
        assert _state(portal).tables is portal.screened_tables()
        portal.joinability(0.7)
        for threshold in THRESHOLDS:
            unit, _ = _stateless(portal, threshold, budget)
            assert _unit(portal, threshold) == unit
        assert "'join.candidate'" in _unit(portal, 0.9)[2]


class TestValueCountMemo:
    def test_each_column_counted_once_per_portal(self, monkeypatch):
        counted: Counter = Counter()
        count = expansion.column_value_counts

        def counting(tables, profile):
            counted[(id(tables), profile.column_id)] += 1
            return count(tables, profile)

        monkeypatch.setattr(expansion, "column_value_counts", counting)
        study = _study()
        lake = DataLake(study)
        for portal in study:
            for threshold in THRESHOLDS:
                portal.expansion_ratios(threshold)
                portal.labeled_join_sample(threshold)
            for ingested in portal.screened_tables():
                lake.suggest_joins(portal.code, ingested.resource_id)
        assert counted and max(counted.values()) == 1
        # The memo holds each portal's own counts: ratios equal those of
        # the all-pairs oracle, whose analysis has a memo of its own.
        for portal in study:
            for threshold in THRESHOLDS:
                exact = analyze_joinability(
                    portal.code,
                    portal.screened_tables(),
                    threshold,
                    portal.config.min_unique_values,
                )
                assert exact.value_counts is not _state(portal).value_counts
                ratios = expansion_stats(exact).ratios
                assert portal.expansion_ratios(threshold) == ratios

    def test_fresh_memo_gives_the_same_ratios(self, study):
        for portal in study:
            analysis = portal.joinability()
            cold = dataclasses.replace(analysis, value_counts={})
            assert expansion_stats(cold).ratios == expansion_stats(
                analysis
            ).ratios
