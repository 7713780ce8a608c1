"""End-to-end fault-injection studies: poison corpora, quarantine,
and journal-based resume of the analysis stages."""

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments.registry import run_experiment
from repro.report.render import render_degradation_appendix
from repro.resilience import StageStatus

SCALE = 0.05
SEED = 7


def build(tmp_path, **overrides):
    config = StudyConfig(scale=SCALE, seed=SEED, **overrides)
    return Study.build(config)


@pytest.fixture(scope="module")
def poison_study(tmp_path_factory):
    """One guarded poison study shared by the e2e assertions below."""
    tmp_path = tmp_path_factory.mktemp("poison")
    study = Study.build(
        StudyConfig(
            scale=SCALE,
            seed=SEED,
            poison_rate=0.25,
            stage_budget=40_000,
            quarantine_dir=str(tmp_path / "quarantine"),
        )
    )
    yield study, tmp_path
    study.close()


class TestPoisonEndToEnd:
    def test_experiments_complete(self, poison_study):
        study, _ = poison_study
        for experiment_id in ("table05", "table06", "table11"):
            result = run_experiment(experiment_id, study)
            assert result.text.strip()

    def test_quarantined_tables_reported(self, poison_study):
        study, tmp_path = poison_study
        # Force the analyses that exercise the guard.
        run_experiment("table05", study)
        quarantined = [
            outcome
            for portal in study
            for outcome in portal.executor.outcomes
            if outcome.status is StageStatus.QUARANTINED
        ]
        assert quarantined, "poison corpus produced no quarantined tables"
        # Quarantine records landed on disk, named portal-table.
        files = sorted((tmp_path / "quarantine").glob("*.json"))
        assert files
        appendix = render_degradation_appendix(study)
        assert appendix is not None
        assert "quarantined" in appendix

    def test_poison_tables_excluded_downstream(self, poison_study):
        study, _ = poison_study
        for portal in study:
            quarantined = portal.executor.quarantined
            kept = {t.resource_id for t in portal.screened_tables()}
            assert not (quarantined & kept)


class TestResume:
    def config(self, tmp_path, resume=True):
        return StudyConfig(
            scale=SCALE,
            seed=SEED,
            poison_rate=0.25,
            stage_budget=40_000,
            checkpoint_dir=str(tmp_path),
            resume=resume,
        )

    def run_once(self, tmp_path, resume=True):
        study = Study.build(self.config(tmp_path, resume=resume))
        try:
            text = run_experiment("table05", study).text
            replayed = sum(
                1
                for portal in study
                for o in portal.executor.outcomes
                if o.replayed
            )
            return text, replayed
        finally:
            study.close()

    def test_kill_then_rerun_is_byte_identical(self, tmp_path):
        first, replayed_first = self.run_once(tmp_path)
        assert replayed_first == 0

        # Simulate a mid-write kill: chop the last journal line in two,
        # losing one completed unit and leaving a torn trailing line.
        journal = sorted(tmp_path.glob("study-*.jsonl"))[0]
        text = journal.read_text(encoding="utf-8")
        journal.write_text(text[: len(text) - 40], encoding="utf-8")

        second, replayed_second = self.run_once(tmp_path)
        assert second == first
        assert replayed_second > 0

    def test_no_resume_discards_study_journals(self, tmp_path):
        first, _ = self.run_once(tmp_path)
        fresh, replayed = self.run_once(tmp_path, resume=False)
        assert replayed == 0
        assert fresh == first


class TestGuardedWithoutBudget:
    def test_quarantine_dir_alone_runs_clean(self, tmp_path):
        """Crash containment without a budget: every stage is OK and the
        report needs no appendix."""
        study = build(tmp_path, quarantine_dir=str(tmp_path / "q"))
        try:
            run_experiment("table05", study)
            run_experiment("table06", study)
            for portal in study:
                counts = portal.executor.status_counts()
                assert counts[StageStatus.OK] == sum(counts.values())
            assert render_degradation_appendix(study) is None
        finally:
            study.close()

    def test_default_study_has_unbudgeted_executor(self, tmp_path):
        """No guard flag needed: every portal runs its units through an
        executor with no budget, whose quarantines stay in memory."""
        study = build(tmp_path)
        try:
            run_experiment("table05", study)
            for portal in study:
                assert portal.executor.stage_budget is None
                assert portal.executor.quarantine_dir is None
                assert portal.executor.journal is None
                counts = portal.executor.status_counts()
                assert counts[StageStatus.OK] == sum(counts.values()) > 0
            assert render_degradation_appendix(study) is None
        finally:
            study.close()
