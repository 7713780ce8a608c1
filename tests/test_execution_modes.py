"""One analysis path: an execution switch never changes the paper's numbers.

A default run, a run with a quarantine directory, and a pooled run all
walk the same per-table unit plan through the analysis executor, so
every experiment must print byte-identical text in all three modes.
"""

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments.registry import experiment_ids, run_experiment

SCALE = 0.03
SEED = 2


def _texts(config: StudyConfig) -> dict[str, str]:
    with Study.build(config) as study:
        return {
            experiment_id: run_experiment(experiment_id, study).text
            for experiment_id in experiment_ids()
        }


def _differing(left: dict[str, str], right: dict[str, str]) -> list[str]:
    return [key for key in left if left[key] != right.get(key)]


def test_default_guarded_and_pooled_runs_print_identical_text(tmp_path):
    default = _texts(StudyConfig(scale=SCALE, seed=SEED))
    guarded = _texts(
        StudyConfig(
            scale=SCALE, seed=SEED, quarantine_dir=str(tmp_path / "q")
        )
    )
    pooled = _texts(StudyConfig(scale=SCALE, seed=SEED, workers=2))
    assert len(default) == 20
    assert _differing(default, guarded) == []
    assert _differing(default, pooled) == []
