"""Benchmark fixtures: one shared full-scale study for the whole run."""

from __future__ import annotations

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.obs import Observer

#: Full benchmark scale: the calibrated corpus (~800 readable tables
#: across the four portals, ~1/100 of the real portals' table counts).
BENCH_SCALE = 1.0
BENCH_SEED = 7


@pytest.fixture(scope="session")
def study() -> Study:
    """The shared benchmark corpus (built once per session).

    A metrics-only observer (no trace file) rides along so the bench
    harness can attribute deterministic op counts to each experiment;
    its in-memory profiler (no artifact) lets the harness record each
    bench's hottest frame paths alongside the op deltas.
    """
    return Study.build(
        StudyConfig(scale=BENCH_SCALE, seed=BENCH_SEED),
        obs=Observer(profile=True),
    )
