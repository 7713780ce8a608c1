"""Shared machinery for the per-table/figure benchmark suite.

Every bench regenerates one paper artifact against the shared
full-scale study and writes the reproduced table/figure text to
``benchmarks/output/<id>.txt`` so that a bench run leaves the complete
reproduction on disk next to the timing numbers.  Each run also appends
one machine-readable record — wall-clock timing plus the deterministic
op-count deltas from the study's metrics registry — to
``BENCH_<id>.json`` at the repository root, which ``bench-report``
prints.  The history gates nothing: a bench's op deltas depend on which
bench first paid for a cached stage, so the op counts that matter are
pinned exactly by tier-1 tests on meters of their own (DESIGN.md §9).
"""

from __future__ import annotations

import pathlib
import time

from repro.core.results import ExperimentResult
from repro.core.study import Study
from repro.experiments.registry import run_experiment
from repro.obs import baseline
from repro.obs import profile as obsprofile
from repro.obs.metrics import Histogram

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _counter_values(study: Study) -> dict[str, float]:
    """Scalar metric values of the study's observer (empty if none)."""
    obs = getattr(study, "obs", None)
    if obs is None:
        return {}
    return {
        name: snap["value"]
        for name, snap in obs.metrics.snapshot().items()
        if not isinstance(obs.metrics.get(name), Histogram)
    }


#: Per-frame hotspot entries recorded with each bench (see DESIGN.md
#: §15); enough to name the dominant engine frames without bloating
#: the history file.
HOTSPOT_TOP = 10


def _profile_frames(study: Study) -> dict[str, int]:
    """The observer profiler's frame snapshot (empty if unprofiled)."""
    obs = getattr(study, "obs", None)
    profiler = getattr(obs, "profiler", None)
    if profiler is None:
        return {}
    return profiler.snapshot()


def _benchmark_seconds(benchmark, fallback: float) -> float:
    """The plugin's measured mean, or our own stopwatch reading."""
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        inner = getattr(stats, "stats", stats)
        mean = getattr(inner, "mean", None)
        if isinstance(mean, (int, float)):
            return float(mean)
    return fallback


def _append_bench_record(
    experiment_id: str, record: dict, *, root: pathlib.Path | None = None
) -> pathlib.Path:
    """Append *record* to ``BENCH_<id>.json`` (the shared writer)."""
    return baseline.append_record(
        experiment_id, record, root=root or REPO_ROOT
    )


def run_and_record(
    benchmark, study: Study, experiment_id: str
) -> ExperimentResult:
    """Benchmark one experiment and persist its reproduction text.

    Op-count deltas are honest about the study cache: the first bench
    to touch a stage pays (and records) its ops, later benches sharing
    the cached result record zero.
    """
    before = _counter_values(study)
    frames_before = _profile_frames(study)
    started = time.perf_counter()
    result = benchmark.pedantic(
        run_experiment, args=(experiment_id, study), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - started
    after = _counter_values(study)
    frames_after = _profile_frames(study)
    ops = {
        name: after[name] - before.get(name, 0)
        for name in sorted(after)
        if after[name] != before.get(name, 0)
    }
    frame_deltas = {
        path: frames_after[path] - frames_before.get(path, 0)
        for path in frames_after
        if frames_after[path] != frames_before.get(path, 0)
    }
    hotspot_list = obsprofile.hotspots(frame_deltas, top=HOTSPOT_TOP)
    _append_bench_record(
        experiment_id,
        {
            "experiment": experiment_id,
            "scale": study.config.scale,
            "seed": study.config.seed,
            "workers": study.config.workers,
            "seconds": _benchmark_seconds(benchmark, elapsed),
            "ops": ops,
            "total_ops": sum(
                v for k, v in ops.items() if k.startswith("ops.")
            ),
            "join_candidates": ops.get("join.candidate_pairs", 0),
            "join_verify_ops": ops.get("ops.join.jaccard", 0),
            "hotspots": [
                [path, ticks] for path, ticks in hotspot_list
            ],
        },
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{experiment_id}.txt"
    path.write_text(result.text + "\n", encoding="utf-8")
    print()
    print(result.text)
    return result
