"""End-to-end invariants of the flame-attribution profiler.

These are the contracts the profiler ships under (DESIGN.md §15):

* attribution is total — the profile's tick count reconciles exactly
  with the guarded executors' ``ticks_spent`` and with the analysis
  stage spans of the trace;
* pooled equivalence — a chaos-ridden ``--workers 4`` run writes a
  byte-identical profile artifact to the serial run's;
* zero contamination — profiling never perturbs the run: a profiled
  run's trace differs from an unprofiled one only in the ``profile.*``
  summary counters, and ``diff_runs`` reports no drift.

One guarded corpus is built per variant (serial profiled, pooled
profiled, serial unprofiled) at a small scale so the whole module runs
in seconds, not minutes.
"""

from __future__ import annotations

import filecmp
import json
import pathlib

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.obs.diff import diff_runs, load_run
from repro.obs.profile import SEP, inclusive_frames, read_profile, trace_frames
from repro.obs.trace import load_trace

SCALE = 0.05
SEED = 7
STAGE_BUDGET = 200_000

#: Stage names of the guarded analysis units; their spans' self ops are
#: exactly the ticks the profiler attributes (ingest spans are metered
#: outside the analysis executors and stay out of the profile).
ANALYSIS_STAGES = ("screen", "union", "fd")


def _is_analysis_stage(stage: str) -> bool:
    return stage in ANALYSIS_STAGES or stage.startswith("pairs@")


def _drive(config: StudyConfig) -> int:
    """Build + fully analyze one study; total guarded ticks spent."""
    with Study.build(config) as study:
        for portal in study:
            portal.joinability()
            portal.joinability(0.7)
            portal.unionability()
            portal.normalization()
        return sum(portal.executor.ticks_spent for portal in study)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Serial-profiled, pooled-profiled, and unprofiled run artifacts."""
    root = tmp_path_factory.mktemp("profile-runs")

    serial = root / "serial"
    serial.mkdir()
    serial_ticks = _drive(
        StudyConfig(
            scale=SCALE,
            seed=SEED,
            stage_budget=STAGE_BUDGET,
            profile_out=str(serial / "profile.json"),
            trace_out=str(serial / "trace.jsonl"),
        )
    )

    pooled = root / "pooled"
    pooled.mkdir()
    pooled_ticks = _drive(
        StudyConfig(
            scale=SCALE,
            seed=SEED,
            stage_budget=STAGE_BUDGET,
            workers=4,
            chaos_kill_rate=0.2,
            shard_dir=str(pooled / "shards"),
            profile_out=str(pooled / "profile.json"),
        )
    )

    plain = root / "plain"
    plain.mkdir()
    _drive(
        StudyConfig(
            scale=SCALE,
            seed=SEED,
            stage_budget=STAGE_BUDGET,
            trace_out=str(plain / "trace.jsonl"),
        )
    )

    return {
        "serial": serial,
        "serial_ticks": serial_ticks,
        "pooled": pooled,
        "pooled_ticks": pooled_ticks,
        "plain": plain,
    }


class TestReconciliation:
    def test_profile_total_equals_executor_ticks(self, runs):
        doc = read_profile(runs["serial"] / "profile.json")
        assert doc["total_ticks"] == runs["serial_ticks"]
        assert doc["total_ticks"] == sum(doc["frames"].values())
        assert doc["total_ticks"] > 0

    def test_profile_total_equals_analysis_span_ops(self, runs):
        doc = read_profile(runs["serial"] / "profile.json")
        span_ops = sum(
            int(span.get("self_ops", 0))
            for span in load_trace(runs["serial"] / "trace.jsonl").spans
            if _is_analysis_stage(str(span.get("name", "")))
        )
        assert doc["total_ticks"] == span_ops

    def test_trace_fold_equals_profile_base_frames(self, runs):
        # The fold charges each span to study;<portal>;<stage>, the
        # frames the profiler pushes around every unit: per analysis
        # stage, the two views must agree to the tick.
        doc = read_profile(runs["serial"] / "profile.json")
        under_base: dict[str, int] = {}
        for path, ticks in doc["frames"].items():
            base = SEP.join(path.split(SEP)[:3])
            under_base[base] = under_base.get(base, 0) + ticks
        folded = trace_frames(load_trace(runs["serial"] / "trace.jsonl"))
        analysis = {
            path: ops
            for path, ops in folded.items()
            if _is_analysis_stage(path.split(SEP)[2])
        }
        stages = {path.split(SEP)[2] for path in analysis}
        assert {"screen", "fd", "pairs@0.9", "pairs@0.7", "union"} <= stages
        assert analysis == under_base

    def test_every_frame_path_is_rooted_at_study(self, runs):
        doc = read_profile(runs["serial"] / "profile.json")
        assert all(
            path.startswith("study;") for path in doc["frames"]
        )

    def test_dataframe_engine_holds_material_share(self, runs):
        # The acceptance bar: the report must name a dataframe-engine
        # frame holding a double-digit share of the study's ops.
        doc = read_profile(runs["serial"] / "profile.json")
        inclusive = inclusive_frames(doc["frames"])
        assert inclusive["dataframe"] / doc["total_ticks"] >= 0.10


class TestPooledEquivalence:
    def test_chaos_pooled_profile_is_byte_identical_to_serial(self, runs):
        assert filecmp.cmp(
            runs["serial"] / "profile.json",
            runs["pooled"] / "profile.json",
            shallow=False,
        )

    def test_pooled_ticks_match_serial(self, runs):
        assert runs["pooled_ticks"] == runs["serial_ticks"]


class TestZeroContamination:
    def test_profiled_trace_adds_only_profile_counters(self, runs):
        profiled = (runs["serial"] / "trace.jsonl").read_text(
            encoding="utf-8"
        )
        plain = (runs["plain"] / "trace.jsonl").read_text(encoding="utf-8")
        stripped = "".join(
            line
            for line in profiled.splitlines(keepends=True)
            if '"name": "profile.' not in line
        )
        assert stripped == plain

    def test_profiled_run_diffs_empty_against_unprofiled(self, runs):
        report = diff_runs(
            load_run(str(runs["serial"] / "trace.jsonl")),
            load_run(str(runs["plain"] / "trace.jsonl")),
        )
        assert not report.has_drift

    def test_profile_counters_present_only_when_profiled(self, runs):
        def metric_names(path: pathlib.Path) -> set:
            return set(load_trace(path).metrics)

        profiled = metric_names(runs["serial"] / "trace.jsonl")
        plain = metric_names(runs["plain"] / "trace.jsonl")
        assert {"profile.ticks", "profile.frames"} <= profiled
        assert not any(name.startswith("profile.") for name in plain)

    def test_artifact_meta_never_records_workers(self, runs):
        # Pooled and serial artifacts must compare with `cmp`, so the
        # meta block cannot mention the worker count.
        doc = json.loads(
            (runs["serial"] / "profile.json").read_text(encoding="utf-8")
        )
        assert "workers" not in doc.get("meta", {})
