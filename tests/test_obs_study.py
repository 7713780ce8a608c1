"""End-to-end observability contract tests.

The three guarantees the PR makes:

1. **Determinism** — two equal-seed runs with ``--trace-out`` produce
   byte-identical trace files, and a traced run's study outputs are
   identical to an untraced run's.
2. **Structure** — spans strictly nest, and every ``(stage, table)``
   unit executed by the guarded executor has exactly one span whose
   terminal status matches its :class:`StageOutcome`.
3. **Reconciliation** — the trace statistics ``profile-report`` prints
   for a trace line up with the executor's tick ledger and outcome
   tallies.
"""

import json

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments.cli import main
from repro.experiments.registry import run_experiment
from repro.obs.profile import (
    load_any_profile,
    outcome_counts,
    profile_report_json,
)
from repro.obs.trace import load_trace
from repro.resilience.executor import StageStatus

EXPERIMENTS = ("table05", "table06", "table11")


def _guarded_config(tmp_path, tag, trace_out):
    return StudyConfig(
        scale=0.08,
        seed=2,
        stage_budget=20_000,
        poison_rate=0.05,
        quarantine_dir=str(tmp_path / f"quarantine-{tag}"),
        trace_out=trace_out,
    )


def _trace_report(path):
    """``profile-report --json`` on a trace, every frame listed."""
    doc, trace = load_any_profile(path)
    return profile_report_json(doc, top=len(doc["frames"]) + 1, trace=trace)


def _run_study(config):
    study = Study.build(config)
    texts = [run_experiment(e, study).text for e in EXPERIMENTS]
    outcomes = [
        outcome for portal in study for outcome in portal.executor.outcomes
    ]
    ticks = sum(p.executor.ticks_spent for p in study)
    counts = {}
    for portal in study:
        for status, n in portal.executor.status_counts().items():
            counts[status.value] = counts.get(status.value, 0) + n
    study.close()
    return texts, outcomes, ticks, counts


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("obs")
    trace_path = tmp_path / "trace.jsonl"
    results = _run_study(_guarded_config(tmp_path, "a", str(trace_path)))
    return trace_path, results


class TestDeterminism:
    def test_equal_seed_traces_are_byte_identical(
        self, traced_run, tmp_path
    ):
        trace_path, _ = traced_run
        second = tmp_path / "again.jsonl"
        _run_study(_guarded_config(tmp_path, "b", str(second)))
        assert trace_path.read_bytes() == second.read_bytes()

    def test_tracing_does_not_change_results(self, traced_run, tmp_path):
        _, (texts, _, ticks, counts) = traced_run
        untraced_texts, _, untraced_ticks, untraced_counts = _run_study(
            _guarded_config(tmp_path, "c", None)
        )
        assert texts == untraced_texts
        assert ticks == untraced_ticks
        assert counts == untraced_counts


class TestStructure:
    def test_spans_strictly_nest(self, traced_run):
        trace_path, _ = traced_run
        trace = load_trace(trace_path)
        assert trace.valid, trace.problems

    def test_one_unit_span_per_executor_outcome(self, traced_run):
        trace_path, (_, outcomes, _, _) = traced_run
        trace = load_trace(trace_path)
        span_units = sorted(
            (
                s["attrs"]["stage"],
                s["attrs"]["table"],
                s["status"],
                bool(s["attrs"].get("replayed", False)),
            )
            for s in trace.unit_spans
        )
        executor_units = sorted(
            (o.stage, o.table_id, o.status.value, o.replayed)
            for o in outcomes
        )
        assert span_units == executor_units

    def test_span_tree_shape(self, traced_run):
        trace_path, _ = traced_run
        trace = load_trace(trace_path)
        kinds = {s["kind"] for s in trace.spans}
        assert {"study", "portal", "stage", "unit"} <= kinds
        by_id = {s["id"]: s for s in trace.spans}
        for span in trace.unit_spans:
            parent = by_id[span["parent"]]
            assert parent["kind"] == "stage"


class TestReconciliation:
    def test_unit_ops_match_executor_ticks(self, traced_run):
        trace_path, (_, _, ticks, _) = traced_run
        trace = load_trace(trace_path)
        assert trace.unit_ops == ticks

    def test_outcome_counts_match_status_counts(self, traced_run):
        trace_path, (_, _, _, counts) = traced_run
        trace = load_trace(trace_path)
        measured = outcome_counts(trace)
        expected = {k: v for k, v in counts.items() if v}
        assert measured == expected

    def test_degradation_has_entries_under_pressure(self, traced_run):
        trace_path, (_, _, _, counts) = traced_run
        doc = _trace_report(trace_path)["trace"]
        degraded = counts.get(StageStatus.TRUNCATED.value, 0) + counts.get(
            StageStatus.QUARANTINED.value, 0
        ) + counts.get(StageStatus.FAILED.value, 0)
        assert degraded > 0  # the poisoned, budgeted run must degrade
        assert len(doc["degraded"]) >= degraded

    def test_portal_attribution_sums_to_total(self, traced_run):
        trace_path, _ = traced_run
        doc = _trace_report(trace_path)
        frames = {h["frame"]: h["ticks"] for h in doc["hotspots"]}
        assert doc["frame_count"] == len(frames)
        assert doc["trace"]["total_ops"] == doc["total_ticks"] == sum(
            frames.values()
        )
        # Each portal's inclusive ops are exactly its stages' frames.
        inclusive = {e["frame"]: e["ticks"] for e in doc["inclusive"]}
        portals = {path.split(";")[1] for path in frames}
        assert {"SG", "CA", "UK", "US"} <= portals
        for portal in portals:
            assert inclusive[portal] == sum(
                ticks
                for path, ticks in frames.items()
                if path.split(";")[1] == portal
            )


class TestStatsCli:
    """The trace statistics, as ``profile-report`` prints them."""

    def test_stats_text_report(self, traced_run, capsys):
        trace_path, _ = traced_run
        assert main(["profile-report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "work-budget attribution" in out
        assert "unit outcomes:" in out
        assert "Degradation ledger" in out

    def test_stats_json_document(self, traced_run, capsys):
        trace_path, (_, _, ticks, _) = traced_run
        assert main(
            ["profile-report", str(trace_path), "--json", "--top", "3"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)["trace"]
        assert doc["valid"] is True
        assert doc["unit_ops"] == ticks
        assert len(doc["top_tables"]) <= 3
        assert doc["header"]["seed"] == 2

    def test_run_with_trace_out_flag(self, tmp_path, capsys):
        trace = tmp_path / "cli.jsonl"
        code = main(
            [
                "run", "table05",
                "--scale", "0.08",
                "--seed", "2",
                "--stage-budget", "40000",
                "--quarantine-dir", str(tmp_path / "q"),
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 5" in captured.out
        assert "trace-written" in captured.err
        assert load_trace(trace).valid


class TestJournalReplay:
    def test_replayed_units_charge_zero_ops(self, tmp_path):
        checkpoint = tmp_path / "ckpt"
        config = StudyConfig(
            scale=0.08,
            seed=2,
            stage_budget=20_000,
            poison_rate=0.05,
            quarantine_dir=str(tmp_path / "q"),
            checkpoint_dir=str(checkpoint),
            trace_out=str(tmp_path / "first.jsonl"),
        )
        _run_study(config)
        second = StudyConfig(
            scale=0.08,
            seed=2,
            stage_budget=20_000,
            poison_rate=0.05,
            quarantine_dir=str(tmp_path / "q"),
            checkpoint_dir=str(checkpoint),
            trace_out=str(tmp_path / "second.jsonl"),
        )
        _, outcomes, ticks, _ = _run_study(second)
        # Per-table units replay from the study journal; portal-wide
        # stages (pairs, union) are recomputed by design.
        replayed_outcomes = [o for o in outcomes if o.replayed]
        assert replayed_outcomes
        assert all(
            o.stage in ("screen", "fd")
            for o in replayed_outcomes
        )
        trace = load_trace(tmp_path / "second.jsonl")
        assert trace.valid, trace.problems
        replayed = [
            s
            for s in trace.unit_spans
            if s["attrs"].get("replayed")
        ]
        assert len(replayed) == len(replayed_outcomes)
        assert all(s["ops"] == 0 for s in replayed)
        assert all(
            s["attrs"].get("recorded_ticks") is not None for s in replayed
        )
        # Reconciliation holds on a resumed run too: spans charge only
        # the recomputed work, exactly matching the executor's ledger.
        assert trace.unit_ops == ticks
