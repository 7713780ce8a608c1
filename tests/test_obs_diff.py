"""Tests for run-to-run drift detection (repro.obs.diff)."""

import copy
import json

import pytest

from repro.experiments.cli import main
from repro.obs.diff import (
    RunArtifacts,
    RunLoadError,
    diff_runs,
    load_run,
    render_diff,
)
from repro.obs.profile import Profiler, write_profile
from repro.obs.trace import TraceData


def make_trace(spans, metrics=None, header=None):
    return TraceData(
        path="synthetic",
        header={"type": "header", **(header or {})},
        spans=spans,
        metrics=metrics or {},
        footer=None,
        problems=[],
    )


def unit(portal, stage, table, *, ops=10, status="ok", span_id=1):
    return {
        "type": "span",
        "id": span_id,
        "parent": None,
        "open": span_id * 2 - 1,
        "close": span_id * 2,
        "name": stage,
        "kind": "unit",
        "status": status,
        "self_ops": ops,
        "attrs": {"portal": portal, "stage": stage, "table": table},
    }


def run(trace, fidelity=None, label="run"):
    return RunArtifacts(label=label, trace=trace, fidelity=fidelity)


def write_trace(path, ops=10):
    records = [
        {"type": "header", "seed": 2},
        unit("SG", "fd", "t1", ops=ops),
        {"type": "footer", "spans": 1},
    ]
    path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    )


def write_profile_file(path, frames):
    profiler = Profiler()
    profiler.absorb(frames)
    write_profile(path, profiler)


BASE_SPANS = [
    unit("SG", "fd", "t1", ops=100, span_id=1),
    unit("SG", "screen", "t1", ops=20, span_id=2),
    unit("CA", "fd", "t2", ops=50, status="truncated", span_id=3),
]
BASE_METRICS = {
    "ops.fd": {"kind": "counter", "value": 150},
    "rows": {"kind": "histogram", "counts": [1, 2], "sum": 30},
}


class TestEqualRuns:
    def test_identical_traces_diff_empty(self):
        a = run(make_trace(BASE_SPANS, BASE_METRICS))
        b = run(make_trace(copy.deepcopy(BASE_SPANS), dict(BASE_METRICS)))
        report = diff_runs(a, b)
        assert not report.has_drift
        assert report.drift_count == 0
        assert "no drift" in render_diff(report.as_json())

    def test_wall_ms_is_ignored(self):
        spans = copy.deepcopy(BASE_SPANS)
        for span in spans:
            span["wall_ms"] = 123.4
        report = diff_runs(
            run(make_trace(BASE_SPANS, BASE_METRICS)),
            run(make_trace(spans, dict(BASE_METRICS))),
        )
        assert not report.has_drift

    def test_header_changes_are_informational_not_drift(self):
        report = diff_runs(
            run(make_trace(BASE_SPANS, header={"seed": 2})),
            run(make_trace(copy.deepcopy(BASE_SPANS), header={"seed": 3})),
        )
        assert not report.has_drift
        assert report.header_changes == [{"key": "seed", "a": 2, "b": 3}]


class TestDrift:
    def test_op_delta_per_portal_stage(self):
        changed = copy.deepcopy(BASE_SPANS)
        changed[0]["self_ops"] = 300
        report = diff_runs(
            run(make_trace(BASE_SPANS)), run(make_trace(changed))
        )
        assert report.op_deltas == [
            {"frame": "study;SG;fd", "a": 100, "b": 300, "delta": 200}
        ]

    def test_outcome_transition_named(self):
        changed = copy.deepcopy(BASE_SPANS)
        changed[2]["status"] = "quarantined"
        report = diff_runs(
            run(make_trace(BASE_SPANS)), run(make_trace(changed))
        )
        assert {
            "portal": "CA",
            "stage": "fd",
            "table": "t2",
            "from": "truncated",
            "to": "quarantined",
        } in report.outcome_transitions
        assert {"portal": "CA", "table": "t2"} in report.quarantine_added

    def test_disappearing_unit_is_absent(self):
        report = diff_runs(
            run(make_trace(BASE_SPANS)),
            run(make_trace(copy.deepcopy(BASE_SPANS[:2]))),
        )
        transitions = {
            (t["portal"], t["table"]): (t["from"], t["to"])
            for t in report.outcome_transitions
        }
        assert transitions[("CA", "t2")] == ("truncated", "absent")

    def test_metric_value_drift(self):
        metrics_b = {
            "ops.fd": {"kind": "counter", "value": 175},
            "rows": {"kind": "histogram", "counts": [1, 2], "sum": 30},
        }
        report = diff_runs(
            run(make_trace(BASE_SPANS, BASE_METRICS)),
            run(make_trace(copy.deepcopy(BASE_SPANS), metrics_b)),
        )
        assert [d["metric"] for d in report.metric_drift] == ["ops.fd"]

    def test_histogram_bucket_drift(self):
        metrics_b = {
            "ops.fd": {"kind": "counter", "value": 150},
            "rows": {"kind": "histogram", "counts": [2, 1], "sum": 30},
        }
        report = diff_runs(
            run(make_trace(BASE_SPANS, BASE_METRICS)),
            run(make_trace(copy.deepcopy(BASE_SPANS), metrics_b)),
        )
        assert [d["metric"] for d in report.metric_drift] == ["rows"]

    def test_missing_metric_is_drift(self):
        report = diff_runs(
            run(make_trace(BASE_SPANS, BASE_METRICS)),
            run(make_trace(copy.deepcopy(BASE_SPANS), {})),
        )
        assert {d["metric"] for d in report.metric_drift} == {
            "ops.fd",
            "rows",
        }

    def test_fidelity_verdict_change(self):
        fid_a = {
            "experiments": [
                {
                    "experiment": "table01",
                    "verdict": "PASS",
                    "checks": [
                        {"metric": "m", "kind": "rank", "verdict": "PASS"}
                    ],
                }
            ]
        }
        fid_b = copy.deepcopy(fid_a)
        fid_b["experiments"][0]["verdict"] = "NEAR"
        fid_b["experiments"][0]["checks"][0]["verdict"] = "NEAR"
        report = diff_runs(
            run(make_trace(BASE_SPANS), fidelity=fid_a),
            run(make_trace(copy.deepcopy(BASE_SPANS)), fidelity=fid_b),
        )
        assert {
            "experiment": "table01",
            "metric": None,
            "from": "PASS",
            "to": "NEAR",
        } in report.fidelity_changes
        assert {
            "experiment": "table01",
            "metric": "m/rank",
            "from": "PASS",
            "to": "NEAR",
        } in report.fidelity_changes

    def test_missing_fidelity_file_is_not_drift(self):
        report = diff_runs(
            run(make_trace(BASE_SPANS), fidelity={"experiments": []}),
            run(make_trace(copy.deepcopy(BASE_SPANS)), fidelity=None),
        )
        assert report.fidelity_changes == []

    def test_render_names_transitions(self):
        changed = copy.deepcopy(BASE_SPANS)
        changed[2]["status"] = "quarantined"
        report = diff_runs(
            run(make_trace(BASE_SPANS)), run(make_trace(changed))
        )
        text = render_diff(report.as_json())
        assert "CA/fd/t2: truncated -> quarantined" in text
        assert "total drift entries" in text

    def test_json_report_is_deterministic(self):
        changed = copy.deepcopy(BASE_SPANS)
        changed[0]["self_ops"] = 300
        docs = [
            json.dumps(
                diff_runs(
                    run(make_trace(copy.deepcopy(BASE_SPANS))),
                    run(make_trace(copy.deepcopy(changed))),
                ).as_json(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert docs[0] == docs[1]


class TestLoadRun:
    def test_loads_bare_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path)
        artifacts = load_run(path)
        assert artifacts.fidelity is None
        assert len(artifacts.trace.spans) == 1

    def test_loads_run_directory_with_fidelity(self, tmp_path):
        write_trace(tmp_path / "trace.jsonl")
        (tmp_path / "fidelity.json").write_text('{"experiments": []}')
        artifacts = load_run(tmp_path)
        assert artifacts.fidelity == {"experiments": []}

    def test_missing_run_raises(self, tmp_path):
        with pytest.raises(RunLoadError):
            load_run(tmp_path / "nope")

    def test_directory_without_trace_raises(self, tmp_path):
        with pytest.raises(RunLoadError):
            load_run(tmp_path)

    def test_corrupt_fidelity_raises(self, tmp_path):
        write_trace(tmp_path / "trace.jsonl")
        (tmp_path / "fidelity.json").write_text("{broken")
        with pytest.raises(RunLoadError):
            load_run(tmp_path)

    def test_fidelity_that_is_not_an_object_raises(self, tmp_path):
        write_trace(tmp_path / "trace.jsonl")
        (tmp_path / "fidelity.json").write_text("[1]")
        with pytest.raises(RunLoadError, match="not a JSON object"):
            load_run(tmp_path)


def make_profile(frames, **meta):
    return {"version": 1, "frames": frames, "meta": meta}


BASE_FRAMES = {
    "study;SG;fd;fun;fd.refine": 10_000,
    "study;SG;screen;screen.cell": 250,
}


class TestProfileDiff:
    def test_equal_profiles_diff_empty(self):
        report = diff_runs(
            RunArtifacts("a", profile=make_profile(BASE_FRAMES)),
            RunArtifacts("b", profile=make_profile(dict(BASE_FRAMES))),
        )
        assert report.compared == ["profile"]
        assert not report.has_drift
        assert "no drift" in render_diff(report.as_json())

    def test_one_tick_new_and_vanished_frames_are_named(self):
        frames_b = dict(BASE_FRAMES)
        frames_b["study;SG;fd;fun;fd.refine"] += 1
        del frames_b["study;SG;screen;screen.cell"]
        frames_b["study;SG;fd;fun;fd.strip"] = 7
        report = diff_runs(
            RunArtifacts("a", profile=make_profile(BASE_FRAMES)),
            RunArtifacts("b", profile=make_profile(frames_b)),
        )
        assert report.frame_deltas == [
            {
                "frame": "study;SG;fd;fun;fd.refine",
                "a": 10_000,
                "b": 10_001,
                "delta": 1,
            },
            {"frame": "study;SG;fd;fun;fd.strip", "a": 0, "b": 7, "delta": 7},
            {
                "frame": "study;SG;screen;screen.cell",
                "a": 250,
                "b": 0,
                "delta": -250,
            },
        ]
        assert report.drift_count == 3
        text = render_diff(report.as_json())
        assert "profile frame deltas (3):" in text
        assert "study;SG;fd;fun;fd.refine: 10000 -> 10001 (+1)" in text

    def test_meta_changes_are_context_not_drift(self):
        report = diff_runs(
            RunArtifacts("a", profile=make_profile(BASE_FRAMES, seed=2)),
            RunArtifacts("b", profile=make_profile(BASE_FRAMES, seed=3)),
        )
        assert not report.has_drift
        assert report.header_changes == [{"key": "seed", "a": 2, "b": 3}]

    def test_directory_with_trace_and_profile_compares_both(self, tmp_path):
        for name, ops, ticks in (("a", 10, 100), ("b", 11, 101)):
            run_dir = tmp_path / name
            run_dir.mkdir()
            write_trace(run_dir / "trace.jsonl", ops=ops)
            write_profile_file(
                run_dir / "profile.json", {"study;SG;fd;fd.refine": ticks}
            )
        run_a, run_b = load_run(tmp_path / "a"), load_run(tmp_path / "b")
        assert run_a.trace is not None and run_a.profile is not None
        report = diff_runs(run_a, run_b)
        assert report.compared == ["trace", "profile"]
        assert report.op_deltas == [
            {"frame": "study;SG;fd", "a": 10, "b": 11, "delta": 1}
        ]
        assert report.frame_deltas == [
            {"frame": "study;SG;fd;fd.refine", "a": 100, "b": 101, "delta": 1}
        ]

    def test_profile_against_trace_only_run_exits_2(self, capsys, tmp_path):
        write_profile_file(tmp_path / "p.json", BASE_FRAMES)
        write_trace(tmp_path / "trace.jsonl")
        with pytest.raises(RunLoadError):
            diff_runs(
                load_run(tmp_path / "p.json"),
                load_run(tmp_path / "trace.jsonl"),
            )
        code = main(
            ["diff", str(tmp_path / "p.json"), str(tmp_path / "trace.jsonl")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "diff-unreadable" in err and "no artifact kind in common" in err
