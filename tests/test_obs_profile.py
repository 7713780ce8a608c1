"""Tests for the deterministic flame-attribution profiler."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.diff import RunArtifacts, diff_runs, render_diff
from repro.obs.profile import (
    Profiler,
    collapsed_lines,
    hotspots,
    inclusive_frames,
    load_any_profile,
    prof_scope,
    profile_doc,
    profile_report_json,
    read_profile,
    render_profile_report,
    write_profile,
)
from repro.resilience.budget import UNMETERED, WorkMeter


class TestProfiler:
    def test_attribution_is_exact(self):
        prof = Profiler()
        prof.push("study")
        prof.push("SG")
        prof.add(3, "screen.cell")
        prof.add(2, "screen.cell")
        prof.push("fd")
        prof.add(7, "fd.refine")
        prof.pop()
        prof.add(1, "screen.cell")
        prof.pop()
        prof.pop()
        assert prof.snapshot() == {
            "study;SG;screen.cell": 6,
            "study;SG;fd;fd.refine": 7,
        }
        assert prof.total_ticks == 13

    def test_op_change_flushes(self):
        prof = Profiler()
        prof.push("a")
        prof.add(5, "op1")
        prof.add(5, "op2")
        assert prof.counts[("a", "op1")] == 5

    def test_total_ticks_includes_pending(self):
        prof = Profiler()
        prof.add(5, "op")
        assert prof.counts == {}
        assert prof.total_ticks == 5

    def test_prof_scope_without_profiler_is_a_noop(self):
        class Meter:
            profiler = None

        with prof_scope(Meter(), "a", "b"):
            pass
        with prof_scope(UNMETERED, "a"):
            pass

    def test_absorb_merges_shard_snapshots(self):
        worker_a = Profiler()
        with worker_a.frame("study", "SG"):
            worker_a.add(4, "screen.cell")
        worker_b = Profiler()
        with worker_b.frame("study", "SG"):
            worker_b.add(6, "screen.cell")
        with worker_b.frame("study", "CA"):
            worker_b.add(1, "fd.refine")
        merged = Profiler()
        merged.absorb(worker_a.snapshot())
        merged.absorb(worker_b.snapshot())
        assert merged.snapshot() == {
            "study;CA;fd.refine": 1,
            "study;SG;screen.cell": 10,
        }


class TestReusableScope:
    @staticmethod
    def _drive(prof, scope):
        """Ticks inside *scope* entered three times: nested, then in
        sequence; *scope* returns the scope for each entry."""
        prof.add(1, "op")
        with scope():
            prof.add(2, "op")
            with scope():
                prof.add(4, "op")
            prof.add(8, "op")
        with scope():
            prof.add(16, "op")
        prof.add(32, "op")
        return prof.snapshot()

    def test_one_scope_entered_three_times_equals_fresh_frames(self):
        fresh = Profiler()
        expected = self._drive(fresh, lambda: fresh.frame("a", "b"))
        assert expected == {"a;b;a;b;op": 4, "a;b;op": 26, "op": 33}
        reused = Profiler()
        scope = reused.frame("a", "b")
        assert self._drive(reused, lambda: scope) == expected
        meter = WorkMeter(profiler=Profiler())
        scope = prof_scope(meter, "a", "b")
        assert self._drive(meter.profiler, lambda: scope) == expected

    def test_exception_pops_every_name(self):
        prof = Profiler()
        scope = prof.frame("a", "b", "c")
        with pytest.raises(RuntimeError):
            with scope:
                prof.add(1, "op")
                raise RuntimeError("cut")
        prof.add(2, "op")
        assert prof.snapshot() == {"a;b;c;op": 1, "op": 2}

    def test_unprofiled_scopes_are_one_shared_null_context(self):
        shared = prof_scope(UNMETERED, "a")
        assert prof_scope(WorkMeter(), "b", "c") is shared
        with shared as entered:
            with shared:
                assert entered is None


# Events: (frame stack, op name, cost).  Partitioned arbitrarily into
# worker shards, the absorbed merge must equal the serial profile —
# the invariant the pooled executor's byte-identical artifacts rest on.
_EVENTS = st.lists(
    st.tuples(
        st.lists(
            st.sampled_from(["study", "SG", "fd", "screen"]),
            max_size=3,
        ),
        st.sampled_from(["fd.refine", "screen.cell", "join.jaccard"]),
        st.integers(1, 50),
    ),
    max_size=40,
)


class TestShardMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        events=_EVENTS,
        n_workers=st.integers(1, 4),
        assignment=st.randoms(use_true_random=False),
    )
    def test_merged_worker_shards_equal_serial_profile(
        self, events, n_workers, assignment
    ):
        serial = Profiler()
        for stack, op, cost in events:
            with serial.frame(*stack):
                serial.add(cost, op)
        workers = [Profiler() for _ in range(n_workers)]
        for stack, op, cost in events:
            worker = workers[assignment.randrange(n_workers)]
            with worker.frame(*stack):
                worker.add(cost, op)
        merged = Profiler()
        for worker in workers:
            merged.absorb(worker.snapshot())
        assert merged.snapshot() == serial.snapshot()
        assert merged.total_ticks == serial.total_ticks


class TestAggregation:
    def test_hotspots_rank_by_ticks_then_path(self):
        frames = {"b": 5, "a": 5, "c": 9}
        assert hotspots(frames) == [("c", 9), ("a", 5), ("b", 5)]
        assert hotspots(frames, top=1) == [("c", 9)]

    def test_collapsed_lines_are_flamegraph_input(self):
        frames = {"study;SG;fd.refine": 7, "study;CA;screen.cell": 2}
        assert collapsed_lines(frames) == [
            "study;CA;screen.cell 2",
            "study;SG;fd.refine 7",
        ]

    def test_inclusive_frames_sum_unique_names_per_path(self):
        frames = {
            "study;SG;dataframe;fd.refine": 10,
            "study;CA;dataframe;screen.cell": 4,
        }
        inclusive = inclusive_frames(frames)
        assert inclusive["dataframe"] == 14
        assert inclusive["study"] == 14
        assert inclusive["SG"] == 10
        assert inclusive["fd.refine"] == 10

    def test_inclusive_frames_count_repeated_names_once(self):
        assert inclusive_frames({"a;b;a": 5}) == {"a": 5, "b": 5}


class TestArtifactIO:
    def test_write_read_roundtrip(self, tmp_path):
        prof = Profiler()
        with prof.frame("study", "SG"):
            prof.add(42, "fd.refine")
        path = tmp_path / "profile.json"
        write_profile(path, prof, meta={"scale": 0.1})
        doc = read_profile(path)
        assert doc == profile_doc(prof, meta={"scale": 0.1})
        assert doc["frames"] == {"study;SG;fd.refine": 42}
        assert doc["total_ticks"] == 42
        assert doc["meta"] == {"scale": 0.1}

    def test_artifact_bytes_are_deterministic(self, tmp_path):
        def build(path):
            prof = Profiler()
            with prof.frame("study"):
                prof.add(7, "op.b")
                prof.add(3, "op.a")
            write_profile(path, prof)

        build(tmp_path / "a.json")
        build(tmp_path / "b.json")
        assert (
            (tmp_path / "a.json").read_bytes()
            == (tmp_path / "b.json").read_bytes()
        )
        assert (tmp_path / "a.json").read_text().endswith("\n")

    def test_read_profile_rejects_non_profiles(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"no": "frames"}', encoding="utf-8")
        with pytest.raises(ValueError):
            read_profile(path)

    def test_load_any_profile_falls_back_to_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        lines = [
            {"type": "span", "id": 1, "parent": None, "name": "study",
             "self_ops": 2},
            {"type": "span", "id": 2, "parent": 1, "name": "fd",
             "self_ops": 5},
            {"type": "footer", "spans": 2},
        ]
        trace.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n",
            encoding="utf-8",
        )
        doc, loaded = load_any_profile(trace)
        assert doc["frames"] == {"study;-;fd": 5, "study;-;study": 2}
        assert doc["total_ticks"] == 7
        assert doc["meta"]["source"] == "trace"
        assert [s["name"] for s in loaded.spans] == ["study", "fd"]


class TestReport:
    def test_report_json_shape(self):
        prof = Profiler()
        with prof.frame("study", "SG"):
            prof.add(90, "fd.refine")
            prof.add(10, "screen.cell")
        doc = profile_report_json(profile_doc(prof), top=1)
        assert doc["total_ticks"] == 100
        assert doc["frame_count"] == 2
        assert len(doc["hotspots"]) == 1
        top = doc["hotspots"][0]
        assert top["frame"] == "study;SG;fd.refine"
        assert top["ticks"] == 90
        assert top["share"] == pytest.approx(0.9)
        full = profile_report_json(profile_doc(prof))
        inclusive = {e["frame"]: e["ticks"] for e in full["inclusive"]}
        assert inclusive["study"] == 100

    def test_render_report_handles_empty(self):
        text = render_profile_report(
            profile_report_json(profile_doc(Profiler()))
        )
        assert "no frames recorded" in text


class TestDiff:
    """Profiles compared through the one exact run diff."""

    def _run(self, label, frames):
        return RunArtifacts(label, profile={"version": 1, "frames": frames})

    def test_new_big_frame_regresses_by_definition(self):
        report = diff_runs(self._run("a", {}), self._run("b", {"f": 1_000}))
        assert report.has_drift
        assert report.frame_deltas == [
            {"frame": "f", "a": 0, "b": 1_000, "delta": 1_000}
        ]

    def test_render_diff_smoke(self):
        report = diff_runs(
            self._run("a", {"f": 10_000}), self._run("b", {"f": 14_000})
        )
        text = render_diff(report.as_json())
        assert "profile frame deltas (1):" in text
        assert "f: 10000 -> 14000 (+4000)" in text
        assert "total drift entries: 1" in text
