"""Tests for the span tracer, trace writer/reader, and validation."""

import json

import pytest

from repro.experiments.cli import main
from repro.obs import Observer, maybe_span
from repro.obs.diff import RunArtifacts, diff_runs
from repro.obs.profile import (
    degradation_ledger,
    load_any_profile,
    outcome_counts,
    profile_report_json,
    render_profile_report,
    top_tables,
)
from repro.obs.trace import (
    TraceData,
    TraceWriter,
    Tracer,
    load_trace,
    validate_spans,
)


def _report(path):
    """``profile-report``'s text and JSON ``trace`` section for *path*."""
    doc, trace = load_any_profile(path)
    return (
        render_profile_report(profile_report_json(doc, trace=trace)),
        profile_report_json(doc, trace=trace)["trace"],
    )


class TestTracer:
    def test_parenting_and_sequence_numbers(self):
        tracer = Tracer()
        root = tracer.start("study", kind="study")
        child = tracer.start("portal", kind="portal")
        assert child.parent_id == root.span_id
        tracer.finish(child)
        tracer.finish(root)
        assert root.seq_open < child.seq_open
        assert child.seq_open < child.seq_close < root.seq_close
        assert tracer.spans_finished == 2

    def test_ops_roll_up_to_parent(self):
        tracer = Tracer()
        root = tracer.start("root")
        child = tracer.start("child")
        grandchild = tracer.start("grandchild")
        tracer.finish(grandchild, ops=5)
        tracer.finish(child, ops=2)
        tracer.finish(root)
        assert grandchild.total_ops == 5
        assert child.self_ops == 2 and child.total_ops == 7
        assert root.self_ops == 0 and root.total_ops == 7

    def test_finish_non_innermost_raises(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(ValueError):
            tracer.finish(outer)

    def test_context_manager_marks_errors(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.open_spans == []
        assert tracer.spans_finished == 1


class TestTraceFile:
    def _write_small_trace(self, path):
        writer = TraceWriter(path, header={"version": 1, "seed": 2})
        tracer = Tracer(writer)
        with tracer.span("study", kind="study"):
            with tracer.span("portal", kind="portal", portal="SG") as span:
                span.add_ops(3)
        writer.write({"type": "footer", "spans": tracer.spans_finished})
        writer.close()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_small_trace(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "header"
        assert records[-1] == {"type": "footer", "spans": 2}
        trace = load_trace(path)
        assert trace.header["seed"] == 2
        # Children finish (and are written) before their parents.
        assert [s["name"] for s in trace.spans] == ["portal", "study"]
        assert trace.spans[0]["ops"] == 3
        assert trace.valid and trace.torn == 0

    def test_spans_carry_no_timing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_small_trace(path)
        for span in load_trace(path).spans:
            assert set(span) == {
                "type", "id", "parent", "name", "kind", "status",
                "ops", "self_ops", "open", "close", "attrs",
            }

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_small_trace(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "id": 99, "nam')
        trace = load_trace(path)
        assert all(s.get("id") != 99 for s in trace.spans)
        assert len(trace.spans) == 2

    def test_load_trace_flags_footer_mismatch(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_small_trace(path)
        lines = path.read_text().splitlines()
        # Drop one span record but keep the footer's original count.
        del lines[1]
        path.write_text("\n".join(lines) + "\n")
        trace = load_trace(path)
        assert not trace.valid
        assert any("footer" in p for p in trace.problems)


class TestDegenerateTraces:
    """Empty and torn-only inputs must report, not crash (ISSUE 5)."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        trace = load_trace(path)
        assert trace.valid
        assert trace.spans == [] and trace.torn == 0
        report, doc = _report(path)
        assert "no spans" in report
        assert doc["span_count"] == 0
        assert doc["total_ops"] == 0

    def test_torn_only_file(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"type": "header", "se\n{"type": "span", "id"\n')
        trace = load_trace(path)
        assert trace.spans == []
        assert trace.torn == 2
        report, _ = _report(path)
        assert "no spans" in report
        assert "2 torn line(s)" in report

    def test_non_dict_lines_count_as_torn(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('[1, 2, 3]\n"just a string"\n')
        trace = load_trace(path)
        assert trace.spans == []
        assert trace.torn == 2

    def test_orphan_span_is_a_problem_not_a_crash(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        span = {
            "type": "span",
            "id": 7,
            "parent": 99,
            "open": 1,
            "close": 2,
            "name": "stage",
        }
        path.write_text(json.dumps(span) + "\n")
        trace = load_trace(path)
        assert not trace.valid
        assert any("missing" in p and "parent" in p for p in trace.problems)
        assert "BROKEN" in _report(path)[0]

    def test_orphan_span_through_validate_spans(self):
        spans = [{"id": 7, "parent": 99, "open": 1, "close": 2}]
        problems = validate_spans(spans)
        assert any("missing" in p and "parent 99" in p for p in problems)

    def test_torn_tail_keeps_complete_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TestTraceFile()._write_small_trace(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "id": 99, "nam')
        trace = load_trace(path)
        assert len(trace.spans) == 2
        assert trace.torn == 1


class TestValidation:
    def test_clean_tree_passes(self):
        spans = [
            {"id": 2, "parent": 1, "open": 2, "close": 3},
            {"id": 1, "parent": None, "open": 1, "close": 4},
        ]
        assert validate_spans(spans) == []

    def test_detects_broken_nesting(self):
        spans = [
            {"id": 1, "parent": None, "open": 1, "close": 3},
            {"id": 2, "parent": 1, "open": 2, "close": 4},
        ]
        assert any("not nested" in p for p in validate_spans(spans))

    def test_detects_sibling_overlap(self):
        spans = [
            {"id": 1, "parent": None, "open": 1, "close": 6},
            {"id": 2, "parent": 1, "open": 2, "close": 4},
            {"id": 3, "parent": 1, "open": 3, "close": 5},
        ]
        problems = validate_spans(spans)
        assert any("overlap" in p for p in problems)

    def test_detects_duplicate_ids(self):
        spans = [
            {"id": 1, "parent": None, "open": 1, "close": 2},
            {"id": 1, "parent": None, "open": 3, "close": 4},
        ]
        assert any("duplicate span id" in p for p in validate_spans(spans))


class TestObserver:
    def test_maybe_span_null_context(self):
        with maybe_span(None, "anything") as span:
            assert span is None

    def test_metrics_only_observer_writes_nothing(self, tmp_path):
        obs = Observer()
        with obs.span("root"):
            obs.metrics.inc("hits")
        obs.close()
        assert list(tmp_path.iterdir()) == []

    def test_close_finishes_dangling_spans_and_writes_metrics(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs = Observer(path, meta={"seed": 5})
        obs.tracer.start("study", kind="study")
        obs.tracer.start("portal", kind="portal")
        obs.metrics.inc("crawl.retries", 2)
        obs.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [r["type"] for r in records]
        assert kinds[0] == "header" and kinds[-1] == "footer"
        assert kinds.count("span") == 2
        metric = next(r for r in records if r["type"] == "metric")
        assert metric["name"] == "crawl.retries"
        assert metric["value"] == 2

    def test_header_carries_meta(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs = Observer(path, meta={"seed": 5, "scale": 0.1})
        obs.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["seed"] == 5
        assert header["scale"] == 0.1


def unit_span(span_id, **fields):
    """A unit span record as ``Tracer.finish`` writes it."""
    record = {
        "type": "span", "id": span_id, "parent": None,
        "open": 2 * span_id - 1, "close": 2 * span_id,
        "name": "fd", "kind": "unit", "status": "ok",
        "ops": 4, "self_ops": 4,
        "attrs": {"portal": "SG", "stage": "fd", "table": f"t{span_id}"},
    }
    record.update(fields)
    return record


def built(spans):
    return TraceData(
        path="built", header={}, spans=spans, metrics={}, footer=None
    )


def write_trace(path, spans):
    records = [{"type": "header", "seed": 2}, *spans,
               {"type": "footer", "spans": len(spans)}]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return str(path)


class TestSpanSchema:
    """Every TraceData holds spans in the writer's schema."""

    def test_missing_fields_take_the_writers_defaults(self):
        bare = {"id": 1, "parent": None, "open": 1, "close": 2,
                "kind": "unit"}
        (span,) = built([bare]).spans
        assert (span["status"], span["ops"], span["self_ops"]) == ("ok", 0, 0)
        assert (span["name"], span["attrs"]) == ("?", {})
        assert built([{"id": 1, "open": 1, "close": 2}]).spans[0][
            "kind"
        ] == "span"

    def test_unit_without_status_or_table_reads_the_same_everywhere(self):
        """outcome_counts, top_tables, the ledger and diff agree."""
        bare = unit_span(1)
        del bare["status"]
        del bare["attrs"]["table"]
        cut = unit_span(2, status="truncated")
        del cut["attrs"]["table"]
        trace = built([bare, cut])
        assert outcome_counts(trace) == {"ok": 1, "truncated": 1}
        (entry,) = top_tables(trace)
        assert (entry["table"], entry["worst_status"]) == ("-", "truncated")
        (row,) = degradation_ledger(trace)
        assert (row["table"], row["status"]) == ("-", "truncated")
        explicit = built([
            unit_span(1, attrs={"portal": "SG", "stage": "fd", "table": "-"}),
            unit_span(
                2, status="truncated",
                attrs={"portal": "SG", "stage": "fd", "table": "-"},
            ),
        ])
        report = diff_runs(
            RunArtifacts("a", trace=trace), RunArtifacts("b", trace=explicit)
        )
        assert not report.has_drift

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"attrs": [1]}, "span 2 left out: attrs is a list"),
            ({"self_ops": "3"}, "span 2 left out: self_ops is a str"),
            ({"status": 0}, "span 2 left out: status is a int"),
            (
                {"attrs": {"portal": "SG", "replayed": "no"}},
                "span 2 left out: attrs.replayed is a str",
            ),
        ],
    )
    def test_wrong_typed_record_is_left_out_and_named(
        self, tmp_path, fields, problem
    ):
        path = tmp_path / "t.jsonl"
        write_trace(path, [unit_span(1), unit_span(2, **fields)])
        for trace in (load_trace(path), built([unit_span(1),
                                               unit_span(2, **fields)])):
            assert [s["id"] for s in trace.spans] == [1]
            assert trace.problems[0] == problem
            assert not trace.valid


class TestReportsOnMalformedArtifacts:
    @pytest.mark.parametrize("fields", [{"attrs": [1]}, {"self_ops": "3"}])
    def test_profile_report_and_diff_name_the_span(
        self, capsys, tmp_path, fields
    ):
        path = write_trace(
            tmp_path / "t.jsonl", [unit_span(1), unit_span(2, **fields)]
        )
        assert main(["profile-report", path]) == 0
        assert "  problem: span 2 left out: " in capsys.readouterr().out
        assert main(["profile-report", path, "--json"]) == 0
        section = json.loads(capsys.readouterr().out)["trace"]
        assert section["valid"] is False
        assert main(["diff", path, path]) == 0
        assert "no drift" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"frames": {"study;a": "x"}}, "'frames' are not integer counts"),
            (
                {"frames": {"study;a": 3}, "meta": [1]},
                "'meta' is not an object",
            ),
        ],
    )
    def test_malformed_profile_is_unreadable_to_both_readers(
        self, capsys, tmp_path, doc, message
    ):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["profile-report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "profile-unreadable" in err and message in err
        assert main(["diff", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert "diff-unreadable" in err and message in err
