"""Tests for the serving report (repro.obs.servereport + CLI).

Runs the smoke mix (which must verdict OK against the harness SLOs)
and the storm mix (9 of every 10 guarded backend calls failing, which
must exhaust the error budget) once each, with a trace sink, and judges
the traces through the report pipeline and the ``serve-report`` CLI.
"""

import json
from types import SimpleNamespace

import pytest

from repro.experiments.cli import main
from repro.obs import servereport
from repro.obs.servereport import (
    red_tables,
    render_serve_report,
    request_spans,
    resolve_spec,
    serve_report_json,
)
from repro.obs.slo import KIND_AVAILABILITY, Objective, SloSpec, default_slos
from repro.obs.trace import TraceData, load_trace
from repro.serve.loadgen import MIXES, run_load


@pytest.fixture(scope="module")
def smoke(study, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-report") / "smoke.jsonl"
    report = run_load(study, MIXES["smoke"](), trace_out=path)
    return SimpleNamespace(
        path=path, report=report, trace=load_trace(path)
    )


@pytest.fixture(scope="module")
def storm(study, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-report") / "storm.jsonl"
    report = run_load(study, MIXES["storm"](), trace_out=path)
    return SimpleNamespace(
        path=path, report=report, trace=load_trace(path)
    )


class TestRedTables:
    def test_per_endpoint_counts_and_percentiles(self, smoke):
        tables = red_tables(request_spans(smoke.trace))
        assert tables
        for endpoint, entry in tables.items():
            assert endpoint not in ("healthz", "statz")
            assert entry["requests"] == (
                entry["ok"] + entry["degraded"]
                + entry["shed"] + entry["error"]
            )
            assert entry["errors"] == entry["shed"] + entry["error"]
            assert 0.0 <= entry["error_rate"] <= 1.0
            assert entry["ops"]["p50"] <= entry["ops"]["p99"]
            assert entry["ops"]["p99"] <= entry["ops"]["max"]

    def test_totals_match_the_load_report(self, smoke):
        tables = red_tables(request_spans(smoke.trace))
        per_endpoint = smoke.report["per_endpoint"]
        for endpoint, entry in tables.items():
            assert entry["requests"] == per_endpoint[endpoint]["requests"]


class TestVerdicts:
    def test_smoke_mix_meets_its_slos(self, smoke):
        doc = serve_report_json(smoke.trace)
        assert doc["slo"]["verdict"] == "OK"
        assert doc["slo_source"] == "trace header"
        # The replayed verdict matches the live monitor's.
        assert doc["slo"]["verdict"] == smoke.report["slo"]["verdict"]

    def test_storm_mix_exhausts_the_error_budget(self, storm):
        doc = serve_report_json(storm.trace)
        assert doc["slo"]["verdict"] == "EXHAUSTED"
        availability = doc["slo"]["objectives"]["availability"]
        assert availability["budget_used"] > 1.0
        assert doc["slo"]["verdict"] == storm.report["slo"]["verdict"]

    def test_storm_burns_where_smoke_does_not(self, smoke, storm):
        smoke_doc = serve_report_json(smoke.trace)
        storm_doc = serve_report_json(storm.trace)
        smoke_avail = smoke_doc["slo"]["objectives"]["availability"]
        storm_avail = storm_doc["slo"]["objectives"]["availability"]
        assert storm_avail["bad_fraction"] > smoke_avail["bad_fraction"]


class TestSpecResolution:
    def test_explicit_file_beats_trace_header(self, smoke, tmp_path):
        # An absurdly strict availability target: any shed at all
        # exhausts it, so the override visibly changes the verdict.
        strict = SloSpec(
            window=0.5,
            objectives=(
                Objective(
                    "availability", KIND_AVAILABILITY, target=0.999999
                ),
            ),
        )
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(strict.as_json()))
        spec, source = resolve_spec(smoke.trace, path)
        assert spec == strict
        assert source == str(path)
        doc = serve_report_json(smoke.trace, resolve_spec(smoke.trace, path))
        assert doc["slo"]["verdict"] == "EXHAUSTED"

    def test_defaults_when_header_has_no_spec(self):
        bare = TraceData(
            path="x", header={}, spans=[], metrics={}, footer=None,
            problems=[],
        )
        spec, source = resolve_spec(bare)
        assert spec == default_slos()
        assert source == "defaults"


class TestRendering:
    def test_report_shows_red_slo_and_exemplars(self, smoke):
        text = render_serve_report(serve_report_json(smoke.trace))
        assert "RED by endpoint" in text
        assert "SLO verdict: OK" in text
        assert "error-budget burn by window" in text
        assert "exemplars (" in text
        assert "-> admission" in text

    def test_storm_report_flags_burning_windows(self, storm):
        text = render_serve_report(serve_report_json(storm.trace))
        assert "SLO verdict: EXHAUSTED" in text
        # At least one window crosses its burn threshold and is marked.
        assert "x!" in text.replace("x !", "x!") or "!" in text

    def test_exemplars_capped_by_top(self, smoke):
        doc = serve_report_json(smoke.trace, top=3)
        assert len(doc["exemplars"]) == 3
        ops = [tree["ops"] for tree in doc["exemplars"]]
        assert ops == sorted(ops, reverse=True)


class TestCli:
    def test_parser(self, tmp_path):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve-report", "trace.jsonl",
                "--slo", str(tmp_path / "slo.json"),
                "--json", "--top", "4", "--fail-on-exhausted",
            ]
        )
        assert args.command == "serve-report"
        assert args.trace == "trace.jsonl"
        assert args.as_json is True
        assert args.top == 4
        assert args.fail_on_exhausted is True

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        code = main(["serve-report", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "trace-missing" in capsys.readouterr().err

    def test_renders_smoke_trace(self, capsys, smoke):
        code = main(["-q", "serve-report", str(smoke.path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "RED by endpoint" in out
        assert "SLO verdict: OK" in out

    def test_json_output_parses(self, capsys, smoke):
        code = main(["-q", "serve-report", str(smoke.path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slo"]["verdict"] == "OK"
        assert doc["requests"] > 0

    def test_fail_on_exhausted_gates_the_storm(self, capsys, storm):
        code = main(
            ["-q", "serve-report", str(storm.path), "--fail-on-exhausted"]
        )
        assert code == 1
        assert "slo-exhausted" in capsys.readouterr().err

    def test_lenient_override_clears_the_gate(self, capsys, storm, tmp_path):
        lenient = SloSpec(
            window=0.5,
            objectives=(
                Objective("availability", KIND_AVAILABILITY, target=0.0),
            ),
        )
        path = tmp_path / "lenient.json"
        path.write_text(json.dumps(lenient.as_json()))
        code = main(
            [
                "-q", "serve-report", str(storm.path),
                "--slo", str(path), "--fail-on-exhausted",
            ]
        )
        assert code == 0
        assert "SLO verdict: OK" in capsys.readouterr().out

    def test_unreadable_slo_spec_exits_2(self, capsys, smoke, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"objectives\": []}")
        code = main(["-q", "serve-report", str(smoke.path), "--slo", str(bad)])
        assert code == 2
        assert "slo-spec-unreadable" in capsys.readouterr().err


def request_span(span_id, at, **fields):
    """A request span record as the serve tracer writes it."""
    record = {
        "type": "span", "id": span_id, "parent": None,
        "open": 2 * span_id - 1, "close": 2 * span_id,
        "name": "request.package_show", "kind": "request", "status": "ok",
        "ops": 3, "self_ops": 3,
        "attrs": {"endpoint": "package_show", "client": "c", "status": 200,
                  "outcome": "ok", "at": at},
    }
    record.update(fields)
    return record


class TestSpecAndTraceErrors:
    """Only a spec failure logs slo-spec-unreadable; the trace reader
    leaves a wrong-typed request span out and the report names it."""

    @pytest.mark.parametrize(
        "spans, problem",
        [
            (
                [request_span(1, 0.1, ops="x")],
                "span 1 left out: ops is a str",
            ),
            (
                [request_span(1, "x")],
                "span 1 left out: attrs.at is a str",
            ),
            (
                [request_span(1, 0.1), request_span(2, "x")],
                "span 2 left out: attrs.at is a str",
            ),
            (
                [request_span(1, 0.1), request_span(2, 0.2, attrs=[1])],
                "span 2 left out: attrs is a list",
            ),
        ],
        ids=["ops", "at", "mixed-at", "attrs"],
    )
    def test_wrong_typed_request_span_is_named(
        self, capsys, tmp_path, spans, problem
    ):
        path = tmp_path / "serve.jsonl"
        records = [{"type": "header", "mix": "smoke"}, *spans]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(["serve-report", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"  problem: {problem}" in captured.out
        assert "slo-spec-unreadable" not in captured.err

    def test_text_report_replays_and_reads_the_spec_once(
        self, capsys, monkeypatch, smoke, tmp_path
    ):
        spec_path = tmp_path / "slo.json"
        spec_path.write_text(json.dumps(smoke.trace.header["slo"]))
        calls = {"replay": 0, "load_spec": 0}

        def counted(name):
            real = getattr(servereport, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(servereport, name, counted(name))
        assert main(
            ["-q", "serve-report", str(smoke.path), "--slo", str(spec_path)]
        ) == 0
        assert "SLO verdict: OK" in capsys.readouterr().out
        assert calls == {"replay": 1, "load_spec": 1}
