"""Tests for serve tracing: span trees, exemplars, ops reconciliation.

The traced fixture runs the smoke mix three times against the shared
study — twice with a trace sink (equal seeds must produce byte-identical
trace files) and once without (the report must not depend on whether a
trace was requested).
"""

import filecmp
from types import SimpleNamespace

import pytest

from repro.obs.log import NORMAL, QUIET, VERBOSE, configure_log
from repro.obs.trace import load_trace
from repro.serve.api import PROBE_ENDPOINTS, Request, canonical_endpoint
from repro.serve.loadgen import MIXES, check_invariants, run_load
from repro.serve.service import LakeService
from repro.serve.tracing import DEFAULT_EXEMPLAR_K


@pytest.fixture(scope="module")
def traced(study, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-traces")
    config = MIXES["smoke"]()
    first = root / "first.jsonl"
    second = root / "second.jsonl"
    report = run_load(study, config, trace_out=first)
    again = run_load(study, config, trace_out=second)
    untraced = run_load(study, config)
    return SimpleNamespace(
        config=config,
        report=report,
        again=again,
        untraced=untraced,
        first=first,
        second=second,
        trace=load_trace(first),
    )


def request_spans(trace):
    return [s for s in trace.spans if s.get("kind") == "request"]


class TestTraceDeterminism:
    def test_equal_seeds_write_byte_identical_traces(self, traced):
        assert filecmp.cmp(traced.first, traced.second, shallow=False)

    def test_report_does_not_depend_on_trace_sink(self, traced):
        assert traced.report == traced.untraced
        assert traced.report == traced.again


class TestTraceShape:
    def test_trace_is_valid_and_footed(self, traced):
        assert traced.trace.valid, traced.trace.problems
        assert traced.trace.torn == 0
        assert traced.trace.footer["spans"] == len(traced.trace.spans)

    def test_header_carries_run_identity_and_slo(self, traced):
        header = traced.trace.header
        assert header["kind"] == "serve"
        assert header["mix"] == "smoke"
        assert header["seed"] == traced.config.seed
        assert header["clients"] == traced.config.total_clients
        assert header["slo"]["objectives"][0]["kind"] == "availability"

    def test_probes_never_enter_the_trace(self, traced):
        endpoints = {
            s["attrs"]["endpoint"] for s in request_spans(traced.trace)
        }
        assert endpoints
        assert not endpoints & set(PROBE_ENDPOINTS)

    def test_one_request_span_per_non_probe_request(self, traced):
        expected = sum(
            stats["requests"]
            for endpoint, stats in traced.report["per_endpoint"].items()
            if endpoint not in PROBE_ENDPOINTS
        )
        assert len(request_spans(traced.trace)) == expected


class TestOpsReconciliation:
    def test_trace_spans_sum_to_report_request_ops(self, traced):
        # A span's ``ops`` is inclusive of its children, so the request
        # spans alone must account for every op the report charged.
        span_ops = sum(s["ops"] for s in request_spans(traced.trace))
        assert span_ops == traced.report["request_ops"]

    def test_rung_ops_never_exceed_their_request(self, traced):
        for span in request_spans(traced.trace):
            rung_ops = sum(
                c["ops"]
                for c in traced.trace.spans
                if c.get("parent") == span["id"]
            )
            assert rung_ops <= span["ops"]

    def test_report_invariants_hold(self, traced):
        assert traced.report["invariants"]["ops_reconciled"]
        assert check_invariants(traced.report, traced.config) == []


class TestExemplarPolicy:
    def test_every_shed_and_error_keeps_its_rungs(self, traced):
        children = {}
        for span in traced.trace.spans:
            if span.get("parent") is not None:
                children.setdefault(span["parent"], []).append(span)
        failures = [
            s
            for s in request_spans(traced.trace)
            if s["attrs"]["outcome"] in ("shed", "error")
        ]
        assert failures
        for span in failures:
            assert span["attrs"].get("exemplar") is True
            assert children.get(span["id"]), span

    def test_exactly_top_k_served_requests_are_exemplars(self, traced):
        served = [
            s
            for s in request_spans(traced.trace)
            if s["attrs"]["outcome"] in ("ok", "degraded")
        ]
        exemplars = [s for s in served if s["attrs"].get("exemplar")]
        assert len(exemplars) == DEFAULT_EXEMPLAR_K
        # The winners are exactly the slowest served requests: no
        # non-exemplar may cost more ops than the cheapest exemplar.
        floor = min(s["ops"] for s in exemplars)
        others = [s for s in served if not s["attrs"].get("exemplar")]
        assert all(s["ops"] <= floor for s in others)

    def test_non_exemplars_have_no_rung_children(self, traced):
        parents_with_children = {
            s["parent"]
            for s in traced.trace.spans
            if s.get("parent") is not None
        }
        for span in request_spans(traced.trace):
            if not span["attrs"].get("exemplar"):
                assert span["id"] not in parents_with_children

    def test_shed_exemplars_record_the_admission_decision(self, traced):
        children = {}
        for span in traced.trace.spans:
            if span.get("parent") is not None:
                children.setdefault(span["parent"], []).append(span)
        sheds = [
            s
            for s in request_spans(traced.trace)
            if s["attrs"]["outcome"] == "shed"
        ]
        assert sheds
        rejected = 0
        for span in sheds:
            rungs = children[span["id"]]
            assert rungs[0]["name"] == "admission"
            # 429/503 at the door carry the rejecting decision; a shed
            # deeper in the ladder (circuit open, nothing cached) was
            # admitted first.
            decision = rungs[0]["attrs"]["decision"]
            assert decision in ("rate_limited", "shed", "queued", "admitted")
            if span["attrs"]["status"] == 429:
                assert decision == "rate_limited"
                rejected += 1
        assert rejected > 0


class TestEndpointCardinality:
    def test_endpoint_counters_use_canonical_names(self, study):
        service = LakeService(study)
        service.handle(
            Request("/api/3/action/package_list", {"limit": "5"}, {}, "c1")
        )
        service.handle(Request("/definitely/not/a/route", {}, {}, "c1"))
        snapshot = service.metrics.snapshot()
        assert "serve.endpoint.package_list" in snapshot
        assert "serve.endpoint.unknown" in snapshot
        assert not any(
            "/" in name
            for name in snapshot
            if name.startswith("serve.endpoint.")
        )

    def test_canonical_endpoint_mapping(self):
        assert canonical_endpoint("/api/3/action/package_list") == (
            "package_list"
        )
        assert canonical_endpoint("/lake_search") == "lake_search"
        assert canonical_endpoint("/nope") == "unknown"

    def test_probe_requests_skip_the_ops_histograms(self, study):
        service = LakeService(study)
        service.handle(Request("/healthz", {}, {}, "probe"))
        snapshot = service.metrics.snapshot()
        assert "serve.endpoint.healthz" in snapshot
        assert "serve.request.ops" not in snapshot
        service.handle(Request("/lake_search", {"q": "health"}, {}, "c1"))
        assert service.metrics.get("serve.request.ops").total > 0


class TestAccessLog:
    @pytest.fixture(autouse=True)
    def restore_log(self):
        yield
        configure_log(NORMAL)

    def test_request_line_at_normal_verbosity(self, study, capsys):
        configure_log(NORMAL)
        service = LakeService(study)
        service.handle(
            Request("/api/3/action/package_list", {"limit": "5"}, {}, "c1")
        )
        err = capsys.readouterr().err
        assert "[info] serve.request" in err
        assert "endpoint=package_list" in err
        assert "outcome=ok" in err
        assert "status=200" in err
        assert "ops=" in err

    def test_quiet_suppresses_request_lines(self, study, capsys):
        configure_log(QUIET)
        service = LakeService(study)
        service.handle(
            Request("/api/3/action/package_list", {"limit": "5"}, {}, "c1")
        )
        assert "serve.request" not in capsys.readouterr().err

    def test_probes_log_only_at_verbose(self, study, capsys):
        configure_log(NORMAL)
        service = LakeService(study)
        service.handle(Request("/healthz", {}, {}, "probe"))
        assert "serve.request" not in capsys.readouterr().err
        configure_log(VERBOSE)
        service.handle(Request("/healthz", {}, {}, "probe"))
        err = capsys.readouterr().err
        assert "[debug] serve.request" in err
        assert "endpoint=healthz" in err
