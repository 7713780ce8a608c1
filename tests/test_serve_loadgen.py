"""Tests for the deterministic load harness (repro.serve.loadgen)."""

import copy
import dataclasses
import json

import pytest

from repro.obs.profile import read_profile
from repro.obs.quantiles import percentile_nearest_rank
from repro.obs.trace import write_json
from repro.serve.loadgen import (
    MIXES,
    ClientClass,
    LoadConfig,
    bench_record,
    check_invariants,
    render_report,
    run_load,
    smoke_classes,
)

#: A small mix for per-test runs (the full smoke mix is exercised once).
TINY = LoadConfig(
    mix="tiny",
    classes=(
        ClientClass("well_behaved", count=6, requests=4, think=0.3),
        ClientClass(
            "abusive",
            count=2,
            requests=10,
            think=0.005,
            respect_retry_after=False,
        ),
        ClientClass("flaky", count=2, requests=3, think=0.2, drop_rate=0.5),
    ),
    ops_rate=800.0,
    service=MIXES["smoke"]().service,
    # Too few requests per family to trip a breaker; faults stay off
    # (the fault-storm invariant is exercised by the smoke mix).
    backend_fault_period=0,
    backend_fault_burst=0,
)


@pytest.fixture(scope="module")
def tiny_report(study):
    return run_load(study, TINY)


@pytest.fixture(scope="module")
def smoke_report(study):
    return run_load(study, MIXES["smoke"]())


class TestPercentile:
    def test_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile_nearest_rank(values, 50) == 5
        assert percentile_nearest_rank(values, 99) == 10
        assert percentile_nearest_rank(values, 100) == 10
        assert percentile_nearest_rank([7], 50) == 7
        assert percentile_nearest_rank([], 99) == 0


class TestConfig:
    def test_expected_requests(self):
        assert TINY.expected_requests == 6 * 4 + 2 * 10 + 2 * 3
        assert TINY.total_clients == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(classes=smoke_classes(), ops_rate=0.0)
        with pytest.raises(ValueError):
            LoadConfig(
                classes=smoke_classes(),
                backend_fault_period=5,
                backend_fault_burst=6,
            )
        with pytest.raises(ValueError):
            run_load(None, LoadConfig(classes=()))


class TestInvariants:
    def test_no_request_lost(self, tiny_report):
        requests = tiny_report["requests"]
        assert requests["lost"] == 0
        assert requests["terminated"] == TINY.expected_requests

    def test_outcomes_partition_terminations(self, tiny_report):
        assert (
            sum(tiny_report["outcomes"].values())
            == tiny_report["requests"]["terminated"]
        )
        for stats in tiny_report["per_class"].values():
            assert (
                stats["ok"]
                + stats["degraded"]
                + stats["shed"]
                + stats["error"]
                == stats["requests"]
            )

    def test_admission_bounds_hold(self, tiny_report):
        admission = tiny_report["admission"]
        assert admission["within_bounds"]
        assert admission["max_in_flight"] <= admission["concurrency"]
        assert admission["max_queued"] <= admission["queue_depth"]

    def test_flaky_drops_surface_as_errors(self, tiny_report):
        assert tiny_report["per_class"]["flaky"]["error"] >= 1

    def test_check_invariants_clean(self, tiny_report):
        assert check_invariants(tiny_report, TINY) == []

    def test_check_invariants_flags_lost_requests(self, tiny_report):
        broken = copy.deepcopy(tiny_report)
        broken["requests"]["lost"] = 3
        violations = check_invariants(broken, TINY)
        assert any("lost" in v for v in violations)

    def test_check_invariants_flags_p99_blowout(self, tiny_report):
        tight = dataclasses.replace(TINY, p99_bound_ops=0)
        violations = check_invariants(tiny_report, tight)
        assert any("p99" in v for v in violations)


def artifact_bytes(path, report) -> bytes:
    """The bytes ``loadtest --report`` writes for *report*."""
    write_json(path, report)
    return path.read_bytes()


class TestDeterminism:
    def test_equal_seeds_byte_identical(self, study, tiny_report, tmp_path):
        again = run_load(study, TINY)
        assert artifact_bytes(tmp_path / "a.json", tiny_report) == (
            artifact_bytes(tmp_path / "b.json", again)
        )

    def test_different_seed_differs(self, study, tiny_report, tmp_path):
        shifted = run_load(study, dataclasses.replace(TINY, seed=99))
        assert artifact_bytes(tmp_path / "a.json", shifted) != (
            artifact_bytes(tmp_path / "b.json", tiny_report)
        )
        # ...but still violates nothing.
        assert check_invariants(
            shifted, dataclasses.replace(TINY, seed=99)
        ) == []

    def test_report_json_is_sorted_and_round_trips(self, tiny_report, tmp_path):
        text = artifact_bytes(tmp_path / "r.json", tiny_report).decode()
        assert json.loads(text) == tiny_report
        assert text == json.dumps(
            json.loads(text), indent=2, sort_keys=True
        ) + "\n"


class TestSmokeMix:
    def test_smoke_walks_the_whole_ladder(self, smoke_report):
        config = MIXES["smoke"]()
        assert check_invariants(smoke_report, config) == []
        outcomes = smoke_report["outcomes"]
        # Every terminal state is reachable under the smoke mix.
        assert outcomes["ok"] > 0
        assert outcomes["degraded"] > 0
        assert outcomes["shed"] > 0
        assert outcomes["error"] > 0
        service = smoke_report["service"]
        assert service["breaker_opens"] >= 1
        assert service["stale_served"] >= 1
        assert smoke_report["admission"]["max_queued"] > 0

    def test_abusive_clients_shed_hardest(self, smoke_report):
        per_class = smoke_report["per_class"]
        assert (
            per_class["abusive"]["shed_rate"]
            >= per_class["well_behaved"]["shed_rate"]
        )

    def test_render_report_mentions_key_numbers(self, smoke_report):
        text = render_report(smoke_report)
        assert "lost=0" in text
        assert "well_behaved" in text
        assert "within bounds: True" in text

    def test_profiled_run_attributes_every_op(
        self, study, smoke_report, tmp_path
    ):
        """Each handler's ticks land under its ``serve;<family>`` frame
        and the profile accounts for every op the report counts."""
        path = tmp_path / "profile.json"
        report = run_load(study, MIXES["smoke"](), profile_out=path)
        assert report == smoke_report
        profile = read_profile(path)
        paths = [frame.split(";") for frame in profile["frames"]]
        assert all(path[0] == "serve" and len(path) > 2 for path in paths)
        assert {path[1] for path in paths} == {
            "catalog", "search", "join", "union"
        }
        assert profile["total_ticks"] == report["total_ops"]


class TestBenchRecord:
    def test_record_shape(self, smoke_report):
        record = bench_record(
            smoke_report, scale=0.18, seed=3, seconds=1.25
        )
        assert record["experiment"] == "serve"
        assert record["clients"] == smoke_report["harness"]["clients"]
        assert record["total_ops"] == smoke_report["total_ops"]
        assert record["total_ops"] > 0
        assert record["p99_ops"] >= record["p50_ops"] >= 0
        assert 0.0 <= record["shed_rate"] <= 1.0
        json.dumps(record)  # must be JSON-safe
