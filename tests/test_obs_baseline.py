"""Tests for the bench-history reader, the ``bench-report`` rendering,
and the append semantics of the bench harness's history writer."""

import importlib.util
import json
import pathlib

from repro.obs import baseline
from repro.obs.baseline import (
    BenchRecord,
    latest_records,
    read_history,
    render_bench_report,
    salvage_json_objects,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def record(total_ops, *, seconds=1.0, scale=1.0, seed=7, experiment="table05"):
    return {
        "experiment": experiment,
        "scale": scale,
        "seed": seed,
        "seconds": seconds,
        "ops": {},
        "total_ops": total_ops,
    }


def latest_docs(root):
    """The ``bench-report`` document for *root*."""
    return [r.as_json() for r in latest_records(root)]


def write_history(path, records):
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")


class TestSalvage:
    def test_well_formed_array(self):
        text = json.dumps([record(10), record(20)])
        assert [r["total_ops"] for r in salvage_json_objects(text)] == [10, 20]

    def test_truncated_tail_keeps_leading_records(self):
        text = json.dumps([record(10), record(20)], indent=2)
        torn = text[: len(text) - 40]  # cut mid-record
        salvaged = salvage_json_objects(torn)
        assert [r["total_ops"] for r in salvaged] == [10]

    def test_garbage_between_records(self):
        text = (
            json.dumps(record(10)) + "\nGARBAGE\n" + json.dumps(record(20))
        )
        assert [r["total_ops"] for r in salvage_json_objects(text)] == [10, 20]

    def test_record_torn_after_its_ops_is_dropped_whole(self):
        # The shape append_record writes: indented, sorted keys, a
        # non-empty nested ``ops`` object before ``scale``.
        records = [
            record(10) | {"ops": {"ops.a": 10}},
            record(20) | {"ops": {"ops.a": 20}},
        ]
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
        torn = text[: text.rindex('"scale"')]
        assert salvage_json_objects(torn) == records[:1]

    def test_empty_and_hopeless_inputs(self):
        assert salvage_json_objects("") == []
        assert salvage_json_objects("not json at all") == []
        assert salvage_json_objects("[1, 2, 3]") == []


class TestReadHistory:
    def test_reads_records_in_order(self, tmp_path):
        path = tmp_path / "BENCH_table05.json"
        write_history(path, [record(10), record(20)])
        records = read_history(path)
        assert [r.total_ops for r in records] == [10, 20]
        assert records[0].experiment == "table05"

    def test_missing_file_is_empty(self, tmp_path):
        assert read_history(tmp_path / "BENCH_nope.json") == []

    def test_malformed_records_are_dropped(self, tmp_path):
        path = tmp_path / "BENCH_table05.json"
        write_history(
            path,
            [
                record(10),
                {"experiment": "table05"},  # no total_ops
                {"scale": "not-a-number", "seed": 7, "total_ops": 5},
                record(20),
            ],
        )
        assert [r.total_ops for r in read_history(path)] == [10, 20]

    def test_partially_written_file(self, tmp_path):
        path = tmp_path / "BENCH_table05.json"
        text = json.dumps([record(10), record(20)], indent=2)
        path.write_text(text[: len(text) - 40])
        assert [r.total_ops for r in read_history(path)] == [10]


class TestGateAllAndReport:
    def test_latest_records_scans_root(self, tmp_path):
        write_history(
            tmp_path / "BENCH_table05.json",
            [record(100_000), record(250_000)],
        )
        # A torn history still shows its salvaged latest record.
        text = json.dumps(
            [record(50_000, experiment="figure01")] * 2
            + [record(60_000, experiment="figure01")],
            indent=2,
        )
        (tmp_path / "BENCH_figure01.json").write_text(text[:-40])
        latest = latest_records(tmp_path)
        assert [r.experiment for r in latest] == ["figure01", "table05"]
        assert [r.total_ops for r in latest] == [50_000, 250_000]

    def test_report_renders_latest_records(self, tmp_path):
        write_history(
            tmp_path / "BENCH_table05.json",
            [
                record(100_000),
                record(250_000)
                | {
                    "join_candidates": 2_871,
                    "join_verify_ops": 2_870,
                    "hotspots": [["study;US;pairs@0.7;lsh", 125_000]],
                },
            ],
        )
        text = render_bench_report(latest_docs(tmp_path))
        lines = text.splitlines()
        # Each block is a render_table: title, rule, header, rule, rows.
        assert lines[4].split() == ["table05", "250000"]
        assert "100000" not in text
        join = lines.index("Join index")
        # The record's join_verify_ops (a key of older records) parses
        # and is not shown: it always equalled the candidates.
        assert lines[join + 4].split() == ["table05", "2871"]
        assert "125000  50.0%  study;US;pairs@0.7;lsh" in text
        assert "baseline" not in text and "regress" not in text

    def test_report_with_no_history(self):
        assert "no bench history" in render_bench_report([])


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", REPO_ROOT / "benchmarks" / "_harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAppendBenchRecord:
    """Append semantics of the bench harness's history writer."""

    def test_appends_and_round_trips(self, tmp_path):
        harness = _load_harness()
        for ops in (10, 20, 30):
            harness._append_bench_record(
                "table05", record(ops), root=tmp_path
            )
        assert [
            r.total_ops
            for r in read_history(tmp_path / "BENCH_table05.json")
        ] == [10, 20, 30]

    def test_append_salvages_partially_written_file(self, tmp_path):
        harness = _load_harness()
        path = tmp_path / "BENCH_table05.json"
        text = json.dumps([record(10), record(20)], indent=2)
        path.write_text(text[: len(text) - 40])  # torn tail
        harness._append_bench_record("table05", record(30), root=tmp_path)
        assert [r.total_ops for r in read_history(path)] == [10, 30]

    def test_append_replaces_atomically(self, tmp_path):
        harness = _load_harness()
        harness._append_bench_record("table05", record(10), root=tmp_path)
        # No temp file left behind, and the result is valid JSON.
        assert list(tmp_path.iterdir()) == [tmp_path / "BENCH_table05.json"]
        loaded = json.loads(
            (tmp_path / "BENCH_table05.json").read_text()
        )
        assert isinstance(loaded, list) and len(loaded) == 1


class TestServingMetrics:
    """Serving-bench fields on records and the report's serving line."""

    def _serve_record(self, total_ops, *, clients=48, shed=0.25):
        return record(total_ops, experiment="serve") | {
            "clients": clients,
            "p50_ops": 5.0,
            "p99_ops": 190.0,
            "shed_rate": shed,
        }

    def test_from_mapping_parses_serving_fields(self):
        parsed = BenchRecord.from_mapping(
            self._serve_record(1000), experiment="serve"
        )
        assert parsed.clients == 48
        assert parsed.p50_ops == 5.0
        assert parsed.p99_ops == 190.0
        assert parsed.shed_rate == 0.25

    def test_compute_records_default_to_zero(self):
        parsed = BenchRecord.from_mapping(record(1000), experiment="table05")
        assert parsed.clients == 0
        assert parsed.p50_ops == parsed.p99_ops == parsed.shed_rate == 0.0
        assert parsed.join_candidates == 0.0
        assert parsed.hotspots == ()

    def test_report_renders_serving_block(self, tmp_path):
        baseline.append_record(
            "serve",
            self._serve_record(1000)
            | {"availability": 0.793814, "slo_verdict": "OK"},
            root=tmp_path,
        )
        write_history(
            tmp_path / "BENCH_table05.json", [record(100_000)]
        )
        text = render_bench_report(latest_docs(tmp_path))
        assert "clients" in text and "shed" in text
        # Compute benches stay out of the serving block.
        serving_block = text.split("Serving")[1]
        assert "table05" not in serving_block
        assert serving_block.splitlines()[4].split() == [
            "serve", "48", "5", "190", "25.0%", "79.4%", "OK",
        ]

    def test_report_omits_serving_block_without_serve_runs(self, tmp_path):
        write_history(
            tmp_path / "BENCH_table05.json", [record(100_000)]
        )
        assert "clients" not in render_bench_report(latest_docs(tmp_path))


class TestAppendRecordShared:
    """baseline.append_record — the shared history writer."""

    def test_creates_missing_directory(self, tmp_path):
        root = tmp_path / "deep" / "nested"
        path = baseline.append_record("serve", record(10), root=root)
        assert path == root / "BENCH_serve.json"
        assert [r.total_ops for r in read_history(path)] == [10]

    def test_salvages_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        text = json.dumps([record(10), record(20)], indent=2)
        path.write_text(text[: len(text) - 40])  # torn tail
        baseline.append_record("serve", record(30), root=tmp_path)
        assert [r.total_ops for r in read_history(path)] == [10, 30]

    def test_atomic_replace_leaves_no_temp_file(self, tmp_path):
        baseline.append_record("serve", record(10), root=tmp_path)
        assert list(tmp_path.iterdir()) == [tmp_path / "BENCH_serve.json"]
