"""Tests for the ogdp-repro command line interface."""

import pytest

from repro.core.study import Study, _build_client
from repro.experiments import clear_cache
from repro.experiments.cli import build_parser, config_from_args, main
from repro.portal import BlobStore, HttpClient
from repro.resilience import ResilientHttpClient


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "table01"])
        assert args.experiment == "table01"
        assert args.scale == 1.0
        assert args.seed == 7

    def test_run_with_options(self):
        args = build_parser().parse_args(
            ["run", "figure08", "--scale", "0.2", "--seed", "3"]
        )
        assert args.scale == 0.2
        assert args.seed == 3

    def test_resilience_defaults_are_seed_behavior(self):
        config = config_from_args(
            build_parser().parse_args(["run", "table01"])
        )
        assert config.max_retries == 0
        assert config.checkpoint_dir is None
        assert config.resume is True
        # max_retries=0 must use the bare transport — the paper's
        # single-shot crawl, bit-for-bit.
        client = _build_client(HttpClient(BlobStore()), config)
        assert isinstance(client, HttpClient)
        assert not isinstance(client, ResilientHttpClient)

    def test_max_retries_flag_reaches_retry_policy(self):
        config = config_from_args(
            build_parser().parse_args(
                ["run", "table01", "--max-retries", "2"]
            )
        )
        assert config.max_retries == 2
        client = _build_client(HttpClient(BlobStore()), config)
        assert isinstance(client, ResilientHttpClient)
        assert client.policy.max_retries == 2
        assert client.policy.max_attempts == 3

    def test_no_resume_and_checkpoint_dir_flags(self, tmp_path):
        config = config_from_args(
            build_parser().parse_args(
                [
                    "run", "table01",
                    "--checkpoint-dir", str(tmp_path),
                    "--no-resume",
                ]
            )
        )
        assert config.checkpoint_dir == str(tmp_path)
        assert config.resume is False

    def test_guard_defaults_are_seed_behavior(self):
        config = config_from_args(
            build_parser().parse_args(["run", "table01"])
        )
        assert config.stage_budget is None
        assert config.quarantine_dir is None
        assert config.poison_rate == 0.0

    def test_guard_flags_reach_config(self, tmp_path):
        config = config_from_args(
            build_parser().parse_args(
                [
                    "run", "table01",
                    "--stage-budget", "40000",
                    "--quarantine-dir", str(tmp_path),
                    "--poison-rate", "0.25",
                ]
            )
        )
        assert config.stage_budget == 40000
        assert config.quarantine_dir == str(tmp_path)
        assert config.poison_rate == 0.25

    def test_obs_defaults_are_seed_behavior(self):
        config = config_from_args(
            build_parser().parse_args(["run", "table01"])
        )
        assert config.trace_out is None

    def test_trace_flags_reach_config(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        config = config_from_args(
            build_parser().parse_args(
                ["run", "table01", "--trace-out", trace]
            )
        )
        assert config.trace_out == trace

    def test_stats_command_parses(self):
        # A trace's statistics come from profile-report; there is no 'stats'.
        args = build_parser().parse_args(
            ["profile-report", "trace.jsonl", "--json", "--top", "5"]
        )
        assert args.command == "profile-report"
        assert args.source == "trace.jsonl"
        assert args.as_json is True
        assert args.top == 5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "trace.jsonl"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--stage-budget", "0"],
            ["--stage-budget", "-5"],
            ["--poison-rate", "1.5"],
            ["--poison-rate", "-0.1"],
        ],
    )
    def test_bad_guard_values_rejected(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table01", *flags])

    def test_fidelity_command_parses(self):
        args = build_parser().parse_args(
            ["fidelity", "--scale", "0.2", "--json", "--out", "f.json"]
        )
        assert args.command == "fidelity"
        assert args.scale == 0.2
        assert args.as_json is True
        assert args.out == "f.json"

    def test_diff_command_parses(self):
        args = build_parser().parse_args(
            ["diff", "runs/a", "runs/b", "--json", "--out", "d.json"]
        )
        assert args.command == "diff"
        assert args.run_a == "runs/a"
        assert args.run_b == "runs/b"
        assert args.as_json is True
        assert args.out == "d.json"

    def test_bench_report_command_parses(self):
        args = build_parser().parse_args(
            ["bench-report", "--root", "/tmp", "--json"]
        )
        assert args.command == "bench-report"
        assert args.root == "/tmp"
        assert args.as_json is True
        # The report gates nothing, so it has no gate flags.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-report", "--threshold", "1"])

    def test_serve_command_parses(self):
        args = build_parser().parse_args(
            ["serve", "--scale", "0.25", "--port", "8323"]
        )
        assert args.command == "serve"
        assert args.scale == 0.25
        assert args.port == 8323
        # host/port default to None; _run_serve falls back to the
        # httpd module defaults.
        assert args.host is None

    def test_serve_rejects_negative_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "-1"])

    def test_loadtest_command_parses(self, tmp_path):
        args = build_parser().parse_args(
            [
                "loadtest",
                "--mix", "smoke",
                "--load-seed", "11",
                "--report", str(tmp_path / "load.json"),
                "--bench-root", str(tmp_path),
                "--json",
            ]
        )
        assert args.command == "loadtest"
        assert args.mix == "smoke"
        assert args.load_seed == 11
        assert args.as_json is True
        assert args.bench_root == str(tmp_path)

    def test_run_rejects_join_index_dir(self, capsys, tmp_path):
        """Joinable pairs are computed, never loaded: no command takes
        a join-index directory, and no command builds one."""
        for command in (["run", "table06"], ["serve"], ["loadtest"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [*command, "--join-index-dir", str(tmp_path)]
                )
            assert "unrecognized arguments: --join-index-dir" in (
                capsys.readouterr().err
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build-index", "--out", str(tmp_path)])
        assert "invalid choice: 'build-index'" in capsys.readouterr().err


class TestMain:
    def test_list_prints_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table01" in out and "figure08" in out

    def test_run_single(self, capsys):
        code = main(["run", "table03", "--scale", "0.08", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_unknown_experiment(self, capsys):
        code = main(["run", "tableXX", "--scale", "0.08", "--seed", "2"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_experiment_builds_no_study(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_build(config):
            raise AssertionError("the study was built")

        monkeypatch.setattr(Study, "build", no_build)
        trace = tmp_path / "t.jsonl"
        assert main(["run", "tableXX", "--trace-out", str(trace)]) == 2
        assert "unknown-experiment" in capsys.readouterr().err
        assert not trace.exists()

    def test_run_with_retries_and_checkpoints(self, capsys, tmp_path):
        code = main(
            [
                "run", "table03",
                "--scale", "0.08",
                "--seed", "2",
                "--max-retries", "1",
                "--checkpoint-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "Table 3" in capsys.readouterr().out
        # One crawl journal per portal was written.
        journals = sorted(p.name for p in tmp_path.glob("crawl-*.jsonl"))
        assert journals  # e.g. crawl-CA.jsonl, crawl-SG.jsonl, ...

    def test_guarded_run_logs_outcome_summary(self, capsys, tmp_path):
        code = main(
            [
                "run", "table05",
                "--scale", "0.08",
                "--seed", "2",
                "--stage-budget", "40000",
                "--poison-rate", "0.25",
                "--quarantine-dir", str(tmp_path / "quarantine"),
                "--checkpoint-dir", str(tmp_path / "checkpoints"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # Diagnostics are structured log lines on stderr, not stdout.
        assert "guarded-outcomes" in captured.err
        assert "ticks=" in captured.err
        assert "guarded-outcomes" not in captured.out
        # Study journals were written next to the crawl journals.
        assert sorted(
            p.name for p in (tmp_path / "checkpoints").glob("study-*.jsonl")
        )

    def test_quiet_suppresses_outcome_summary(self, capsys, tmp_path):
        code = main(
            [
                "-q",
                "run", "table05",
                "--scale", "0.08",
                "--seed", "2",
                "--stage-budget", "40000",
                "--quarantine-dir", str(tmp_path / "quarantine"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "guarded-outcomes" not in captured.err
        assert "Table 5" in captured.out

    def test_default_run_logs_outcome_summary(self, capsys):
        """Every run executes its units through the executor, so a run
        without any guard flag still logs its tallies — all OK, with no
        appendix on stdout."""
        code = main(["run", "table05", "--scale", "0.08", "--seed", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "guarded-outcomes" in captured.err
        assert "truncated=" not in captured.err
        assert "quarantined=" not in captured.err
        assert "degraded analysis stages" not in captured.out

    def test_stats_missing_trace_file(self, capsys, tmp_path):
        code = main(["profile-report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "profile-missing" in capsys.readouterr().err

    def test_stats_empty_trace_reports_no_spans(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["profile-report", str(empty)]) == 0
        assert "no spans" in capsys.readouterr().out


class TestDriftCommands:
    """End-to-end fidelity/diff/bench-report through main()."""

    RUN_FLAGS = [
        "--scale", "0.08", "--seed", "2", "--stage-budget", "40000",
    ]

    def _trace_run(self, tmp_path, name, extra=()):
        run_dir = tmp_path / name
        run_dir.mkdir()
        code = main(
            [
                "-q", "run", "table05", *self.RUN_FLAGS, *extra,
                "--quarantine-dir", str(tmp_path / f"q-{name}"),
                "--trace-out", str(run_dir / "trace.jsonl"),
            ]
        )
        assert code == 0
        clear_cache()
        return run_dir

    def test_unit_ticks_and_outcomes_per_portal(self, tmp_path):
        """The budget currency on a real run: each portal's unit ticks
        and outcome tallies, read from the trace.  A kernel change that
        moves one tick, or one truncation point, moves these."""
        import json
        from collections import Counter, defaultdict

        run_dir = self._trace_run(tmp_path, "a")
        ticks: Counter = Counter()
        outcomes: dict[str, Counter] = defaultdict(Counter)
        with open(run_dir / "trace.jsonl") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "span" and record["kind"] == "unit":
                    portal = record["attrs"]["portal"]
                    ticks[portal] += record["ops"]
                    outcomes[portal][record["status"]] += 1
        assert dict(ticks) == {
            "SG": 22_160, "CA": 149_766, "UK": 777_569, "US": 620_758,
        }
        assert outcomes == {
            "SG": {"ok": 12},
            "CA": {"ok": 25, "truncated": 1},
            "UK": {"ok": 47, "truncated": 11},
            "US": {"ok": 19, "truncated": 6, "quarantined": 6},
        }

    def test_equal_seed_runs_diff_empty(self, capsys, tmp_path):
        run_a = self._trace_run(tmp_path, "a")
        run_b = self._trace_run(tmp_path, "b")
        code = main(["diff", str(run_a), str(run_b)])
        assert code == 0
        assert "no drift" in capsys.readouterr().out

    def test_poisoned_run_drifts_nonzero(self, capsys, tmp_path):
        run_a = self._trace_run(tmp_path, "a")
        run_p = self._trace_run(
            tmp_path, "p", extra=["--poison-rate", "0.05"]
        )
        out_file = tmp_path / "diff.json"
        code = main(
            ["diff", str(run_a), str(run_p), "--out", str(out_file)]
        )
        assert code == 1
        assert "outcome transitions" in capsys.readouterr().out
        import json

        doc = json.loads(out_file.read_text())
        assert doc["drift_count"] > 0
        assert doc["outcome_transitions"]

    def test_diff_unreadable_run_exits_2(self, capsys, tmp_path):
        code = main(["diff", str(tmp_path / "x"), str(tmp_path / "y")])
        assert code == 2
        assert "diff-unreadable" in capsys.readouterr().err

    def test_diff_non_utf8_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"type": "header"}\n\xff\xfe\n')
        assert main(["diff", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "diff-unreadable" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "artifact, doc, message",
        [
            ("fidelity.json", "[1]", "not a JSON object"),
            ("fidelity.json", '{"experiments": [1]}', "malformed"),
            ("profile.json", '{"frames": {"study;SG": null}}', "malformed"),
            ("profile.json", '{"frames": {}, "meta": [1]}', "malformed"),
        ],
    )
    def test_diff_malformed_artifact_exits_2(
        self, capsys, tmp_path, artifact, doc, message
    ):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / artifact).write_text(doc)
        code = main(["diff", str(tmp_path / "a"), str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert "diff-unreadable" in err and message in err

    def test_bench_report_empty_root(self, capsys, tmp_path):
        code = main(["bench-report", "--root", str(tmp_path)])
        assert code == 0
        assert "no bench history" in capsys.readouterr().out

    def test_loadtest_unknown_mix(self, capsys):
        code = main(["loadtest", "--mix", "nope"])
        assert code == 2
        assert "unknown-mix" in capsys.readouterr().err

    def test_loadtest_end_to_end(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "load.json"
        code = main(
            [
                "-q", "loadtest",
                "--scale", "0.18", "--seed", "3",
                "--mix", "smoke",
                "--report", str(report_path),
                "--bench-root", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lost=0" in out
        doc = json.loads(report_path.read_text())
        assert doc["requests"]["lost"] == 0
        assert all(doc["invariants"].values())
        # The serving op pin: `make smoke-serve`'s config, exactly.  Op
        # counts depend only on (scale, seed, mix, code), so one more
        # tick per request moves these; a change that moves them on
        # purpose updates them and says so.
        assert doc["total_ops"] == 1353
        latency = doc["latency_ops"]
        assert (latency["p50"], latency["p99"]) == (2, 42)
        assert doc["outcomes"] == {
            "ok": 238, "degraded": 79, "shed": 79, "error": 8,
        }
        history = json.loads(
            (tmp_path / "BENCH_serve.json").read_text()
        )
        assert len(history) == 1
        assert history[0]["experiment"] == "serve"
        assert history[0]["clients"] == doc["harness"]["clients"]
        assert history[0]["total_ops"] == 1353

    def test_bench_report_prints_latest_records(self, capsys, tmp_path):
        import json

        def record(ops, **fields):
            return {"scale": 1.0, "seed": 7, "total_ops": ops} | fields

        joins = [
            record(
                ops,
                join_candidates=ops // 10,
                join_verify_ops=ops // 20,
                hotspots=[["study;US;pairs@0.7;lsh", ops // 2]],
            )
            for ops in (100_000, 200_000)
        ]
        serve = record(
            1353, clients=48, p50_ops=2, p99_ops=42, shed_rate=0.195545,
            availability=0.793814, slo_verdict="OK",
        )
        (tmp_path / "BENCH_join.json").write_text(json.dumps(joins))
        (tmp_path / "BENCH_serve.json").write_text(json.dumps([serve]))
        assert main(["bench-report", "--root", str(tmp_path)]) == 0
        lines = [
            line.split() for line in capsys.readouterr().out.splitlines()
        ]
        assert ["join", "200000"] in lines
        assert ["serve", "1353"] in lines
        # join_verify_ops, a key older records still carry, parses and
        # no longer shows: it always equalled the candidates.
        assert ["join", "20000"] in lines
        assert ["join", "100000", "50.0%", "study;US;pairs@0.7;lsh"] in lines
        assert ["serve", "48", "2", "42", "19.6%", "79.4%", "OK"] in lines
        assert main(["bench-report", "--root", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["experiment"] for r in doc] == ["join", "serve"]
        assert [r["total_ops"] for r in doc] == [200_000, 1353]
        assert doc[0]["hotspots"] == [["study;US;pairs@0.7;lsh", 100_000]]
        assert doc[1]["slo_verdict"] == "OK"


class TestProfileCommands:
    """The profiler's CLI surface: flags, report, and diff on profiles."""

    def _write_profile(self, path, frames):
        from repro.obs.profile import Profiler, write_profile

        prof = Profiler()
        prof.absorb(frames)
        write_profile(path, prof)
        return str(path)

    def test_profile_defaults_are_seed_behavior(self):
        config = config_from_args(
            build_parser().parse_args(["run", "table01"])
        )
        assert config.profile_out is None

    def test_profile_flags_reach_config(self, tmp_path):
        out = str(tmp_path / "profile.json")
        config = config_from_args(
            build_parser().parse_args(
                [
                    "run",
                    "table01",
                    "--profile-out",
                    out,
                ]
            )
        )
        assert config.profile_out == out

    def test_profile_report_command_parses(self, tmp_path):
        args = build_parser().parse_args(
            [
                "profile-report",
                "profile.json",
                "--json",
                "--top",
                "3",
                "--collapsed",
                str(tmp_path / "c.txt"),
            ]
        )
        assert args.command == "profile-report"
        assert args.source == "profile.json"
        assert args.as_json is True
        assert args.top == 3

    def test_run_writes_profile_artifact(self, capsys, tmp_path):
        import json

        out = tmp_path / "profile.json"
        code = main(
            [
                "run",
                "table03",
                "--scale",
                "0.08",
                "--seed",
                "2",
                "--profile-out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert "frames" in doc
        assert doc["total_ticks"] == sum(doc["frames"].values())

    def test_profile_report_text_and_json(self, capsys, tmp_path):
        import json

        path = self._write_profile(
            tmp_path / "p.json",
            {"study;SG;fd;fd.refine": 9_000, "study;SG;screen.cell": 1_000},
        )
        assert main(["profile-report", path]) == 0
        out = capsys.readouterr().out
        assert "PROFILE HOTSPOTS" in out
        assert "study;SG;fd;fd.refine" in out
        assert main(["profile-report", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_ticks"] == 10_000
        assert doc["hotspots"][0]["frame"] == "study;SG;fd;fd.refine"

    def test_profile_report_writes_collapsed(self, capsys, tmp_path):
        path = self._write_profile(
            tmp_path / "p.json", {"study;SG;fd.refine": 7}
        )
        for collapsed in (
            tmp_path / "collapsed.txt",
            tmp_path / "new" / "dir" / "collapsed.txt",
        ):
            code = main(
                ["profile-report", path, "--collapsed", str(collapsed)]
            )
            assert code == 0
            assert collapsed.read_text() == "study;SG;fd.refine 7\n"

    def test_profile_report_missing_source(self, capsys, tmp_path):
        assert main(["profile-report", str(tmp_path / "nope.json")]) == 2

    def test_diff_on_profiles_clean_and_drifted(self, capsys, tmp_path):
        base = self._write_profile(
            tmp_path / "a.json", {"study;SG;fd.refine": 10_000}
        )
        worse = self._write_profile(
            tmp_path / "b.json", {"study;SG;fd.refine": 10_001}
        )
        assert main(["diff", base, base]) == 0
        assert "no drift" in capsys.readouterr().out
        assert main(["diff", base, worse]) == 1
        assert "study;SG;fd.refine: 10000 -> 10001 (+1)" in (
            capsys.readouterr().out
        )
