"""AnalysisExecutor guard semantics and StudyJournal recovery."""

import json

import pytest

from repro.obs import Observer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import load_trace
from repro.resilience import (
    PORTAL_WIDE,
    AnalysisExecutor,
    CompletedUnit,
    StageRecord,
    StageStatus,
    StudyJournal,
    UnitRequest,
    WorkMeter,
)


#: The config identity the study journals below are written under.
FINGERPRINT = {"seed": 7, "stage_budget": 100}


def spend(ticks):
    """A compute function charging *ticks* then returning them."""

    def compute(meter: WorkMeter):
        meter.tick(ticks, op="test.spend")
        return ticks

    return compute


class TestGuard:
    def test_ok_within_budget(self):
        executor = AnalysisExecutor("SG", stage_budget=100)
        result, outcome = executor.guard("stage", "t1", UnitRequest(spend(40)))
        assert result == 40
        assert outcome.status is StageStatus.OK
        assert outcome.ticks == 40
        assert outcome.budget == 100
        assert not executor.is_quarantined("t1")

    def test_budget_blowup_quarantines(self, tmp_path):
        executor = AnalysisExecutor(
            "SG", stage_budget=10, quarantine_dir=tmp_path
        )
        result, outcome = executor.guard("stage", "t1", UnitRequest(spend(50)))
        assert result is None
        assert outcome.status is StageStatus.QUARANTINED
        assert "work budget exhausted" in outcome.detail
        assert executor.is_quarantined("t1")
        record = json.loads((tmp_path / "SG-t1.json").read_text())
        assert record["status"] == "QUARANTINED"
        assert record["ticks"] == 50

    def test_portal_wide_budget_truncates_with_fallback(self, tmp_path):
        executor = AnalysisExecutor(
            "SG", stage_budget=10, quarantine_dir=tmp_path
        )
        result, outcome = executor.guard(
            "pairs",
            PORTAL_WIDE,
            UnitRequest(
                spend(50),
                on_budget=StageStatus.TRUNCATED,
                fallback=lambda: "degraded",
            ),
        )
        assert result == "degraded"
        assert outcome.status is StageStatus.TRUNCATED
        assert not executor.is_quarantined(PORTAL_WIDE)
        # Portal-wide units never leave quarantine files.
        assert list(tmp_path.iterdir()) == []

    def test_classify_marks_clean_truncation(self):
        executor = AnalysisExecutor("SG", stage_budget=100)
        _, outcome = executor.guard(
            "fd",
            "t1",
            UnitRequest(
                spend(40), classify=lambda _result: StageStatus.TRUNCATED
            ),
        )
        assert outcome.status is StageStatus.TRUNCATED
        assert not executor.is_quarantined("t1")

    def test_crash_records_failed_and_excludes(self, tmp_path):
        executor = AnalysisExecutor("SG", quarantine_dir=tmp_path)

        def explode(meter):
            raise ZeroDivisionError("boom")

        result, outcome = executor.guard("stage", "t1", UnitRequest(explode))
        assert result is None
        assert outcome.status is StageStatus.FAILED
        assert outcome.detail == "ZeroDivisionError: boom"
        # Crashed tables are excluded downstream like quarantined ones,
        # but carry no quarantine file.
        assert executor.is_quarantined("t1")
        assert list(tmp_path.iterdir()) == []

    def test_status_counts_and_ticks(self):
        executor = AnalysisExecutor("SG", stage_budget=10)
        executor.guard("stage", "a", UnitRequest(spend(5)))
        executor.guard("stage", "b", UnitRequest(spend(50)))
        counts = executor.status_counts()
        assert counts[StageStatus.OK] == 1
        assert counts[StageStatus.QUARANTINED] == 1
        assert executor.ticks_spent == 55


class TestJournalReplay:
    def test_replay_skips_recomputation(self, tmp_path):
        path = tmp_path / "study-SG.jsonl"
        with StudyJournal(path, FINGERPRINT) as journal:
            executor = AnalysisExecutor("SG", stage_budget=100, journal=journal)
            executor.guard(
                "fd",
                "t1",
                UnitRequest(spend(40), encode=lambda r: {"ticks": r}),
            )

        calls = []

        def must_not_run(meter):
            calls.append(1)
            return 0

        with StudyJournal(path, FINGERPRINT) as journal:
            executor = AnalysisExecutor("SG", stage_budget=100, journal=journal)
            result, outcome = executor.guard(
                "fd",
                "t1",
                UnitRequest(
                    must_not_run, decode=lambda payload: payload["ticks"]
                ),
            )
        assert calls == []
        assert result == 40
        assert outcome.replayed
        assert outcome.ticks == 40
        # Replays are free: they do not count toward spent work.
        assert executor.ticks_spent == 0

    def test_replayed_quarantine_still_excludes(self, tmp_path):
        path = tmp_path / "study-SG.jsonl"
        with StudyJournal(path, FINGERPRINT) as journal:
            executor = AnalysisExecutor(
                "SG", stage_budget=10, journal=journal
            )
            executor.guard("screen", "t1", UnitRequest(spend(50)))
            assert executor.is_quarantined("t1")

        with StudyJournal(path, FINGERPRINT) as journal:
            executor = AnalysisExecutor("SG", stage_budget=10, journal=journal)
            _, outcome = executor.guard(
                "screen", "t1", UnitRequest(spend(0))
            )
        assert outcome.replayed
        assert outcome.status is StageStatus.QUARANTINED
        assert executor.is_quarantined("t1")

    def test_unjournaled_stage_always_recomputes(self, tmp_path):
        path = tmp_path / "study-SG.jsonl"
        with StudyJournal(path, FINGERPRINT) as journal:
            executor = AnalysisExecutor("SG", journal=journal)
            executor.guard("pairs", PORTAL_WIDE, UnitRequest(spend(5)))
        with StudyJournal(path, FINGERPRINT) as journal:
            executor = AnalysisExecutor("SG", journal=journal)
            _, outcome = executor.guard(
                "pairs", PORTAL_WIDE, UnitRequest(spend(5))
            )
        assert not outcome.replayed


class TestSettle:
    BUDGET_DETAIL = (
        "work budget exhausted during 'test.spend': spent 150 of 100 ticks"
    )

    def test_computed_adopted_and_replayed_units(self, tmp_path):
        """A unit computed here, one adopted from a pool worker and one
        replayed from the journal each leave exactly this span, these
        counters, this journal line, this quarantine effect and this
        result."""
        path = tmp_path / "study-SG.jsonl"
        with StudyJournal(path, FINGERPRINT) as journal:
            journal.record(
                StageRecord(
                    stage="fd",
                    table_id="t3",
                    status="TRUNCATED",
                    ticks=70,
                    budget=100,
                    detail="stopped at level 2",
                    payload={"n": 3},
                )
            )
        obs = Observer(tmp_path / "trace.jsonl")
        with StudyJournal(path, FINGERPRINT, metrics=obs.metrics) as journal:
            executor = AnalysisExecutor(
                "SG",
                stage_budget=100,
                journal=journal,
                quarantine_dir=tmp_path / "q",
                obs=obs,
            )
            executor.precomputed[("fd", "t2")] = CompletedUnit(
                record=StageRecord(
                    stage="fd",
                    table_id="t2",
                    status="QUARANTINED",
                    ticks=150,
                    budget=100,
                    detail=self.BUDGET_DETAIL,
                ),
                worker="w1",
                metrics={"ops.test.spend": {"value": 150}},
            )
            results = [
                executor.guard(
                    "fd",
                    table_id,
                    UnitRequest(
                        spend(40),
                        encode=lambda r: {"n": r},
                        decode=lambda payload: ("decoded", payload["n"]),
                        fallback=lambda: "fallback",
                    ),
                )[0]
                for table_id in ("t1", "t2", "t3")
            ]
        obs.close()

        # The computed unit returns its in-memory result, not a decoded
        # payload; the quarantined adoption falls back; the replay
        # decodes.
        assert results == [40, "fallback", ("decoded", 3)]
        assert [o.replayed for o in executor.outcomes] == [False, False, True]
        assert executor.ticks_spent == 190
        assert executor.quarantined == {"t2"}
        files = sorted((tmp_path / "q").iterdir())
        assert [f.name for f in files] == ["SG-t2.json"]
        assert json.loads(files[0].read_text())["ticks"] == 150

        trace = load_trace(tmp_path / "trace.jsonl")
        spans = {s["attrs"]["table"]: s for s in trace.unit_spans}
        base = {"portal": "SG", "stage": "fd"}
        assert spans["t1"]["attrs"] == {
            **base, "table": "t1", "replayed": False,
        }
        assert spans["t2"]["attrs"] == {
            **base,
            "table": "t2",
            "replayed": False,
            "worker": "w1",
            "detail": self.BUDGET_DETAIL,
        }
        assert spans["t3"]["attrs"] == {
            **base,
            "table": "t3",
            "replayed": True,
            "recorded_ticks": 70,
            "detail": "stopped at level 2",
        }
        assert [
            (spans[t]["status"], spans[t]["ops"], spans[t]["self_ops"])
            for t in ("t1", "t2", "t3")
        ] == [("ok", 40, 40), ("quarantined", 150, 150), ("truncated", 0, 0)]

        values = {
            name: snap["value"]
            for name, snap in trace.metrics.items()
            if name.startswith(("journal.", "stage.", "ops."))
        }
        assert values == {
            "journal.loaded_records": 1,
            "journal.records_written": 2,
            "journal.resume_hits": 1,
            "ops.test.spend": 190,
            "stage.ok": 1,
            "stage.quarantined": 1,
            "stage.replayed": 1,
            "stage.truncated": 1,
        }
        assert trace.metrics["unit.ticks"]["count"] == 2
        assert trace.metrics["unit.ticks"]["sum"] == 190

        # Header, the replayed record, then the computed and the adopted
        # unit's records; a replay appends nothing.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert [json.loads(line) for line in lines[2:]] == [
            {
                "stage": "fd",
                "table_id": "t1",
                "status": "OK",
                "ticks": 40,
                "budget": 100,
                "detail": "",
                "payload": {"n": 40},
            },
            {
                "stage": "fd",
                "table_id": "t2",
                "status": "QUARANTINED",
                "ticks": 150,
                "budget": 100,
                "detail": self.BUDGET_DETAIL,
                "payload": None,
            },
        ]


class TestStudyJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = StageRecord(
            stage="fd",
            table_id="t1",
            status="OK",
            ticks=12,
            budget=100,
            payload={"a": 1},
        )
        with StudyJournal(path, FINGERPRINT) as journal:
            journal.record(record)
        reloaded = StudyJournal(path, FINGERPRINT)
        assert len(reloaded) == 1
        assert ("fd", "t1") in reloaded
        assert reloaded.get(("fd", "t1")) == record

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with StudyJournal(path, FINGERPRINT) as journal:
            journal.record(
                StageRecord(
                    stage="fd", table_id="t1", status="OK", ticks=1, budget=None
                )
            )
            journal.record(
                StageRecord(
                    stage="fd", table_id="t2", status="OK", ticks=2, budget=None
                )
            )
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) - 20], encoding="utf-8")

        metrics = MetricsRegistry()
        with StudyJournal(path, FINGERPRINT, metrics=metrics) as journal:
            counters = metrics.snapshot()
            assert counters["journal.torn_lines"]["value"] == 1
            assert counters["journal.loaded_records"]["value"] == 1
            assert journal.get(("fd", "t1")) is not None
            assert journal.get(("fd", "t2")) is None  # torn: recomputed
            journal.record(
                StageRecord(
                    stage="fd", table_id="t2", status="OK", ticks=3, budget=None
                )
            )
        reloaded = StudyJournal(path, FINGERPRINT)
        assert len(reloaded) == 2
        assert reloaded.get(("fd", "t2")).ticks == 3

    @pytest.mark.parametrize(
        "header",
        [None, {"fingerprint": {"seed": 8, "stage_budget": 100}}],
        ids=["headerless", "foreign"],
    )
    def test_foreign_journal_starts_afresh(self, tmp_path, capsys, header):
        """A journal written under another config (or before journals
        had headers) is never replayed: it loads empty, warns once, and
        is rewritten from a fresh header on the first append."""
        path = tmp_path / "j.jsonl"
        old = StageRecord(
            stage="fd", table_id="t1", status="OK", ticks=1, budget=None
        )
        lines = [old.to_json()]
        if header is not None:
            lines.insert(0, json.dumps(header))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        with StudyJournal(path, FINGERPRINT) as journal:
            assert len(journal) == 0
            journal.record(
                StageRecord(
                    stage="fd", table_id="t2", status="OK", ticks=2, budget=None
                )
            )
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert "journal-foreign" in warnings[0] and str(path) in warnings[0]
        reloaded = StudyJournal(path, FINGERPRINT)
        assert [r.table_id for r in reloaded] == ["t2"]
        header_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(header_line) == {"fingerprint": FINGERPRINT}

    def test_append_after_reload(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with StudyJournal(path, FINGERPRINT) as journal:
            journal.record(
                StageRecord(
                    stage="fd", table_id="t1", status="OK", ticks=1, budget=None
                )
            )
        with StudyJournal(path, FINGERPRINT) as journal:
            journal.record(
                StageRecord(
                    stage="fd", table_id="t2", status="OK", ticks=2, budget=None
                )
            )
        reloaded = StudyJournal(path, FINGERPRINT)
        assert len(reloaded) == 2

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with StudyJournal(path, FINGERPRINT) as journal:
            journal.record(
                StageRecord(
                    stage="fd", table_id="t1", status="OK", ticks=1, budget=None
                )
            )
            journal.record(
                StageRecord(
                    stage="fd",
                    table_id="t1",
                    status="TRUNCATED",
                    ticks=9,
                    budget=5,
                )
            )
        reloaded = StudyJournal(path, FINGERPRINT)
        assert len(reloaded) == 1
        assert reloaded.get(("fd", "t1")).status == "TRUNCATED"


def test_budget_validation():
    with pytest.raises(ValueError):
        AnalysisExecutor("SG", stage_budget=0).guard(
            "s", "t", UnitRequest(spend(1))
        )
