"""Crash-supervised sharded execution (repro.resilience.pool).

The headline contract — a pooled run is *byte-equivalent* to the serial
guarded run — is checked the same way CI checks it: run the same
experiments serially, pooled, and pooled under chaos kills, then assert
the trace diff is empty and the reproduced texts are identical.  The
fault machinery (poison units, retry exhaustion) is exercised
end-to-end on the poison corpus.
"""

import dataclasses
import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments.cli import build_parser, config_from_args
from repro.experiments.registry import run_experiment
from repro.obs.diff import diff_runs, load_run
from repro.obs.trace import load_trace
from repro.resilience import (
    MergeConflict,
    StageRecord,
    StageStatus,
    StudyJournal,
    config_fingerprint,
)
from repro.resilience.pool import (
    CHAOS_KILL_TICKS,
    ShardJournal,
    _Supervisor,
    _build_portal_tables,
    _chaos_kill_tick,
    _poison_record,
    _wave_two,
    _worker_main,
    merge_shards,
    plan_study_units,
)
from repro.resilience.units import (
    FD_STAGE,
    SCREEN_STAGE,
    PlannedUnit,
    plan_portal_units,
)

SCALE = 0.05
SEED = 7
EXPERIMENTS = ("table05", "table06", "table11")


def guarded_config(tmp_path, **overrides):
    """The shared guarded study shape of the equivalence runs."""
    return StudyConfig(
        scale=SCALE,
        seed=SEED,
        stage_budget=40_000,
        poison_rate=0.25,
        trace_out=str(tmp_path / "trace.jsonl"),
        **overrides,
    )


def run_study(config):
    study = Study.build(config)
    try:
        return {eid: run_experiment(eid, study).text for eid in EXPERIMENTS}
    finally:
        study.close()


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("serial")
    config = guarded_config(tmp_path, workers=1)
    texts = run_study(config)
    return config, texts


@pytest.fixture(scope="module")
def pooled_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pooled")
    config = guarded_config(
        tmp_path, workers=3, shard_dir=str(tmp_path / "shards")
    )
    texts = run_study(config)
    return config, texts


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("chaos")
    config = guarded_config(tmp_path, workers=3, chaos_kill_rate=0.2)
    texts = run_study(config)
    return config, texts


class TestPlan:
    @pytest.fixture(scope="class")
    def study(self):
        study = Study.build(StudyConfig(scale=SCALE, seed=SEED))
        yield study
        study.close()

    def test_screen_unit_per_clean_table(self, study):
        for portal in study:
            units = plan_portal_units(portal.code, portal.report)
            screens = {
                u.table_id for u in units if u.stage == SCREEN_STAGE
            }
            clean = {
                t.resource_id
                for t in portal.report.clean_tables
                if t.clean is not None
            }
            assert screens == clean

    def test_fd_units_depend_on_own_screen(self, study):
        for portal in study:
            units = plan_portal_units(portal.code, portal.report)
            screens = {u.key for u in units if u.stage == SCREEN_STAGE}
            fds = [u for u in units if u.stage == FD_STAGE]
            assert fds, "size filter admitted no fd units at this scale"
            for unit in fds:
                assert unit.depends_on in screens
                assert unit.depends_on == (
                    portal.code,
                    SCREEN_STAGE,
                    unit.table_id,
                )

    def test_study_plan_without_journal_plans_every_unit(self, study):
        assert plan_study_units({p.code: p for p in study}) == [
            unit
            for portal in study
            for unit in plan_portal_units(portal.code, portal.report)
        ]

    def test_plan_has_only_screen_and_fd_units(self, study):
        for portal in study:
            stages = {
                u.stage for u in plan_portal_units(portal.code, portal.report)
            }
            assert stages == {SCREEN_STAGE, FD_STAGE}


class TestEquivalence:
    def test_pooled_trace_diffs_empty_against_serial(
        self, serial_run, pooled_run
    ):
        report = diff_runs(
            load_run(serial_run[0].trace_out),
            load_run(pooled_run[0].trace_out),
        )
        assert not report.has_drift, report.as_json()

    def test_chaos_trace_diffs_empty_against_serial(
        self, serial_run, chaos_run
    ):
        report = diff_runs(
            load_run(serial_run[0].trace_out),
            load_run(chaos_run[0].trace_out),
        )
        assert not report.has_drift, report.as_json()

    def test_reproduced_texts_identical(
        self, serial_run, pooled_run, chaos_run
    ):
        assert serial_run[1] == pooled_run[1] == chaos_run[1]

    def test_chaos_actually_killed_workers(self, chaos_run):
        metrics = load_trace(chaos_run[0].trace_out).metrics
        assert metrics["pool.worker_deaths"]["value"] > 0
        assert metrics["pool.redispatches"]["value"] > 0
        assert metrics["pool.worker_restarts"]["value"] > 0

    def test_serial_trace_has_no_pool_artifacts(self, serial_run):
        trace = load_trace(serial_run[0].trace_out)
        assert not [
            s for s in trace.spans if s.get("kind") in ("pool", "lane")
        ]
        assert not [
            name for name in trace.metrics if name.startswith("pool.")
        ]
        assert "workers" not in trace.header


class TestLanes:
    def test_pool_span_and_lane_spans_present(self, pooled_run):
        trace = load_trace(pooled_run[0].trace_out)
        pools = [s for s in trace.spans if s.get("kind") == "pool"]
        lanes = [s for s in trace.spans if s.get("kind") == "lane"]
        assert len(pools) == 1
        assert pools[0]["attrs"]["workers"] == 3
        assert len(lanes) == 3
        assert trace.header["workers"] == 3

    def test_lane_ops_reconcile_with_adopted_unit_ticks(self, pooled_run):
        """Sum of per-lane op tallies equals the self-ops of every unit
        span the executors adopted — no work is double- or un-counted."""
        trace = load_trace(pooled_run[0].trace_out)
        lane_ops = sum(
            s["attrs"]["lane_ops"]
            for s in trace.spans
            if s.get("kind") == "lane"
        )
        adopted_ops = sum(
            s.get("self_ops", 0)
            for s in trace.spans
            if s.get("kind") == "unit" and "worker" in s.get("attrs", {})
        )
        assert lane_ops == adopted_ops > 0

    def test_lane_spans_carry_zero_self_ops(self, pooled_run):
        """Lanes are bookkeeping, not attribution: drift comparison and
        `ogdp-repro stats` must never see their ops twice."""
        trace = load_trace(pooled_run[0].trace_out)
        assert all(
            s.get("self_ops") == 0
            for s in trace.spans
            if s.get("kind") in ("pool", "lane")
        )


class TestShards:
    def test_shard_files_persisted_with_fingerprint(self, pooled_run):
        config, _ = pooled_run
        shards = sorted(
            pathlib.Path(config.shard_dir).glob("shard-*.jsonl")
        )
        assert shards
        fingerprint = config_fingerprint(config)
        total = 0
        for shard in shards:
            header = json.loads(
                shard.read_text(encoding="utf-8").splitlines()[0]
            )
            assert header["fingerprint"] == fingerprint
            total += len(ShardJournal(shard, fingerprint))
        assert total > 0

    def test_foreign_fingerprint_rejected_wholesale(self, pooled_run):
        config, _ = pooled_run
        shard = sorted(
            pathlib.Path(config.shard_dir).glob("shard-*.jsonl")
        )[0]
        foreign = dict(config_fingerprint(config), seed=config.seed + 1)
        assert list(ShardJournal(shard, foreign)) == []

    def test_torn_shard_is_appended_by_next_incarnation(
        self, pooled_run, tmp_path
    ):
        """A worker killed mid-append leaves its shard's last line torn;
        the slot's next incarnation recomputes that unit and appends it
        on a line of its own, where the final merge finds it."""
        config, _ = pooled_run
        source = sorted(
            pathlib.Path(config.shard_dir).glob("shard-*.jsonl")
        )[0]
        slot = int(source.stem.removeprefix("shard-w"))
        shard = tmp_path / source.name
        text = source.read_text(encoding="utf-8")
        lines = text.splitlines()
        last = json.loads(lines[-1])
        # Cut the last envelope in half, as a kill mid-append would.
        shard.write_text(text[: len(text) - len(lines[-1]) // 2])
        fingerprint = config_fingerprint(config)
        unit = tuple(last["unit"])
        assert unit not in ShardJournal(shard, fingerprint)

        tasks = _FakeConn(
            [{"type": "unit", "unit": last["unit"], "attempt": 0}]
            + [{"type": "stop"}]
        )
        results = _FakeConn()
        _worker_main(slot, config, tasks, results, str(tmp_path))

        assert results.sent[-1]["type"] == "done"
        merged = merge_shards([shard], fingerprint)
        assert merged[unit] == last
        assert len(merged) == len(lines) - 1  # every envelope, no header

    def test_no_resume_recomputes_every_unit(self, tmp_path):
        """Without resume a kept shard dir is discarded, like the crawl
        and study journals, so the rerun computes every planned unit."""

        def pool_metrics(**overrides):
            config = StudyConfig(
                scale=SCALE,
                seed=SEED,
                portal_codes=("SG",),
                workers=2,
                shard_dir=str(tmp_path / "shards"),
                trace_out=str(tmp_path / "trace.jsonl"),
                **overrides,
            )
            Study.build(config).close()
            return load_trace(config.trace_out).metrics

        pool_metrics()
        metrics = pool_metrics(resume=False)
        planned = metrics["pool.units_planned"]["value"]
        completed = metrics.get("pool.units_completed", {"value": 0})
        assert completed["value"] == planned > 0


def envelope(table_id="t1", *, worker="w0", stage="screen", ticks=10):
    """A pool shard line wrapping one unit's record."""
    record = StageRecord(
        stage=stage, table_id=table_id, status="OK", ticks=ticks, budget=1000
    )
    return {
        "unit": ["SG", stage, table_id],
        "worker": worker,
        "record": dataclasses.asdict(record),
        "metrics": {},
    }


class TestMergeShards:
    """The reconciliation the pool runs after the fleet drains."""

    FINGERPRINT = {"seed": 7, "stage_budget": 1000}

    def write_shard(self, path, envelopes, *, header=True):
        lines = [json.dumps(e, sort_keys=True) for e in envelopes]
        if header:
            lines.insert(0, json.dumps({"fingerprint": self.FINGERPRINT}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def merge(self, paths):
        return merge_shards(paths, self.FINGERPRINT)

    def test_interleaved_shards_union(self, tmp_path):
        """Disjoint units scattered across shards all land."""
        self.write_shard(
            tmp_path / "shard-w0.jsonl",
            [envelope("t1"), envelope("t3", stage="fd")],
        )
        self.write_shard(
            tmp_path / "shard-w1.jsonl",
            [envelope("t2", worker="w1"), envelope("t1", stage="fd")],
        )
        merged = self.merge(sorted(tmp_path.glob("shard-*.jsonl")))
        assert len(merged) == 4
        assert merged[("SG", "fd", "t1")] == envelope("t1", stage="fd")

    def test_merge_order_is_path_sorted(self, tmp_path):
        """The merged order ignores the order the shards are named in."""
        w0, w1 = tmp_path / "shard-w0.jsonl", tmp_path / "shard-w1.jsonl"
        self.write_shard(w0, [envelope("b")])
        self.write_shard(w1, [envelope("a", worker="w1")])
        forward = self.merge([w0, w1])
        reverse = self.merge([w1, w0])
        assert list(forward.items()) == list(reverse.items())
        assert list(forward) == [("SG", "screen", "b"), ("SG", "screen", "a")]

    def test_identical_duplicates_dedupe(self, tmp_path):
        """A re-dispatched unit persisted by two workers merges silently."""
        self.write_shard(tmp_path / "shard-w0.jsonl", [envelope(ticks=42)])
        self.write_shard(
            tmp_path / "shard-w1.jsonl", [envelope(ticks=42, worker="w1")]
        )
        merged = self.merge(sorted(tmp_path.glob("shard-*.jsonl")))
        assert len(merged) == 1
        assert merged[("SG", "screen", "t1")]["worker"] == "w0"

    def test_conflicting_duplicates_raise(self, tmp_path):
        self.write_shard(tmp_path / "shard-w0.jsonl", [envelope(ticks=42)])
        self.write_shard(tmp_path / "shard-w1.jsonl", [envelope(ticks=43)])
        with pytest.raises(MergeConflict) as excinfo:
            self.merge(sorted(tmp_path.glob("shard-*.jsonl")))
        assert "disagrees" in str(excinfo.value)

    def test_torn_lines_skipped(self, tmp_path):
        shard = tmp_path / "shard-w0.jsonl"
        self.write_shard(shard, [envelope("t1"), envelope("t2")])
        text = shard.read_text(encoding="utf-8")
        shard.write_text(text[:-30], encoding="utf-8")
        assert list(self.merge([shard])) == [("SG", "screen", "t1")]

    def test_header_lines_ignored(self, tmp_path):
        shard = tmp_path / "shard-w0.jsonl"
        self.write_shard(shard, [envelope("t1")])
        assert list(self.merge([shard])) == [("SG", "screen", "t1")]
        self.write_shard(shard, [envelope("t1")], header=False)
        assert self.merge([shard]) == {}

    def test_missing_shards_are_not_an_error(self, tmp_path):
        assert self.merge([tmp_path / "never-written.jsonl"]) == {}


class TestPoisonEscalation:
    @pytest.fixture(scope="class")
    def escalated(self, tmp_path_factory):
        """Poison corpus pooled with one unit retry: the stage budget is
        the only tick bound, exactly as in the serial run, so every
        poison unit quarantines through its budget, no worker dies, and
        the report is the serial one."""
        tmp_path = tmp_path_factory.mktemp("escalate")
        config = StudyConfig(
            scale=SCALE,
            seed=SEED,
            poison_rate=0.25,
            stage_budget=40_000,
            workers=2,
            unit_retries=1,
            quarantine_dir=str(tmp_path / "quarantine"),
            trace_out=str(tmp_path / "trace.jsonl"),
        )
        study = Study.build(config)
        try:
            text = run_experiment("table05", study).text
            outcomes = [
                o
                for portal in study
                for o in portal.executor.outcomes
                if o.status is StageStatus.QUARANTINED
            ]
        finally:
            study.close()
        return config, tmp_path, text, outcomes

    def test_study_survives_and_reports(self, escalated, serial_run):
        _, _, text, outcomes = escalated
        assert outcomes, "no poison unit was quarantined"
        assert text == serial_run[1]["table05"]

    def test_quarantine_details_name_a_fault_path(self, escalated):
        """The budget is the only door to quarantine when no worker
        dies; the escalation door is pinned deterministically by
        TestSupervisorEscalation below."""
        _, _, _, outcomes = escalated
        details = {o.detail for o in outcomes}
        assert details
        assert all(
            detail.startswith("work budget exhausted") for detail in details
        )

    def test_quarantine_files_written(self, escalated):
        _, tmp_path, _, outcomes = escalated
        files = sorted((tmp_path / "quarantine").glob("*.json"))
        assert len(files) == len(outcomes)

    def test_no_worker_died(self, escalated):
        config, _, _, _ = escalated
        metrics = load_trace(config.trace_out).metrics
        assert metrics["pool.units_completed"]["value"] > 0
        assert "pool.worker_deaths" not in metrics
        assert "pool.redispatches" not in metrics


class _FakeConn:
    """One end of a pipe: records what was sent, replays *incoming*."""

    def __init__(self, incoming=()):
        self.sent = []
        self.incoming = list(incoming)
        self.closed = False

    def recv(self):
        if not self.incoming:
            raise EOFError
        return self.incoming.pop(0)

    def send(self, message):
        if self.closed:
            raise OSError("send on closed pipe")
        self.sent.append(message)

    def close(self):
        self.closed = True


class _FakeProcess:
    def __init__(self, pid):
        self.pid = pid
        self.exitcode = None
        self._started = False

    def start(self):
        self._started = True

    def is_alive(self):
        return self._started and self.exitcode is None

    def die(self, exitcode=-9):
        self.exitcode = exitcode


class _FakeCtx:
    """A multiprocessing context that spawns bookkeeping stand-ins."""

    def __init__(self):
        self.spawned = []

    def Pipe(self, duplex=False):
        return _FakeConn(), _FakeConn()

    def Process(self, target=None, args=(), daemon=False):
        process = _FakeProcess(pid=50_000 + len(self.spawned))
        self.spawned.append(process)
        return process


class TestSupervisorEscalation:
    """The retry-exhaustion path, driven deterministically.

    No worker dies in the end-to-end poison run above; here fake
    processes remove the scheduler so the kill → redispatch → kill →
    poison escalation is exercised exactly."""

    def make_supervisor(self, tmp_path, units, slots=2):
        config = StudyConfig(
            scale=SCALE,
            seed=SEED,
            stage_budget=40_000,
            workers=2,
            unit_retries=1,
        )
        supervisor = _Supervisor(
            config, _FakeCtx(), tmp_path / "shards", slots=slots
        )
        supervisor.queue.extend(units)
        for slot in range(slots):
            supervisor._spawn(slot)
        return supervisor

    def done(self, supervisor, slot, unit, status=StageStatus.OK.name):
        supervisor._on_done(
            slot, {"type": "done", "unit": list(unit.key), "status": status}
        )

    def test_two_deaths_poison_the_unit(self, tmp_path):
        fd_a, fd_b, fd_c = (
            PlannedUnit("socrata", FD_STAGE, table)
            for table in ("tbl-a", "tbl-b", "tbl-c")
        )
        supervisor = self.make_supervisor(tmp_path, [fd_a, fd_b, fd_c])

        supervisor._dispatch_idle()
        assert supervisor.inflight == {0: fd_a, 1: fd_b}
        assert supervisor.task_conns[0].sent[-1]["attempt"] == 0
        assert list(supervisor.queue) == [fd_c]

        # First death: the unit goes back to the front of the queue and
        # a replacement worker (with fresh pipes) takes the slot.
        supervisor.processes[0].die()
        supervisor._reap_dead()
        assert supervisor.counters["pool.worker_deaths"] == 1
        assert supervisor.counters["pool.redispatches"] == 1
        assert supervisor.attempts[fd_a.key] == 1
        assert list(supervisor.queue) == [fd_a, fd_c]
        assert supervisor.processes[0].is_alive()

        supervisor._dispatch_idle()
        assert supervisor.inflight[0] is fd_a
        assert supervisor.task_conns[0].sent[-1]["attempt"] == 1

        # Second death exhausts unit_retries=1: the unit is poisoned.
        supervisor.processes[0].die()
        supervisor._reap_dead()
        assert supervisor.poisoned == {fd_a.key}
        assert supervisor.counters["pool.poison_quarantines"] == 1
        assert supervisor.counters["pool.worker_deaths"] == 2

        # The other units complete and the plan is fully settled.
        supervisor._dispatch_idle()
        assert supervisor.inflight == {0: fd_c, 1: fd_b}
        self.done(supervisor, 1, fd_b)
        self.done(supervisor, 0, fd_c)
        assert not supervisor._unresolved()
        assert supervisor.counters["pool.units_completed"] == 2

    def test_wave_two_runs_only_units_behind_an_ok_screen(self, tmp_path):
        """A table's fd unit joins wave two only when its screen ended
        OK in wave one or in the study journal: a screen the pool
        poisoned, one journaled QUARANTINED and one that never ran hold
        it back.  Wave two runs on the same fleet."""

        def dependents(table_id):
            return [PlannedUnit("SG", FD_STAGE, table_id)]

        journal = StudyJournal(tmp_path / "study-SG.jsonl", {"seed": SEED})
        for table_id, status in (
            ("journaled-ok", StageStatus.OK.name),
            ("journaled-quarantined", StageStatus.QUARANTINED.name),
        ):
            journal.record(
                StageRecord(
                    stage=SCREEN_STAGE,
                    table_id=table_id,
                    status=status,
                    ticks=1,
                    budget=40_000,
                )
            )
        portals = {
            "SG": SimpleNamespace(executor=SimpleNamespace(journal=journal))
        }
        poisoned = PlannedUnit("SG", SCREEN_STAGE, "poisoned")
        screened = PlannedUnit("SG", SCREEN_STAGE, "screened")
        supervisor = self.make_supervisor(tmp_path, [poisoned, screened])
        supervisor._dispatch_idle()
        for _ in range(2):
            supervisor.processes[0].die()
            supervisor._reap_dead()
            supervisor._dispatch_idle()
        self.done(supervisor, 1, screened)
        assert supervisor.poisoned == {poisoned.key}
        assert not supervisor._unresolved()

        # Journaled screens are not in the plan, as plan_study_units
        # leaves them out; "never-ran" has no screen anywhere.
        plan = [poisoned, screened] + [
            unit
            for table_id in (
                "poisoned",
                "screened",
                "journaled-ok",
                "journaled-quarantined",
                "never-ran",
            )
            for unit in dependents(table_id)
        ]
        wave = _wave_two(plan, portals, supervisor.completed)
        assert wave == dependents("screened") + dependents("journaled-ok")
        journal.close()

        # A worker that died once wave one had settled is not replaced
        # until wave two has a unit for its slot.
        supervisor.processes[0].die()
        supervisor._reap_dead()
        assert supervisor.processes[0] is None
        supervisor.queue.extend(wave)
        supervisor._dispatch_idle()
        assert supervisor.processes[0].is_alive()
        assert supervisor.inflight == {0: wave[0], 1: wave[1]}

    def test_repeated_fruitless_deaths_abort_instead_of_respawning(
        self, tmp_path
    ):
        screen = PlannedUnit("socrata", SCREEN_STAGE, "tbl-a")
        supervisor = self.make_supervisor(tmp_path, [screen], slots=1)
        # Workers dying with nothing in flight cannot be a unit's
        # fault; after 3 * slots of them in a row the pool gives up.
        for _ in range(3 * supervisor.slots):
            supervisor.processes[0].die()
            supervisor._reap_dead()
        supervisor.processes[0].die()
        with pytest.raises(RuntimeError, match="no unit in"):
            supervisor._reap_dead()

    def test_poison_record_names_the_escalation(self, tmp_path):
        config = StudyConfig(
            scale=SCALE,
            seed=SEED,
            stage_budget=40_000,
            workers=2,
            unit_retries=1,
        )
        unit = PlannedUnit("socrata", SCREEN_STAGE, "tbl-a")
        completed = _poison_record(unit, config)
        assert completed.worker == "supervisor"
        assert completed.record.status == StageStatus.QUARANTINED.name
        assert completed.record.ticks == 0
        assert completed.record.detail == (
            "poison unit: killed its worker 2 time(s); "
            "unit-retries=1 exhausted"
        )


class TestResumeIntoPool:
    def test_pooled_run_replays_canonical_journal(self, tmp_path, serial_run):
        """Units checkpointed by a serial run are left out of the pool's
        plan: the resumed pooled run replays them and computes only the
        rest."""
        config = StudyConfig(
            scale=SCALE,
            seed=SEED,
            poison_rate=0.25,
            stage_budget=40_000,
            checkpoint_dir=str(tmp_path),
        )
        study = Study.build(config)
        try:
            first = run_experiment("table05", study).text
        finally:
            study.close()

        resumed = Study.build(
            StudyConfig(
                scale=SCALE,
                seed=SEED,
                poison_rate=0.25,
                stage_budget=40_000,
                checkpoint_dir=str(tmp_path),
                workers=3,
            )
        )
        try:
            assert run_experiment("table05", resumed).text == first
            replayed = sum(
                1
                for portal in resumed
                for o in portal.executor.outcomes
                if o.replayed
            )
            assert replayed > 0
            # Units beyond the journal still compute — in the pool —
            # and reproduce the serial fixture's text exactly.
            assert (
                run_experiment("table11", resumed).text
                == serial_run[1]["table11"]
            )
        finally:
            resumed.close()


class TestChaosSchedule:
    UNIT = None

    def unit(self):
        from repro.resilience.units import PlannedUnit

        return PlannedUnit("SG", SCREEN_STAGE, "r01")

    def config(self, **overrides):
        return StudyConfig(scale=SCALE, seed=SEED, **overrides)

    def test_zero_rate_never_kills(self):
        config = self.config(workers=2, chaos_kill_rate=0.0)
        assert _chaos_kill_tick(config, self.unit(), 0) is None

    def test_schedule_is_deterministic(self):
        config = self.config(workers=2, chaos_kill_rate=1.0)
        first = _chaos_kill_tick(config, self.unit(), 0)
        assert first == _chaos_kill_tick(config, self.unit(), 0)
        assert 1 <= first < CHAOS_KILL_TICKS == 2_000

    def test_final_attempt_always_spared(self):
        config = self.config(
            workers=2, chaos_kill_rate=1.0, unit_retries=2
        )
        assert _chaos_kill_tick(config, self.unit(), 1) is not None
        assert _chaos_kill_tick(config, self.unit(), 2) is None

    def test_attempts_draw_independently(self):
        config = self.config(workers=2, chaos_kill_rate=1.0, unit_retries=9)
        ticks = {_chaos_kill_tick(config, self.unit(), a) for a in range(9)}
        assert len(ticks) > 1


class TestWorkerTableRebuild:
    def test_spawn_fallback_matches_parent_tables(self):
        """A spawn-started worker rebuilds exactly the tables a
        fork-started worker inherits."""
        config = StudyConfig(scale=SCALE, seed=SEED)
        study = Study.build(config)
        try:
            portal = next(iter(study))
            rebuilt = _build_portal_tables(config, portal.code)
            parent = {
                (portal.code, t.resource_id): t.clean
                for t in portal.report.clean_tables
                if t.clean is not None
            }
            assert set(rebuilt) == set(parent)
            for key, table in parent.items():
                assert rebuilt[key].num_rows == table.num_rows
                assert rebuilt[key].column_names == table.column_names
        finally:
            study.close()


class TestCliAndConfig:
    def test_run_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run",
                "table01",
                "--workers",
                "4",
                "--unit-retries",
                "2",
                "--chaos-kill-rate",
                "0.2",
                "--shard-dir",
                "/tmp/shards",
            ]
        )
        config = config_from_args(args)
        assert config.workers == 4
        assert config.unit_retries == 2
        assert config.chaos_kill_rate == 0.2
        assert config.shard_dir == "/tmp/shards"

    def test_defaults_stay_serial(self):
        config = config_from_args(
            build_parser().parse_args(["run", "table01"])
        )
        assert config.workers == 1
        assert config.chaos_kill_rate == 0.0

    def test_straggler_ticks_is_gone(self):
        """The stage budget is the only tick bound: the pool-only
        straggler threshold is rejected, not silently ignored."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "table05", "--straggler-ticks", "30000"]
            )
        with pytest.raises(TypeError):
            StudyConfig(workers=2, straggler_ticks=30_000)

    def test_pooled_executor_is_unbudgeted_by_default(self):
        """A pool needs no guard flag: workers alone keep the default
        executor, unbudgeted and without a journal or quarantine dir."""
        from repro.core.study import _build_executor

        executor = _build_executor(StudyConfig(workers=2), "SG")
        assert executor.stage_budget is None
        assert executor.journal is None
        assert executor.quarantine_dir is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"unit_retries": -1},
            {"chaos_kill_rate": 1.5},
            {"chaos_kill_rate": -0.1},
        ],
    )
    def test_invalid_pool_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            StudyConfig(**overrides)
