"""Crash-supervised sharded execution (repro.resilience.pool).

The headline contract — a pooled run is *byte-equivalent* to the serial
guarded run — is checked the same way CI checks it: run the same
experiments serially, pooled, and pooled under chaos kills, then assert
the trace diff is empty and the reproduced texts are identical.  The
fault machinery (stragglers, poison units, retry exhaustion) is
exercised end-to-end on the poison corpus.
"""

import json
import pathlib

import pytest

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments.cli import build_parser, config_from_args
from repro.experiments.registry import run_experiment
from repro.obs.diff import diff_runs, load_run
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import load_trace
from repro.resilience import StageStatus
from repro.resilience.pool import (
    HEARTBEAT_TICKS,
    SupervisedMeter,
    _Supervisor,
    _build_portal_tables,
    _chaos_kill_tick,
    _poison_record,
    plan_study_units,
    read_shard,
    shard_fingerprint,
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

    def test_study_plan_without_journal_has_no_external(self, study):
        plan, external = plan_study_units({p.code: p for p in study})
        assert external == {}
        assert len(plan) == sum(
            len(plan_portal_units(p.code, p.report)) for p in study
        )

    def test_joinsig_unit_per_clean_table(self, study):
        from repro.resilience.units import JOINSIG_STAGE

        for portal in study:
            units = plan_portal_units(portal.code, portal.report)
            joinsigs = [u for u in units if u.stage == JOINSIG_STAGE]
            assert {u.table_id for u in joinsigs} == {
                t.resource_id
                for t in portal.report.clean_tables
                if t.clean is not None
            }
            # Signature building waits for (and dies with) the screen.
            for unit in joinsigs:
                assert unit.depends_on == (
                    portal.code,
                    SCREEN_STAGE,
                    unit.table_id,
                )


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
        fingerprint = shard_fingerprint(config)
        total = 0
        for shard in shards:
            header = json.loads(
                shard.read_text(encoding="utf-8").splitlines()[0]
            )
            assert header["fingerprint"] == fingerprint
            total += len(read_shard(shard, fingerprint))
        assert total > 0

    def test_foreign_fingerprint_rejected_wholesale(self, pooled_run):
        config, _ = pooled_run
        shard = sorted(
            pathlib.Path(config.shard_dir).glob("shard-*.jsonl")
        )[0]
        foreign = dict(shard_fingerprint(config), seed=config.seed + 1)
        assert read_shard(shard, foreign) == []


class TestPoisonEscalation:
    @pytest.fixture(scope="class")
    def escalated(self, tmp_path_factory):
        """Poison corpus under a straggler threshold below the stage
        budget: every poison unit overruns the threshold and is either
        straggler-killed into retry exhaustion or (when its budget
        fires before the supervisor's SIGKILL lands) budget-quarantined
        — both paths must converge to QUARANTINED and a finished study."""
        tmp_path = tmp_path_factory.mktemp("escalate")
        config = StudyConfig(
            scale=SCALE,
            seed=SEED,
            poison_rate=0.25,
            stage_budget=40_000,
            workers=2,
            unit_retries=1,
            straggler_ticks=30_000,
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

    def test_study_survives_and_reports(self, escalated):
        _, _, text, outcomes = escalated
        assert text.strip()
        assert outcomes, "no unit exhausted its retries"

    def test_quarantine_details_name_a_fault_path(self, escalated):
        """SIGKILL delivery races the unit's own budget on a loaded
        machine, so a poison unit may quarantine through either door —
        retry exhaustion or budget — but never through anything else.
        (The escalation door itself is pinned deterministically by
        TestSupervisorEscalation below.)"""
        config, _, _, outcomes = escalated
        escalation = (
            f"poison unit: killed its worker "
            f"{config.unit_retries + 1} time(s); "
            f"unit-retries={config.unit_retries} exhausted"
        )
        details = {o.detail for o in outcomes}
        assert details
        assert all(
            detail == escalation
            or detail.startswith("work budget exhausted")
            for detail in details
        )

    def test_quarantine_files_written(self, escalated):
        _, tmp_path, _, outcomes = escalated
        files = sorted((tmp_path / "quarantine").glob("*.json"))
        assert len(files) == len(outcomes)

    def test_straggler_kills_recorded(self, escalated):
        config, _, _, _ = escalated
        metrics = load_trace(config.trace_out).metrics
        assert metrics["pool.straggler_kills"]["value"] > 0
        assert metrics["pool.worker_deaths"]["value"] > 0


class _FakeConn:
    """One end of a supervisor pipe, recording what was sent."""

    def __init__(self):
        self.sent = []
        self.closed = False

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

    The end-to-end poison run above can resolve each poison unit through
    either the straggler or the budget door depending on OS scheduling;
    here fake processes remove the scheduler so the kill → redispatch →
    kill → poison escalation is exercised exactly."""

    def make_supervisor(self, tmp_path, units):
        config = StudyConfig(
            scale=SCALE,
            seed=SEED,
            stage_budget=40_000,
            workers=2,
            unit_retries=1,
        )
        ctx = _FakeCtx()
        supervisor = _Supervisor(units, config, ctx, tmp_path / "shards")
        for slot in range(supervisor.slots):
            supervisor._spawn(slot)
        return supervisor

    def test_two_deaths_poison_the_unit_and_cancel_dependents(
        self, tmp_path
    ):
        screen_a = PlannedUnit("socrata", SCREEN_STAGE, "tbl-a")
        fd_a = PlannedUnit("socrata", FD_STAGE, "tbl-a")
        screen_b = PlannedUnit("socrata", SCREEN_STAGE, "tbl-b")
        supervisor = self.make_supervisor(
            tmp_path, [screen_a, fd_a, screen_b]
        )

        supervisor._dispatch_idle()
        assert supervisor.inflight[0] is screen_a
        assert supervisor.task_conns[0].sent[-1]["attempt"] == 0
        # Slot 1's home shard is empty, so it steals screen_b.
        assert supervisor.inflight[1] is screen_b
        assert supervisor.counters["pool.steals"] == 1

        # First death: the unit is redispatched to its home shard and a
        # replacement worker (with fresh pipes) takes the slot.
        supervisor.processes[0].die()
        supervisor._reap_dead()
        assert supervisor.counters["pool.worker_deaths"] == 1
        assert supervisor.counters["pool.redispatches"] == 1
        assert supervisor.attempts[screen_a.key] == 1
        assert supervisor.processes[0].is_alive()

        supervisor._dispatch_idle()
        assert supervisor.inflight[0] is screen_a
        assert supervisor.task_conns[0].sent[-1]["attempt"] == 1

        # Second death exhausts unit_retries=1: the unit is poisoned
        # and its blocked fd dependent is cancelled, not orphaned.
        supervisor.processes[0].die()
        supervisor._reap_dead()
        assert supervisor.poisoned == {screen_a.key}
        assert supervisor.cancelled == {fd_a.key}
        assert supervisor.counters["pool.poison_quarantines"] == 1
        assert supervisor.counters["pool.units_cancelled"] == 1
        assert supervisor.counters["pool.worker_deaths"] == 2

        # The surviving unit completes and the plan is fully settled.
        supervisor._on_done(
            1,
            {
                "type": "done",
                "unit": list(screen_b.key),
                "status": StageStatus.OK.name,
            },
        )
        assert not supervisor._unresolved()

    def test_repeated_fruitless_deaths_abort_instead_of_respawning(
        self, tmp_path
    ):
        screen = PlannedUnit("socrata", SCREEN_STAGE, "tbl-a")
        supervisor = self.make_supervisor(tmp_path, [screen])
        assert supervisor.slots == 1
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
        """Units checkpointed by a serial run are external to the pool:
        the resumed pooled run replays them and computes only the rest."""
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
        assert 1 <= first < 2 * HEARTBEAT_TICKS

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


class TestSupervisedMeter:
    def test_heartbeat_every_n_ticks(self):
        beats = []
        meter = SupervisedMeter(
            None, metrics=MetricsRegistry(), heartbeat=beats.append,
            heartbeat_every=5,
        )
        for _ in range(12):
            meter.tick()
        assert beats == [5, 10]

    def test_coarse_ticks_do_not_skip_beats(self):
        beats = []
        meter = SupervisedMeter(
            None, heartbeat=beats.append, heartbeat_every=5
        )
        meter.tick(17)
        meter.tick(1)
        assert beats == [17]
        meter.tick(3)
        assert beats == [17, 21]


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
                "--straggler-ticks",
                "50000",
                "--shard-dir",
                "/tmp/shards",
            ]
        )
        config = config_from_args(args)
        assert config.workers == 4
        assert config.unit_retries == 2
        assert config.chaos_kill_rate == 0.2
        assert config.straggler_ticks == 50_000
        assert config.shard_dir == "/tmp/shards"

    def test_defaults_stay_serial(self):
        config = config_from_args(
            build_parser().parse_args(["run", "table01"])
        )
        assert config.workers == 1
        assert config.chaos_kill_rate == 0.0
        assert config.straggler_ticks is None

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
            {"straggler_ticks": 0},
        ],
    )
    def test_invalid_pool_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            StudyConfig(**overrides)
