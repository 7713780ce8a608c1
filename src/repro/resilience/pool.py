"""Crash-supervised sharded execution of per-table analysis units.

ROADMAP item 1: spend the PR 2–4 substrate (budgeted units, study
journals, traces) on parallel execution.  This module fans the
enumerable per-table units of :mod:`repro.resilience.units` out to N
worker processes under a supervisor for which worker death and poison
units are first-class, *injectable*, recoverable events:

* **two waves** — one fleet of workers runs every unjournaled
  ``screen`` unit, then the ``fd`` units whose screen ended OK
  (:attr:`~repro.resilience.units.PlannedUnit.depends_on`);
  inside a wave units are independent and go out from one FIFO queue;
* **shard journals** — each worker appends every finished unit
  (record + the counter metrics its meter charged) to its own
  :class:`~repro.resilience.journal.Journal`, so a SIGKILL at any
  instant loses at most the envelope being written;
* **supervision** — the parent watches exit codes, nothing else: a
  dead worker's in-flight unit goes back to the front of the queue at
  most ``unit_retries`` times and is then escalated to QUARANTINED
  through the ordinary :class:`StageOutcome` machinery, so a table
  that keeps killing its worker costs its own slot, never the study.
  Work inside a unit is bounded by the stage budget, exactly as in a
  serial run;
* **chaos** — ``chaos_kill_rate`` plants seeded SIGKILLs mid-unit to
  exercise all of the above on demand (and in CI);
* **reconciliation** — after the fleet drains, shards are merged with
  duplicate/conflict detection (a re-dispatched unit whose first
  worker died *after* persisting must have produced the identical
  record; anything else raises
  :class:`~repro.resilience.journal.MergeConflict`).

Equivalence with the serial path is structural, not best-effort: a
completed unit is handed to the portal's
:class:`~repro.resilience.executor.AnalysisExecutor` as a
:class:`~repro.resilience.executor.CompletedUnit` and *adopted* lazily
— through the same method that records a unit computed in process, so
span, counters, canonical-journal record, and quarantine side effects
are emitted only when (and exactly when) the serial guard would have
computed the unit.  A pooled run's trace therefore diffs empty against
a serial run; the scheduling nondeterminism that remains (who computed
what, restarts) is confined to ``pool.*`` metrics and zero-op lane
spans, both excluded from drift comparison.

Channel discipline: every worker talks to the supervisor over its own
pair of one-way pipes — exactly one writer and one reader per pipe, so
no lock is ever shared across processes and a SIGKILL cannot strand
one (a shared queue dies with whichever worker is killed holding its
write lock).  The supervisor sends ``unit`` and ``stop``; a worker
sends only ``done``.  Every message is a small dict sent in a single
write well under ``PIPE_BUF``, so a kill never tears a message either;
and when a worker dies, its pipes die with it — the replacement gets
fresh ones, so a dead incarnation's backlog (a done raced with its
kill) is discarded instead of being misread as the successor's.
Results and metrics travel through the shard journals, never the
pipes.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import random
import shutil
import signal
import tempfile
from collections import deque
from multiprocessing import connection as mp_connection

from ..obs.metrics import MetricsRegistry
from ..obs.profile import Profiler
from .budget import WorkMeter
from .executor import CompletedUnit, StageStatus, compute_unit
from .journal import Journal, MergeConflict, StageRecord, config_fingerprint
from .units import PlannedUnit, plan_portal_units, unit_request

#: Chaos kills land on a tick drawn from ``[1, CHAOS_KILL_TICKS)``.
CHAOS_KILL_TICKS = 2_000

#: Seconds the supervisor blocks on the result queue per loop turn.
_POLL_SECONDS = 0.05

#: Seconds to wait for a worker to exit after a stop message.
_JOIN_SECONDS = 5.0

#: Tables shared with fork-started workers, keyed ``(portal, table_id)``.
#: Populated by the parent just before spawning (copy-on-write under
#: ``fork``); spawn-started workers find it empty and rebuild the
#: portal deterministically instead.
_WORKER_TABLES: dict = {}


def _kill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _chaos_kill_tick(config, unit: PlannedUnit, attempt: int) -> int | None:
    """The tick at which chaos kills this attempt, or None to spare it.

    Seeded per ``(seed, unit, attempt)`` so the kill schedule is a pure
    function of the config — reruns fail (and recover) identically.
    The final permitted attempt (``attempt == unit_retries``) is always
    spared, so a chaos run converges instead of poisoning every unit.
    """
    if config.chaos_kill_rate <= 0.0:
        return None
    if attempt >= config.unit_retries:
        return None
    rng = random.Random(
        f"{config.seed}:chaos:{unit.portal}:{unit.stage}:"
        f"{unit.table_id}:{attempt}"
    )
    if rng.random() >= config.chaos_kill_rate:
        return None
    return rng.randrange(1, CHAOS_KILL_TICKS)


class ChaosMeter(WorkMeter):
    """A :class:`WorkMeter` that SIGKILLs its process at a planted tick.

    The moment the spend crosses *kill_at* the process dies, simulating
    a worker killed mid-computation; the other arguments are
    :class:`WorkMeter`'s.
    """

    def __init__(self, kill_at: int, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._kill_at = kill_at

    def tick(self, cost: int = 1, op: str = "work") -> None:
        try:
            super().tick(cost, op)
        finally:
            if self.spent >= self._kill_at:
                _kill_self()


# ----------------------------------------------------------------------
# shard files
# ----------------------------------------------------------------------
def _shard_path(shard_dir: pathlib.Path, slot: int) -> pathlib.Path:
    return shard_dir / f"shard-w{slot}.jsonl"


class ShardJournal(Journal):
    """One worker slot's finished-unit envelopes, keyed by unit.

    An envelope is a JSON object carrying the ``unit`` key, the
    worker's name, the :class:`StageRecord` fields under ``record``,
    the counter metrics the unit's meter charged, and (profiled runs)
    the unit's frame counts under ``profile``.
    """

    @staticmethod
    def _key(envelope: dict) -> tuple[str, str, str]:
        return tuple(envelope["unit"])

    @staticmethod
    def _encode(envelope: dict) -> str:
        return json.dumps(envelope, sort_keys=True)

    @staticmethod
    def _decode(line: bytes) -> dict:
        envelope = json.loads(line)
        if "record" not in envelope:
            raise KeyError("record")
        return envelope


def merge_shards(
    shard_paths: list[pathlib.Path], fingerprint: dict
) -> dict[tuple[str, str, str], dict]:
    """Reconcile shard envelopes into one per-unit map, oldest-path order.

    Duplicate units (a re-dispatch whose first worker persisted before
    dying) must carry byte-identical records — the determinism contract
    makes honest duplicates equal — so a differing duplicate raises
    :class:`MergeConflict` instead of silently picking a side.  Shards
    are read through :class:`ShardJournal`, so missing, foreign and
    torn shards load as (partly) empty.
    """
    merged: dict[tuple[str, str, str], dict] = {}
    origin: dict[tuple[str, str, str], pathlib.Path] = {}
    for path in sorted(shard_paths):
        for envelope in ShardJournal(path, fingerprint):
            key = tuple(envelope["unit"])
            if key in merged:
                if merged[key]["record"] != envelope["record"] or merged[
                    key
                ].get("profile") != envelope.get("profile"):
                    raise MergeConflict(
                        f"shard {path} disagrees with {origin[key]} "
                        f"about unit {key!r}"
                    )
                continue
            merged[key] = envelope
            origin[key] = path
    return merged


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _build_portal_tables(config, code: str) -> dict:
    """Rebuild one portal's cleaned tables from scratch (spawn fallback).

    Deterministic by construction — the same generate + ingest calls
    the parent ran — so a spawn-started worker computes over exactly
    the tables a fork-started worker inherits.
    """
    from ..generator.portal_gen import generate_portal
    from ..generator.profiles import PROFILES_BY_CODE, poison_profile
    from ..ingest.pipeline import ingest_portal
    from ..portal.ckan import CkanApi
    from ..portal.http import HttpClient

    profile = PROFILES_BY_CODE[code]
    if config.poison_rate > 0:
        profile = poison_profile(profile, config.poison_rate)
    generated = generate_portal(profile, seed=config.seed, scale=config.scale)
    report = ingest_portal(
        CkanApi(generated.portal), HttpClient(generated.store)
    )
    return {
        (code, ingested.resource_id): ingested.clean
        for ingested in report.clean_tables
        if ingested.clean is not None
    }


def _resolve_table(config, portal: str, table_id: str):
    table = _WORKER_TABLES.get((portal, table_id))
    if table is None:
        _WORKER_TABLES.update(_build_portal_tables(config, portal))
        table = _WORKER_TABLES.get((portal, table_id))
    if table is None:
        raise KeyError(f"unknown table {portal}/{table_id}")
    return table


def _worker_main(slot, config, task_conn, result_conn, shard_dir):
    """One worker process: compute units, append to its shard, report done.

    *task_conn* and *result_conn* are this incarnation's private pipe
    ends: the worker is the sole reader of one and the sole writer of
    the other, so neither send nor recv ever takes a lock another
    process could die holding.
    """
    name = f"w{slot}"
    with ShardJournal(
        _shard_path(pathlib.Path(shard_dir), slot), config_fingerprint(config)
    ) as shard:
        while True:
            try:
                task = task_conn.recv()
            except (EOFError, OSError):
                break
            if task.get("type") == "stop":
                break
            unit = PlannedUnit(*task["unit"])
            attempt = task["attempt"]
            if unit.key in shard:
                # Recovered work from a previous incarnation of this slot.
                result_conn.send(
                    {
                        "type": "done",
                        "worker": slot,
                        "unit": list(unit.key),
                        "status": shard.get(unit.key)["record"]["status"],
                    }
                )
                continue
            table = _resolve_table(config, unit.portal, unit.table_id)
            request = unit_request(unit, table, config)
            kill_at = _chaos_kill_tick(config, unit, attempt)
            registry = MetricsRegistry()
            profiler = None
            if config.profile_out is not None:
                # A fresh per-unit profiler seeded with the frames the
                # serial guard would be inside: the Study root, the portal,
                # and the stage.  The unit's engine frames nest under these
                # so the merged pooled profile is path-for-path identical
                # to the serial one.
                profiler = Profiler()
                for frame in ("study", unit.portal, unit.stage):
                    profiler.push(frame)
            if kill_at is None:
                meter = WorkMeter(config.stage_budget, registry, profiler)
            else:
                meter = ChaosMeter(
                    kill_at, config.stage_budget, registry, profiler
                )
            _, record = compute_unit(unit.stage, unit.table_id, request, meter)
            if kill_at is not None:
                # The unit finished (or budgeted out) before reaching the
                # planted tick: the kill still owes a death mid-unit, i.e.
                # before the result is persisted anywhere.
                _kill_self()
            envelope = {
                "unit": list(unit.key),
                "worker": name,
                "record": dataclasses.asdict(record),
                "metrics": {
                    metric: {"value": snap["value"]}
                    for metric, snap in registry.snapshot().items()
                    if snap.get("kind") == "counter"
                },
            }
            if profiler is not None:
                envelope["profile"] = profiler.snapshot()
            shard.record(envelope)
            result_conn.send(
                {
                    "type": "done",
                    "worker": slot,
                    "unit": list(unit.key),
                    "status": record.status,
                }
            )


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------
@dataclasses.dataclass
class WorkerLane:
    """Per-slot tallies for the trace lanes and pool metrics."""

    slot: int
    units: int = 0
    ops: int = 0
    restarts: int = 0

    @property
    def name(self) -> str:
        return f"w{self.slot}"


class _Supervisor:
    """The parent-side dispatcher, health monitor, and escalator.

    A unit is pending (queued), in flight, then completed or poisoned;
    units the slots' shards already hold start out completed.
    """

    def __init__(self, config, ctx, shard_dir: pathlib.Path, slots: int):
        self.config = config
        self.ctx = ctx
        self.shard_dir = shard_dir
        self.fingerprint = config_fingerprint(config)
        self.slots = slots
        self.counters: dict[str, int] = {}
        self.lanes = [WorkerLane(slot) for slot in range(slots)]
        self.queue: deque[PlannedUnit] = deque()
        self.completed: dict[tuple, str] = {
            key: envelope["record"]["status"]
            for key, envelope in self.merged().items()
        }
        self.poisoned: set[tuple] = set()
        self.attempts: dict[tuple, int] = {}
        self.inflight: dict[int, PlannedUnit] = {}
        self.processes: list = [None] * slots
        self.task_conns: list = [None] * slots
        self.result_conns: list = [None] * slots
        self._fruitless_deaths = 0

    # -- helpers -------------------------------------------------------
    def merged(self) -> dict[tuple[str, str, str], dict]:
        """Every envelope the slots' shards hold, reconciled."""
        return merge_shards(
            [_shard_path(self.shard_dir, s) for s in range(self.slots)],
            self.fingerprint,
        )

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _unresolved(self) -> bool:
        return bool(self.queue or self.inflight)

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, slot: int) -> None:
        # Fresh pipes per incarnation: anything the dead predecessor
        # left buffered (a done raced with its kill) is discarded with
        # the old ends instead of being attributed to the replacement.
        self._close_conns(slot)
        task_recv, task_send = self.ctx.Pipe(duplex=False)
        result_recv, result_send = self.ctx.Pipe(duplex=False)
        process = self.ctx.Process(
            target=_worker_main,
            args=(
                slot,
                self.config,
                task_recv,
                result_send,
                str(self.shard_dir),
            ),
            daemon=True,
        )
        process.start()
        # The child owns its ends now; dropping ours makes its death
        # observable as EOF on the result pipe.
        task_recv.close()
        result_send.close()
        self.task_conns[slot] = task_send
        self.result_conns[slot] = result_recv
        self.processes[slot] = process

    def _close_conns(self, slot: int) -> None:
        for conns in (self.task_conns, self.result_conns):
            if conns[slot] is not None:
                try:
                    conns[slot].close()
                except OSError:
                    pass
                conns[slot] = None

    def run(self, units: list[PlannedUnit]) -> None:
        """Run one wave of independent *units* until each settles.

        Units the shards already hold are skipped.
        """
        self.queue.extend(u for u in units if u.key not in self.completed)
        while self._unresolved():
            self._dispatch_idle()
            self._drain_results()
            self._reap_dead()

    def shutdown(self) -> None:
        for slot, process in enumerate(self.processes):
            if process is None or not process.is_alive():
                continue
            try:
                self.task_conns[slot].send({"type": "stop"})
            except (OSError, ValueError):
                pass
        for slot, process in enumerate(self.processes):
            if process is not None:
                process.join(timeout=_JOIN_SECONDS)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=_JOIN_SECONDS)
            self._close_conns(slot)

    # -- dispatch ------------------------------------------------------
    def _dispatch_idle(self) -> None:
        for slot, process in enumerate(self.processes):
            if not self.queue:
                return
            if process is None:
                # No worker yet, or it died when the last wave settled.
                self._spawn(slot)
            elif slot in self.inflight or not process.is_alive():
                continue
            unit = self.queue.popleft()
            try:
                self.task_conns[slot].send(
                    {
                        "type": "unit",
                        "unit": list(unit.key),
                        "attempt": self.attempts.get(unit.key, 0),
                    }
                )
            except OSError:
                # The worker died under us; reap will respawn it, and
                # the unit goes back to the front of the line.
                self.queue.appendleft(unit)
                continue
            self.inflight[slot] = unit

    # -- health --------------------------------------------------------
    def _drain_results(self) -> None:
        by_conn = {
            conn: slot
            for slot, conn in enumerate(self.result_conns)
            if conn is not None
        }
        if not by_conn:
            # Every worker is dead and drained; _reap_dead respawns
            # them this same loop turn, so there is nothing to wait on.
            return
        for conn in mp_connection.wait(
            list(by_conn), timeout=_POLL_SECONDS
        ):
            slot = by_conn[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    # The writer died; its process is reaped separately.
                    self._close_conns(slot)
                    break
                self._on_done(slot, message)

    def _on_done(self, slot: int, message: dict) -> None:
        unit = self.inflight.get(slot)
        if unit is not None and list(unit.key) == message.get("unit"):
            self.inflight.pop(slot)
        key = tuple(message["unit"])
        self._fruitless_deaths = 0
        if key in self.completed:
            return  # duplicate from a worker killed right after done
        self._count("pool.units_completed")
        self.lanes[slot].units += 1
        self.completed[key] = message.get("status", StageStatus.OK.name)

    def _reap_dead(self) -> None:
        for slot, process in enumerate(self.processes):
            if process is None or process.is_alive():
                continue
            if process.exitcode != 0:
                self._count("pool.worker_deaths")
            unit = self.inflight.pop(slot, None)
            if unit is not None and unit.key not in self.completed:
                attempts = self.attempts.get(unit.key, 0) + 1
                self.attempts[unit.key] = attempts
                if attempts > self.config.unit_retries:
                    # A repeat offender: escalated to QUARANTINED.
                    self.poisoned.add(unit.key)
                    self._count("pool.poison_quarantines")
                else:
                    self._count("pool.redispatches")
                    self.queue.appendleft(unit)
            elif unit is None:
                # A worker that dies without work in flight cannot be a
                # poison unit's fault; repeated fruitless deaths mean
                # the environment can't sustain workers at all.
                self._fruitless_deaths += 1
                if self._fruitless_deaths > 3 * self.slots:
                    raise RuntimeError(
                        "worker pool keeps dying with no unit in "
                        "flight; giving up instead of respawning forever"
                    )
            self.processes[slot] = None
            if self._unresolved():
                self._count("pool.worker_restarts")
                self.lanes[slot].restarts += 1
                # Fresh pipes: tasks queued to the dead incarnation are
                # re-dispatched through `inflight`, never read by the
                # replacement, and its result backlog is discarded.
                self._spawn(slot)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _journaled_status(portals, key: tuple[str, str, str]) -> str | None:
    """Unit *key*'s status in its portal's study journal, if journaled."""
    portal, stage, table_id = key
    journal = portals[portal].executor.journal
    record = None if journal is None else journal.get((stage, table_id))
    return None if record is None else record.status


def plan_study_units(portals) -> list[PlannedUnit]:
    """Every per-table unit the study's portals will run, in study order.

    Units already present in a portal's canonical study journal are
    excluded — exactly the units the serial path will replay rather
    than recompute.
    """
    return [
        unit
        for portal in portals.values()
        for unit in plan_portal_units(portal.code, portal.report)
        if _journaled_status(portals, unit.key) is None
    ]


def _wave_two(plan, portals, completed: dict[tuple, str]) -> list[PlannedUnit]:
    """The plan's units whose ``depends_on`` screen ended OK.

    A screen's status is wave one's (*completed*; a poisoned screen has
    none), else the study journal's; a screen in neither never ran.
    """

    def status(key):
        return completed.get(key, _journaled_status(portals, key))

    return [
        unit
        for unit in plan
        if unit.depends_on is not None
        and status(unit.depends_on) == StageStatus.OK.name
    ]


def run_pool(portals, config, obs=None) -> None:
    """Execute the study's per-table units across worker processes.

    *portals* is the ``code -> PortalStudy`` map of a freshly built
    study whose executors exist but have not yet run any analysis.  The
    pool runs two waves: every planned ``screen`` unit, then the units
    whose screen ended OK.  On return, every finished unit sits in its
    executor's ``precomputed`` map awaiting lazy adoption; units behind
    a screen that did not end OK are never planned, matching what the
    serial path would never have computed.
    """
    plan = plan_study_units(portals)
    if not plan:
        return
    keep_shards = config.shard_dir is not None
    shard_dir = pathlib.Path(
        config.shard_dir
        if keep_shards
        else tempfile.mkdtemp(prefix="ogdp-shards-")
    )
    shard_dir.mkdir(parents=True, exist_ok=True)
    if not config.resume:
        # Recompute every unit, as for the crawl and study journals:
        # no preload or recovered-work path may see an earlier run.
        for path in shard_dir.glob("shard-w*.jsonl"):
            path.unlink()
    _WORKER_TABLES.clear()
    for portal in portals.values():
        for ingested in portal.report.clean_tables:
            if ingested.clean is not None:
                _WORKER_TABLES[(portal.code, ingested.resource_id)] = (
                    ingested.clean
                )
    completed: dict[tuple[str, str, str], CompletedUnit] = {}
    try:
        supervisor = _Supervisor(
            config,
            _mp_context(),
            shard_dir,
            slots=min(config.workers, len(plan)),
        )
        supervisor._count("pool.units_planned", len(plan))
        try:
            supervisor.run([u for u in plan if u.depends_on is None])
            supervisor.run(_wave_two(plan, portals, supervisor.completed))
        finally:
            supervisor.shutdown()
        merged = supervisor.merged()
        by_name = {lane.name: lane for lane in supervisor.lanes}
        for unit in plan:
            if unit.key in supervisor.poisoned:
                completed[unit.key] = _poison_record(unit, config)
                continue
            envelope = merged.get(unit.key)
            if envelope is None:
                continue
            record = StageRecord(**envelope["record"])
            completed[unit.key] = CompletedUnit(
                record=record,
                worker=envelope["worker"],
                metrics=envelope["metrics"],
                profile=envelope.get("profile", {}),
            )
            lane = by_name.get(envelope["worker"])
            if lane is not None:
                lane.ops += record.ticks
    finally:
        _WORKER_TABLES.clear()
        if not keep_shards:
            shutil.rmtree(shard_dir, ignore_errors=True)

    for key, unit in completed.items():
        portal, stage, table_id = key
        portals[portal].executor.precomputed[(stage, table_id)] = unit
    if obs is not None:
        _observe_pool(obs, config, supervisor, len(completed))


def _poison_record(unit: PlannedUnit, config) -> CompletedUnit:
    """The synthesized QUARANTINED record of a retry-exhausted unit."""
    detail = (
        f"poison unit: killed its worker "
        f"{config.unit_retries + 1} time(s); "
        f"unit-retries={config.unit_retries} exhausted"
    )
    return CompletedUnit(
        record=StageRecord(
            stage=unit.stage,
            table_id=unit.table_id,
            status=StageStatus.QUARANTINED.name,
            ticks=0,
            budget=config.stage_budget,
            detail=detail,
        ),
        worker="supervisor",
        metrics={},
    )


def _observe_pool(obs, config, supervisor: _Supervisor, units: int) -> None:
    """Emit the pool's lane spans and scheduling metrics.

    Lane spans carry zero self-ops (the ops themselves are attributed
    by the adopted unit spans), so attribution and drift comparison
    never see them; per-lane totals ride along as attributes and
    reconcile with the sum of adopted unit ticks.
    """
    for name, value in sorted(supervisor.counters.items()):
        obs.metrics.inc(name, value)
    span = obs.tracer.start(
        "pool", kind="pool", workers=config.workers, units=units
    )
    for lane in supervisor.lanes:
        lane_span = obs.tracer.start(
            lane.name,
            kind="lane",
            worker=lane.name,
            units=lane.units,
            lane_ops=lane.ops,
            restarts=lane.restarts,
        )
        obs.tracer.finish(lane_span, ops=0)
    obs.tracer.finish(span, ops=0)


def _mp_context():
    """Fork when the platform has it (workers inherit the parent's
    tables copy-on-write); spawn otherwise (workers rebuild portals)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")
