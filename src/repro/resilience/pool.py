"""Crash-supervised sharded execution of per-table analysis units.

ROADMAP item 1: spend the PR 2–4 substrate (budgeted units, study
journals, traces) on parallel execution.  This module fans the
enumerable per-table units of :mod:`repro.resilience.units` out to N
worker processes under a supervisor for which worker death, silent
hangs, and poison units are first-class, *injectable*, recoverable
events:

* **scheduling** — units are sharded round-robin across workers; an
  idle worker steals from the tail of the longest remaining shard, so
  one slow table never serializes the fleet;
* **shard journals** — each worker persists every finished unit
  (record + the counter metrics its meter charged) to its own JSONL
  shard via write-to-temp + atomic rename, so a SIGKILL at any
  instant leaves a readable shard;
* **supervision** — the parent monitors exit codes for death and
  deterministic op-count heartbeats for progress; with a straggler
  threshold configured, a unit that reports more ticks than the
  threshold gets its worker killed.  Either way the in-flight unit is
  re-dispatched at most ``unit_retries`` times and then escalated to
  QUARANTINED through the ordinary :class:`StageOutcome` machinery,
  so a lattice-bomb table costs its own slot, never the study;
* **chaos** — ``chaos_kill_rate`` plants seeded SIGKILLs mid-unit to
  exercise all of the above on demand (and in CI);
* **reconciliation** — after the fleet drains, shards are merged with
  duplicate/conflict detection (a re-dispatched unit whose first
  worker died *after* persisting must have produced the identical
  record; anything else raises
  :class:`~repro.resilience.study_journal.MergeConflict`).

Equivalence with the serial path is structural, not best-effort: a
completed unit is handed to the portal's
:class:`~repro.resilience.executor.AnalysisExecutor` as a
:class:`~repro.resilience.executor.CompletedUnit` and *adopted* lazily
— span, counters, canonical-journal record, and quarantine side
effects are emitted only when (and exactly when) the serial guard
would have computed the unit.  A pooled run's trace therefore diffs
empty against a serial run; the scheduling nondeterminism that
remains (who computed what, steals, restarts) is confined to ``pool.*``
metrics and zero-op lane spans, both excluded from drift comparison.

Channel discipline: every worker talks to the supervisor over its own
pair of one-way pipes — exactly one writer and one reader per pipe, so
no lock is ever shared across processes and a SIGKILL cannot strand
one (a shared queue dies with whichever worker is killed holding its
write lock).  Every message is a small dict sent in a single write
well under ``PIPE_BUF``, so a kill never tears a message either; and
when a worker dies, its pipes die with it — the replacement gets fresh
ones, so a dead incarnation's backlog (stale heartbeats, duplicate
dones) is discarded instead of being misread as the successor's.
Results and metrics travel through the atomically renamed shard files,
never the pipes.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import random
import signal
import tempfile
from collections import deque
from multiprocessing import connection as mp_connection

from ..obs.metrics import MetricsRegistry
from ..obs.profile import Profiler
from .budget import WorkMeter
from .executor import CompletedUnit, StageStatus, compute_unit
from .study_journal import MergeConflict, StageRecord
from .units import (
    SCREEN_STAGE,
    UNIT_STAGES,
    PlannedUnit,
    plan_portal_units,
    unit_request,
)

#: Worker heartbeat cadence in meter ticks (coarser than any real unit
#: is short, finer than any straggler threshold worth setting).
HEARTBEAT_TICKS = 1_000

#: Seconds the supervisor blocks on the result queue per loop turn.
_POLL_SECONDS = 0.05

#: Seconds to wait for a worker to exit after a stop message.
_JOIN_SECONDS = 5.0

#: Tables shared with fork-started workers, keyed ``(portal, table_id)``.
#: Populated by the parent just before spawning (copy-on-write under
#: ``fork``); spawn-started workers find it empty and rebuild the
#: portal deterministically instead.
_WORKER_TABLES: dict = {}


def shard_fingerprint(config) -> dict:
    """The config identity a shard must match to be reused."""
    fingerprint = {
        "seed": config.seed,
        "scale": config.scale,
        "stage_budget": config.stage_budget,
        "max_lhs": config.max_lhs,
        "min_unique": config.min_unique_values,
        "poison_rate": config.poison_rate,
        "portals": list(config.portal_codes),
    }
    if getattr(config, "profile_out", None) is not None:
        # Profiled runs must not resume from unprofiled shards (their
        # envelopes carry no frame counts, which would silently punch
        # holes in the merged profile).  Added conditionally so shards
        # written before this field existed stay valid for unprofiled
        # runs.
        fingerprint["profiled"] = True
    return fingerprint


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
    return rng.randrange(1, 2 * HEARTBEAT_TICKS)


class SupervisedMeter(WorkMeter):
    """A :class:`WorkMeter` that reports liveness and hosts chaos kills.

    Every ``heartbeat_every`` ticks the meter invokes *heartbeat* with
    the current spend — the deterministic progress signal the
    supervisor watches instead of wall time.  A planted *kill_at* tick
    SIGKILLs the process the moment the spend crosses it, simulating a
    worker dying mid-computation.
    """

    def __init__(
        self,
        budget: int | None = None,
        metrics=None,
        *,
        profiler=None,
        heartbeat=None,
        heartbeat_every: int = HEARTBEAT_TICKS,
        kill_at: int | None = None,
    ):
        super().__init__(budget, metrics=metrics, profiler=profiler)
        self._heartbeat = heartbeat
        self._heartbeat_every = max(1, heartbeat_every)
        self._next_beat = self._heartbeat_every
        self._kill_at = kill_at

    def tick(self, cost: int = 1, op: str = "work") -> None:
        try:
            super().tick(cost, op)
        finally:
            if self._kill_at is not None and self.spent >= self._kill_at:
                _kill_self()
            if self._heartbeat is not None and self.spent >= self._next_beat:
                self._heartbeat(self.spent)
                while self._next_beat <= self.spent:
                    self._next_beat += self._heartbeat_every


# ----------------------------------------------------------------------
# shard files
# ----------------------------------------------------------------------
def _shard_path(shard_dir: pathlib.Path, slot: int) -> pathlib.Path:
    return shard_dir / f"shard-w{slot}.jsonl"


def read_shard(
    path: pathlib.Path, fingerprint: dict
) -> list[dict]:
    """The valid unit envelopes of one shard file.

    Torn lines are skipped (the shard is rewritten atomically, so in
    practice only hand-damaged shards have them); a shard whose header
    fingerprint does not match *fingerprint* is ignored wholesale — it
    belongs to a different study configuration.
    """
    if not path.exists():
        return []
    envelopes: list[dict] = []
    header_seen = False
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError("shard line is not an object")
            except (ValueError, TypeError):
                continue
            if "fingerprint" in obj:
                if obj["fingerprint"] != fingerprint:
                    return []
                header_seen = True
                continue
            if "unit" in obj and "record" in obj:
                envelopes.append(obj)
    return envelopes if header_seen else []


def merge_shards(
    shard_paths: list[pathlib.Path], fingerprint: dict
) -> dict[tuple[str, str, str], dict]:
    """Reconcile shard envelopes into one per-unit map, oldest-path order.

    The envelope-level sibling of :meth:`StudyJournal.merge`: duplicate
    units (a re-dispatch whose first worker persisted before dying)
    must carry byte-identical records — the determinism contract makes
    honest duplicates equal — so a differing duplicate raises
    :class:`MergeConflict` instead of silently picking a side.
    """
    merged: dict[tuple[str, str, str], dict] = {}
    origin: dict[tuple[str, str, str], pathlib.Path] = {}
    for path in sorted(shard_paths):
        for envelope in read_shard(path, fingerprint):
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
    """One worker process: compute units, persist shard, report done.

    *task_conn* and *result_conn* are this incarnation's private pipe
    ends: the worker is the sole reader of one and the sole writer of
    the other, so neither send nor recv ever takes a lock another
    process could die holding.
    """
    name = f"w{slot}"
    shard_path = _shard_path(pathlib.Path(shard_dir), slot)
    fingerprint = shard_fingerprint(config)
    envelopes: dict[tuple, dict] = {
        tuple(env["unit"]): env
        for env in read_shard(shard_path, fingerprint)
    }

    def persist() -> None:
        tmp = shard_path.with_suffix(".jsonl.tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {"shard": name, "fingerprint": fingerprint},
                    sort_keys=True,
                )
                + "\n"
            )
            for envelope in envelopes.values():
                handle.write(json.dumps(envelope, sort_keys=True) + "\n")
        os.replace(tmp, shard_path)

    heartbeat_every = HEARTBEAT_TICKS
    if config.straggler_ticks is not None:
        heartbeat_every = min(heartbeat_every, config.straggler_ticks)

    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            break
        if task.get("type") == "stop":
            break
        unit = PlannedUnit(*task["unit"])
        attempt = task["attempt"]
        if unit.key in envelopes:
            # Recovered work from a previous incarnation of this slot.
            result_conn.send(
                {
                    "type": "done",
                    "worker": slot,
                    "unit": list(unit.key),
                    "status": envelopes[unit.key]["record"]["status"],
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
        meter = SupervisedMeter(
            config.stage_budget,
            metrics=registry,
            profiler=profiler,
            heartbeat=lambda ops, key=unit.key: result_conn.send(
                {
                    "type": "heartbeat",
                    "worker": slot,
                    "unit": list(key),
                    "ops": ops,
                }
            ),
            heartbeat_every=heartbeat_every,
            kill_at=kill_at,
        )
        result, status, detail = compute_unit(
            request.compute,
            meter,
            classify=request.classify,
            on_budget=request.on_budget,
        )
        if kill_at is not None:
            # The unit finished (or budgeted out) before reaching the
            # planted tick: the kill still owes a death mid-unit, i.e.
            # before the result is persisted anywhere.
            _kill_self()
        payload = (
            request.encode(result)
            if request.encode is not None and result is not None
            else None
        )
        record = StageRecord(
            stage=unit.stage,
            table_id=unit.table_id,
            status=status.name,
            ticks=meter.spent,
            budget=config.stage_budget,
            detail=detail,
            payload=payload,
        )
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
        envelopes[unit.key] = envelope
        persist()
        result_conn.send(
            {
                "type": "done",
                "worker": slot,
                "unit": list(unit.key),
                "status": status.name,
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


@dataclasses.dataclass
class PoolOutcome:
    """Everything a pooled execution resolved."""

    #: Unit key -> CompletedUnit ready for executor adoption (poisoned
    #: units included, as synthesized QUARANTINED records).
    completed: dict[tuple[str, str, str], CompletedUnit]
    #: fd units cancelled because their screen dependency was not OK.
    cancelled: set[tuple[str, str, str]]
    #: Unit keys escalated to QUARANTINED after exhausting retries.
    poisoned: set[tuple[str, str, str]]
    lanes: list[WorkerLane]
    counters: dict[str, int]


class _Supervisor:
    """The parent-side scheduler, health monitor, and escalator."""

    def __init__(
        self,
        units,
        config,
        ctx,
        shard_dir: pathlib.Path,
        external: dict[tuple, str] | None = None,
    ):
        self.config = config
        self.ctx = ctx
        self.shard_dir = shard_dir
        self.fingerprint = shard_fingerprint(config)
        self.slots = max(1, min(config.workers, max(1, len(units))))
        self.counters: dict[str, int] = {}
        self.lanes = [WorkerLane(slot) for slot in range(self.slots)]
        #: Dependency statuses settled outside the pool (units already
        #: in a portal's canonical study journal, which the serial path
        #: will replay rather than recompute).
        self.external = dict(external or {})

        #: Home shards: round-robin over plan order.
        self.pending = [deque() for _ in range(self.slots)]
        #: fd units waiting on their screen unit, keyed by screen key.
        self.blocked: dict[tuple, list[PlannedUnit]] = {}
        self.home: dict[tuple, int] = {}
        self.completed: dict[tuple, str] = {}
        self.cancelled: set[tuple] = set()
        self.poisoned: set[tuple] = set()
        self.attempts: dict[tuple, int] = {}
        self.inflight: dict[int, PlannedUnit] = {}
        self.processes: list = [None] * self.slots
        self.task_conns: list = [None] * self.slots
        self.result_conns: list = [None] * self.slots
        self.unit_count = len(units)
        self._fruitless_deaths = 0

        preloaded = merge_shards(
            [_shard_path(shard_dir, s) for s in range(self.slots)],
            self.fingerprint,
        )
        plan_keys = {unit.key for unit in units}
        next_slot = 0
        for unit in units:
            if unit.key in preloaded:
                self._resolve(unit, preloaded[unit.key]["record"]["status"])
                continue
            dependency = unit.depends_on
            if dependency is not None and dependency not in self.completed:
                status = self.external.get(dependency)
                if status is None and dependency in plan_keys:
                    # Screen still pending in this pool run; the unit
                    # is promoted (or cancelled) when it resolves.
                    self.blocked.setdefault(dependency, []).append(unit)
                    self.home[unit.key] = next_slot % self.slots
                    next_slot += 1
                    continue
                if status != StageStatus.OK.name:
                    self.cancelled.add(unit.key)
                    self._count("pool.units_cancelled")
                    continue
            elif (
                dependency is not None
                and self.completed[dependency] != StageStatus.OK.name
            ):
                self.cancelled.add(unit.key)
                self._count("pool.units_cancelled")
                continue
            slot = next_slot % self.slots
            self.home[unit.key] = slot
            self.pending[slot].append(unit)
            next_slot += 1

    # -- helpers -------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _resolve(self, unit: PlannedUnit, status: str) -> None:
        """Mark *unit* finished and settle its dependents."""
        self.completed[unit.key] = status
        if unit.stage != SCREEN_STAGE:
            return
        for dependent in self.blocked.pop(unit.key, []):
            if status == StageStatus.OK.name:
                self.pending[self.home[dependent.key]].append(dependent)
            else:
                self.cancelled.add(dependent.key)
                self._count("pool.units_cancelled")

    def _poison(self, unit: PlannedUnit) -> None:
        """Escalate a repeat-offender unit to QUARANTINED."""
        self.poisoned.add(unit.key)
        self._count("pool.poison_quarantines")
        for dependent in self.blocked.pop(unit.key, []):
            self.cancelled.add(dependent.key)
            self._count("pool.units_cancelled")

    def _unresolved(self) -> bool:
        settled = (
            len(self.completed) + len(self.cancelled) + len(self.poisoned)
        )
        return settled < self.unit_count

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, slot: int) -> None:
        # Fresh pipes per incarnation: anything the dead predecessor
        # left buffered (stale heartbeats, a done raced with its kill)
        # is discarded with the old ends instead of being attributed to
        # the replacement.
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

    def run(self) -> None:
        for slot in range(self.slots):
            self._spawn(slot)
        try:
            while self._unresolved():
                self._dispatch_idle()
                self._drain_results()
                self._reap_dead()
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
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

    # -- scheduling ----------------------------------------------------
    def _next_unit(self, slot: int) -> PlannedUnit | None:
        if self.pending[slot]:
            return self.pending[slot].popleft()
        victim = max(
            range(self.slots), key=lambda s: len(self.pending[s])
        )
        if self.pending[victim]:
            self._count("pool.steals")
            return self.pending[victim].pop()
        return None

    def _dispatch_idle(self) -> None:
        for slot in range(self.slots):
            if slot in self.inflight:
                continue
            process = self.processes[slot]
            if process is None or not process.is_alive():
                continue
            unit = self._next_unit(slot)
            if unit is None:
                continue
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
                self.pending[slot].appendleft(unit)
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
                mtype = message.get("type")
                if mtype == "heartbeat":
                    self._on_heartbeat(slot, message)
                elif mtype == "done":
                    self._on_done(slot, message)

    def _on_heartbeat(self, slot: int, message: dict) -> None:
        self._count("pool.heartbeats")
        unit = self.inflight.get(slot)
        if unit is None or list(unit.key) != message.get("unit"):
            return  # stale: sent by an attempt already resolved
        threshold = self.config.straggler_ticks
        if threshold is not None and message.get("ops", 0) >= threshold:
            self._count("pool.straggler_kills")
            process = self.processes[slot]
            if process is not None and process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def _on_done(self, slot: int, message: dict) -> None:
        unit = self.inflight.get(slot)
        if unit is not None and list(unit.key) == message.get("unit"):
            self.inflight.pop(slot)
        key = tuple(message["unit"])
        self._fruitless_deaths = 0
        if key in self.completed:
            return  # duplicate from a worker killed right after done
        self._count("pool.units_completed")
        lane = self.lanes[slot]
        lane.units += 1
        self._resolve(
            PlannedUnit(*key), message.get("status", StageStatus.OK.name)
        )

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
                    self._poison(unit)
                else:
                    self._count("pool.redispatches")
                    self.pending[self.home[unit.key]].appendleft(unit)
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
def plan_study_units(
    portals,
    stages: tuple[str, ...] = UNIT_STAGES,
) -> tuple[list[PlannedUnit], dict[tuple, str]]:
    """Every per-table unit the study's portals will run, in study order.

    Units already present in a portal's canonical study journal are
    excluded — exactly the units the serial path will replay rather
    than recompute — and returned separately as a ``key -> status`` map
    so the scheduler can settle dependencies on them.  *stages*
    restricts planning, e.g. to ``(screen, joinsig)`` for a pure index
    build.
    """
    plan: list[PlannedUnit] = []
    external: dict[tuple, str] = {}
    for portal in portals.values():
        journal = portal.executor.journal
        for unit in plan_portal_units(portal.code, portal.report, stages):
            record = (
                journal.get(*unit.journal_key)
                if journal is not None
                else None
            )
            if record is not None:
                external[unit.key] = record.status
                continue
            plan.append(unit)
    return plan, external


def run_pool(
    portals, config, obs=None, stages: tuple[str, ...] | None = None
) -> PoolOutcome:
    """Execute the study's per-table units across worker processes.

    *portals* is the ``code -> PortalStudy`` map of a freshly built
    study whose executors exist but have not yet run any analysis.  On
    return, every resolved unit sits in its executor's ``precomputed``
    map awaiting lazy adoption; cancelled units (fd behind a failed
    screen) are simply absent, matching what the serial path would
    never have computed.  *stages* defaults to every per-table stage;
    precomputed units no analysis asks for are never adopted, so an
    over-planned stage is waste, never drift.
    """
    plan, external = plan_study_units(
        portals, UNIT_STAGES if stages is None else stages
    )
    counters: dict[str, int] = {}
    lanes: list[WorkerLane] = []
    completed: dict[tuple[str, str, str], CompletedUnit] = {}
    cancelled: set[tuple[str, str, str]] = set()
    poisoned: set[tuple[str, str, str]] = set()

    if plan:
        keep_shards = config.shard_dir is not None
        shard_dir = pathlib.Path(
            config.shard_dir
            if keep_shards
            else tempfile.mkdtemp(prefix="ogdp-shards-")
        )
        shard_dir.mkdir(parents=True, exist_ok=True)
        _WORKER_TABLES.clear()
        for portal in portals.values():
            for ingested in portal.report.clean_tables:
                if ingested.clean is not None:
                    _WORKER_TABLES[(portal.code, ingested.resource_id)] = (
                        ingested.clean
                    )
        try:
            ctx = _mp_context()
            supervisor = _Supervisor(
                plan, config, ctx, shard_dir, external=external
            )
            supervisor._count("pool.units_planned", len(plan))
            supervisor.run()
            counters = supervisor.counters
            lanes = supervisor.lanes
            cancelled = set(supervisor.cancelled)
            poisoned = set(supervisor.poisoned)
            merged = merge_shards(
                [
                    _shard_path(shard_dir, slot)
                    for slot in range(supervisor.slots)
                ],
                supervisor.fingerprint,
            )
            by_name = {lane.name: lane for lane in lanes}
            for unit in plan:
                if unit.key in poisoned:
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
                _cleanup_dir(shard_dir)

    for key, unit in completed.items():
        portal, stage, table_id = key
        portals[portal].executor.precomputed[(stage, table_id)] = unit

    outcome = PoolOutcome(
        completed=completed,
        cancelled=cancelled,
        poisoned=poisoned,
        lanes=lanes,
        counters=counters,
    )
    _observe_pool(obs, config, outcome)
    return outcome


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


def _observe_pool(obs, config, outcome: PoolOutcome) -> None:
    """Emit the pool's lane spans and scheduling metrics.

    Lane spans carry zero self-ops (the ops themselves are attributed
    by the adopted unit spans), so attribution and drift comparison
    never see them; per-lane totals ride along as attributes and
    reconcile with the sum of adopted unit ticks.
    """
    if obs is None or not outcome.lanes:
        return
    for name, value in sorted(outcome.counters.items()):
        obs.metrics.inc(name, value)
    span = obs.tracer.start(
        "pool",
        kind="pool",
        workers=config.workers,
        units=len(outcome.completed),
    )
    for lane in outcome.lanes:
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


def _cleanup_dir(path: pathlib.Path) -> None:
    try:
        for child in path.iterdir():
            child.unlink()
        path.rmdir()
    except OSError:
        pass
