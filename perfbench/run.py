"""Wall-clock benchmark of the reproduction: study, study-pooled, lake, serve.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0

Set-up generates a fixed reference corpus (see ``perfbench/NOTES.md`` for
why the corpus does not follow ``--seed``) and hands it to the program by
replacing ``repro.core.study.generate_portal`` with a lookup, so the timed
phase receives only the generated corpus.  ``--seed`` seeds the program's
own random streams (``StudyConfig.seed``: BCNF split choices, samples,
MinHash permutations), the ``serve`` request script and every sample the
correctness checks draw.

The timed phase repeats the workload's unit of work until ``--seconds``
have passed and reports medians.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
prints the per-layer metrics (see ``perfbench/spans.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every correctness check holds, 1 when one fails,
2 when the program cannot be imported from ``./src``.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import hashlib
import itertools
import json
import pathlib
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from spans import WRAPPED, SpanRecorder, experiment_entry_points

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("study", "study-pooled", "lake", "serve")

#: Generator seed of every reference corpus.  Its study cost sits near
#: the median of generator seeds 10-21 at scale 0.02.
CORPUS_SEED = 11
SCALES = {"study": 0.02, "study-pooled": 0.02, "lake": 0.05, "serve": 0.05}
#: No more pool processes than the 2 cores the benchmark is sized for.
POOL_WORKERS = 2
#: Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = {"study": 7, "study-pooled": 7, "lake": 7, "serve": 5}
#: The timed phase runs at least this many repetitions (per mode).
MIN_REPS = 3

#: Requests per serve repetition (run_s of serve is one such batch).
SERVE_BATCH = 100
#: Simulated seconds between requests: the one client stays under the
#: admission rate (20/s), so a well-behaved client is never shed.
CLOCK_STEP = 0.06
#: The served read endpoints the serve script draws from, with the
#: weights of loadgen's ``ClientClass.endpoints``.
ENDPOINTS = (
    "package_show",
    "package_search",
    "lake_search",
    "join_suggest",
    "union_suggest",
)
#: Exponent of the key skew: 1 is Zipf's law itself.
ZIPF_EXPONENT = 1.0
CLIENT_ID = "perfbench-client"
#: Share of served requests whose bodies are re-derived from QueryApi.
BODY_SAMPLE_RATE = 0.02
#: Seconds the host probe takes on the reference host (see host_probe).
PROBE_REFERENCE_S = 0.05
#: Timed seconds between two host probes.
PROBE_EVERY_S = 0.5

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_per_s", "1/s"),
)

#: (name, unit, the end-to-end metric and workload it should move).
LAYER_METRICS = (
    ("generator.self_s", "s", "setup_s, all workloads"),
    ("ingest.self_s", "s", "run_s on lake and study, setup_s on serve"),
    ("ingest.parse_s", "s", "run_s on lake and study, setup_s on serve"),
    ("ingest.header_s", "s", "run_s on lake and study, setup_s on serve"),
    ("ingest.typing_s", "s", "run_s on lake and study, setup_s on serve"),
    ("ingest.clean_s", "s", "run_s on lake and study, setup_s on serve"),
    ("ingest.mb", "MB", "input property"),
    ("ingest.cells", "count", "input property"),
    ("ingest.repeat_cell_share", "ratio", "input property"),
    ("screen.self_s", "s", "run_s on study-pooled"),
    ("joinsig.self_s", "s", "run_s on lake, setup_s on serve"),
    ("joinsig.columns", "count", "run_s on lake, setup_s on serve"),
    ("pairs.self_s", "s", "run_s on lake"),
    ("pairs.candidates", "count", "run_s on lake"),
    ("pairs.joinable", "count", "run_s on lake"),
    ("pairs.yield", "ratio", "run_s on lake"),
    ("union.self_s", "s", "run_s on lake"),
    ("fd.discover_s", "s", "run_s on study"),
    ("fd.bcnf_s", "s", "run_s on study"),
    ("fd.bcnf_discover_s", "s", "run_s on study"),
    ("fd.table_s", "s", "run_s on study"),
    ("fd.tables", "count", "run_s on study"),
    ("fd.refine_ops", "count", "run_s on study"),
    ("fd.max_table_s", "s", "run_s on study-pooled"),
    ("keys.self_s", "s", "run_s on study"),
    ("report.self_s", "s", "run_s on study"),
    ("pool.wall_s", "s", "run_s on study-pooled"),
    ("pool.units", "count", "run_s on study-pooled"),
    ("pool.redispatches", "count", "run_s on study-pooled"),
    ("lake.init_s", "s", "setup_s on serve"),
    ("lake.search_s", "s", "req_p50_ms on serve"),
    ("lake.join_s", "s", "req_p99_ms on serve"),
    ("lake.union_s", "s", "req_p50_ms on serve"),
    ("serve.handle_s", "s", "req_per_s on serve"),
    *(
        (f"serve.{endpoint}.{stat}_ms", "ms", f"req_{stat}_ms on serve")
        for endpoint in ENDPOINTS
        for stat in ("p50", "p99")
    ),
    ("serve.cache.hit_ratio", "ratio", "req_per_s on serve"),
    ("serve.degraded_frac", "ratio", "req_per_s on serve"),
    ("serve.encode_s", "s", "req_per_s on serve"),
    ("trace.run_s", "s", "traced run_s, all workloads"),
    ("trace.unattributed_s", "s", "traced run_s, all workloads"),
    ("trace.overhead_s", "s", "traced minus untraced run_s"),
)

#: Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "generator": "generator.self_s",
    "ingest": "ingest.self_s",
    "ingest.parse": "ingest.parse_s",
    "ingest.header": "ingest.header_s",
    "ingest.typing": "ingest.typing_s",
    "ingest.clean": "ingest.clean_s",
    "screen": "screen.self_s",
    "joinsig": "joinsig.self_s",
    "pairs": "pairs.self_s",
    "union": "union.self_s",
    "fd.discover": "fd.discover_s",
    "fd.bcnf": "fd.bcnf_s",
    "fd.bcnf_discover": "fd.bcnf_discover_s",
    "fd.table": "fd.table_s",
    "keys": "keys.self_s",
    "report": "report.self_s",
    "pool": "pool.wall_s",
    "lake.init": "lake.init_s",
    "lake.search": "lake.search_s",
    "lake.join": "lake.join_s",
    "lake.union": "lake.union_s",
    "serve.handle": "serve.handle_s",
    "serve.encode": "serve.encode_s",
}


class ProgramMissing(Exception):
    """The program's sources are not in ./src of the checkout."""


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"repro imported from {repro.__file__}")
    from repro.obs.log import QUIET, configure_log

    configure_log(QUIET)


def host_probe() -> float:
    """Seconds one fixed pure-Python kernel takes on this host, now.

    The host's speed drifts by tens of percent within seconds (shared
    cores); every end-to-end timing is scaled by the reference time over
    the probes taken just before and just after it, so a slowdown that
    hits the probe and the program alike cancels out.  The kernel
    exercises what the program spends its time on: dict and set
    updates, string building, sorting.  It never calls the program, so
    a faster program still reads faster.
    """
    started = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(120_000):
        key = f"v{i % 1009}"
        counts[key] = counts.get(key, 0) + i
    seen = {str(value)[-3:] for value in counts.values()}
    ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    if len(ordered) + len(seen) < 2:
        raise RuntimeError("host probe kernel broke")
    return time.perf_counter() - started


def digest_of(parts) -> str:
    return hashlib.sha256("\n\n".join(parts).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class Rep:
    """One repetition of a workload's unit of work."""

    start: float
    end: float
    traced: bool
    attempted: int
    failed: int
    digest: str = ""
    counters: dict = dataclasses.field(default_factory=dict)
    #: serve only: latency of each request, in seconds, and its endpoint.
    #: A batch workload's request is the whole repetition.
    latencies: list[float] = dataclasses.field(default_factory=list)
    endpoints: list[str] = dataclasses.field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Bench:
    """State of one benchmark run: options, checks, facts and spans."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.recorder = SpanRecorder(workload)
        self.entries = list(WRAPPED) + experiment_entry_points()
        self.setup_windows: list[tuple[float, float]] = []
        self.setup_counters: dict = {}
        self.reps: list[Rep] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.lines: list[str] = []
        self.inputs: dict[str, float] = {}
        self.work = WORK_ROOT / f"{workload}-seed{seed}"
        #: (start time, seconds) of every host probe, in time order.
        self.probes: list[tuple[float, float]] = []
        #: The corpus ``Study.build`` receives (see :meth:`replay`).
        self.corpus = None
        #: Peak resident memory of this process plus that of its largest
        #: finished child (a pool worker), read when the timed phase
        #: ends: set-up and timed phase, none of the checks after it.
        self.peak_rss_mb = 0.0

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, ok, detail))

    def say(self, line: str) -> None:
        self.lines.append(line)

    def config(self, **overrides):
        from repro.core.config import StudyConfig

        return StudyConfig(
            scale=SCALES[self.workload], seed=self.seed, **overrides
        )

    def observer(self, traced: bool):
        """``Observer(None)`` for traced repetitions: metrics, no file."""
        if not traced:
            return None
        from repro.obs import Observer

        return Observer(None)

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def probe(self) -> None:
        started = time.perf_counter()
        self.probes.append((started, host_probe()))

    def scale(self, start: float) -> float:
        """Host-speed factor for a timing that started at *start*.

        Probes never run inside a timed interval, so the two probes
        before *start* and the two after it bracket the interval.  One
        probe on each side is too noisy a sample of a multi-second
        repetition; more reach too far from it.
        """
        after = bisect.bisect_right(self.probes, start, key=lambda p: p[0])
        around = [
            seconds for _, seconds in self.probes[max(0, after - 2) : after + 2]
        ]
        return PROBE_REFERENCE_S / statistics.fmean(around)

    def setup(self, build):
        """Run and time one set-up; returns what *build* returns."""
        gc.collect()
        self.probe()
        started = time.perf_counter()
        result = build()
        end = time.perf_counter()
        self.setup_windows.append((started, end))
        return result

    def generate(self):
        """The workload's reference corpus: portal code -> portal."""
        from repro.core.config import DEFAULT_PORTALS
        from repro.generator.portal_gen import generate_portal
        from repro.generator.profiles import PROFILES_BY_CODE

        with self._maybe_span("generator"):
            return {
                code: generate_portal(
                    PROFILES_BY_CODE[code],
                    seed=CORPUS_SEED,
                    scale=SCALES[self.workload],
                )
                for code in DEFAULT_PORTALS
            }

    def _maybe_span(self, name: str):
        if self.trace:
            return self.recorder.span(name)
        return _NullSpan()

    def replay(self, corpus) -> None:
        """Make ``Study.build`` receive *corpus* instead of generating."""
        import repro.core.study as study_module

        self.corpus = corpus
        study_module.generate_portal = (
            lambda profile, seed, scale: self.corpus[profile.code]
        )

    def setup_corpus(self) -> None:
        """Run the timed set-ups; the last one's corpus is replayed."""
        for _ in range(SETUP_REPEATS[self.workload]):
            self.corpus = None  # never hold two corpora at once
            self.replay(self.setup(self.generate))

    # ------------------------------------------------------------------
    # the timed phase
    # ------------------------------------------------------------------
    def measure(self, unit, digest=None, collect=True) -> None:
        """Repeat ``unit(traced)`` for the run's seconds.

        *unit* returns a :class:`Rep` and its product; ``digest(product)``
        runs after the clock stops.  With tracing on, repetitions
        alternate untraced and traced, so both halves see the same drift
        of the host.  *collect* runs a full garbage collection before
        each repetition.  Peak memory is read when the phase ends.
        """
        needed = MIN_REPS * (2 if self.trace else 1)
        deadline = time.perf_counter() + self.seconds
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            if collect:
                gc.collect()
            if time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
                self.probe()
            if traced:
                self.recorder.install(self.entries)
            try:
                start = time.perf_counter()
                rep, product = unit(traced)
                rep.start, rep.end = start, time.perf_counter()
            finally:
                if traced:
                    self.recorder.uninstall()
            rep.traced = traced
            if digest is not None:
                rep.digest = digest(product)
            # The next repetition must not run with this one's study alive.
            del product
            self.reps.append(rep)
            index += 1
            if rep.end >= deadline and index >= needed:
                break
        usage = resource.getrusage
        self.peak_rss_mb = (
            usage(resource.RUSAGE_SELF).ru_maxrss
            + usage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0

    def untraced(self) -> list[Rep]:
        return [rep for rep in self.reps if not rep.traced]

    def traced(self) -> list[Rep]:
        return [rep for rep in self.reps if rep.traced]

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        from repro.obs.quantiles import percentile_nearest_rank

        self.probe()
        reps = self.untraced()
        scales = [self.scale(rep.start) for rep in reps]
        latencies = sorted(
            scale * value
            for scale, rep in zip(scales, reps)
            for value in rep.latencies or [rep.seconds]
        )
        busy = sum(scale * rep.seconds for scale, rep in zip(scales, reps))
        setups = [
            self.scale(start) * (end - start)
            for start, end in self.setup_windows
        ]
        unscaled = statistics.median(rep.seconds for rep in reps)
        self.say(
            f"samples reps={len(reps)} requests={len(latencies)} "
            f"setups={len(setups)} probes={len(self.probes)}"
        )
        self.say(
            "tail req_p99_ms "
            f"{1000.0 * percentile_nearest_rank(latencies, 99):.6g} ms over "
            f"{len(latencies)} requests (printed only: see NOTES.md)"
        )
        self.say(
            "host probe median "
            f"{statistics.median(p for _, p in self.probes):.6f} s, "
            f"median time scale {statistics.median(scales):.4f}; "
            f"unscaled run_s {unscaled:.6f} s"
        )
        return {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(
                scale * rep.seconds for scale, rep in zip(scales, reps)
            ),
            "peak_rss_mb": self.peak_rss_mb,
            "req_p50_ms": 1000.0 * percentile_nearest_rank(latencies, 50),
            "req_per_s": len(latencies) / busy,
        }

    def layers(self) -> dict[str, float]:
        values = {name: 0.0 for name, _, _ in LAYER_METRICS}
        traced = self.traced()
        in_run: dict[str, float] = {}
        for rep in traced:
            for name, seconds in self.recorder.self_times(
                rep.start, rep.end
            ).items():
                in_run[name] = in_run.get(name, 0.0) + seconds / len(traced)
        setup: dict[str, float] = {}
        for start, end in self.setup_windows:
            for name, seconds in self.recorder.self_times(start, end).items():
                setup[name] = setup.get(name, 0.0) + seconds / len(
                    self.setup_windows
                )
        for phase in (setup, in_run):
            for name, seconds in phase.items():
                values[SPAN_METRICS[name]] += seconds
        traced_run = statistics.fmean(rep.seconds for rep in traced)
        attributed = sum(in_run.values())
        values["trace.run_s"] = traced_run
        values["trace.unattributed_s"] = traced_run - attributed
        values["trace.overhead_s"] = traced_run - statistics.fmean(
            rep.seconds for rep in self.untraced()
        )
        self.say(
            f"trace sum: layer self-times {attributed:.6f} s + unattributed "
            f"{traced_run - attributed:.6f} s = traced run_s "
            f"{traced_run:.6f} s"
        )
        values["fd.tables"] = statistics.fmean(
            len(self.recorder.durations("fd.table", rep.start, rep.end))
            for rep in traced
        )
        values["fd.max_table_s"] = statistics.fmean(
            max(
                self.recorder.durations("fd.table", rep.start, rep.end),
                default=0.0,
            )
            for rep in traced
        )
        counters = dict(self.setup_counters)
        counters.update(traced[-1].counters)
        candidates = counters.get("join.candidate_pairs", 0)
        joinable = counters.get("join.pairs_verified", 0)
        values["pairs.candidates"] = candidates
        values["pairs.joinable"] = joinable
        values["pairs.yield"] = joinable / candidates if candidates else 0.0
        values["fd.refine_ops"] = counters.get("ops.fd.refine", 0)
        values["pool.units"] = counters.get("pool.units_completed", 0)
        values["pool.redispatches"] = counters.get("pool.redispatches", 0)
        for name in (
            "ingest.mb",
            "ingest.cells",
            "ingest.repeat_cell_share",
            "joinsig.columns",
        ):
            values[name] = self.inputs.get(name, 0.0)
        for name in counters:
            if name.startswith("serve."):
                values[name] = counters[name]
        return values


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return None


def metric_snapshot(obs) -> dict:
    """Scalar counters of an observer, or nothing for untraced runs."""
    if obs is None:
        return {}
    return {
        name: snap["value"]
        for name, snap in obs.metrics.snapshot().items()
        if "value" in snap
    }


def describe_corpus(bench: Bench, study) -> None:
    """Record the input properties of the corpus a study ingested."""
    cells = 0
    distinct = 0
    size = 0
    for portal in study:
        for ingested in portal.report.tables:
            size += ingested.raw_size_bytes
            for column in ingested.raw.columns:
                # A local set: the column's own cache would change the
                # state the timed phase sees.
                cells += len(column.values)
                distinct += len(set(column.values) - {None})
    filtered = sum(len(portal.filtered_tables()) for portal in study)
    signatures = sum(
        len(table.columns)
        for portal in study
        for table in portal.join_signatures().values()
    )
    bench.inputs.update(
        {
            "ingest.mb": size / 1e6,
            "ingest.cells": cells,
            "ingest.repeat_cell_share": 1.0 - distinct / cells,
            "joinsig.columns": signatures,
        }
    )
    tables = sum(len(portal.report.clean_tables) for portal in study)
    bench.say(
        f"input corpus_seed={CORPUS_SEED} scale={SCALES[bench.workload]} "
        f"tables={tables} cells={cells} mb={size / 1e6:.3f} "
        f"fd_filtered_tables={filtered} "
        f"repeat_cell_share={1.0 - distinct / cells:.4f}"
    )


# ----------------------------------------------------------------------
# study and study-pooled
# ----------------------------------------------------------------------
def study_rep(config, obs):
    """Build a fresh study and run every experiment on it.

    Returns the repetition, the study and the rendered report texts.
    """
    from repro.core.study import Study
    from repro.experiments.registry import experiment_ids, run_experiment
    from repro.resilience.executor import StageStatus

    study = Study.build(config, obs=obs)
    texts = []
    failed = 0
    try:
        for experiment_id in experiment_ids():
            try:
                texts.append(run_experiment(experiment_id, study).text)
            except Exception:  # one failed experiment must not end the run
                failed += 1
                texts.append(f"{experiment_id} raised")
                traceback.print_exc()
    finally:
        study.close()
    units = 0
    for portal in study:
        if portal.executor is not None:
            counts = portal.executor.status_counts()
            units += sum(counts.values())
            failed += counts[StageStatus.QUARANTINED]
            failed += counts[StageStatus.FAILED]
    rep = Rep(
        start=0.0,
        end=0.0,
        traced=False,
        attempted=1 + len(texts) + units,
        failed=failed,
        counters=metric_snapshot(obs),
    )
    return rep, study, texts


def check_fds_against_tane(bench: Bench, captured, max_lhs: int) -> None:
    """FUN's FD sets, as the study received them, must equal TANE's.

    Every captured table is checked, so one FD planted in or dropped
    from a single table fails the check whatever the seed.
    """
    from repro.fd.tane import discover_fds_tane

    mismatched = [
        table.name
        for table, fds in captured
        if fds.as_frozenset()
        != discover_fds_tane(table, max_lhs=max_lhs).as_frozenset()
    ]
    bench.check(
        "fun_equals_tane",
        bool(captured) and not mismatched,
        f"{len(captured)} tables, mismatched={mismatched}",
    )


def capture_fds(captured: list):
    """Record every top-level ``discover_fds`` result; returns an undo."""
    import repro.normalize.analysis as analysis

    original = analysis.discover_fds

    def capturing(table, *args, **kwargs):
        fds = original(table, *args, **kwargs)
        captured.append((table, fds))
        return fds

    analysis.discover_fds = capturing
    return lambda: setattr(analysis, "discover_fds", original)


def guarded_serial_digest(bench: Bench) -> str:
    """Digest of the guarded serial run (quarantine dir set, one worker)."""
    config = bench.config(
        quarantine_dir=str(bench.work / "quarantine"), workers=1
    )
    _, _, texts = study_rep(config, None)
    return digest_of(texts)


def run_study(bench: Bench, pooled: bool) -> None:
    bench.setup_corpus()
    config = bench.config(workers=POOL_WORKERS if pooled else 1)

    def unit(traced: bool):
        rep, _, texts = study_rep(config, bench.observer(traced))
        return rep, texts

    bench.measure(unit, digest_of)

    # The checks run after the timed phase, so peak_rss_mb leaves out
    # the oracles.
    captured: list = []
    undo = capture_fds(captured)
    try:
        _, study, texts = study_rep(config, None)
    finally:
        undo()
    checked = digest_of(texts)
    describe_corpus(bench, study)
    del study
    guarded = guarded_serial_digest(bench)
    if pooled:
        bench.check(
            "pooled_equals_guarded_serial",
            checked == guarded,
            f"pooled {checked[:12]} guarded {guarded[:12]}",
        )
    else:
        check_fds_against_tane(bench, captured, config.max_lhs)
        bench.say(
            f"fact default_matches_guarded={checked == guarded} "
            f"default={checked[:12]} guarded={guarded[:12]}"
        )
    digests = {checked} | {rep.digest for rep in bench.reps}
    bench.check(
        "digest_stable",
        len(digests) == 1,
        f"{len(bench.reps) + 1} repetitions, digest {checked[:12]}",
    )
    if pooled and bench.trace:
        bench.say(
            "note: study-pooled spans cover parent-side layers only "
            "(ingest, pool, report, pairs, union, keys); screen, fd and "
            "joinsig units run in pool workers whose spans are lost when "
            "the workers exit"
        )


# ----------------------------------------------------------------------
# lake
# ----------------------------------------------------------------------
LAKE_THRESHOLDS = (0.9, 0.7)


def lake_digest(study) -> str:
    parts = []
    for portal in study:
        for threshold in LAKE_THRESHOLDS:
            analysis = portal.joinability(threshold)
            parts.append(
                f"{portal.code}@{threshold}: "
                + repr([(p.left, p.right, p.overlap) for p in analysis.pairs])
            )
        groups = portal.unionability().unionable_groups()
        parts.append(
            f"{portal.code} union: "
            + repr([tuple(g.table_indexes) for g in groups])
        )
    return digest_of(parts)


def lake_rep(config, obs):
    """The build path of ``build-index`` and ``serve`` start-up."""
    from repro.core.study import Study
    from repro.search.lake import DataLake

    study = Study.build(config, obs=obs)
    for portal in study:
        portal.join_signatures()
        for threshold in LAKE_THRESHOLDS:
            portal.joinability(threshold)
        portal.unionability()
    DataLake(study)
    study.close()
    steps = 2 + len(study.portals) * (2 + len(LAKE_THRESHOLDS))
    rep = Rep(
        start=0.0,
        end=0.0,
        traced=False,
        attempted=steps,
        failed=0,
        counters=metric_snapshot(obs),
    )
    return rep, study


def run_lake(bench: Bench) -> None:
    from repro.joinability.pairs import analyze_joinability
    from repro.resilience.budget import WorkMeter

    bench.setup_corpus()
    config = bench.config()

    def unit(traced: bool):
        return lake_rep(config, bench.observer(traced))

    bench.measure(unit, lake_digest)

    # The checks run after the timed phase, so peak_rss_mb leaves out
    # the all-pairs oracle.
    _, study = lake_rep(config, None)
    checked = lake_digest(study)
    describe_corpus(bench, study)
    mismatches = []
    for portal in study:
        for threshold in LAKE_THRESHOLDS:
            exact = analyze_joinability(
                portal.code,
                portal.screened_tables(),
                threshold,
                config.min_unique_values,
                WorkMeter(None),
            )
            if list(exact.pairs) != list(portal.joinability(threshold).pairs):
                mismatches.append(f"{portal.code}@{threshold}")
    bench.check(
        "lsh_equals_allpairs",
        not mismatches,
        f"thresholds {LAKE_THRESHOLDS}, mismatched={mismatches}",
    )
    del study
    digests = {checked} | {rep.digest for rep in bench.reps}
    bench.check(
        "digest_stable",
        len(digests) == 1,
        f"{len(bench.reps) + 1} repetitions, digest {checked[:12]}",
    )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ZipfRandom(random.Random):
    """A ``random.Random`` whose ``choice`` is Zipf-skewed by position.

    loadgen's request factory draws every key (package id, query term,
    resource) with ``rng.choice`` from a list in a fixed order.  Handed
    this generator, it draws the element at position ``r`` with weight
    ``1 / (r + 1) ** ZIPF_EXPONENT``; nothing else changes.
    """

    def __init__(self, seed):
        self._cumulative: dict[int, list[float]] = {}
        super().__init__(seed)

    def choice(self, seq):
        size = len(seq)
        cumulative = self._cumulative.get(size)
        if cumulative is None:
            cumulative = list(
                itertools.accumulate(
                    1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)
                )
            )
            self._cumulative[size] = cumulative
        drawn = self.random() * cumulative[-1]
        return seq[bisect.bisect(cumulative, drawn, 0, size - 1)]


def request_script(service, seed: int):
    """The endless seeded request script: (endpoint, request) pairs.

    loadgen's request factory builds each request, and the endpoint is
    drawn with loadgen's client weights, limited to the five read
    endpoints; the one change is the Zipf key skew.  The factory's
    resource pool is drawn with CORPUS_SEED, as the corpus is, so every
    seed queries the same resources and ``--seed`` changes only the
    sequence.
    """
    from repro.serve.loadgen import ClientClass, _RequestFactory

    factory = _RequestFactory(service, CORPUS_SEED)
    weights = dict(ClientClass(CLIENT_ID, count=1, requests=1).endpoints)
    endpoint_weights = [weights[kind] for kind in ENDPOINTS]
    rng = ZipfRandom(f"perfbench:{seed}:script")
    while True:
        kind = rng.choices(ENDPOINTS, weights=endpoint_weights)[0]
        yield kind, factory(rng, kind, CLIENT_ID)


def serve_setup(bench: Bench):
    """Generate, build the study and start a warm ``LakeService``."""
    from repro.core.study import Study
    from repro.resilience.clock import SimulatedClock
    from repro.serve.service import LakeService

    if bench.trace:
        bench.recorder.install(bench.entries)
    try:
        bench.replay(bench.generate())
        obs = bench.observer(bench.trace)
        study = Study.build(bench.config(), obs=obs)
        service = LakeService(study, clock=SimulatedClock())
    finally:
        if bench.trace:
            bench.recorder.uninstall()
    bench.setup_counters = metric_snapshot(obs)
    return study, service


def run_serve(bench: Bench) -> None:
    from repro.obs.quantiles import percentile_nearest_rank
    from repro.resilience.budget import WorkMeter
    from repro.serve.api import Response, success_body
    from repro.serve.service import OUTCOME_DEGRADED, OUTCOMES

    digests = []
    for _ in range(SETUP_REPEATS[bench.workload]):
        # Never hold two studies or corpora at once.
        study = service = bench.corpus = None
        study, service = bench.setup(lambda: serve_setup(bench))
        digests.append(lake_digest(study))
    describe_corpus(bench, study)
    bench.check(
        "digest_stable",
        len(set(digests)) == 1,
        f"{len(digests)} set-ups, digest {digests[0][:12]}",
    )

    script = request_script(service, bench.seed)
    sample_rng = random.Random(f"perfbench:{bench.seed}:bodies")
    #: (request, outcome, sha256 of the served body): a digest, so the
    #: memory the samples take does not grow with the host's speed.
    sampled: list[tuple[object, str, bytes]] = []
    outcomes = {outcome: 0 for outcome in OUTCOMES}
    keys: set[str] = set()
    sent = 0
    requests_before = service.metrics.value("serve.requests", 0)

    def unit(traced: bool):
        nonlocal sent
        latencies, endpoints = [], []
        failed = 0
        for _ in range(SERVE_BATCH):
            kind, request = next(script)
            keys.add(service.cache_key(request))
            service.clock.sleep(CLOCK_STEP)
            started = time.perf_counter()
            response = service.handle(request)
            if traced:
                with bench.recorder.span("serve.encode"):
                    body = response.to_bytes()
            else:
                body = response.to_bytes()
            latencies.append(time.perf_counter() - started)
            endpoints.append(kind)
            sent += 1
            outcomes[response.outcome] = outcomes.get(response.outcome, 0) + 1
            if response.outcome not in ("ok", OUTCOME_DEGRADED):
                failed += 1
            if sample_rng.random() < BODY_SAMPLE_RATE:
                digest = hashlib.sha256(body).digest()
                sampled.append((request, response.outcome, digest))
        rep = Rep(
            start=0.0,
            end=0.0,
            traced=traced,
            attempted=len(latencies),
            failed=failed,
            latencies=latencies,
            endpoints=endpoints,
        )
        return rep, None

    # One untimed batch first: the first touches of each endpoint pay
    # one-off costs a long-running service has already paid.
    unit(False)
    cache_before = {
        name: service.metrics.value(name, 0)
        for name in (
            "serve.cache.hit",
            "serve.cache.miss",
            "serve.cache.stale",
            "serve.cache.expired",
        )
    }
    degraded_before = outcomes[OUTCOME_DEGRADED]
    sent_before = sent
    # A batch takes milliseconds, less than a full collection, so the
    # timed phase collects once before it starts rather than per batch.
    gc.collect()
    bench.measure(unit, collect=False)

    served = service.metrics.value("serve.requests", 0) - requests_before
    bench.check(
        "terminated_once",
        served == sent and sum(outcomes.values()) == sent,
        f"sent={sent} served={served} outcomes={outcomes}",
    )
    compared = 0
    mismatched = 0
    for request, outcome, digest in sampled:
        if outcome != "ok":
            continue
        _, handler = service.api.routes[request.path]
        expected = Response(
            200, success_body(handler(request, WorkMeter(None)))
        )
        compared += 1
        if digest != hashlib.sha256(expected.to_bytes()).digest():
            mismatched += 1
    bench.check(
        "body_equals_queryapi",
        compared > 0 and mismatched == 0,
        f"compared={compared} mismatched={mismatched}",
    )
    bench.say(f"input key_repeat_share={1.0 - len(keys) / sent:.4f}")

    lookups = {
        name: service.metrics.value(name, 0) - before
        for name, before in cache_before.items()
    }
    timed_sent = sent - sent_before
    counters = {
        "serve.cache.hit_ratio": lookups["serve.cache.hit"]
        / max(1, sum(lookups.values())),
        "serve.degraded_frac": (outcomes[OUTCOME_DEGRADED] - degraded_before)
        / timed_sent,
    }
    by_endpoint: dict[str, list[float]] = {kind: [] for kind in ENDPOINTS}
    for rep in bench.untraced():
        for kind, seconds in zip(rep.endpoints, rep.latencies):
            by_endpoint[kind].append(seconds)
    for kind, values in by_endpoint.items():
        values.sort()
        for stat, pct in (("p50", 50), ("p99", 99)):
            counters[f"serve.{kind}.{stat}_ms"] = (
                1000.0 * percentile_nearest_rank(values, pct)
            )
        bench.say(f"samples endpoint={kind} requests={len(values)}")
    bench.setup_counters.update(counters)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    tempfile.tempdir = str(bench.work)
    try:
        if args.workload == "study":
            run_study(bench, pooled=False)
        elif args.workload == "study-pooled":
            run_study(bench, pooled=True)
        elif args.workload == "lake":
            run_lake(bench)
        else:
            run_serve(bench)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted = sum(rep.attempted for rep in bench.reps)
    failed = sum(rep.failed for rep in bench.reps)
    correct = all(ok for _, ok, _ in bench.checks)
    if args.trace:
        values = bench.layers()
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        targets = {name: f" -> {target}" for name, _, target in LAYER_METRICS}
    else:
        values = bench.end_to_end()
        units = dict(END_TO_END)
        targets = {}
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    for line in bench.lines:
        print(line)
    for name, ok, detail in bench.checks:
        print(f"check {name} {'ok' if ok else 'FAILED'} ({detail})")
    print(f"metric failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for name, unit in units.items():
        print(f"metric {name} {values[name]:.6g} {unit}{targets.get(name, '')}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        bench.recorder.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
