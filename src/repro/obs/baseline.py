"""Bench history baselines and the op-count regression gate.

``benchmarks/_harness.run_and_record`` appends one record per bench run
to ``BENCH_<experiment>.json`` at the repository root; until now that
history was write-only.  This module reads it back:

* a tolerant reader that salvages complete records from malformed or
  partially written files (a crashed bench run must not poison the
  gate);
* a rolling baseline — the median ``total_ops`` of the most recent
  comparable records (same scale, seed, and worker count as the latest
  run), excluding the latest run itself;
* a gate verdict comparing the latest run against that baseline, used
  by the bench harness's ``--fail-on-regression`` flag and rendered by
  ``ogdp-repro bench-report``.

Only deterministic op counts gate: wall-clock seconds are reported for
context but never fail a run, because timing depends on the machine
while ``total_ops`` depends only on (scale, seed, code).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import statistics
from typing import Iterable, Mapping

from .trace import write_atomic

#: Filename pattern for bench histories at the repository root.
BENCH_GLOB = "BENCH_*.json"
_BENCH_RE = re.compile(r"^BENCH_(?P<experiment>[A-Za-z0-9_]+)\.json$")

#: Default gate tuning (see DESIGN.md §9).
DEFAULT_THRESHOLD = 0.25
DEFAULT_WINDOW = 5
#: Absolute op floor: tiny cached benches (zero or near-zero ops) jitter
#: in relative terms without meaning anything; ignore deltas below this.
DEFAULT_MIN_OPS = 1000
#: Absolute floor for the join-candidate gate.  Candidate counts are
#: orders of magnitude smaller than total_ops (that is the point of the
#: join index's filters), so they get their own, tighter floor.
DEFAULT_MIN_CANDIDATES = 50


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """One parsed entry of a ``BENCH_*.json`` history."""

    experiment: str
    scale: float
    seed: int
    seconds: float
    total_ops: float
    index: int
    #: Worker-pool size of the recording run.  Part of the baseline
    #: key: a sharded run duplicates fixed per-process work and must
    #: never be gated against a serial history (or vice versa).
    #: Records written before the field existed default to 1.
    workers: int = 1
    #: Serving metrics (the ``serve`` load-harness experiment).  The
    #: client population is part of the baseline key — a 48-client
    #: smoke run must never gate against a 224-client soak history.
    #: Compute benches leave all four at their zero defaults.
    clients: int = 0
    p50_ops: float = 0.0
    p99_ops: float = 0.0
    shed_rate: float = 0.0
    #: SLO accounting (records written before the fields existed keep
    #: the benign defaults: fully available, no verdict to gate on).
    availability: float = 1.0
    slo_verdict: str = ""
    #: Join candidate-generation accounting (see
    #: :mod:`repro.joinability.lshindex`): how many candidate pairs
    #: entered the exact Jaccard verify, and how many verifies ran.
    #: Records written before the fields existed default to 0 (not
    #: gated).
    join_candidates: float = 0.0
    join_verify_ops: float = 0.0
    #: Hottest profiler frame paths of the recording run, as
    #: ``(path, ticks)`` pairs (see :mod:`repro.obs.profile`).  Records
    #: written before the profiler existed, or by unprofiled runs,
    #: default to empty — reported as "no profile data", never gated.
    hotspots: tuple = ()

    @classmethod
    def from_mapping(
        cls, raw: Mapping, *, experiment: str, index: int
    ) -> "BenchRecord | None":
        """A record from one raw JSON object, or None if malformed."""
        try:
            return cls(
                experiment=str(raw.get("experiment", experiment)),
                scale=float(raw["scale"]),
                seed=int(raw["seed"]),
                seconds=float(raw.get("seconds", 0.0)),
                total_ops=float(raw["total_ops"]),
                index=index,
                workers=int(raw.get("workers", 1)),
                clients=int(raw.get("clients", 0)),
                p50_ops=float(raw.get("p50_ops", 0.0)),
                p99_ops=float(raw.get("p99_ops", 0.0)),
                shed_rate=float(raw.get("shed_rate", 0.0)),
                availability=float(raw.get("availability", 1.0)),
                slo_verdict=str(raw.get("slo_verdict", "")),
                join_candidates=float(raw.get("join_candidates", 0.0)),
                join_verify_ops=float(raw.get("join_verify_ops", 0.0)),
                hotspots=_parse_hotspots(raw.get("hotspots", ())),
            )
        except (KeyError, TypeError, ValueError):
            return None


def _parse_hotspots(raw) -> tuple:
    """``(path, ticks)`` pairs from a raw hotspot list, dropping junk."""
    if not isinstance(raw, (list, tuple)):
        return ()
    parsed = []
    for entry in raw:
        try:
            path, ticks = entry
            parsed.append((str(path), float(ticks)))
        except (TypeError, ValueError):
            continue
    return tuple(parsed)


def salvage_json_objects(text: str) -> list[dict]:
    """Every complete JSON object in *text*, in order.

    Accepts a well-formed JSON array, but also recovers the complete
    leading objects from a truncated or otherwise mangled file — a
    bench run killed mid-write must not discard the history before it.
    """
    try:
        loaded = json.loads(text)
    except ValueError:
        pass
    else:
        if isinstance(loaded, list):
            return [item for item in loaded if isinstance(item, dict)]
        return [loaded] if isinstance(loaded, dict) else []
    decoder = json.JSONDecoder()
    objects: list[dict] = []
    pos = 0
    while True:
        start = text.find("{", pos)
        if start < 0:
            break
        try:
            obj, end = decoder.raw_decode(text, start)
        except ValueError:
            pos = start + 1
            continue
        if isinstance(obj, dict):
            objects.append(obj)
        pos = end
    return objects


def read_history(path: str | pathlib.Path) -> list[BenchRecord]:
    """Parsed records of one ``BENCH_*.json`` file (oldest first)."""
    p = pathlib.Path(path)
    match = _BENCH_RE.match(p.name)
    experiment = match.group("experiment") if match else p.stem
    try:
        text = p.read_text(encoding="utf-8")
    except OSError:
        return []
    records = []
    for index, raw in enumerate(salvage_json_objects(text)):
        record = BenchRecord.from_mapping(
            raw, experiment=experiment, index=index
        )
        if record is not None:
            records.append(record)
    return records


def scan_histories(
    root: str | pathlib.Path,
) -> dict[str, list[BenchRecord]]:
    """All bench histories under *root*, keyed by experiment id."""
    histories = {}
    for path in sorted(pathlib.Path(root).glob(BENCH_GLOB)):
        records = read_history(path)
        if records:
            histories[records[-1].experiment] = records
    return histories


def append_record(
    experiment_id: str, record: Mapping, *, root: str | pathlib.Path
) -> pathlib.Path:
    """Append *record* to ``BENCH_<id>.json``, tolerating a bad file.

    Existing records are recovered with the tolerant reader (so a
    previously truncated file loses only its torn tail, not its
    history), and the updated array is written through
    :func:`~repro.obs.trace.write_atomic` so readers never observe a
    partially written file.  Shared by the bench harness and the
    load-test CLI.
    """
    path = pathlib.Path(root) / f"BENCH_{experiment_id}.json"
    records: list = []
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            text = ""
        records = salvage_json_objects(text)
    records.append(dict(record))
    write_atomic(path, json.dumps(records, indent=2, sort_keys=True) + "\n")
    return path


def comparable_history(records: Iterable[BenchRecord]) -> list[BenchRecord]:
    """Records sharing the latest's (scale, seed, workers, clients) key."""
    records = list(records)
    if not records:
        return []
    latest = records[-1]
    return [
        r
        for r in records
        if r.scale == latest.scale
        and r.seed == latest.seed
        and r.workers == latest.workers
        and r.clients == latest.clients
    ]


@dataclasses.dataclass(frozen=True)
class GateVerdict:
    """The regression gate's decision for one experiment."""

    experiment: str
    latest_ops: float
    baseline_ops: float | None
    ops_ratio: float | None
    latest_seconds: float
    baseline_seconds: float | None
    comparable_runs: int
    regressed: bool
    reason: str
    #: Serving metrics of the latest run (zero for compute benches).
    clients: int = 0
    p50_ops: float = 0.0
    p99_ops: float = 0.0
    shed_rate: float = 0.0
    availability: float = 1.0
    slo_verdict: str = ""
    #: Join candidate accounting of the latest run (zero when the
    #: bench never exercised the join index).
    join_candidates: float = 0.0
    baseline_join_candidates: float | None = None
    join_verify_ops: float = 0.0
    #: Hottest frame paths of the latest run (empty when unprofiled).
    hotspots: tuple = ()

    def as_json(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["hotspots"] = [list(pair) for pair in self.hotspots]
        return doc


def evaluate_gate(
    records: Iterable[BenchRecord],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
    min_ops: float = DEFAULT_MIN_OPS,
) -> GateVerdict | None:
    """Gate the latest record against the rolling baseline.

    The baseline is the median ``total_ops`` of the up-to-*window* most
    recent comparable prior records.  A run regresses when its op count
    exceeds the baseline by more than *threshold* (relative) **and** by
    at least *min_ops* (absolute).  Returns None when the history is
    empty; a verdict with ``baseline_ops=None`` when there is nothing
    comparable to gate against.
    """
    comparable = comparable_history(records)
    if not comparable:
        return None
    latest = comparable[-1]
    # An exhausted error budget fails the gate outright — availability
    # is an absolute objective, not a delta against the baseline, so it
    # applies even to the first comparable run.
    exhausted = latest.slo_verdict == "EXHAUSTED"
    prior = comparable[:-1][-window:]
    if not prior:
        return GateVerdict(
            experiment=latest.experiment,
            latest_ops=latest.total_ops,
            baseline_ops=None,
            ops_ratio=None,
            latest_seconds=latest.seconds,
            baseline_seconds=None,
            comparable_runs=len(comparable),
            regressed=exhausted,
            reason=(
                f"SLO error budget exhausted (availability "
                f"{latest.availability:.1%})"
                if exhausted
                else "first comparable run; no baseline yet"
            ),
            clients=latest.clients,
            p50_ops=latest.p50_ops,
            p99_ops=latest.p99_ops,
            shed_rate=latest.shed_rate,
            availability=latest.availability,
            slo_verdict=latest.slo_verdict,
            join_candidates=latest.join_candidates,
            baseline_join_candidates=None,
            join_verify_ops=latest.join_verify_ops,
            hotspots=latest.hotspots,
        )
    baseline_ops = statistics.median(r.total_ops for r in prior)
    baseline_seconds = statistics.median(r.seconds for r in prior)
    ratio = (
        latest.total_ops / baseline_ops if baseline_ops > 0 else None
    )
    excess = latest.total_ops - baseline_ops
    regressed = (
        excess >= min_ops
        and baseline_ops > 0
        and latest.total_ops > baseline_ops * (1.0 + threshold)
    )
    # The candidate-count gate: the join index's whole value is that
    # join.candidate_pairs stays super-linearly below all-pairs, so a
    # creep back up is a regression even when total_ops still passes.
    baseline_join = statistics.median(r.join_candidates for r in prior)
    join_excess = latest.join_candidates - baseline_join
    join_regressed = (
        baseline_join > 0
        and join_excess >= DEFAULT_MIN_CANDIDATES
        and latest.join_candidates > baseline_join * (1.0 + threshold)
    )
    if exhausted:
        regressed = True
        reason = (
            f"SLO error budget exhausted (availability "
            f"{latest.availability:.1%})"
        )
    elif regressed:
        reason = (
            f"total_ops {latest.total_ops:.0f} exceeds baseline "
            f"{baseline_ops:.0f} by {excess / baseline_ops:.0%} "
            f"(threshold {threshold:.0%})"
        )
    elif join_regressed:
        regressed = True
        reason = (
            f"join_candidates {latest.join_candidates:.0f} exceeds "
            f"baseline {baseline_join:.0f} by "
            f"{join_excess / baseline_join:.0%} (threshold {threshold:.0%})"
        )
    elif excess > 0:
        reason = (
            f"total_ops {latest.total_ops:.0f} within threshold of "
            f"baseline {baseline_ops:.0f}"
        )
    else:
        reason = (
            f"total_ops {latest.total_ops:.0f} at or below baseline "
            f"{baseline_ops:.0f}"
        )
    return GateVerdict(
        experiment=latest.experiment,
        latest_ops=latest.total_ops,
        baseline_ops=baseline_ops,
        ops_ratio=ratio,
        latest_seconds=latest.seconds,
        baseline_seconds=baseline_seconds,
        comparable_runs=len(comparable),
        regressed=regressed,
        reason=reason,
        clients=latest.clients,
        p50_ops=latest.p50_ops,
        p99_ops=latest.p99_ops,
        shed_rate=latest.shed_rate,
        availability=latest.availability,
        slo_verdict=latest.slo_verdict,
        join_candidates=latest.join_candidates,
        baseline_join_candidates=baseline_join,
        join_verify_ops=latest.join_verify_ops,
        hotspots=latest.hotspots,
    )


def gate_all(
    root: str | pathlib.Path,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
    min_ops: float = DEFAULT_MIN_OPS,
) -> list[GateVerdict]:
    """Gate every bench history under *root*, sorted by experiment."""
    verdicts = []
    histories = scan_histories(root)
    for experiment in sorted(histories):
        verdict = evaluate_gate(
            histories[experiment],
            threshold=threshold,
            window=window,
            min_ops=min_ops,
        )
        if verdict is not None:
            verdicts.append(verdict)
    return verdicts


def render_bench_report(verdicts: list[GateVerdict]) -> str:
    """Human-readable bench-history report."""
    if not verdicts:
        return "no bench history found (run `make bench` first)"
    lines = [
        f"{'experiment':<16} {'runs':>4} {'latest ops':>12} "
        f"{'baseline':>12} {'ratio':>6}  verdict"
    ]
    regressions = 0
    for v in verdicts:
        baseline = f"{v.baseline_ops:.0f}" if v.baseline_ops else "-"
        ratio = f"{v.ops_ratio:.2f}" if v.ops_ratio else "-"
        verdict = "REGRESSED" if v.regressed else "ok"
        regressions += v.regressed
        lines.append(
            f"{v.experiment:<16} {v.comparable_runs:>4} "
            f"{v.latest_ops:>12.0f} {baseline:>12} {ratio:>6}  {verdict}"
        )
    joining = [v for v in verdicts if v.join_candidates > 0]
    if joining:
        lines.append("")
        lines.append(
            f"{'join index':<16} {'candidates':>10} {'baseline':>10} "
            f"{'verify ops':>10}"
        )
        for v in joining:
            baseline_join = (
                f"{v.baseline_join_candidates:.0f}"
                if v.baseline_join_candidates
                else "-"
            )
            lines.append(
                f"{v.experiment:<16} {v.join_candidates:>10.0f} "
                f"{baseline_join:>10} {v.join_verify_ops:>10.0f}"
            )
    profiled = [v for v in verdicts if v.hotspots]
    lines.append("")
    if profiled:
        lines.append(
            f"{'hotspot':<16} {'ticks':>12} {'share':>6}  frame (latest run)"
        )
        for v in profiled:
            path, ticks = v.hotspots[0]
            share = ticks / v.latest_ops if v.latest_ops > 0 else 0.0
            lines.append(
                f"{v.experiment:<16} {ticks:>12.0f} {share:>6.1%}  {path}"
            )
    else:
        lines.append(
            "no profile data in the latest records (profiled bench "
            "runs attach per-frame hotspots)"
        )
    serving = [v for v in verdicts if v.clients > 0]
    if serving:
        lines.append("")
        lines.append(
            f"{'serving':<16} {'clients':>7} {'p50 ops':>8} "
            f"{'p99 ops':>8} {'shed':>6} {'avail':>7}  slo"
        )
        for v in serving:
            lines.append(
                f"{v.experiment:<16} {v.clients:>7} {v.p50_ops:>8.0f} "
                f"{v.p99_ops:>8.0f} {v.shed_rate:>6.1%} "
                f"{v.availability:>7.1%}  {v.slo_verdict or '-'}"
            )
    lines.append("")
    if regressions:
        lines.append(f"regressions: {regressions}")
    else:
        lines.append("no regressions against rolling baselines")
    return "\n".join(lines)
