"""Bench histories: the ``BENCH_*.json`` writer and the report reader.

``benchmarks/_harness.run_and_record`` and ``ogdp-repro loadtest
--bench-root`` append one record per run to ``BENCH_<experiment>.json``
through :func:`append_record`.  ``ogdp-repro bench-report`` reads the
histories back and prints each one's latest record: its op count, join
candidates, hottest profiler frame and serving line.

Nothing here gates.  Op counts are a pure function of (scale, seed,
code), so tier-1 tests pin the counts that matter exactly, each on
meters it builds itself (DESIGN.md §9).  A history cannot stand in for
such a pin: a fresh checkout has none, and a bench's op deltas depend
on which bench first paid for a cached stage.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
from typing import Mapping

from .trace import write_atomic

#: Filename pattern for bench histories at the repository root.
BENCH_GLOB = "BENCH_*.json"
_BENCH_RE = re.compile(r"^BENCH_(?P<experiment>[A-Za-z0-9_]+)\.json$")


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """One parsed entry of a ``BENCH_*.json`` history."""

    experiment: str
    scale: float
    seed: int
    seconds: float
    total_ops: float
    #: Serving metrics (the ``serve`` load-harness experiment).  Compute
    #: benches leave all four at their zero defaults.
    clients: int = 0
    p50_ops: float = 0.0
    p99_ops: float = 0.0
    shed_rate: float = 0.0
    #: SLO accounting (records written before the fields existed keep
    #: the benign defaults: fully available, no verdict).
    availability: float = 1.0
    slo_verdict: str = ""
    #: Join candidate-generation accounting (see
    #: :mod:`repro.joinability.lshindex`): how many candidate pairs
    #: entered the exact Jaccard verify, one verify each.  Records
    #: written before the field existed default to 0.
    join_candidates: float = 0.0
    #: Hottest profiler frame paths of the recording run, as
    #: ``(path, ticks)`` pairs (see :mod:`repro.obs.profile`).  Records
    #: written before the profiler existed, or by unprofiled runs,
    #: default to empty — reported as "no profile data".
    hotspots: tuple = ()

    @classmethod
    def from_mapping(
        cls, raw: Mapping, *, experiment: str
    ) -> "BenchRecord | None":
        """A record from one raw JSON object, or None if malformed."""
        try:
            return cls(
                experiment=str(raw.get("experiment", experiment)),
                scale=float(raw["scale"]),
                seed=int(raw["seed"]),
                seconds=float(raw.get("seconds", 0.0)),
                total_ops=float(raw["total_ops"]),
                clients=int(raw.get("clients", 0)),
                p50_ops=float(raw.get("p50_ops", 0.0)),
                p99_ops=float(raw.get("p99_ops", 0.0)),
                shed_rate=float(raw.get("shed_rate", 0.0)),
                availability=float(raw.get("availability", 1.0)),
                slo_verdict=str(raw.get("slo_verdict", "")),
                join_candidates=float(raw.get("join_candidates", 0.0)),
                hotspots=_parse_hotspots(raw.get("hotspots", ())),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def as_json(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["hotspots"] = [list(pair) for pair in self.hotspots]
        return doc


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
    """The complete leading top-level JSON objects in *text*, in order.

    Accepts a well-formed JSON array, but also recovers the complete
    leading objects from a truncated or otherwise mangled file — a
    bench run killed mid-write must not discard the history before it.
    Scanning stops at the first object that does not parse: the
    objects nested inside a torn record are part of that record, never
    records of their own.
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
            obj, pos = decoder.raw_decode(text, start)
        except ValueError:
            break
        objects.append(obj)
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
    for raw in salvage_json_objects(text):
        record = BenchRecord.from_mapping(raw, experiment=experiment)
        if record is not None:
            records.append(record)
    return records


def latest_records(root: str | pathlib.Path) -> list[BenchRecord]:
    """The latest record of every bench history under *root*, by name."""
    latest = {}
    for path in sorted(pathlib.Path(root).glob(BENCH_GLOB)):
        records = read_history(path)
        if records:
            latest[records[-1].experiment] = records[-1]
    return [latest[name] for name in sorted(latest)]


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


def render_bench_report(records: list[dict]) -> str:
    """The ``bench-report`` document (each history's latest record, as
    :meth:`BenchRecord.as_json`) as text."""
    from ..report.render import render_table

    if not records:
        return "no bench history found (run `make bench` first)"
    blocks = [render_table(
        "Latest bench records",
        ["experiment", "total ops"],
        [[r["experiment"], f"{r['total_ops']:.0f}"] for r in records],
    )]
    joins = [
        [r["experiment"], f"{r['join_candidates']:.0f}"]
        for r in records if r["join_candidates"] > 0
    ]
    if joins:
        blocks.append(
            render_table("Join index", ["experiment", "candidates"], joins)
        )
    hottest = []
    for r in records:
        if r["hotspots"]:
            path, ticks = r["hotspots"][0]
            share = ticks / r["total_ops"] if r["total_ops"] > 0 else 0.0
            hottest.append(
                [r["experiment"], f"{ticks:.0f}", f"{share:.1%}", path]
            )
    blocks.append(
        render_table(
            "Hottest frame (latest run)",
            ["experiment", "ticks", "share", "frame"],
            hottest,
        )
        if hottest
        else "no profile data in the latest records (profiled bench "
        "runs attach per-frame hotspots)"
    )
    serving = [
        [r["experiment"], r["clients"], f"{r['p50_ops']:.0f}",
         f"{r['p99_ops']:.0f}", f"{r['shed_rate']:.1%}",
         f"{r['availability']:.1%}", r["slo_verdict"] or "-"]
        for r in records if r["clients"] > 0
    ]
    if serving:
        blocks.append(render_table(
            "Serving",
            ["experiment", "clients", "p50 ops", "p99 ops", "shed", "avail",
             "slo"],
            serving,
        ))
    return "\n\n".join(blocks)
