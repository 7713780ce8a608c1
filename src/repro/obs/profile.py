"""Deterministic continuous profiler: flame attribution over WorkMeter ops.

Wall-clock profilers (``sys.setprofile``, perf, py-spy) answer "where
did the time go?" with an answer that changes on every host and every
run.  This study's unit of cost is already deterministic — the
:class:`~repro.resilience.budget.WorkMeter` tick — so the profiler
piggybacks on it: every tick is attributed to the *frame path* active
when it was charged, e.g. ``study;SG;fd;fun;level2;fd.refine``.  Frames
are pushed and popped explicitly (:func:`prof_scope`), never inferred
from the Python stack, which keeps two equal-seed runs byte-identical.

Flush rule
----------
Ticks accumulate in a pending counter and are flushed to the current
frame path whenever

* the op name changes,
* a frame is pushed or popped, or
* a snapshot is taken.

Every flush lands on the path that accrued the ticks, so attribution
is exact, and the total over all frames always reconciles exactly with
the meters' spend.

Shard merge
-----------
Pool workers profile each unit with a fresh :class:`Profiler` seeded
with the unit's ``study;portal;stage`` base frames and persist the
per-unit frame counts inside their shard envelopes (appended one line
per unit, like every shard record).  The executor absorbs those counts
when it adopts the unit, so a pooled chaos run's profile is
byte-identical to the serial run's: killed attempts die before their
envelope is appended, and tick addition is commutative.

Disabled (no ``--profile-out``), the hook in ``WorkMeter.tick`` is one
``is None`` branch and every ``prof_scope`` is a shared null context:
outputs are byte-identical to an unprofiled build, the same contract
the trace sink honours.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from collections import Counter
from typing import Mapping

from .quantiles import rank_summary
from .trace import (
    TraceData,
    load_trace,
    render_trace_head,
    span_attr,
    span_stage,
    write_atomic,
)

#: Profile artifact format version.
PROFILE_VERSION = 1

#: Frame-path separator (flamegraph.pl collapsed-stack convention).
SEP = ";"


class Profiler:
    """Attributes WorkMeter ticks to an explicit frame stack.

    ``counts`` maps frame paths (tuples of frame names, the charged op
    appended as the leaf) to tick totals.  All methods are O(1) per
    call; the per-tick hook (:meth:`add`) is an equality check and one
    integer add on the fast path.
    """

    def __init__(self):
        self.counts: dict[tuple[str, ...], int] = {}
        self._stack: list[str] = []
        self._pending = 0
        self._pending_op: str | None = None

    # -- the per-tick hook ---------------------------------------------
    def add(self, cost: int, op: str) -> None:
        """Attribute *cost* ticks of *op* to the current frame path."""
        if op != self._pending_op:
            self.flush()
            self._pending_op = op
        self._pending += cost

    def flush(self) -> None:
        """Commit pending ticks to the current frame path."""
        if self._pending:
            path = tuple(self._stack)
            if self._pending_op is not None:
                path += (self._pending_op,)
            self.counts[path] = self.counts.get(path, 0) + self._pending
            self._pending = 0

    # -- the frame stack -----------------------------------------------
    def push(self, frame: str) -> None:
        self.flush()
        self._stack.append(frame)

    def pop(self) -> None:
        self.flush()
        self._stack.pop()

    def frame(self, *names: str) -> FrameScope:
        """A scope pushing *names* as nested frames while it is entered.

        The scope may be entered any number of times, in sequence or
        nested, so a hot loop builds it once and enters it per
        iteration.
        """
        return FrameScope(self, names)

    # -- aggregation ---------------------------------------------------
    @property
    def total_ticks(self) -> int:
        """Every tick attributed so far (pending included)."""
        return sum(self.counts.values()) + self._pending

    def absorb(self, frames: Mapping[str, int]) -> None:
        """Merge a snapshot of path-string counts (a worker's shard)."""
        for path_str, ticks in frames.items():
            key = tuple(path_str.split(SEP))
            self.counts[key] = self.counts.get(key, 0) + int(ticks)

    def snapshot(self) -> dict[str, int]:
        """Flushed frame counts keyed by ``;``-joined path, sorted."""
        self.flush()
        return {
            SEP.join(path): ticks
            for path, ticks in sorted(self.counts.items())
        }


class FrameScope:
    """Pushes its frame names on ``__enter__``, pops them on ``__exit__``.

    It holds no per-entry state, so one scope can be entered any number
    of times, nested or in sequence; an exception passing through still
    pops every name it pushed.
    """

    __slots__ = ("_profiler", "_names")

    def __init__(self, profiler: Profiler, names: tuple[str, ...]):
        self._profiler = profiler
        self._names = names

    def __enter__(self) -> Profiler:
        profiler = self._profiler
        for name in self._names:
            profiler.push(name)
        return profiler

    def __exit__(self, *exc_info) -> None:
        profiler = self._profiler
        for _ in self._names:
            profiler.pop()


#: The scope of every unprofiled :func:`prof_scope` call.
_NULL_SCOPE = contextlib.nullcontext(None)


def prof_scope(meter, *names: str):
    """A profiler frame scope riding on *meter*, or a null context.

    *meter* may be a :class:`WorkMeter` (the scope applies to its
    attached profiler), a bare :class:`Profiler`, or None.  A profiled
    scope is a :class:`FrameScope`; unprofiled runs pay one attribute
    lookup and share one module-level null context.  Either may be
    entered any number of times, so a hot loop builds its scopes once.
    """
    profiler = getattr(meter, "profiler", meter)
    if isinstance(profiler, Profiler) and names:
        return profiler.frame(*names)
    return _NULL_SCOPE


# ----------------------------------------------------------------------
# artifact IO
# ----------------------------------------------------------------------
def profile_doc(
    profiler: Profiler, meta: Mapping | None = None
) -> dict:
    """The JSON document a profiler serializes to."""
    doc = {
        "version": PROFILE_VERSION,
        "frames": profiler.snapshot(),
    }
    doc["total_ticks"] = sum(doc["frames"].values())
    if meta:
        doc["meta"] = dict(meta)
    return doc


def write_profile(
    path: str | pathlib.Path,
    profiler: Profiler,
    meta: Mapping | None = None,
) -> None:
    """Write the profile artifact via write-to-temp + atomic rename."""
    write_atomic(
        path,
        json.dumps(profile_doc(profiler, meta), sort_keys=True, indent=2)
        + "\n",
    )


class NotAProfile(ValueError):
    """The file is no profile document: not one JSON object with frames."""


def read_profile(path: str | pathlib.Path) -> dict:
    """Load a profile artifact: the one check of a profile's shape.

    Raises :class:`NotAProfile` for a file that is none, and
    ``ValueError`` for non-integer ``frames`` or a non-object ``meta``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise NotAProfile(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(doc, dict) or "frames" not in doc:
        raise NotAProfile(f"{path}: not a profile artifact (no 'frames')")
    frames, meta = doc["frames"], doc.get("meta", {})
    if not isinstance(frames, dict) or not all(
        isinstance(ticks, int) and not isinstance(ticks, bool)
        for ticks in frames.values()
    ):
        raise ValueError(
            f"{path}: malformed profile: 'frames' are not integer counts"
        )
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: malformed profile: 'meta' is not an object")
    return doc


def load_any_profile(
    path: str | pathlib.Path,
) -> tuple[dict, TraceData | None]:
    """Load *path* as a profile artifact or, if it is none, as a trace.

    Returns the profile document and, for a trace, the parsed trace
    it was folded from (None for a profile artifact).  A malformed
    profile raises ``ValueError``; it is never read as a trace.
    """
    try:
        return read_profile(path), None
    except NotAProfile:
        # A trace's first line parses but has no 'frames', a JSONL
        # body fails json.load outright.  Either way, fold the spans.
        trace = load_trace(path)
        folded = Profiler()
        folded.absorb(trace_frames(trace))
        return profile_doc(folded, {"source": "trace"}), trace


# ----------------------------------------------------------------------
# trace attribution
# ----------------------------------------------------------------------
def trace_frames(trace: TraceData) -> dict[str, int]:
    """Every span's self ops, charged to ``study;<portal>;<stage>``.

    The one attribution fold over a trace.  Its paths are the base
    frames the profiler pushes around every unit (the ``study`` root,
    then the executor's portal and stage), so for every analysis stage
    a trace-derived frame equals the sum of a real profile's frames
    beneath it.  Self ops never double count: the frames sum to the
    trace's total ops.
    """
    frames: dict[str, int] = {}
    for span in trace.spans:
        ops = span["self_ops"]
        if ops:
            path = SEP.join(
                ("study", span_attr(span, "portal"), span_stage(span))
            )
            frames[path] = frames.get(path, 0) + ops
    return dict(sorted(frames.items()))


def outcome_counts(trace: TraceData) -> dict[str, int]:
    """Unit spans per terminal status (replayed units included)."""
    return dict(Counter(span["status"] for span in trace.unit_spans))


def top_tables(trace: TraceData, limit: int = 10) -> list[dict]:
    """The most expensive per-table units, by operations spent."""
    per_table: dict[tuple[str, str], dict] = {}
    for span in trace.unit_spans:
        table = span_attr(span, "table")
        if table == "*":
            continue
        key = (span_attr(span, "portal"), table)
        entry = per_table.setdefault(
            key,
            {
                "portal": key[0],
                "table": table,
                "ops": 0,
                "stages": [],
                "worst_status": "ok",
            },
        )
        entry["ops"] += span["self_ops"]
        stage = span_stage(span)
        if stage not in entry["stages"]:
            entry["stages"].append(stage)
        if span["status"] != "ok":
            entry["worst_status"] = span["status"]
    ranked = sorted(
        per_table.values(),
        key=lambda e: (-e["ops"], e["portal"], e["table"]),
    )
    return ranked[:limit]


def degradation_ledger(trace: TraceData) -> list[dict]:
    """Every non-OK span, in the order they closed (the file's order)."""
    return [
        {
            "portal": span_attr(span, "portal"),
            "stage": span_stage(span),
            "table": span_attr(span, "table"),
            "status": span["status"],
            "ops": span["self_ops"],
            "replayed": span_attr(span, "replayed"),
            "detail": span_attr(span, "detail"),
        }
        for span in trace.spans
        if span["status"] != "ok"
    ]


def trace_report_json(trace: TraceData, top: int = 10) -> dict:
    """What a trace knows beyond its frames: the ``trace`` section."""
    return {
        **trace.identity(),
        "span_count": len(trace.spans),
        "total_ops": trace.total_ops,
        "unit_ops": trace.unit_ops,
        "outcomes": outcome_counts(trace),
        "top_tables": top_tables(trace, top),
        "degraded": degradation_ledger(trace),
        "metrics": trace.metrics,
    }


# ----------------------------------------------------------------------
# hotspot report
# ----------------------------------------------------------------------
def hotspots(frames: Mapping[str, int], top: int | None = None) -> list:
    """Frame paths ranked by ticks (descending, path as tiebreak)."""
    ranked = sorted(frames.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top] if top is not None else ranked


def collapsed_lines(frames: Mapping[str, int]) -> list[str]:
    """Collapsed-stack lines (``path ticks``) for flamegraph.pl."""
    return [
        f"{path} {ticks}" for path, ticks in sorted(frames.items())
    ]


def inclusive_frames(frames: Mapping[str, int]) -> dict[str, int]:
    """Per-frame *inclusive* tick totals across all paths.

    A frame's inclusive count is the sum of every path it appears on —
    the flamegraph rectangle width, where leaf paths are the exclusive
    view.  A frame repeated within one path (recursion) still counts
    that path's ticks once.  Inclusive counts answer "how much of the
    run does the ``dataframe`` engine hold?" regardless of how finely
    the paths underneath it are split.
    """
    inclusive: dict[str, int] = {}
    for path, ticks in frames.items():
        for name in set(path.split(SEP)):
            inclusive[name] = inclusive.get(name, 0) + int(ticks)
    return dict(sorted(inclusive.items()))


def profile_report_json(
    doc: dict, top: int = 20, trace: TraceData | None = None
) -> dict:
    """The machine-readable form of the hotspot report.

    A report on a trace adds the trace's own answers under ``trace``
    (see :func:`trace_report_json`); *top* bounds its table list too.
    """
    frames = doc["frames"]
    total = sum(frames.values())
    spread = rank_summary(frames.values())

    def ranked(by_frame: Mapping[str, int]) -> list[dict]:
        return [
            {
                "frame": frame,
                "ticks": ticks,
                "share": round(ticks / total, 6) if total else 0.0,
            }
            for frame, ticks in hotspots(by_frame, top)
        ]

    report = {
        "version": doc.get("version"),
        "total_ticks": total,
        "frame_count": len(frames),
        "frame_ticks_p50": spread["p50"],
        "frame_ticks_p99": spread["p99"],
        "hotspots": ranked(frames),
        "inclusive": ranked(inclusive_frames(frames)),
    }
    if trace is not None:
        report["trace"] = trace_report_json(trace, top)
    return report


def _trace_head_lines(section: dict) -> list[str]:
    """The trace's identity, damage, and op totals (or 'no spans')."""
    problems = section["problems"]
    nesting = f"BROKEN ({len(problems)})" if problems else "OK"
    lines = render_trace_head(
        section,
        "trace",
        f"{section['span_count']} spans, nesting {nesting}",
        ("seed", "scale", "stage_budget"),
    )
    if not section["span_count"]:
        lines.append("")
        lines.append(
            "no spans: the trace holds no completed spans "
            "(empty, torn, or killed before any unit finished)"
        )
    else:
        lines.append(
            f"work-budget attribution: {section['total_ops']} ops total, "
            f"{section['unit_ops']} in executor units"
        )
    return lines


def _trace_tail_lines(section: dict) -> list[str]:
    """Unit outcomes, the top tables, and the degradation ledger."""
    from ..report.render import render_table

    lines: list[str] = []
    outcomes = section["outcomes"]
    if outcomes:
        tally = ", ".join(
            f"{outcomes[status]} {status}" for status in sorted(outcomes)
        )
        lines.extend(["", f"unit outcomes: {tally}"])
    expensive = section["top_tables"]
    if expensive:
        lines.append("")
        lines.append(
            render_table(
                f"Top {len(expensive)} tables by operations",
                ["portal", "table", "ops", "stages", "status"],
                [
                    [
                        entry["portal"],
                        entry["table"],
                        entry["ops"],
                        "+".join(entry["stages"]),
                        entry["worst_status"],
                    ]
                    for entry in expensive
                ],
            )
        )
    ledger = section["degraded"]
    if ledger:
        lines.append("")
        lines.append(
            render_table(
                "Degradation ledger",
                ["portal", "stage", "table", "status", "ops", "detail"],
                [
                    [
                        row["portal"],
                        row["stage"],
                        row["table"],
                        row["status"] + (" (replayed)" if row["replayed"] else ""),
                        row["ops"],
                        row["detail"][:60],
                    ]
                    for row in ledger
                ],
            )
        )
    return lines


def render_profile_report(summary: dict) -> str:
    """The hotspot report document (:func:`profile_report_json`) as text.

    A report on a trace frames the hotspot tables with the trace's
    sections.
    """
    from ..report.render import render_table

    section = summary.get("trace")
    lines: list[str] = []
    if section is not None:
        lines.extend(_trace_head_lines(section))
        if not section["span_count"]:
            return "\n".join(lines)
        lines.append("")
    lines.extend([
        "PROFILE HOTSPOTS",
        f"  total ticks: {summary['total_ticks']}   "
        f"frames: {summary['frame_count']}   "
        f"frame p50/p99 ticks: {summary['frame_ticks_p50']}"
        f"/{summary['frame_ticks_p99']}",
        "",
    ])

    def share_table(title: str, entries: list[dict]) -> str:
        return render_table(
            title,
            ["frame", "ticks", "share"],
            [
                [entry["frame"], str(entry["ticks"]), f"{entry['share']:.1%}"]
                for entry in entries
            ],
        )

    lines.append(
        share_table("hottest frame paths", summary["hotspots"])
        if summary["hotspots"]
        else "  (no frames recorded)"
    )
    if summary["inclusive"]:
        lines.extend([
            "",
            share_table("inclusive ticks by frame name", summary["inclusive"]),
        ])
    if section is not None:
        lines.extend(_trace_tail_lines(section))
    return "\n".join(lines)


__all__ = [
    "PROFILE_VERSION",
    "FrameScope",
    "Profiler",
    "collapsed_lines",
    "degradation_ledger",
    "hotspots",
    "inclusive_frames",
    "load_any_profile",
    "NotAProfile",
    "outcome_counts",
    "prof_scope",
    "profile_doc",
    "profile_report_json",
    "read_profile",
    "render_profile_report",
    "top_tables",
    "trace_frames",
    "trace_report_json",
    "write_profile",
]
