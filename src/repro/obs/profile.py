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
per-unit frame counts inside their shard envelopes (written tmp +
atomic rename, like every shard).  The executor absorbs those counts
when it adopts the unit, so a pooled chaos run's profile is
byte-identical to the serial run's: killed attempts die before their
shard persists, and tick addition is commutative.

Disabled (no ``--profile-out``), the hook in ``WorkMeter.tick`` is one
``is None`` branch and every ``prof_scope`` is a shared null context:
outputs are byte-identical to an unprofiled build, the same contract
the trace sink honours.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from typing import Iterable, Mapping

from .quantiles import percentile_nearest_rank

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

    @contextlib.contextmanager
    def frame(self, *names: str):
        """Context manager pushing *names* as nested frames."""
        for name in names:
            self.push(name)
        try:
            yield self
        finally:
            for _ in names:
                self.pop()

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


def prof_scope(meter, *names: str):
    """A profiler frame scope riding on *meter*, or a null context.

    *meter* may be a :class:`WorkMeter` (the scope applies to its
    attached profiler), a bare :class:`Profiler`, or None.  Unprofiled
    runs pay one attribute lookup and share a single null context.
    """
    profiler = getattr(meter, "profiler", meter)
    if isinstance(profiler, Profiler) and names:
        return profiler.frame(*names)
    return contextlib.nullcontext(None)


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
    target = pathlib.Path(path)
    if target.parent != pathlib.Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    text = (
        json.dumps(profile_doc(profiler, meta), sort_keys=True, indent=2)
        + "\n"
    )
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)


def read_profile(path: str | pathlib.Path) -> dict:
    """Load a profile artifact, validating the minimal shape."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "frames" not in doc:
        raise ValueError(f"{path}: not a profile artifact (no 'frames')")
    frames = doc["frames"]
    if not isinstance(frames, dict):
        raise ValueError(f"{path}: 'frames' is not an object")
    return doc


def frames_from_trace(path: str | pathlib.Path) -> dict:
    """A coarse profile document derived from a trace's span tree.

    Pre-profiler traces still know where the ops went at span
    granularity: every span's *self* ops are attributed to the path of
    span names from the root down.  The result loads anywhere a real
    profile artifact does, so ``profile-report`` accepts either.
    """
    from .trace import read_trace

    spans = [r for r in read_trace(path) if r.get("type") == "span"]
    by_id = {r.get("id"): r for r in spans}
    frames: dict[str, int] = {}
    for record in spans:
        self_ops = int(record.get("self_ops", 0))
        if self_ops <= 0:
            continue
        names: list[str] = []
        cursor: dict | None = record
        while cursor is not None:
            names.append(str(cursor.get("name", "?")))
            cursor = by_id.get(cursor.get("parent"))
        path_str = SEP.join(reversed(names))
        frames[path_str] = frames.get(path_str, 0) + self_ops
    frames = dict(sorted(frames.items()))
    return {
        "version": PROFILE_VERSION,
        "frames": frames,
        "total_ticks": sum(frames.values()),
        "meta": {"source": "trace"},
    }


def load_any_profile(path: str | pathlib.Path) -> dict:
    """Load *path* as a profile artifact or, failing that, as a trace."""
    try:
        return read_profile(path)
    except ValueError:
        # Not a profile document (JSONDecodeError included): a trace's
        # first line parses but has no 'frames', a JSONL body fails
        # json.load outright.  Either way, derive from the spans.
        return frames_from_trace(path)


def merge_frame_counts(
    snapshots: Iterable[Mapping[str, int]],
) -> dict[str, int]:
    """Sum several path-string count snapshots (shard merge)."""
    merged: dict[str, int] = {}
    for snapshot in snapshots:
        for path_str, ticks in snapshot.items():
            merged[path_str] = merged.get(path_str, 0) + int(ticks)
    return dict(sorted(merged.items()))


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


def profile_report_json(doc: dict, top: int = 20) -> dict:
    """The machine-readable form of the hotspot report."""
    frames = doc["frames"]
    total = sum(frames.values())
    counts = sorted(frames.values())
    return {
        "version": doc.get("version"),
        "total_ticks": total,
        "frame_count": len(frames),
        "frame_ticks_p50": percentile_nearest_rank(counts, 50),
        "frame_ticks_p99": percentile_nearest_rank(counts, 99),
        "hotspots": [
            {
                "frame": path,
                "ticks": ticks,
                "share": round(ticks / total, 6) if total else 0.0,
            }
            for path, ticks in hotspots(frames, top)
        ],
        "inclusive": [
            {
                "frame": name,
                "ticks": ticks,
                "share": round(ticks / total, 6) if total else 0.0,
            }
            for name, ticks in hotspots(inclusive_frames(frames), top)
        ],
    }


def render_profile_report(doc: dict, top: int = 20) -> str:
    """The human-readable hotspot table."""
    from ..report.render import render_table

    summary = profile_report_json(doc, top=top)
    lines = [
        "PROFILE HOTSPOTS",
        f"  total ticks: {summary['total_ticks']}   "
        f"frames: {summary['frame_count']}   "
        f"frame p50/p99 ticks: {summary['frame_ticks_p50']}"
        f"/{summary['frame_ticks_p99']}",
        "",
    ]
    rows = [
        [
            entry["frame"],
            str(entry["ticks"]),
            f"{entry['share']:.1%}",
        ]
        for entry in summary["hotspots"]
    ]
    lines.append(
        render_table("hottest frame paths", ["frame", "ticks", "share"], rows)
        if rows
        else "  (no frames recorded)"
    )
    inclusive_rows = [
        [
            entry["frame"],
            str(entry["ticks"]),
            f"{entry['share']:.1%}",
        ]
        for entry in summary["inclusive"]
    ]
    if inclusive_rows:
        lines.extend(
            [
                "",
                render_table(
                    "inclusive ticks by frame name",
                    ["frame", "ticks", "share"],
                    inclusive_rows,
                ),
            ]
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# profile diff
# ----------------------------------------------------------------------
#: Default relative per-frame growth beyond which the diff gate fails.
DEFAULT_DIFF_THRESHOLD = 0.25

#: Frames below this many ticks (on both sides) never trip the gate:
#: tiny frames have huge relative swings with no cost story behind them.
DEFAULT_MIN_TICKS = 1_000


def diff_profiles(
    doc_a: dict,
    doc_b: dict,
    threshold: float = DEFAULT_DIFF_THRESHOLD,
    min_ticks: int = DEFAULT_MIN_TICKS,
) -> dict:
    """Per-frame tick deltas between two profiles, gate verdict included.

    A frame *regresses* when run B spends more than ``threshold``
    (relative) ticks over run A on it and either side is at least
    ``min_ticks``.  Brand-new frames at or above ``min_ticks`` regress
    by definition (there is no baseline to grow from); vanished frames
    are reported but never fail the gate — less work is not a
    regression.
    """
    frames_a = doc_a["frames"]
    frames_b = doc_b["frames"]
    deltas = []
    regressions = []
    for path in sorted(set(frames_a) | set(frames_b)):
        ticks_a = int(frames_a.get(path, 0))
        ticks_b = int(frames_b.get(path, 0))
        if ticks_a == ticks_b:
            continue
        entry = {
            "frame": path,
            "a": ticks_a,
            "b": ticks_b,
            "delta": ticks_b - ticks_a,
            "new": path not in frames_a,
            "vanished": path not in frames_b,
        }
        deltas.append(entry)
        if max(ticks_a, ticks_b) < min_ticks:
            continue
        if ticks_a == 0:
            regressed = ticks_b >= min_ticks
        else:
            regressed = (ticks_b - ticks_a) / ticks_a > threshold
        if regressed:
            regressions.append(path)
    total_a = sum(frames_a.values())
    total_b = sum(frames_b.values())
    return {
        "total_a": total_a,
        "total_b": total_b,
        "total_delta": total_b - total_a,
        "threshold": threshold,
        "min_ticks": min_ticks,
        "frames_changed": len(deltas),
        "new_frames": [d["frame"] for d in deltas if d["new"]],
        "vanished_frames": [d["frame"] for d in deltas if d["vanished"]],
        "deltas": deltas,
        "regressions": regressions,
        "regressed": bool(regressions),
    }


def render_profile_diff(diff: dict, top: int = 20) -> str:
    """The human-readable per-frame delta table."""
    from ..report.render import render_table

    lines = [
        "PROFILE DIFF",
        f"  total ticks: {diff['total_a']} -> {diff['total_b']} "
        f"({diff['total_delta']:+d})",
        f"  frames changed: {diff['frames_changed']}   "
        f"new: {len(diff['new_frames'])}   "
        f"vanished: {len(diff['vanished_frames'])}",
        "",
    ]
    ranked = sorted(
        diff["deltas"], key=lambda d: (-abs(d["delta"]), d["frame"])
    )[:top]
    if ranked:
        rows = []
        for entry in ranked:
            note = (
                "NEW"
                if entry["new"]
                else "GONE"
                if entry["vanished"]
                else ""
            )
            if entry["frame"] in diff["regressions"]:
                note = (note + " REGRESSED").strip()
            rows.append(
                [
                    entry["frame"],
                    str(entry["a"]),
                    str(entry["b"]),
                    f"{entry['delta']:+d}",
                    note,
                ]
            )
        lines.append(
            render_table(
                "largest per-frame deltas",
                ["frame", "a", "b", "delta", ""],
                rows,
            )
        )
    else:
        lines.append("  (no per-frame changes)")
    if diff["regressions"]:
        lines.append("")
        lines.append(
            f"GATE: {len(diff['regressions'])} frame(s) regressed beyond "
            f"{diff['threshold']:.0%} (min {diff['min_ticks']} ticks)"
        )
    else:
        lines.append("")
        lines.append("GATE: no frame regressions")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_DIFF_THRESHOLD",
    "DEFAULT_MIN_TICKS",
    "PROFILE_VERSION",
    "Profiler",
    "collapsed_lines",
    "diff_profiles",
    "frames_from_trace",
    "hotspots",
    "inclusive_frames",
    "load_any_profile",
    "merge_frame_counts",
    "prof_scope",
    "profile_doc",
    "profile_report_json",
    "read_profile",
    "render_profile_diff",
    "render_profile_report",
    "write_profile",
]
