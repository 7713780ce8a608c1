"""Run-to-run drift detection (``ogdp-repro diff RUN_A RUN_B``).

Two runs of the pipeline with equal seeds and equal configuration must
be *indistinguishable*: byte-identical traces, profiles, metric blocks
and fidelity scoreboards.  This module turns that invariant into a
checkable contract — it compares two runs' artifacts exactly and
reports every place they drift apart, so CI can gate on "equal seeds ⇒
empty diff" and a poisoned or regressed run names exactly which units
and frames changed.

A *run* is a trace file written by ``run --trace-out``, a profile
artifact written by ``run --profile-out``, or a directory holding any
of ``trace.jsonl``, ``profile.json`` and ``fidelity.json``.  The diff
compares whatever both runs hold:

* from traces — **op deltas**, the per-portal, per-stage self-op
  totals of the span tree (the ``study;<portal>;<stage>`` frames
  ``ogdp-repro profile-report`` prints for a trace); **outcome
  transitions**, per ``(portal, stage, table)`` executor unit, the
  terminal status in A vs. B (``ok → truncated``, ``ok →
  quarantined``, appearing/disappearing units, …); **quarantine-set
  changes**, tables quarantined in one run only; and **metric drift**,
  counter values and histogram buckets from the metric blocks
  (``pool.*`` worker-scheduling counters are excluded, like
  wall-clock: they describe how the run was executed, not what it
  computed);
* from profiles — **frame deltas**, per frame path, in the same
  ``{frame, a, b, delta}`` shape as op deltas;
* from fidelity files — per-experiment and per-check **verdict
  changes**.

A trace header and a profile's ``meta`` are context: their changes are
reported but never count as drift.  Wall-clock values never
participate: any timing field a span carries is ignored, so an old
trace with timings still diffs clean against an equal-seed run.  Exit
codes (see the CLI): 0 = no drift, 1 = drift, 2 = artifacts unreadable
or no artifact kind in common.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from .profile import SEP, load_any_profile, read_profile, trace_frames
from .trace import TraceData, load_trace, span_attr, span_stage

#: Conventional artifact names inside a run directory.
TRACE_NAME = "trace.jsonl"
PROFILE_NAME = "profile.json"
FIDELITY_NAME = "fidelity.json"

#: Status label for a unit present in only one of the runs.
ABSENT = "absent"


class RunLoadError(ValueError):
    """A run path holds no readable run, or two runs nothing to compare."""


@dataclasses.dataclass
class RunArtifacts:
    """One run's comparable artifacts (None where the run has none)."""

    label: str
    trace: TraceData | None = None
    profile: dict | None = None
    fidelity: dict | None = None


def _read_fidelity(path: pathlib.Path) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise RunLoadError(f"unreadable fidelity file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise RunLoadError(f"fidelity file {path} is not a JSON object")
    return doc


def load_run(path: str | pathlib.Path) -> RunArtifacts:
    """Load a run from a trace file, a profile artifact or a directory.

    A file is a profile when it is a profile document, else a trace (as
    ``profile-report`` tells them apart).  Raises :class:`RunLoadError`
    for a path that holds no run, and ``OSError`` or ``ValueError`` for
    an artifact that cannot be read, a malformed profile included.
    """
    p = pathlib.Path(path)
    run = RunArtifacts(label=str(path))
    if p.is_dir():
        if (p / TRACE_NAME).exists():
            run.trace = load_trace(p / TRACE_NAME)
        if (p / PROFILE_NAME).exists():
            run.profile = read_profile(p / PROFILE_NAME)
        if (p / FIDELITY_NAME).exists():
            run.fidelity = _read_fidelity(p / FIDELITY_NAME)
        if run.trace is None and run.profile is None and run.fidelity is None:
            raise RunLoadError(
                f"run directory {p} holds none of {TRACE_NAME}, "
                f"{PROFILE_NAME}, {FIDELITY_NAME}"
            )
    elif p.exists():
        doc, trace = load_any_profile(p)
        if trace is None:
            run.profile = doc
        else:
            run.trace = trace
    else:
        raise RunLoadError(f"no such run: {p}")
    return run


@dataclasses.dataclass
class DiffReport:
    """Everything that differs between two runs.

    Only the artifact kinds both runs hold are compared (``compared``);
    the lists of the others stay empty.  ``header_changes`` are
    informational (configuration context); every other list
    contributes to :attr:`drift_count`.
    """

    run_a: str
    run_b: str
    compared: list[str]
    header_changes: list[dict] = dataclasses.field(default_factory=list)
    op_deltas: list[dict] = dataclasses.field(default_factory=list)
    outcome_transitions: list[dict] = dataclasses.field(default_factory=list)
    quarantine_added: list[dict] = dataclasses.field(default_factory=list)
    quarantine_removed: list[dict] = dataclasses.field(default_factory=list)
    metric_drift: list[dict] = dataclasses.field(default_factory=list)
    frame_deltas: list[dict] = dataclasses.field(default_factory=list)
    fidelity_changes: list[dict] = dataclasses.field(default_factory=list)

    @property
    def drift_count(self) -> int:
        return (
            len(self.op_deltas)
            + len(self.outcome_transitions)
            + len(self.quarantine_added)
            + len(self.quarantine_removed)
            + len(self.metric_drift)
            + len(self.frame_deltas)
            + len(self.fidelity_changes)
        )

    @property
    def has_drift(self) -> bool:
        return self.drift_count > 0

    def as_json(self) -> dict:
        return {**dataclasses.asdict(self), "drift_count": self.drift_count}


def _context(run: RunArtifacts, compared: list[str]) -> dict:
    """The compared artifacts' configuration: profile meta, trace header."""
    context = {}
    if "profile" in compared:
        context.update(run.profile.get("meta", {}))
    if "trace" in compared:
        context.update(run.trace.header)
    context.pop("type", None)
    return context


def _header_changes(a: dict, b: dict) -> list[dict]:
    return [
        {"key": key, "a": a.get(key), "b": b.get(key)}
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


def _frame_deltas(frames_a: dict, frames_b: dict) -> list[dict]:
    """Every frame path whose count differs, as ``{frame, a, b, delta}``."""
    deltas = []
    paths = sorted(set(frames_a) | set(frames_b), key=lambda p: p.split(SEP))
    for path in paths:
        a, b = frames_a.get(path, 0), frames_b.get(path, 0)
        if a != b:
            deltas.append({"frame": path, "a": a, "b": b, "delta": b - a})
    return deltas


def _units(trace: TraceData) -> dict[tuple[str, str, str], list[str]]:
    """Per-(portal, stage, table) sorted terminal statuses."""
    units: dict[tuple[str, str, str], list[str]] = {}
    for span in trace.unit_spans:
        key = (
            span_attr(span, "portal"),
            span_stage(span),
            span_attr(span, "table"),
        )
        units.setdefault(key, []).append(span["status"])
    for statuses in units.values():
        statuses.sort()
    return units


def _outcome_transitions(a: TraceData, b: TraceData) -> list[dict]:
    units_a, units_b = _units(a), _units(b)
    transitions = []
    for key in sorted(set(units_a) | set(units_b)):
        statuses_a = units_a.get(key, [])
        statuses_b = units_b.get(key, [])
        if statuses_a != statuses_b:
            portal, stage, table = key
            transitions.append(
                {
                    "portal": portal,
                    "stage": stage,
                    "table": table,
                    "from": "+".join(statuses_a) or ABSENT,
                    "to": "+".join(statuses_b) or ABSENT,
                }
            )
    return transitions


def _quarantined(trace: TraceData) -> set[tuple[str, str]]:
    """(portal, table) pairs with at least one quarantined unit."""
    return {
        (span_attr(span, "portal"), span_attr(span, "table"))
        for span in trace.unit_spans
        if span["status"] == "quarantined"
    }


#: Metric-name prefixes excluded from drift comparison.  ``pool.*``
#: counters record *scheduling* — who computed what, deaths, restarts,
#: redispatches — which legitimately varies between a serial and a
#: sharded run (and across sharded reruns under chaos) while every
#: analysis result stays identical; like wall-clock, they are
#: telemetry about the run, not properties of the study.  ``profile.*``
#: counters exist only when the profiler is attached, so a profiled
#: run's trace must still diff empty against an unprofiled one.
EXCLUDED_METRIC_PREFIXES = ("pool.", "profile.")


def _metric_drift(a: TraceData, b: TraceData) -> list[dict]:
    drift = []
    for name in sorted(set(a.metrics) | set(b.metrics)):
        if name.startswith(EXCLUDED_METRIC_PREFIXES):
            continue
        snap_a, snap_b = a.metrics.get(name), b.metrics.get(name)
        if snap_a == snap_b:
            continue
        if snap_a is None or snap_b is None:
            entry = {"a": snap_a, "b": snap_b, "why": "missing"}
        elif "histogram" in (snap_a.get("kind"), snap_b.get("kind")):
            entry = {"a": snap_a, "b": snap_b, "why": "buckets"}
        else:
            entry = {
                "a": snap_a.get("value"),
                "b": snap_b.get("value"),
                "why": "value",
            }
        drift.append({"metric": name, **entry})
    return drift


def _fidelity_changes(a: dict, b: dict) -> list[dict]:
    """Every experiment and check verdict that moved between *a* and *b*."""

    def verdicts(doc: dict) -> dict:
        found = {}
        for row in doc.get("experiments", []):
            found[row["experiment"], ()] = row.get("verdict")
            for check in row.get("checks", []):
                key = (row["experiment"], (check["metric"], check["kind"]))
                found[key] = check.get("verdict")
        return found

    found_a, found_b = verdicts(a), verdicts(b)
    changes = []
    for key in sorted(set(found_a) | set(found_b)):
        before, after = found_a.get(key, ABSENT), found_b.get(key, ABSENT)
        if before != after:
            experiment, check = key
            changes.append({
                "experiment": experiment,
                "metric": f"{check[0]}/{check[1]}" if check else None,
                "from": before,
                "to": after,
            })
    return changes


def diff_runs(a: RunArtifacts, b: RunArtifacts) -> DiffReport:
    """Compare two runs exactly; every list in the report is deterministic.

    Raises :class:`RunLoadError` when the runs hold no artifact kind in
    common, since then nothing can be compared.
    """
    compared = [
        kind
        for kind in ("trace", "profile", "fidelity")
        if getattr(a, kind) is not None and getattr(b, kind) is not None
    ]
    if not compared:
        raise RunLoadError(
            f"{a.label} and {b.label} hold no artifact kind in common"
        )
    report = DiffReport(run_a=a.label, run_b=b.label, compared=compared)
    if "trace" in compared:
        quarantine_a = _quarantined(a.trace)
        quarantine_b = _quarantined(b.trace)
        report.op_deltas = _frame_deltas(
            trace_frames(a.trace), trace_frames(b.trace)
        )
        report.outcome_transitions = _outcome_transitions(a.trace, b.trace)
        report.quarantine_added = [
            {"portal": portal, "table": table}
            for portal, table in sorted(quarantine_b - quarantine_a)
        ]
        report.quarantine_removed = [
            {"portal": portal, "table": table}
            for portal, table in sorted(quarantine_a - quarantine_b)
        ]
        report.metric_drift = _metric_drift(a.trace, b.trace)
    report.header_changes = _header_changes(
        _context(a, compared), _context(b, compared)
    )
    if "profile" in compared:
        report.frame_deltas = _frame_deltas(
            a.profile["frames"], b.profile["frames"]
        )
    if "fidelity" in compared:
        try:
            report.fidelity_changes = _fidelity_changes(
                a.fidelity, b.fidelity
            )
        except (AttributeError, KeyError, TypeError) as exc:
            # A fidelity row or check that is no object, or lacks its
            # experiment, metric or kind, is unreadable input.
            raise RunLoadError(f"malformed fidelity: {exc!r}") from exc
    return report


def render_diff(doc: dict, *, limit: int = 20) -> str:
    """The diff document (:meth:`DiffReport.as_json`) as text; sections
    are omitted when empty."""
    lines = [
        f"diff {doc['run_a']} -> {doc['run_b']} "
        f"({', '.join(doc['compared'])})"
    ]
    for change in doc["header_changes"]:
        lines.append(
            f"  header {change['key']}: {change['a']} -> {change['b']}"
        )
    if not doc["drift_count"]:
        lines.append("  no drift: runs are equivalent")
        return "\n".join(lines)

    def section(title: str, rows: list[dict], fmt) -> None:
        if not rows:
            return
        lines.append("")
        lines.append(f"{title} ({len(rows)}):")
        for row in rows[:limit]:
            lines.append(f"  {fmt(row)}")
        if len(rows) > limit:
            lines.append(f"  ... and {len(rows) - limit} more")

    def frame_delta(r: dict) -> str:
        return f"{r['frame']}: {r['a']} -> {r['b']} ({r['delta']:+d})"

    section("op-count deltas", doc["op_deltas"], frame_delta)
    section(
        "outcome transitions",
        doc["outcome_transitions"],
        lambda r: (
            f"{r['portal']}/{r['stage']}/{r['table']}: "
            f"{r['from']} -> {r['to']}"
        ),
    )
    section(
        "quarantine added",
        doc["quarantine_added"],
        lambda r: f"{r['portal']}/{r['table']}",
    )
    section(
        "quarantine removed",
        doc["quarantine_removed"],
        lambda r: f"{r['portal']}/{r['table']}",
    )
    section(
        "metric drift",
        doc["metric_drift"],
        lambda r: f"{r['metric']}: {r['a']} -> {r['b']} ({r['why']})",
    )
    section("profile frame deltas", doc["frame_deltas"], frame_delta)
    section(
        "fidelity changes",
        doc["fidelity_changes"],
        lambda r: (
            f"{r['experiment']}"
            + (f".{r['metric']}" if r["metric"] else "")
            + f": {r['from']} -> {r['to']}"
        ),
    )
    lines.append("")
    lines.append(f"total drift entries: {doc['drift_count']}")
    return "\n".join(lines)
