"""Run-to-run drift detection (``ogdp-repro diff RUN_A RUN_B``).

Two runs of the pipeline with equal seeds and equal configuration must
be *indistinguishable*: byte-identical traces, metric blocks, and
fidelity scoreboards.  This module turns that invariant into a checkable
contract — it compares two runs' artifacts and reports every place they
drift apart, so CI can gate on "equal seeds ⇒ empty diff" and a poisoned
or regressed run names exactly which units changed outcome.

A *run* is either a trace file written by ``run --trace-out`` or a
directory holding ``trace.jsonl`` and (optionally) ``fidelity.json``.
The comparison covers:

* **operation deltas** — per-portal, per-stage self-op totals from the
  trace's span tree (the ``study;<portal>;<stage>`` frames
  ``ogdp-repro profile-report`` prints for a trace);
* **outcome transitions** — per ``(portal, stage, table)`` executor
  unit, the terminal status in A vs. B (``ok → truncated``,
  ``ok → quarantined``, appearing/disappearing units, …);
* **quarantine-set changes** — tables quarantined in one run only;
* **metric drift** — counter values and histogram buckets from
  the traces' metric blocks, beyond an optional relative tolerance
  (``pool.*`` worker-scheduling counters are excluded, like
  wall-clock: they describe how the run was executed, not what it
  computed);
* **fidelity changes** — per-experiment and per-check verdict moves,
  when both runs carry a fidelity file.

Wall-clock values never participate: any timing field a span carries
is ignored, so an old trace with timings still diffs clean against an
equal-seed run.  Exit codes (see the CLI): 0 = no drift, 1 = drift,
2 = artifacts unreadable.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from .profile import SEP, span_portal, span_stage, trace_frames
from .trace import TraceData, load_trace

#: Conventional artifact names inside a run directory.
TRACE_NAME = "trace.jsonl"
FIDELITY_NAME = "fidelity.json"

#: Status label for a unit present in only one of the runs.
ABSENT = "absent"


class RunLoadError(ValueError):
    """A run path does not hold a readable trace."""


@dataclasses.dataclass
class RunArtifacts:
    """One run's comparable artifacts."""

    label: str
    trace: TraceData
    fidelity: dict | None


def load_run(path: str | pathlib.Path) -> RunArtifacts:
    """Load a run from a trace file or a run directory."""
    p = pathlib.Path(path)
    fidelity = None
    if p.is_dir():
        trace_path = p / TRACE_NAME
        if not trace_path.exists():
            raise RunLoadError(f"run directory {p} has no {TRACE_NAME}")
        fidelity_path = p / FIDELITY_NAME
        if fidelity_path.exists():
            try:
                fidelity = json.loads(
                    fidelity_path.read_text(encoding="utf-8")
                )
            except ValueError as exc:
                raise RunLoadError(
                    f"unreadable fidelity file {fidelity_path}: {exc}"
                ) from exc
    elif p.exists():
        trace_path = p
    else:
        raise RunLoadError(f"no such run: {p}")
    return RunArtifacts(
        label=str(path), trace=load_trace(trace_path), fidelity=fidelity
    )


@dataclasses.dataclass
class DiffReport:
    """Everything that differs between two runs.

    ``header_changes`` are informational (configuration context);
    every other list contributes to :attr:`drift_count`.
    """

    run_a: str
    run_b: str
    header_changes: list[dict]
    op_deltas: list[dict]
    outcome_transitions: list[dict]
    quarantine_added: list[dict]
    quarantine_removed: list[dict]
    metric_drift: list[dict]
    fidelity_changes: list[dict]

    @property
    def drift_count(self) -> int:
        return (
            len(self.op_deltas)
            + len(self.outcome_transitions)
            + len(self.quarantine_added)
            + len(self.quarantine_removed)
            + len(self.metric_drift)
            + len(self.fidelity_changes)
        )

    @property
    def has_drift(self) -> bool:
        return self.drift_count > 0

    def as_json(self) -> dict:
        return {**dataclasses.asdict(self), "drift_count": self.drift_count}


def _beyond(a: float, b: float, rel_tol: float) -> bool:
    """Whether *a* and *b* differ beyond the relative tolerance."""
    if a == b:
        return False
    if rel_tol <= 0:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) > rel_tol * scale


def _header_changes(a: TraceData, b: TraceData) -> list[dict]:
    keys = (set(a.header) | set(b.header)) - {"type"}
    return [
        {"key": key, "a": a.header.get(key), "b": b.header.get(key)}
        for key in sorted(keys)
        if a.header.get(key) != b.header.get(key)
    ]


def _op_deltas(a: TraceData, b: TraceData, rel_tol: float) -> list[dict]:
    frames_a, frames_b = trace_frames(a), trace_frames(b)
    deltas = []
    for path in sorted(
        set(frames_a) | set(frames_b), key=lambda p: p.split(SEP)
    ):
        ops_a, ops_b = frames_a.get(path, 0), frames_b.get(path, 0)
        if _beyond(ops_a, ops_b, rel_tol):
            _, portal, stage = path.split(SEP, 2)
            deltas.append(
                {
                    "portal": portal,
                    "stage": stage,
                    "ops_a": ops_a,
                    "ops_b": ops_b,
                    "delta": ops_b - ops_a,
                }
            )
    return deltas


def _units(trace: TraceData) -> dict[tuple[str, str, str], list[str]]:
    """Per-(portal, stage, table) sorted terminal statuses."""
    units: dict[tuple[str, str, str], list[str]] = {}
    for span in trace.unit_spans:
        key = (
            span_portal(span),
            span_stage(span),
            span.get("attrs", {}).get("table", "-"),
        )
        units.setdefault(key, []).append(span.get("status", "?"))
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
        (span_portal(span), span.get("attrs", {}).get("table", "-"))
        for span in trace.unit_spans
        if span.get("status") == "quarantined"
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


def _metric_drift(a: TraceData, b: TraceData, rel_tol: float) -> list[dict]:
    drift = []
    for name in sorted(set(a.metrics) | set(b.metrics)):
        if name.startswith(EXCLUDED_METRIC_PREFIXES):
            continue
        snap_a, snap_b = a.metrics.get(name), b.metrics.get(name)
        if snap_a is None or snap_b is None:
            drift.append(
                {"metric": name, "a": snap_a, "b": snap_b, "why": "missing"}
            )
            continue
        if snap_a.get("kind") == "histogram" or snap_b.get("kind") == "histogram":
            if snap_a.get("counts") != snap_b.get("counts") or _beyond(
                snap_a.get("sum", 0), snap_b.get("sum", 0), rel_tol
            ):
                drift.append(
                    {"metric": name, "a": snap_a, "b": snap_b, "why": "buckets"}
                )
            continue
        if _beyond(snap_a.get("value", 0), snap_b.get("value", 0), rel_tol):
            drift.append(
                {
                    "metric": name,
                    "a": snap_a.get("value"),
                    "b": snap_b.get("value"),
                    "why": "value",
                }
            )
    return drift


def _fidelity_changes(a: dict | None, b: dict | None) -> list[dict]:
    if a is None or b is None:
        return []
    rows_a = {row["experiment"]: row for row in a.get("experiments", [])}
    rows_b = {row["experiment"]: row for row in b.get("experiments", [])}
    changes = []
    for experiment in sorted(set(rows_a) | set(rows_b)):
        row_a, row_b = rows_a.get(experiment), rows_b.get(experiment)
        verdict_a = row_a.get("verdict") if row_a else ABSENT
        verdict_b = row_b.get("verdict") if row_b else ABSENT
        if verdict_a != verdict_b:
            changes.append(
                {
                    "experiment": experiment,
                    "metric": None,
                    "from": verdict_a,
                    "to": verdict_b,
                }
            )
        checks_a = {
            (c["metric"], c["kind"]): c.get("verdict")
            for c in (row_a or {}).get("checks", [])
        }
        checks_b = {
            (c["metric"], c["kind"]): c.get("verdict")
            for c in (row_b or {}).get("checks", [])
        }
        for key in sorted(set(checks_a) | set(checks_b)):
            check_a = checks_a.get(key, ABSENT)
            check_b = checks_b.get(key, ABSENT)
            if check_a != check_b:
                changes.append(
                    {
                        "experiment": experiment,
                        "metric": f"{key[0]}/{key[1]}",
                        "from": check_a,
                        "to": check_b,
                    }
                )
    return changes


def diff_runs(
    a: RunArtifacts, b: RunArtifacts, *, rel_tol: float = 0.0
) -> DiffReport:
    """Compare two runs; every list in the report is deterministic."""
    quarantine_a, quarantine_b = _quarantined(a.trace), _quarantined(b.trace)
    return DiffReport(
        run_a=a.label,
        run_b=b.label,
        header_changes=_header_changes(a.trace, b.trace),
        op_deltas=_op_deltas(a.trace, b.trace, rel_tol),
        outcome_transitions=_outcome_transitions(a.trace, b.trace),
        quarantine_added=[
            {"portal": portal, "table": table}
            for portal, table in sorted(quarantine_b - quarantine_a)
        ],
        quarantine_removed=[
            {"portal": portal, "table": table}
            for portal, table in sorted(quarantine_a - quarantine_b)
        ],
        metric_drift=_metric_drift(a.trace, b.trace, rel_tol),
        fidelity_changes=_fidelity_changes(a.fidelity, b.fidelity),
    )


def render_diff(report: DiffReport, *, limit: int = 20) -> str:
    """Human-readable drift report (sections omitted when empty)."""
    lines = [f"diff {report.run_a} -> {report.run_b}"]
    for change in report.header_changes:
        lines.append(
            f"  header {change['key']}: {change['a']} -> {change['b']}"
        )
    if not report.has_drift:
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

    section(
        "op-count deltas",
        report.op_deltas,
        lambda r: (
            f"{r['portal']}/{r['stage']}: {r['ops_a']} -> {r['ops_b']} "
            f"({r['delta']:+d})"
        ),
    )
    section(
        "outcome transitions",
        report.outcome_transitions,
        lambda r: (
            f"{r['portal']}/{r['stage']}/{r['table']}: "
            f"{r['from']} -> {r['to']}"
        ),
    )
    section(
        "quarantine added",
        report.quarantine_added,
        lambda r: f"{r['portal']}/{r['table']}",
    )
    section(
        "quarantine removed",
        report.quarantine_removed,
        lambda r: f"{r['portal']}/{r['table']}",
    )
    section(
        "metric drift",
        report.metric_drift,
        lambda r: f"{r['metric']}: {r['a']} -> {r['b']} ({r['why']})",
    )
    section(
        "fidelity changes",
        report.fidelity_changes,
        lambda r: (
            f"{r['experiment']}"
            + (f".{r['metric']}" if r["metric"] else "")
            + f": {r['from']} -> {r['to']}"
        ),
    )
    lines.append("")
    lines.append(f"total drift entries: {report.drift_count}")
    return "\n".join(lines)
