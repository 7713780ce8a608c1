"""Hierarchical tracing with deterministic operation-count durations.

A trace is one JSONL file per run: a header record, one record per
*finished* span, a block of metric records, and a footer.  Spans form a
tree (``study → portal → stage → table unit``) whose bracketing is
recorded as monotonically increasing *sequence numbers* — ``open`` and
``close`` — rather than timestamps.  Span cost is an operation count
taken from the :class:`~repro.resilience.budget.WorkMeter` that metered
the work, so a trace of a fixed-seed run is **byte-identical** across
machines and reruns.

Crash tolerance mirrors the crawl/study journals: records are written
line-by-line as spans finish, and :func:`load_trace` — the one trace
reader — skips any torn or malformed line, so a trace cut off
mid-write still yields every span that completed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from contextlib import contextmanager
from typing import IO


@dataclasses.dataclass
class Span:
    """One open (or finished) node of the span tree."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    attrs: dict
    seq_open: int
    status: str = "ok"
    #: Operations charged directly to this span (not to children).
    self_ops: int = 0
    #: Operations accumulated from finished children.
    child_ops: int = 0
    seq_close: int | None = None

    @property
    def total_ops(self) -> int:
        """Own plus descendant operations."""
        return self.self_ops + self.child_ops

    def add_ops(self, ops: int) -> None:
        """Charge *ops* operations directly to this span."""
        self.self_ops += ops


def write_atomic(path: str | pathlib.Path, text: str) -> None:
    """Write *text* to *path* through ``<name>.tmp`` and an atomic rename.

    The one temp-then-rename writer of every whole-file artifact
    (quarantine records, profiles, bench histories): a process killed
    mid-write leaves the previous file, or none, and at most a stray
    temp file — never a torn *path*.  Creates the parent directory.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class TraceWriter:
    """Append-one-line-per-record JSONL sink with immediate flush."""

    def __init__(self, path: str | pathlib.Path, header: dict | None = None):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")
        self.write({"type": "header", **(header or {})})

    def write(self, record: dict) -> None:
        """Write one record as a complete, flushed JSON line."""
        if self._handle is None:
            return
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Tracer:
    """Assigns span ids/sequence numbers and writes finished spans.

    Single-threaded by design (the pipeline is sequential): the open
    spans form a stack and every new span parents to the top.  With no
    *writer* the tracer still maintains the stack and op accounting —
    callers that only want metrics pay nothing for the missing sink.
    """

    def __init__(self, writer: TraceWriter | None = None):
        self.writer = writer
        self.open_spans: list[Span] = []
        self.spans_finished = 0
        self._next_id = 1
        self._seq = 0

    def _tick_seq(self) -> int:
        self._seq += 1
        return self._seq

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self.open_spans[-1] if self.open_spans else None

    def start(self, name: str, kind: str = "span", **attrs) -> Span:
        """Open a span as a child of the current innermost span."""
        parent = self.current
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            attrs=dict(attrs),
            seq_open=self._tick_seq(),
        )
        self._next_id += 1
        self.open_spans.append(span)
        return span

    def finish(
        self, span: Span, status: str | None = None, ops: int = 0
    ) -> None:
        """Close *span*, roll its ops into the parent, emit its record."""
        if not self.open_spans or self.open_spans[-1] is not span:
            raise ValueError(
                f"span {span.span_id} ({span.name!r}) is not the "
                "innermost open span"
            )
        self.open_spans.pop()
        if status is not None:
            span.status = status
        span.self_ops += ops
        span.seq_close = self._tick_seq()
        parent = self.current
        if parent is not None:
            parent.child_ops += span.total_ops
        self.spans_finished += 1
        if self.writer is not None:
            self.writer.write({
                "type": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "kind": span.kind,
                "status": span.status,
                "ops": span.total_ops,
                "self_ops": span.self_ops,
                "open": span.seq_open,
                "close": span.seq_close,
                "attrs": span.attrs,
            })

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs):
        """Context-managed :meth:`start`/:meth:`finish` pair.

        An escaping exception closes the span with ``status="error"``
        and re-raises; code that classifies its own outcome sets
        ``span.status`` (or attrs) before the block exits.
        """
        opened = self.start(name, kind=kind, **attrs)
        try:
            yield opened
        except BaseException:
            self.finish(opened, status="error")
            raise
        self.finish(opened)


#: Every span field ``Tracer.finish`` writes, then every attribute a
#: report reads (``attrs.<key>``; executor units carry the first group,
#: serve requests the second): the type a value must have, and what a
#: span without it reads as, the writer's default (a unit without
#: ``stage`` reads as its name: :func:`span_stage`).  A ``null`` field
#: reads as its default too; ``id``, ``open`` and ``close`` have none,
#: which the nesting check reports.  A ``null`` attribute is mistyped.
SPAN_SCHEMA = {
    "id": (int, None), "parent": (int, None), "name": (str, "?"),
    "kind": (str, "span"), "status": (str, "ok"), "ops": (int, 0),
    "self_ops": (int, 0), "open": (int, None), "close": (int, None),
    "attrs": (dict, {}),
    "attrs.portal": (str, "-"), "attrs.stage": (str, None),
    "attrs.table": (str, "-"), "attrs.detail": (str, ""),
    "attrs.replayed": (bool, False),
    "attrs.endpoint": (str, "unknown"), "attrs.client": (str, "?"),
    "attrs.outcome": (str, "ok"), "attrs.status": (int, 0),
    "attrs.at": ((int, float), 0.0), "attrs.stale": (bool, False),
    "attrs.exemplar": (bool, False),
}


def _as_span(record: dict) -> tuple[dict | None, str | None]:
    """*record* with every span field, or None and why it is no span."""
    span = dict(record)
    for name, (kind, default) in SPAN_SCHEMA.items():
        holder, key = span, name
        if name.startswith("attrs."):
            holder, key = span["attrs"], name[len("attrs."):]
        value = holder.get(key)
        if holder is span and value is None:
            span[key] = dict(default) if kind is dict else default
        elif key in holder and (
            not isinstance(value, kind)
            or isinstance(value, bool) and kind is not bool
        ):
            return None, (
                f"span {record.get('id')!r} left out: "
                f"{name} is a {type(value).__name__}"
            )
    return span, None


def span_attr(span: dict, key: str):
    """The span's ``attrs[key]``, or what a span without it reads as."""
    return span["attrs"].get(key, SPAN_SCHEMA["attrs." + key][1])


def span_stage(span: dict) -> str:
    """A unit span's ``attrs.stage``, else the span name."""
    if span["kind"] == "unit":
        return span["attrs"].get("stage", span["name"])
    return span["name"]


@dataclasses.dataclass
class TraceData:
    """One parsed trace, read or built, its spans held to :data:`SPAN_SCHEMA`:
    a mistyped record is left out of ``spans`` and named in ``problems``."""

    path: str
    header: dict
    spans: list[dict]
    metrics: dict[str, dict]
    footer: dict | None
    #: Structural problems found by validation; empty = trace is sound.
    problems: list[str] = dataclasses.field(default_factory=list)
    #: Torn/malformed lines skipped while reading (expected after a
    #: mid-write kill; not a validity problem on their own).
    torn: int = 0

    def __post_init__(self) -> None:
        checked = [_as_span(record) for record in self.spans]
        self.spans = [span for span, _ in checked if span is not None]
        self.problems = [*self.problems, *(why for _, why in checked if why)]
        self.problems += validate_spans(self.spans)
        footer = self.footer
        if footer is not None and footer.get("spans") != len(checked):
            self.problems.append(
                f"footer declares {footer.get('spans')} spans, "
                f"file holds {len(checked)}"
            )

    @property
    def valid(self) -> bool:
        return not self.problems

    @property
    def unit_spans(self) -> list[dict]:
        """Spans of executor ``(stage, table)`` units."""
        return [s for s in self.spans if s["kind"] == "unit"]

    @property
    def total_ops(self) -> int:
        """Every operation attributed anywhere in the trace."""
        return sum(s["self_ops"] for s in self.spans)

    @property
    def unit_ops(self) -> int:
        """Operations spent inside executor units (replays charge 0)."""
        return sum(s["self_ops"] for s in self.unit_spans)

    def identity(self) -> dict:
        """The fields every report on this trace opens its document with."""
        return {
            "trace": self.path,
            "header": {k: v for k, v in self.header.items() if k != "type"},
            "valid": self.valid,
            "problems": self.problems,
            "torn_lines": self.torn,
        }


def render_trace_head(
    doc: dict, title: str, what: str, keys: tuple[str, ...]
) -> list[str]:
    """A trace report's opening lines, from its :meth:`~TraceData.identity`.

    *title* names the trace, *what* says what it holds, and the header
    values of *keys* follow; then the torn lines and every problem.
    """
    header = doc["header"]
    meta = " ".join(
        f"{key}={header[key]}"
        for key in keys
        if header.get(key) is not None
    )
    lines = [f"{title} {doc['trace']}: {what}" + (f", {meta}" if meta else "")]
    if doc["torn_lines"]:
        lines.append(
            f"  note: {doc['torn_lines']} torn line(s) skipped "
            "(file cut off mid-write?)"
        )
    lines.extend(f"  problem: {problem}" for problem in doc["problems"])
    return lines


def load_trace(path: str | pathlib.Path) -> TraceData:
    """Parse one trace file: the only trace reader.

    Tolerates an empty file, a torn-only file, torn or non-object
    lines (a mid-write kill) and a missing footer, and reports the
    damage (``torn`` count, ``problems``) instead of raising, so
    ``profile-report``, ``serve-report`` and ``diff`` can describe a
    broken trace rather than crash on it.
    """
    header: dict = {}
    spans: list[dict] = []
    metrics: dict[str, dict] = {}
    footer: dict | None = None
    torn = 0
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                torn += 1
                continue
            if not isinstance(record, dict):
                torn += 1
                continue
            rtype = record.get("type")
            if rtype == "header":
                header = record
            elif rtype == "span":
                spans.append(record)
            elif rtype == "metric":
                name = record.get("name")
                if isinstance(name, str):
                    metrics[name] = {
                        k: v
                        for k, v in record.items()
                        if k not in ("type", "name")
                    }
            elif rtype == "footer":
                footer = record
    return TraceData(
        path=str(path),
        header=header,
        spans=spans,
        metrics=metrics,
        footer=footer,
        torn=torn,
    )


def validate_spans(spans: list[dict]) -> list[str]:
    """Structural check: spans form a strictly nested tree.

    Verifies unique ids, unique open/close sequence numbers, each
    span's interval strictly inside its parent's, and sibling
    intervals pairwise disjoint.
    """
    problems: list[str] = []
    by_id: dict[int, dict] = {}
    for span in spans:
        span_id = span["id"]
        if span_id in by_id:
            problems.append(f"duplicate span id {span_id}")
        by_id[span_id] = span

    seqs: list[int] = []
    for span in spans:
        open_seq, close_seq = span["open"], span["close"]
        if not isinstance(open_seq, int) or not isinstance(close_seq, int):
            problems.append(f"span {span['id']} missing open/close")
            continue
        if open_seq >= close_seq:
            problems.append(
                f"span {span['id']} closes before it opens "
                f"({open_seq} >= {close_seq})"
            )
        seqs.extend((open_seq, close_seq))
        parent_id = span["parent"]
        if parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                problems.append(
                    f"span {span['id']} references missing "
                    f"parent {parent_id}"
                )
            elif not (
                (parent["open"] or 0) < open_seq
                and close_seq < (parent["close"] or 0)
            ):
                problems.append(
                    f"span {span['id']} not nested inside "
                    f"parent {parent_id}"
                )
    if len(set(seqs)) != len(seqs):
        problems.append("duplicate open/close sequence numbers")

    siblings: dict[int | None, list[dict]] = {}
    for span in spans:
        siblings.setdefault(span["parent"], []).append(span)
    for group in siblings.values():
        ordered = sorted(group, key=lambda s: s["open"] or 0)
        for before, after in zip(ordered, ordered[1:]):
            if (before["close"] or 0) > (after["open"] or 0):
                problems.append(
                    f"sibling spans {before['id']} and "
                    f"{after['id']} overlap"
                )
    return problems
