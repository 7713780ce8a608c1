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


@dataclasses.dataclass
class TraceData:
    """One parsed trace file."""

    path: str
    header: dict
    spans: list[dict]
    metrics: dict[str, dict]
    footer: dict | None
    #: Structural problems found by validation; empty = trace is sound.
    problems: list[str]
    #: Torn/malformed lines skipped while reading (expected after a
    #: mid-write kill; not a validity problem on their own).
    torn: int = 0

    @property
    def valid(self) -> bool:
        return not self.problems

    @property
    def unit_spans(self) -> list[dict]:
        """Spans of executor ``(stage, table)`` units."""
        return [s for s in self.spans if s.get("kind") == "unit"]

    @property
    def total_ops(self) -> int:
        """Every operation attributed anywhere in the trace."""
        return sum(s.get("self_ops", 0) for s in self.spans)

    @property
    def unit_ops(self) -> int:
        """Operations spent inside executor units (replays charge 0)."""
        return sum(s.get("self_ops", 0) for s in self.unit_spans)


def load_trace(path: str | pathlib.Path) -> TraceData:
    """Parse and validate one trace file: the only trace reader.

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
                if name is not None:
                    metrics[name] = {
                        k: v
                        for k, v in record.items()
                        if k not in ("type", "name")
                    }
            elif rtype == "footer":
                footer = record
    problems = validate_spans(spans)
    if footer is not None and footer.get("spans") != len(spans):
        problems.append(
            f"footer declares {footer.get('spans')} spans, "
            f"file holds {len(spans)}"
        )
    return TraceData(
        path=str(path),
        header=header,
        spans=spans,
        metrics=metrics,
        footer=footer,
        problems=problems,
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
        span_id = span.get("id")
        if span_id in by_id:
            problems.append(f"duplicate span id {span_id}")
        by_id[span_id] = span

    seqs: list[int] = []
    for span in spans:
        open_seq, close_seq = span.get("open"), span.get("close")
        if not isinstance(open_seq, int) or not isinstance(close_seq, int):
            problems.append(f"span {span.get('id')} missing open/close")
            continue
        if open_seq >= close_seq:
            problems.append(
                f"span {span.get('id')} closes before it opens "
                f"({open_seq} >= {close_seq})"
            )
        seqs.extend((open_seq, close_seq))
        parent_id = span.get("parent")
        if parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                problems.append(
                    f"span {span.get('id')} references missing "
                    f"parent {parent_id}"
                )
            elif not (
                parent.get("open", 0) < open_seq
                and close_seq < parent.get("close", 0)
            ):
                problems.append(
                    f"span {span.get('id')} not nested inside "
                    f"parent {parent_id}"
                )
    if len(set(seqs)) != len(seqs):
        problems.append("duplicate open/close sequence numbers")

    siblings: dict[int | None, list[dict]] = {}
    for span in spans:
        siblings.setdefault(span.get("parent"), []).append(span)
    for group in siblings.values():
        ordered = sorted(group, key=lambda s: s.get("open", 0))
        for before, after in zip(ordered, ordered[1:]):
            if before.get("close", 0) > after.get("open", 0):
                problems.append(
                    f"sibling spans {before.get('id')} and "
                    f"{after.get('id')} overlap"
                )
    return problems
