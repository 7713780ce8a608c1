"""Outside-in span tracing: wrap each layer's public entry points by name.

Nothing in the program is instrumented.  For a traced repetition the
benchmark replaces, for the duration of that repetition, the names listed
in :data:`WRAPPED` at the module (or class) where the program looks them
up at call time, e.g. ``repro.ingest.pipeline.read_raw_rows``.  Each call
then records one span: name, start, end, parent span and workload.  Spans
stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Spans are strictly nested (one thread), so that difference is
exactly the part of its interval no child covers.

Work done inside pool worker processes is invisible here: the workers are
forked, record spans into their own copy of the recorder and exit with it.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import time

#: (span name, module, attribute) for every wrapped entry point.  An
#: attribute ``Class.method`` wraps the method on the class.  A function
#: imported into several modules is wrapped at each name the program calls
#: it by.
WRAPPED = (
    ("ingest", "repro.core.study", "ingest_portal"),
    ("ingest.parse", "repro.ingest.pipeline", "decode_bytes"),
    ("ingest.parse", "repro.ingest.pipeline", "read_raw_rows"),
    ("ingest.header", "repro.ingest.pipeline", "infer_header"),
    ("ingest.typing", "repro.ingest.pipeline", "rows_to_table"),
    ("ingest.clean", "repro.ingest.pipeline", "clean_table"),
    ("screen", "repro.resilience.units", "screen_table"),
    ("joinsig", "repro.joinability.lshindex", "compute_table_signatures"),
    ("joinsig", "repro.resilience.units", "compute_table_signatures"),
    ("pairs", "repro.joinability.lshindex", "analyze_joinability_lsh"),
    ("union", "repro.unionability.schemas", "analyze_unionability"),
    ("fd.table", "repro.normalize.analysis", "table_normalization"),
    ("fd.table", "repro.resilience.units", "table_normalization"),
    ("fd.discover", "repro.normalize.analysis", "discover_fds"),
    ("fd.bcnf", "repro.normalize.analysis", "bcnf_decompose"),
    ("fd.bcnf_discover", "repro.normalize.bcnf", "discover_fds"),
    ("keys", "repro.keys.candidates", "key_size_distribution"),
    ("pool", "repro.resilience.pool", "run_pool"),
    ("lake.init", "repro.search.lake", "DataLake.__init__"),
    ("lake.search", "repro.search.lake", "DataLake.search"),
    ("lake.join", "repro.search.lake", "DataLake.suggest_joins"),
    ("lake.union", "repro.search.lake", "DataLake.suggest_unions"),
    ("serve.handle", "repro.serve.service", "LakeService.handle"),
)


def experiment_entry_points() -> list[tuple[str, str, str]]:
    """One ``report`` entry per experiment module's ``run`` function.

    ``run_all`` looks each module's ``run`` up at call time, so wrapping
    the module attribute captures every experiment.
    """
    from repro.experiments.registry import EXPERIMENTS

    return [
        ("report", module.__name__, "run")
        for module in EXPERIMENTS.values()
    ]


def _resolve(module_name: str, attribute: str):
    """The object owning *attribute* and the attribute's final name."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class SpanRecorder:
    """In-memory spans of one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        recorder = self

        class _Span:
            def __enter__(self):
                self.index = recorder.open(name)

            def __exit__(self, *exc_info):
                recorder.close(self.index)

        return _Span()

    def _wrap(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced

    def install(self, entries) -> None:
        """Replace every entry point in *entries* with a span wrapper."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for name, module_name, attribute in entries:
            owner, attr = _resolve(module_name, attribute)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _inside(self, start: float, end: float):
        """(index, span) of the finished spans lying inside [start, end].

        Spans are appended when they open, so their start times are
        sorted and the window's first span is found by bisection.
        """
        first = bisect.bisect_left(self.spans, start, key=lambda span: span[1])
        for index in range(first, len(self.spans)):
            span = self.spans[index]
            if span[1] > end:
                break
            if span[2] is not None and span[2] <= end:
                yield index, span

    def self_times(self, start: float, end: float) -> dict[str, float]:
        """Per-name self seconds of the spans finished inside [start, end]."""
        durations = {
            index: finish - begin
            for index, (_, begin, finish, _) in self._inside(start, end)
        }
        totals: dict[str, float] = {}
        for index, duration in durations.items():
            name, _, _, parent = self.spans[index]
            totals[name] = totals.get(name, 0.0) + duration
            if parent in durations:
                parent_name = self.spans[parent][0]
                totals[parent_name] = totals.get(parent_name, 0.0) - duration
        return totals

    def durations(self, name: str, start: float, end: float) -> list[float]:
        """Durations of the *name* spans finished inside [start, end]."""
        return [
            finish - begin
            for _, (span_name, begin, finish, _) in self._inside(start, end)
            if span_name == name
        ]

    def write(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, begin, finish, parent) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": begin - origin,
                            "end": None if finish is None else finish - origin,
                            "parent": parent,
                            "workload": self.workload,
                        }
                    )
                    + "\n"
                )
