"""Study telemetry: tracing, metrics, and structured logging.

The resilience layer (DESIGN.md §6–§7) made the pipeline survive
faults, but survival is silent: retries, breaker trips, budget
truncations, and quarantines leave no machine-readable record of where
the work went.  This package is the measurement of the measurement
process itself:

* :mod:`repro.obs.trace` — hierarchical spans (``study → portal →
  stage → table unit``) written to a JSONL trace file, and
  :func:`~repro.obs.trace.load_trace`, the one torn-line-tolerant
  reader every trace consumer uses.  Span "durations" are
  deterministic :class:`WorkMeter` operation counts, so two
  equal-seed runs produce *byte-identical* traces.
* :mod:`repro.obs.metrics` — a registry of counters and fixed-bucket
  histograms fed by the resilience layer (retries, breaker
  transitions, journal resume hits, truncations, quarantines) and the
  analysis engines (lattice nodes per FD level, join candidates
  pruned vs. verified, cells screened).
* :mod:`repro.obs.log` — a small structured logger replacing bare
  ``print`` diagnostics, honoring ``--quiet`` / ``-v``.
* :mod:`repro.obs.profile` — the deterministic tick profiler and the
  report behind ``ogdp-repro profile-report``.  Given a trace, it folds
  every span's ops into the profiler's ``study;<portal>;<stage>`` base
  frames and adds the unit-outcome tally, the top-N most expensive
  tables, and the degradation ledger.
* :mod:`repro.obs.diff` — the one comparison of two runs, behind
  ``ogdp-repro diff``: exact op and frame deltas, outcome transitions,
  metric drift and fidelity verdict moves, over whichever traces,
  profiles and fidelity files both runs hold.

Everything is opt-in: with no :class:`Observer` configured the hooks
collapse to ``is None`` checks and study outputs are byte-identical to
an uninstrumented run.
"""

from __future__ import annotations

import contextlib

from .log import Logger, configure_log, get_log
from .metrics import Counter, Histogram, MetricsRegistry
from .profile import Profiler, write_profile
from .trace import Span, TraceWriter, Tracer

#: Trace file format version, written in the header record.
TRACE_VERSION = 1


class Observer:
    """One run's telemetry bundle: a tracer plus a metrics registry.

    With ``trace_path=None`` the observer still aggregates metrics and
    tracks span structure in memory (the benchmark harness uses this
    for op-count attribution) but writes nothing to disk.
    """

    def __init__(
        self,
        trace_path=None,
        *,
        meta: dict | None = None,
        profile_path=None,
        profile: bool = False,
    ):
        self.metrics = MetricsRegistry()
        writer = None
        if trace_path is not None:
            header = {"version": TRACE_VERSION}
            header.update(meta or {})
            writer = TraceWriter(trace_path, header=header)
        self.tracer = Tracer(writer)
        # The profiler attaches with a path (artifact written on close)
        # or bare ``profile=True`` (in-memory frames only — the bench
        # harness snapshots them per experiment).
        self.profile_path = profile_path
        self.profiler = (
            Profiler() if profile or profile_path is not None else None
        )
        self._profile_meta = {
            k: v for k, v in (meta or {}).items() if k != "workers"
        }

    @classmethod
    def from_config(cls, config) -> "Observer | None":
        """The observer a study config asks for, or None for zero overhead."""
        profile_out = getattr(config, "profile_out", None)
        if config.trace_out is None and profile_out is None:
            return None
        meta = {
            "seed": config.seed,
            "scale": config.scale,
            "portals": list(config.portal_codes),
            "stage_budget": config.stage_budget,
        }
        if getattr(config, "workers", 1) != 1:
            # Recorded only for sharded runs so a --workers 1 trace
            # stays byte-identical to the serial path's; diff treats
            # header changes as informational, never drift.  The
            # profile artifact's meta never records workers at all —
            # pooled and serial profiles must compare with `cmp`.
            meta["workers"] = config.workers
        return cls(config.trace_out, meta=meta, profile_path=profile_out)

    def span(self, name: str, kind: str = "span", **attrs):
        """Context manager for one traced span (delegates to the tracer)."""
        return self.tracer.span(name, kind=kind, **attrs)

    def close(self) -> None:
        """Finish dangling spans, flush metrics, and close the trace file."""
        while self.tracer.open_spans:
            self.tracer.finish(self.tracer.open_spans[-1])
        if self.profiler is not None:
            self.profiler.flush()
            # Summary counters for profiled runs only; `profile.*` is
            # excluded from drift comparison like `pool.*`, so a
            # profiled run still diffs empty against an unprofiled one.
            self.metrics.inc("profile.ticks", self.profiler.total_ticks)
            self.metrics.inc("profile.frames", len(self.profiler.counts))
            if self.profile_path is not None:
                write_profile(
                    self.profile_path,
                    self.profiler,
                    meta=self._profile_meta,
                )
        writer = self.tracer.writer
        if writer is not None:
            for name, snap in self.metrics.snapshot().items():
                writer.write({"type": "metric", "name": name, **snap})
            writer.write(
                {"type": "footer", "spans": self.tracer.spans_finished}
            )
            writer.close()


def maybe_span(obs: "Observer | None", name: str, kind: str = "span", **attrs):
    """``obs.span(...)`` when observing, a null context otherwise."""
    if obs is None:
        return contextlib.nullcontext(None)
    return obs.span(name, kind=kind, **attrs)


__all__ = [
    "Counter",
    "Histogram",
    "Logger",
    "MetricsRegistry",
    "Observer",
    "Profiler",
    "Span",
    "TRACE_VERSION",
    "TraceWriter",
    "Tracer",
    "configure_log",
    "get_log",
    "maybe_span",
]
