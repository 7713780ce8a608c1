"""Per-request span trees and exemplar sampling for the serving layer.

The study tracer (:class:`repro.obs.trace.Tracer`) is a strict stack —
fine for the sequential pipeline, wrong for a service whose requests
interleave on the simulated clock.  The bridge is the
:class:`RequestTrail`: while a request descends the robustness ladder
the service appends one *rung* per decision point (``admission``,
``cache``, ``breaker``, ``backend``), and only when the request
terminates does :class:`ServeTracer` emit the whole tree atomically —
open request span, open/close each rung in order, close request span.
Trace sequence numbers therefore bracket per request, never interleave,
and equal-seed load runs write byte-identical traces.

Span taxonomy (DESIGN.md §13)::

    request (kind=request, attrs: endpoint/client/status/outcome/at/...)
      -> admission  (decision, queue wait)
      -> cache      (fresh/stale/miss lookup)
      -> breaker    (allow / open-circuit refusal)
      -> backend    (the metered DataLake/handler work)

**Exemplar policy.**  Rung spans are only worth bytes when a human will
read them, so only *exemplars* keep their children: every shed and
error request (the interesting failures are never sampled away), plus
the K = ``DEFAULT_EXEMPLAR_K`` slowest requests by op cost (ties
broken toward earlier arrivals).  Non-exemplar requests still write
their request span — the RED tables and SLO replay need every request
— just without the rung breakdown.  Top-K membership is only known once the run ends, so the
tracer buffers terminated requests and :meth:`ServeTracer.close`
writes them all *in arrival order*: the byte stream depends only on
the request stream, never on flush timing.
"""

from __future__ import annotations

import dataclasses

from ..obs.trace import Tracer
from .api import canonical_endpoint

#: Rung names, in ladder order.
RUNG_ADMISSION = "admission"
RUNG_CACHE = "cache"
RUNG_BREAKER = "breaker"
RUNG_BACKEND = "backend"

#: Span kinds written by the serve tracer.
KIND_REQUEST = "request"
KIND_RUNG = "rung"

#: How many slowest served requests keep full span trees.
DEFAULT_EXEMPLAR_K = 8


@dataclasses.dataclass
class RequestTrail:
    """The rung-by-rung record of one request's ladder descent."""

    #: (rung name, ops charged to the rung, attrs) in ladder order.
    rungs: list[tuple[str, int, dict]] = dataclasses.field(
        default_factory=list
    )

    def add(self, name: str, ops: int = 0, **attrs) -> None:
        self.rungs.append((name, ops, attrs))

    @property
    def rung_ops(self) -> int:
        return sum(ops for _, ops, _ in self.rungs)


@dataclasses.dataclass(frozen=True)
class _Pending:
    """One terminated request waiting to be written."""

    seq: int
    at: float
    endpoint: str
    client: str
    status: int
    outcome: str
    ops: int
    stale: bool
    trail: RequestTrail | None


class ServeTracer:
    """Writes per-request span trees with deterministic exemplar sampling.

    ``record()`` is called exactly once per terminated request (probes
    excluded by the caller) and buffers it; :meth:`close` writes every
    request span in arrival order, attaching rung children only to
    exemplars: all shed/error requests plus the exact top-K served
    requests by op cost.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._pending: list[_Pending] = []
        self._closed = False

    def record(
        self,
        *,
        at: float,
        endpoint: str,
        client: str,
        status: int,
        outcome: str,
        ops: int,
        stale: bool = False,
        trail: RequestTrail | None = None,
    ) -> None:
        """Fold one terminated request into the trace."""
        if self._closed:
            raise RuntimeError("record() after close()")
        self._pending.append(_Pending(
            seq=len(self._pending), at=at, endpoint=endpoint, client=client,
            status=status, outcome=outcome, ops=ops, stale=stale,
            trail=trail,
        ))

    def _winners(self) -> set[int]:
        """Sequence numbers of the top-K slowest *served* requests."""
        served = [p for p in self._pending if p.outcome not in
                  ("shed", "error")]
        # Slowest first; at equal cost the earlier arrival wins the slot.
        served.sort(key=lambda p: (-p.ops, p.seq))
        return {p.seq for p in served[:DEFAULT_EXEMPLAR_K]}

    def close(self) -> None:
        """Write every buffered request span (end of run)."""
        if self._closed:
            return
        self._closed = True
        winners = self._winners()
        for pending in self._pending:
            exemplar = (
                pending.outcome in ("shed", "error")
                or pending.seq in winners
            )
            self._emit(pending, exemplar=exemplar)
        self._pending.clear()

    def _emit(self, pending: _Pending, *, exemplar: bool) -> None:
        attrs = {
            "endpoint": pending.endpoint,
            "client": pending.client,
            "status": pending.status,
            "outcome": pending.outcome,
            "at": round(pending.at, 6),
        }
        if pending.stale:
            attrs["stale"] = True
        if exemplar:
            attrs["exemplar"] = True
        span = self._tracer.start(
            f"request.{pending.endpoint}", kind=KIND_REQUEST, **attrs
        )
        rung_ops = 0
        if exemplar and pending.trail is not None:
            for name, ops, rung_attrs in pending.trail.rungs:
                rung = self._tracer.start(name, kind=KIND_RUNG, **rung_attrs)
                self._tracer.finish(rung, ops=ops)
                rung_ops += ops
        # The request span's total must equal the response's op cost:
        # charge whatever the rungs didn't claim directly to the root.
        self._tracer.finish(span, ops=max(0, pending.ops - rung_ops))


__all__ = [
    "DEFAULT_EXEMPLAR_K",
    "KIND_REQUEST",
    "KIND_RUNG",
    "RUNG_ADMISSION",
    "RUNG_BACKEND",
    "RUNG_BREAKER",
    "RUNG_CACHE",
    "RequestTrail",
    "ServeTracer",
    "canonical_endpoint",
]
