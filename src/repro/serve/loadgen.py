"""Deterministic closed-loop load harness for the served lake.

Replays populations of scripted clients against a :class:`LakeService`
entirely in-process, on the resilience layer's simulated clock — no
sockets, no threads, no wall time.  A discrete-event loop (a heap of
``(time, seq)`` events) drives arrivals, bounded queueing, service
execution, and completions; every random draw comes from an RNG derived
from ``(seed, class, client)`` via SHA-256, so **equal seeds produce
byte-identical load reports**.

Client classes model the ways real portal traffic misbehaves:

* ``well_behaved`` — modest rate, respects ``Retry-After``;
* ``bursty`` — near-zero think time between requests;
* ``slow_reader`` — holds its service slot for a multiple of the
  service time (the slowloris shape);
* ``abusive`` — hammers far over the per-client rate and ignores
  ``Retry-After``;
* ``flaky`` — seeded connection drops: the service does the work but
  the client never sees the answer (terminates as ERROR).

Backend fault *storms* (every guarded compute failing for a scripted
stretch of calls) exercise the circuit breaker and the
stale-while-revalidate degradation path deterministically.

The harness asserts the serving invariants: every injected request
terminates in exactly one of OK/DEGRADED/SHED/ERROR; the admission
high-water marks never exceed the configured bounds; well-behaved
clients keep a bounded p99 even under the abusive mix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import random
from collections import deque

from ..obs import Observer
from ..obs.quantiles import rank_summary
from ..obs.slo import (
    KIND_AVAILABILITY,
    KIND_LATENCY,
    KIND_STALENESS,
    Objective,
    SloSpec,
)
from ..resilience.breaker import BreakerConfig, CircuitState
from ..resilience.clock import SimulatedClock
from .admission import AdmissionConfig, Decision
from .api import PROBE_ENDPOINTS, Request, canonical_endpoint
from .cache import CacheConfig
from .service import (
    OUTCOME_ERROR,
    OUTCOMES,
    LakeService,
    ServiceConfig,
)

#: Search vocabulary drawn from the generator's topic space — common
#: enough that queries hit several portals, fixed so reports reproduce.
QUERY_TERMS = (
    "fisheries",
    "landings",
    "waste collection",
    "health",
    "tax filings",
    "transport",
    "energy",
    "water quality",
    "school",
    "population",
    "permits",
    "inspections",
)


class InjectedBackendFault(RuntimeError):
    """The scripted backend failure the fault schedule raises."""


@dataclasses.dataclass(frozen=True)
class ClientClass:
    """One population of identically scripted clients."""

    name: str
    count: int
    #: Requests each client issues (closed loop: one at a time).
    requests: int
    #: Simulated seconds between a termination and the next arrival.
    think: float = 0.5
    #: Probability the connection drops after service (outcome ERROR).
    drop_rate: float = 0.0
    #: Service-slot occupancy multiplier (slow readers hold slots).
    slow_factor: float = 1.0
    #: Whether a rejected client honours ``Retry-After``.
    respect_retry_after: bool = True
    #: ``(endpoint kind, weight)`` choices for request scripting.
    endpoints: tuple[tuple[str, int], ...] = (
        ("package_list", 1),
        ("package_show", 3),
        ("package_search", 3),
        ("lake_search", 2),
        ("join_suggest", 3),
        ("union_suggest", 2),
        ("missing_package", 1),
        ("healthz", 1),
    )


@dataclasses.dataclass(frozen=True)
class LoadConfig:
    """Everything one harness run depends on."""

    seed: int = 7
    #: Mix label recorded in the report (smoke/standard/...).
    mix: str = "smoke"
    classes: tuple[ClientClass, ...] = ()
    #: Deterministic ops the simulated server retires per second —
    #: converts a request's op cost into simulated service time.
    ops_rate: float = 5000.0
    service: ServiceConfig = dataclasses.field(default_factory=ServiceConfig)
    #: Backend fault storm: of every *period* guarded computations,
    #: the first *burst* fail (0 disables storms entirely).
    backend_fault_period: int = 0
    backend_fault_burst: int = 0
    #: Upper bound asserted on the well-behaved class's p99 latency
    #: (in ops); None skips the assertion.
    p99_bound_ops: int | None = None

    def __post_init__(self) -> None:
        if self.ops_rate <= 0:
            raise ValueError(f"ops_rate must be > 0, got {self.ops_rate}")
        if self.backend_fault_burst > self.backend_fault_period > 0:
            raise ValueError("fault burst cannot exceed its period")

    @property
    def expected_requests(self) -> int:
        return sum(spec.count * spec.requests for spec in self.classes)

    @property
    def total_clients(self) -> int:
        return sum(spec.count for spec in self.classes)


def smoke_classes() -> tuple[ClientClass, ...]:
    """The CI smoke mix: every misbehaviour, small enough to run fast."""
    return (
        ClientClass("well_behaved", count=24, requests=6, think=0.4),
        ClientClass("bursty", count=8, requests=8, think=0.05),
        ClientClass(
            "slow_reader", count=4, requests=4, think=0.5, slow_factor=5.0
        ),
        ClientClass(
            "abusive",
            count=6,
            requests=25,
            think=0.005,
            respect_retry_after=False,
        ),
        ClientClass(
            "flaky", count=6, requests=5, think=0.3, drop_rate=0.3
        ),
    )


def standard_classes() -> tuple[ClientClass, ...]:
    """A heavier mix for local soak runs."""
    return (
        ClientClass("well_behaved", count=120, requests=12, think=0.4),
        ClientClass("bursty", count=40, requests=16, think=0.02),
        ClientClass(
            "slow_reader", count=16, requests=8, think=0.5, slow_factor=6.0
        ),
        ClientClass(
            "abusive",
            count=24,
            requests=60,
            think=0.002,
            respect_retry_after=False,
        ),
        ClientClass(
            "flaky", count=24, requests=10, think=0.2, drop_rate=0.25
        ),
    )


def _harness_slos() -> SloSpec:
    """SLO targets calibrated to the harness's deliberately hostile mixes.

    The smoke/standard mixes script abusive clients and one fault storm
    per 40 guarded calls, so their healthy-state bad fraction is far
    above anything a production portal would tolerate (~27% shed+error).
    These targets encode "the ladder is working as designed": the smoke
    mix must verdict ``OK``, and the ``storm`` mix (9 of every 10
    guarded calls failing) must blow through them to
    ``BURNING``/``EXHAUSTED``.  Half-second windows give a few-second
    run enough of a burn-rate timeline to be worth plotting.
    """
    return SloSpec(
        window=0.5,
        min_window_events=8,
        objectives=(
            Objective(
                "availability", KIND_AVAILABILITY,
                target=0.60, burn_threshold=2.0,
            ),
            Objective(
                "latency", KIND_LATENCY,
                target=0.70, bound_ops=25, burn_threshold=2.5,
            ),
            Objective(
                "staleness", KIND_STALENESS,
                target=0.60, burn_threshold=2.5,
            ),
        ),
    )


def _harness_service_config(deadline_ops: int) -> ServiceConfig:
    """A serving config tuned to harness timescales.

    Load runs last a few simulated seconds, so the production defaults
    (30 s cache freshness, 30 s breaker reset) would leave whole ladder
    rungs unexercised: entries would never go stale and an opened
    breaker would never half-open.  The harness shrinks every time
    constant so one smoke run walks fresh-hit, stale-fallback, breaker
    recovery, queueing, and deadline truncation.
    """
    return ServiceConfig(
        deadline_ops=deadline_ops,
        admission=AdmissionConfig(
            concurrency=3,
            queue_depth=8,
            client_rate=20.0,
            client_burst=10.0,
            shed_retry_after=0.5,
        ),
        cache=CacheConfig(fresh_ttl=0.2, stale_ttl=600.0),
        breaker=BreakerConfig(
            failure_threshold=0.5, window=8, min_calls=4, reset_timeout=2.0
        ),
        slo=_harness_slos(),
    )


#: Named mixes the CLI exposes.  smoke/standard inject one backend
#: fault storm per 40-60 guarded computations so the breaker/stale path
#: is exercised while the SLO verdict stays OK; ``storm`` fails 9 of
#: every 10 guarded calls, which must exhaust the error budget.
MIXES = {
    "smoke": lambda: LoadConfig(
        mix="smoke",
        classes=smoke_classes(),
        ops_rate=800.0,
        service=_harness_service_config(30),
        backend_fault_period=40,
        backend_fault_burst=8,
        p99_bound_ops=5_000,
    ),
    "standard": lambda: LoadConfig(
        mix="standard",
        classes=standard_classes(),
        ops_rate=800.0,
        service=_harness_service_config(30),
        backend_fault_period=60,
        backend_fault_burst=10,
        p99_bound_ops=5_000,
    ),
    "storm": lambda: LoadConfig(
        mix="storm",
        classes=smoke_classes(),
        ops_rate=800.0,
        service=_harness_service_config(30),
        backend_fault_period=10,
        backend_fault_burst=9,
        p99_bound_ops=None,
    ),
}


def _derive_rng(*parts) -> random.Random:
    """A deterministic RNG from structured parts (never hash())."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _FaultSchedule:
    """Scripted backend failures: of each *period* guarded calls, the
    **last** *burst* raise.  Counting is per endpoint family, so a storm
    opens one family's breaker at a deterministic call index — and
    because the storm ends each period rather than starting it, the
    healthy prefix has already populated the response cache, which is
    exactly what the stale-while-revalidate fallback needs."""

    def __init__(self, period: int, burst: int):
        self._period = period
        self._burst = burst
        self._calls: dict[str, int] = {}

    def __call__(self, request: Request, family: str) -> None:
        if self._period <= 0 or family not in ("search", "join", "union"):
            return
        index = self._calls.get(family, 0)
        self._calls[family] = index + 1
        if index % self._period >= self._period - self._burst:
            raise InjectedBackendFault(
                f"scripted {family} backend fault #{index}"
            )


class _Client:
    """One scripted client's state in the closed loop."""

    def __init__(
        self, spec: ClientClass, index: int, seed: int, factory
    ):
        self.spec = spec
        self.client_id = f"{spec.name}-{index:03d}"
        self.rng = _derive_rng(seed, spec.name, index)
        self.remaining = spec.requests
        self._factory = factory

    def next_request(self) -> Request:
        kind = self.rng.choices(
            [kind for kind, _ in self.spec.endpoints],
            weights=[weight for _, weight in self.spec.endpoints],
        )[0]
        return self._factory(self.rng, kind, self.client_id)


class _RequestFactory:
    """Builds concrete requests from the study's actual id space."""

    def __init__(self, service: LakeService, seed: int):
        self._package_ids = list(service.api.package_ids)
        resources: list[tuple[str, str]] = []
        for portal in service._study:
            for ingested in portal.report.clean_tables:
                resources.append((portal.code, ingested.resource_id))
        resources.sort()
        # A compact pool keeps cache keys recurring (the SWR cache and
        # stale serving need repeat traffic on the same keys).
        pool_rng = _derive_rng(seed, "resource-pool")
        self._resources = (
            pool_rng.sample(resources, min(12, len(resources)))
            if resources
            else []
        )

    def __call__(
        self, rng: random.Random, kind: str, client_id: str
    ) -> Request:
        if kind == "package_list":
            params = {"limit": "50", "offset": str(rng.choice((0, 50)))}
            return Request("/api/3/action/package_list", params, {}, client_id)
        if kind == "package_show":
            params = {"id": rng.choice(self._package_ids)}
            return Request("/api/3/action/package_show", params, {}, client_id)
        if kind == "missing_package":
            params = {"id": f"SG:no-such-{rng.randrange(100)}"}
            return Request("/api/3/action/package_show", params, {}, client_id)
        if kind == "package_search":
            params = {"q": rng.choice(QUERY_TERMS), "rows": "10"}
            return Request(
                "/api/3/action/package_search", params, {}, client_id
            )
        if kind == "lake_search":
            params = {"q": rng.choice(QUERY_TERMS), "limit": "10"}
            return Request("/lake_search", params, {}, client_id)
        if kind in ("join_suggest", "union_suggest"):
            if not self._resources:
                return Request("/healthz", {}, {}, client_id)
            portal, resource = rng.choice(self._resources)
            params = {"portal": portal, "resource": resource, "limit": "10"}
            return Request(f"/{kind}", params, {}, client_id)
        return Request("/healthz", {}, {}, client_id)


@dataclasses.dataclass(frozen=True)
class RequestRecord:
    """One terminated request, as the report sees it."""

    client_class: str
    #: Canonical endpoint name (see :func:`canonical_endpoint`).
    endpoint: str
    status: int
    outcome: str
    #: End-to-end latency in deterministic ops (queue wait included);
    #: 0 for requests rejected at admission.
    latency_ops: int
    served: bool
    #: Server-side op cost of producing the response (1 for rejections).
    ops: int = 1


def run_load(
    study, config: LoadConfig, *, trace_out=None, profile_out=None
) -> dict:
    """Run one scripted load against a fresh service; return the report.

    With *trace_out* set, every non-probe request's span tree is written
    to that path via the serving tracer (exemplar policy in
    :mod:`repro.serve.tracing`); the trace bytes depend only on
    ``(study, config)``, never on wall time, so equal seeds produce
    byte-identical traces.  *profile_out* attaches the deterministic
    profiler the same way: handler work lands under ``serve;<family>``
    frames and the artifact is written when the run finishes.  The
    report itself is identical with or without either sink.
    """
    if not config.classes:
        raise ValueError("load config has no client classes")
    clock = SimulatedClock()
    fault_hook = (
        _FaultSchedule(
            config.backend_fault_period, config.backend_fault_burst
        )
        if config.backend_fault_period > 0
        else None
    )
    observer = None
    if trace_out is not None or profile_out is not None:
        observer = Observer(
            trace_out,
            profile_path=profile_out,
            meta={
                "kind": "serve",
                "seed": config.seed,
                "mix": config.mix,
                "ops_rate": config.ops_rate,
                "clients": config.total_clients,
                "slo": (
                    config.service.slo.as_json()
                    if config.service.slo is not None
                    else None
                ),
            },
        )
    service = LakeService(
        study,
        config=config.service,
        clock=clock,
        metrics=observer.metrics if observer is not None else None,
        fault_hook=fault_hook,
        tracer=observer.tracer if observer is not None else None,
        profiler=observer.profiler if observer is not None else None,
    )
    factory = _RequestFactory(service, config.seed)

    events: list = []  # (time, seq, action, payload)
    seq = 0

    def push(at: float, action: str, payload) -> None:
        nonlocal seq
        heapq.heappush(events, (at, seq, action, payload))
        seq += 1

    waitlist: deque = deque()  # (client, request, arrival_time, admission)
    records: list[RequestRecord] = []

    def start_service(
        client: _Client,
        request: Request,
        arrival: float,
        start: float,
        admission,
    ) -> None:
        response = service.handle_admitted(request, admission)
        duration = (
            max(1, response.ops) / config.ops_rate * client.spec.slow_factor
        )
        push(
            start + duration,
            "complete",
            (client, request, arrival, response),
        )

    def schedule_next(client: _Client, at: float) -> None:
        if client.remaining > 0:
            push(at, "arrival", client)

    def terminate(
        client: _Client,
        request: Request,
        outcome: str,
        status: int,
        latency_ops: int,
        served: bool,
        ops: int,
    ) -> None:
        records.append(
            RequestRecord(
                client_class=client.spec.name,
                endpoint=canonical_endpoint(request.path),
                status=status,
                outcome=outcome,
                latency_ops=latency_ops,
                served=served,
                ops=ops,
            )
        )

    clients = [
        _Client(spec, index, config.seed, factory)
        for spec in config.classes
        for index in range(spec.count)
    ]
    for client in clients:
        push(client.rng.uniform(0.0, 0.5), "arrival", client)

    while events:
        at, _, action, payload = heapq.heappop(events)
        clock.advance_to(at)
        if action == "arrival":
            client = payload
            if client.remaining <= 0:
                continue
            client.remaining -= 1
            request = client.next_request()
            admission = service.admission.decide(request.client_id)
            rejection = service.admission_response(request, admission)
            if rejection is not None:
                terminate(
                    client,
                    request,
                    rejection.outcome,
                    rejection.status,
                    0,
                    served=False,
                    ops=rejection.ops,
                )
                backoff = client.spec.think
                if client.spec.respect_retry_after:
                    backoff = max(backoff, rejection.retry_after or 0.0)
                schedule_next(client, at + max(backoff, 1e-3))
            elif admission.decision is Decision.QUEUED:
                waitlist.append((client, request, at, admission))
            else:
                start_service(client, request, at, at, admission)
        else:  # complete
            client, request, arrival, response = payload
            service.admission.finish()
            outcome = response.outcome
            if (
                client.spec.drop_rate > 0
                and client.rng.random() < client.spec.drop_rate
            ):
                outcome = OUTCOME_ERROR  # connection dropped in flight
            latency_ops = int(round((at - arrival) * config.ops_rate))
            terminate(
                client,
                request,
                outcome,
                response.status,
                latency_ops,
                served=True,
                ops=response.ops,
            )
            schedule_next(client, at + max(client.spec.think, 1e-3))
            if waitlist:
                (
                    queued_client, queued_request, queued_arrival,
                    queued_admission,
                ) = waitlist.popleft()
                service.admission.promote()
                start_service(
                    queued_client, queued_request, queued_arrival, at,
                    queued_admission,
                )

    service.close_telemetry()
    report = _build_report(config, service, records, clock)
    if observer is not None:
        observer.close()
    return report


def _build_report(
    config: LoadConfig,
    service: LakeService,
    records: list[RequestRecord],
    clock: SimulatedClock,
) -> dict:
    outcome_counts = {outcome: 0 for outcome in OUTCOMES}
    status_counts: dict[str, int] = {}
    per_class: dict[str, dict] = {}
    per_endpoint: dict[str, dict] = {}
    class_latencies: dict[str, list[int]] = {}
    served_latencies: list[int] = []
    for record in records:
        outcome_counts[record.outcome] += 1
        status_counts[str(record.status)] = (
            status_counts.get(str(record.status), 0) + 1
        )
        stats = per_class.setdefault(
            record.client_class,
            {"requests": 0} | {outcome: 0 for outcome in OUTCOMES},
        )
        stats["requests"] += 1
        stats[record.outcome] += 1
        endpoint = per_endpoint.setdefault(
            record.endpoint,
            {"requests": 0} | {outcome: 0 for outcome in OUTCOMES},
        )
        endpoint["requests"] += 1
        endpoint[record.outcome] += 1
        if record.served:
            served_latencies.append(record.latency_ops)
            class_latencies.setdefault(record.client_class, []).append(
                record.latency_ops
            )
    for name, stats in per_class.items():
        stats["shed_rate"] = round(
            stats["shed"] / stats["requests"], 6
        )
        latencies = class_latencies.get(name, [])
        stats["latency_ops"] = {
            "served": len(latencies), **rank_summary(latencies)
        }
    duration = round(clock.now(), 6)
    served = sum(1 for r in records if r.served)
    # Ops reconciliation: the server-side op cost of every non-probe
    # request, as the records saw it and as the serve.request.ops
    # histogram accumulated it — the trace's request spans must sum to
    # the same number (tested), so one figure ties all three views.
    request_ops = sum(
        r.ops for r in records if r.endpoint not in PROBE_ENDPOINTS
    )
    ops_histogram = service.metrics.get("serve.request.ops")
    histogram_ops = ops_histogram.total if ops_histogram is not None else 0
    slo_summary = (
        service.slo.summary() if service.slo is not None else None
    )
    breaker_opens = sum(
        1
        for breaker in service.breakers.values()
        for event in breaker.events
        if event.state is CircuitState.OPEN
    )
    terminated = len(records)
    within_bounds = service.admission.within_bounds()
    report = {
        "harness": {
            "seed": config.seed,
            "mix": config.mix,
            "ops_rate": config.ops_rate,
            "clients": config.total_clients,
            "backend_fault_period": config.backend_fault_period,
            "backend_fault_burst": config.backend_fault_burst,
            "deadline_ops": config.service.deadline_ops,
            # JSON-native throughout (tuples become lists) so the
            # report round-trips: json.loads(report_to_json(r)) == r.
            "classes": [
                dataclasses.asdict(spec)
                | {"endpoints": [list(pair) for pair in spec.endpoints]}
                for spec in config.classes
            ],
        },
        "requests": {
            "expected": config.expected_requests,
            "terminated": terminated,
            "lost": config.expected_requests - terminated,
        },
        "outcomes": outcome_counts,
        "status_counts": dict(sorted(status_counts.items())),
        "latency_ops": {
            "served": len(served_latencies),
            **rank_summary(served_latencies),
        },
        "per_class": dict(sorted(per_class.items())),
        "per_endpoint": dict(sorted(per_endpoint.items())),
        "duration": duration,
        "throughput_rps": round(served / duration, 6) if duration else 0.0,
        "total_ops": _total_service_ops(service),
        "request_ops": request_ops,
        "slo": slo_summary,
        "admission": service.admission.snapshot()
        | {"within_bounds": within_bounds},
        "service": {
            "stale_served": int(
                service.metrics.value("serve.stale_served", 0)
            ),
            "backend_failures": int(
                service.metrics.value("serve.backend_failures", 0)
            ),
            "breaker_opens": breaker_opens,
            "cache": service.cache.snapshot(),
        },
        "invariants": {
            "every_request_terminated": terminated
            == config.expected_requests,
            "within_admission_bounds": within_bounds,
            "outcomes_account_for_all": sum(outcome_counts.values())
            == terminated,
            "ops_reconciled": request_ops == histogram_ops,
        },
    }
    return report


def _total_service_ops(service: LakeService) -> int:
    """Sum of every ``ops.*`` counter the service's meters charged."""
    total = 0
    for name, snap in service.metrics.snapshot().items():
        if name.startswith("ops.") and snap.get("kind") == "counter":
            total += snap["value"]
    return int(total)


def check_invariants(report: dict, config: LoadConfig) -> list[str]:
    """The robustness invariants; returns human-readable violations."""
    violations: list[str] = []
    requests = report["requests"]
    if requests["lost"] != 0:
        violations.append(
            f"lost requests: expected {requests['expected']}, "
            f"terminated {requests['terminated']}"
        )
    if not report["invariants"]["outcomes_account_for_all"]:
        violations.append("outcome counts do not sum to terminated requests")
    if not report["invariants"]["ops_reconciled"]:
        violations.append(
            "request op accounting diverged: record sum != "
            "serve.request.ops histogram sum"
        )
    if not report["admission"]["within_bounds"]:
        violations.append(
            f"admission bounds exceeded: {report['admission']}"
        )
    if config.p99_bound_ops is not None:
        well_behaved = report["per_class"].get("well_behaved")
        if well_behaved is not None:
            p99 = well_behaved["latency_ops"]["p99"]
            if p99 > config.p99_bound_ops:
                violations.append(
                    f"well-behaved p99 {p99} ops exceeds bound "
                    f"{config.p99_bound_ops}"
                )
    if config.backend_fault_period > 0:
        if report["service"]["breaker_opens"] < 1:
            violations.append(
                "fault storms were scripted but no breaker ever opened"
            )
        if report["service"]["stale_served"] < 1:
            violations.append(
                "no stale cached answer was served during a fault storm"
            )
    return violations


def report_to_json(report: dict) -> str:
    """The canonical (byte-stable) serialization of a load report."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_report(report: dict) -> str:
    """Human-readable load report summary."""
    from ..report.render import render_table

    outcomes = report["outcomes"]
    latency = report["latency_ops"]
    lines = [
        f"load mix {report['harness']['mix']!r}: "
        f"{report['harness']['clients']} clients, "
        f"{report['requests']['terminated']} requests in "
        f"{report['duration']:.1f} simulated seconds "
        f"({report['throughput_rps']:.1f} served/s)",
        (
            f"outcomes: ok={outcomes['ok']} degraded={outcomes['degraded']} "
            f"shed={outcomes['shed']} error={outcomes['error']} "
            f"(lost={report['requests']['lost']})"
        ),
        (
            f"latency (ops): p50={latency['p50']} p99={latency['p99']} "
            f"max={latency['max']} over {latency['served']} served"
        ),
        (
            f"admission: max in-flight "
            f"{report['admission']['max_in_flight']}/"
            f"{report['admission']['concurrency']}, max queued "
            f"{report['admission']['max_queued']}/"
            f"{report['admission']['queue_depth']}, within bounds: "
            f"{report['admission']['within_bounds']}"
        ),
        (
            f"degradation: stale served {report['service']['stale_served']}, "
            f"breaker opens {report['service']['breaker_opens']}, "
            f"backend failures {report['service']['backend_failures']}"
        ),
    ]
    slo = report.get("slo")
    if slo is not None:
        availability = slo["objectives"].get("availability", {})
        lines.append(
            f"slo: verdict {slo['verdict']} "
            f"(availability budget used "
            f"{availability.get('budget_used', 0.0):.0%}, "
            f"{slo['windows_evaluated']} windows)"
        )
    lines.append("")
    lines.append(render_table(
        "Per class (latency in ops)",
        ["class", "reqs", "ok", "degr", "shed", "err", "p50", "p99"],
        [
            [
                name,
                stats["requests"],
                stats["ok"],
                stats["degraded"],
                stats["shed"],
                stats["error"],
                stats["latency_ops"]["p50"],
                stats["latency_ops"]["p99"],
            ]
            for name, stats in report["per_class"].items()
        ],
    ))
    return "\n".join(lines)


def bench_record(
    report: dict, *, scale: float, seed: int, seconds: float
) -> dict:
    """The BENCH_serve.json record of one harness run.

    ``total_ops`` (deterministic), the serving metrics, the SLO verdict
    and availability are what ``bench-report`` prints on its serving
    line.  The record gates nothing: the smoke mix's ``total_ops`` and
    latency percentiles are pinned exactly by a tier-1 test, and an
    ``EXHAUSTED`` verdict fails ``serve-report --fail-on-exhausted``.
    """
    slo = report.get("slo")
    availability = 1.0
    verdict = ""
    if slo is not None:
        verdict = slo["verdict"]
        objective = slo["objectives"].get("availability")
        if objective is not None:
            availability = round(1.0 - objective["bad_fraction"], 6)
    return {
        "experiment": "serve",
        "scale": scale,
        "seed": seed,
        "workers": 1,
        "seconds": seconds,
        "total_ops": report["total_ops"],
        "ops": {"ops.serve": report["total_ops"]},
        "clients": report["harness"]["clients"],
        "p50_ops": report["latency_ops"]["p50"],
        "p99_ops": report["latency_ops"]["p99"],
        "shed_rate": round(
            report["outcomes"]["shed"]
            / max(1, report["requests"]["terminated"]),
            6,
        ),
        "availability": availability,
        "slo_verdict": verdict,
    }


__all__ = [
    "ClientClass",
    "InjectedBackendFault",
    "LoadConfig",
    "MIXES",
    "QUERY_TERMS",
    "RequestRecord",
    "bench_record",
    "check_invariants",
    "render_report",
    "report_to_json",
    "run_load",
    "smoke_classes",
    "standard_classes",
]
