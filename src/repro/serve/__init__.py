"""Serving the data lake: a CKAN-shaped query API under load.

The package splits the served lake into layers that compose in one
direction (DESIGN.md §12–§13):

* :mod:`repro.serve.api` — the pure request/response layer: CKAN
  action-API endpoints, pagination, ETags, JSON error envelopes;
* :mod:`repro.serve.admission` — per-client rate limits, bounded
  service slots and queue, deterministic load shedding;
* :mod:`repro.serve.cache` — stale-while-revalidate response cache
  backing graceful degradation when a backend is circuit-broken;
* :mod:`repro.serve.service` — :class:`LakeService`, the robustness
  ladder wiring admission → deadlines → breakers → cache → handlers,
  plus per-request SLO accounting (:mod:`repro.obs.slo`);
* :mod:`repro.serve.tracing` — per-request span trees with
  deterministic exemplar sampling, bridged onto the study tracer;
* :mod:`repro.serve.httpd` — a stdlib HTTP front end for real sockets;
* :mod:`repro.serve.loadgen` — the deterministic closed-loop load
  harness proving the serving invariants on the simulated clock.
"""

from .admission import Admission, AdmissionConfig, AdmissionController, Decision
from .api import (
    ApiError,
    ENDPOINT_NAMES,
    PROBE_ENDPOINTS,
    QueryApi,
    Request,
    Response,
    canonical_endpoint,
)
from .cache import CacheConfig, ResponseCache
from .loadgen import (
    ClientClass,
    LoadConfig,
    MIXES,
    bench_record,
    check_invariants,
    render_report,
    run_load,
)
from .service import (
    OUTCOME_DEGRADED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_SHED,
    OUTCOMES,
    AnnotatedResponse,
    LakeService,
    ServiceConfig,
)
from .tracing import RequestTrail, ServeTracer

__all__ = [
    "Admission",
    "AdmissionConfig",
    "AdmissionController",
    "AnnotatedResponse",
    "ApiError",
    "CacheConfig",
    "ClientClass",
    "Decision",
    "ENDPOINT_NAMES",
    "LakeService",
    "LoadConfig",
    "MIXES",
    "OUTCOMES",
    "OUTCOME_DEGRADED",
    "OUTCOME_ERROR",
    "OUTCOME_OK",
    "OUTCOME_SHED",
    "PROBE_ENDPOINTS",
    "QueryApi",
    "Request",
    "RequestTrail",
    "Response",
    "ResponseCache",
    "ServeTracer",
    "ServiceConfig",
    "bench_record",
    "canonical_endpoint",
    "check_invariants",
    "render_report",
    "run_load",
]
