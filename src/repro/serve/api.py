"""The CKAN-shaped query API over a built study's :class:`DataLake`.

This module is the *pure* request/response layer: a tiny HTTP-ish data
model (:class:`Request` / :class:`Response`), CKAN's action-API JSON
conventions (``{"success": ..., "result"/"error": ...}``), pagination,
deterministic ETags, and the endpoint handlers themselves.  It knows
nothing about admission control, deadlines, caching, or circuit
breaking — :mod:`repro.serve.service` wraps these handlers in that
robustness ladder, and :mod:`repro.serve.httpd` puts a real socket in
front of it.

Endpoints (all GET):

* ``/api/3/action/package_list`` — paginated catalog listing, ids
  namespaced ``PORTAL:dataset_id`` because the lake fronts four portals;
* ``/api/3/action/package_show?id=SG:d0001`` — CKAN metadata dict;
* ``/api/3/action/package_search?q=...&rows=N&start=M`` — ranked
  catalog search returning full package dicts;
* ``/lake_search?q=...&limit=N`` — the lake's native hit objects;
* ``/join_suggest?portal=US&resource=r42&limit=N`` — ranked joinable
  partners;
* ``/union_suggest?portal=UK&resource=r7&limit=N`` — ranked union
  partners.

Unknown ids surface as :class:`~repro.portal.ckan.CkanApiError` /
``KeyError`` and are mapped to CKAN-style 404 JSON bodies; malformed
parameters map to 400.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Mapping

from ..core.study import Study
from ..portal.ckan import CkanApi, CkanApiError
from ..resilience.budget import BudgetExceeded, WorkMeter
from ..search.lake import DataLake

#: Pagination guard rails (CKAN's own defaults are in this spirit).
DEFAULT_PAGE = 100
MAX_PAGE = 1000
DEFAULT_ROWS = 10
MAX_ROWS = 100

#: path -> canonical low-cardinality endpoint name.  Metrics, traces,
#: and SLO samples must key on these — never on the raw request path,
#: which carries unbounded client-chosen strings.
ENDPOINT_NAMES: Mapping[str, str] = {
    "/api/3/action/package_list": "package_list",
    "/api/3/action/package_show": "package_show",
    "/api/3/action/package_search": "package_search",
    "/lake_search": "lake_search",
    "/join_suggest": "join_suggest",
    "/union_suggest": "union_suggest",
    "/healthz": "healthz",
    "/statz": "statz",
}

#: Canonical names of the monitoring probes (excluded from traces,
#: request-ops histograms, and SLO accounting).
PROBE_ENDPOINTS = ("healthz", "statz")


def canonical_endpoint(path: str) -> str:
    """The bounded endpoint label a raw request path maps to.

    Unknown paths all collapse into a single ``unknown`` bucket so a
    client scanning random URLs cannot mint unbounded metric series.
    """
    return ENDPOINT_NAMES.get(path, "unknown")


@dataclasses.dataclass(frozen=True)
class Request:
    """One query, transport-independent."""

    path: str
    params: Mapping[str, str] = dataclasses.field(default_factory=dict)
    headers: Mapping[str, str] = dataclasses.field(default_factory=dict)
    client_id: str = "anonymous"
    method: str = "GET"

    def header(self, name: str, default: str = "") -> str:
        """A header value, case-insensitively."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default


@dataclasses.dataclass(frozen=True)
class Response:
    """One answer: status, JSON body, and response headers."""

    status: int
    body: dict | None
    headers: Mapping[str, str] = dataclasses.field(default_factory=dict)
    #: The body's bytes when the answer already carries them (every
    #: service success answer, spliced by :func:`success_bytes`);
    #: ``None`` encodes the body on demand.
    encoded: bytes | None = None

    @property
    def etag(self) -> str | None:
        for key, value in self.headers.items():
            if key.lower() == "etag":
                return value
        return None

    @property
    def retry_after(self) -> float | None:
        for key, value in self.headers.items():
            if key.lower() == "retry-after":
                return float(value)
        return None

    def to_bytes(self) -> bytes:
        """The JSON body, canonically serialized (empty for 304s)."""
        if self.encoded is not None:
            return self.encoded
        if self.body is None:
            return b""
        return (json.dumps(self.body, sort_keys=True) + "\n").encode("utf-8")


class ApiError(Exception):
    """A handler-level failure that maps to one JSON error response."""

    def __init__(
        self,
        code: int,
        message: str,
        *,
        kind: str = "Not Found Error",
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.code = code
        self.kind = kind
        self.retry_after = retry_after


def result_text(result: object) -> str:
    """An answer's one encoding: the canonical JSON text of its result.

    The ETag document and the success envelope are both spliced around
    this text, so a served answer is serialized once.  The splices
    follow ``json.dumps``'s sorted keys and default separators, and the
    text is ASCII (``ensure_ascii``), so each splice equals the
    ``json.dumps`` of the whole document.
    """
    return json.dumps(result, sort_keys=True)


def compute_etag(path: str, text: str) -> str:
    """A deterministic weak ETag over the canonical result document.

    The document is ``{"path": path, "result": result}`` encoded like
    :func:`result_text`, spliced from the result's *text*.
    """
    canonical = '{"path": ' + json.dumps(path) + ', "result": ' + text + "}"
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return 'W/"' + digest[:20] + '"'


def error_body(code: int, message: str, kind: str) -> dict:
    """CKAN-style JSON error envelope."""
    return {
        "success": False,
        "error": {"__type": kind, "code": code, "message": message},
    }


def success_body(
    result: object, *, degraded: bool = False, stale: bool = False
) -> dict:
    """CKAN-style JSON success envelope with degradation markers."""
    body: dict = {"success": True, "result": result, "degraded": degraded}
    if stale:
        body["stale"] = True
    return body


def success_bytes(
    text: str, *, degraded: bool = False, stale: bool = False
) -> bytes:
    """:func:`success_body`'s canonical bytes, spliced from the result's
    *text* (:func:`result_text`): sorted keys put ``degraded`` and
    ``result`` before ``stale`` and ``success``."""
    flag = "true" if degraded else "false"
    stale_field = '"stale": true, ' if stale else ""
    return (
        f'{{"degraded": {flag}, "result": {text}, {stale_field}'
        '"success": true}\n'
    ).encode("utf-8")


def _int_param(
    params: Mapping[str, str],
    name: str,
    default: int,
    *,
    floor: int = 0,
    cap: int | None = None,
) -> int:
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(
            400,
            f"parameter {name!r} must be an integer, got {raw!r}",
            kind="Validation Error",
        ) from None
    if value < floor:
        raise ApiError(
            400,
            f"parameter {name!r} must be >= {floor}, got {value}",
            kind="Validation Error",
        )
    if cap is not None:
        value = min(value, cap)
    return value


class QueryApi:
    """The endpoint handlers over one study's lake.

    Every handler takes ``(request, meter)`` and returns the *result*
    payload (the service layer wraps it in the success envelope).  A
    meter tick is charged per item touched, so per-request op-count
    deadlines bound handler work deterministically.
    """

    def __init__(self, study: Study, lake: DataLake):
        self._study = study
        self._lake = lake
        self._apis: dict[str, CkanApi] = {
            portal.code: CkanApi(portal.generated.portal) for portal in study
        }
        self._package_ids: list[str] = sorted(
            f"{code}:{dataset_id}"
            for code, api in self._apis.items()
            for dataset_id in api.package_list()
        )
        #: endpoint path -> (breaker family, handler).
        self.routes: dict[str, tuple[str, Callable]] = {
            "/api/3/action/package_list": ("catalog", self.package_list),
            "/api/3/action/package_show": ("catalog", self.package_show),
            "/api/3/action/package_search": ("search", self.package_search),
            "/lake_search": ("search", self.lake_search),
            "/join_suggest": ("join", self.join_suggest),
            "/union_suggest": ("union", self.union_suggest),
        }

    @property
    def portal_codes(self) -> list[str]:
        """Served portal codes, sorted."""
        return sorted(self._apis)

    @property
    def package_count(self) -> int:
        """Total packages across every served portal."""
        return len(self._package_ids)

    @property
    def package_ids(self) -> tuple[str, ...]:
        """Every namespaced package id, sorted."""
        return tuple(self._package_ids)

    # ------------------------------------------------------------------
    # catalog endpoints (CKAN action API)
    # ------------------------------------------------------------------
    def package_list(self, request: Request, meter: WorkMeter) -> dict:
        limit = _int_param(
            request.params, "limit", DEFAULT_PAGE, floor=0, cap=MAX_PAGE
        )
        offset = _int_param(request.params, "offset", 0, floor=0)
        page: list[str] = []
        try:
            for package_id in self._package_ids[offset : offset + limit]:
                meter.tick(1, op="serve.catalog")
                page.append(package_id)
        except BudgetExceeded:
            pass  # a partial page is still a correct prefix
        return {
            "packages": page,
            "count": len(self._package_ids),
            "limit": limit,
            "offset": offset,
        }

    def _split_package_id(self, package_id: str) -> tuple[str, str]:
        if ":" not in package_id:
            raise CkanApiError(package_id)
        code, dataset_id = package_id.split(":", 1)
        api = self._apis.get(code)
        if api is None:
            raise CkanApiError(package_id, kind="portal")
        return code, dataset_id

    def _package_dict(self, package_id: str, meter: WorkMeter) -> dict:
        code, dataset_id = self._split_package_id(package_id)
        package = self._apis[code].package_show(dataset_id)
        meter.tick(1 + len(package["resources"]), op="serve.catalog")
        package["portal"] = code
        package["id"] = package_id
        return package

    def package_show(self, request: Request, meter: WorkMeter) -> dict:
        package_id = request.params.get("id", "")
        if not package_id:
            raise ApiError(
                400, "parameter 'id' is required", kind="Validation Error"
            )
        return self._package_dict(package_id, meter)

    # ------------------------------------------------------------------
    # search endpoints
    # ------------------------------------------------------------------
    def package_search(self, request: Request, meter: WorkMeter) -> dict:
        query = request.params.get("q", "")
        rows = _int_param(
            request.params, "rows", DEFAULT_ROWS, floor=0, cap=MAX_ROWS
        )
        start = _int_param(request.params, "start", 0, floor=0)
        hits = self._lake.search(query, limit=start + rows, meter=meter)
        results = []
        try:
            for hit in hits[start : start + rows]:
                results.append(
                    self._package_dict(
                        f"{hit.portal_code}:{hit.dataset_id}", meter
                    )
                    | {"score": hit.score}
                )
        except BudgetExceeded:
            pass  # the hits already expanded form a correct prefix
        return {"count": len(hits), "start": start, "results": results}

    def lake_search(self, request: Request, meter: WorkMeter) -> dict:
        query = request.params.get("q", "")
        limit = _int_param(
            request.params, "limit", DEFAULT_ROWS, floor=0, cap=MAX_ROWS
        )
        hits = self._lake.search(query, limit=limit, meter=meter)
        return {
            "count": len(hits),
            "hits": [dataclasses.asdict(hit) for hit in hits],
        }

    # ------------------------------------------------------------------
    # suggestion endpoints
    # ------------------------------------------------------------------
    def _suggestion_args(self, request: Request) -> tuple[str, str, int]:
        portal = request.params.get("portal", "")
        resource = request.params.get("resource", "")
        if not portal or not resource:
            raise ApiError(
                400,
                "parameters 'portal' and 'resource' are required",
                kind="Validation Error",
            )
        if portal not in self._apis:
            raise CkanApiError(portal, kind="portal")
        limit = _int_param(
            request.params, "limit", DEFAULT_ROWS, floor=0, cap=MAX_ROWS
        )
        return portal, resource, limit

    def join_suggest(self, request: Request, meter: WorkMeter) -> dict:
        portal, resource, limit = self._suggestion_args(request)
        try:
            suggestions = self._lake.suggest_joins(
                portal, resource, limit=limit, meter=meter
            )
        except KeyError:
            raise CkanApiError(resource, kind="resource") from None
        return {
            "count": len(suggestions),
            "suggestions": [dataclasses.asdict(s) for s in suggestions],
        }

    def union_suggest(self, request: Request, meter: WorkMeter) -> dict:
        portal, resource, limit = self._suggestion_args(request)
        try:
            suggestions = self._lake.suggest_unions(
                portal, resource, limit=limit, meter=meter
            )
        except KeyError:
            raise CkanApiError(resource, kind="resource") from None
        return {
            "count": len(suggestions),
            "suggestions": [dataclasses.asdict(s) for s in suggestions],
        }


def map_exception(exc: Exception) -> ApiError:
    """The JSON-error shape of an exception escaping a handler."""
    if isinstance(exc, ApiError):
        return exc
    if isinstance(exc, CkanApiError):
        return ApiError(exc.code, str(exc))
    if isinstance(exc, KeyError):
        entity = exc.args[0] if exc.args else "?"
        return ApiError(404, f"not found: {entity!r}")
    return ApiError(
        500, f"{type(exc).__name__}: {exc}", kind="Internal Server Error"
    )


__all__ = [
    "ApiError",
    "DEFAULT_PAGE",
    "DEFAULT_ROWS",
    "ENDPOINT_NAMES",
    "MAX_PAGE",
    "MAX_ROWS",
    "PROBE_ENDPOINTS",
    "QueryApi",
    "canonical_endpoint",
    "Request",
    "Response",
    "compute_etag",
    "error_body",
    "map_exception",
    "result_text",
    "success_body",
    "success_bytes",
]
