"""The serving report behind ``ogdp-repro serve-report``.

Input is a serve trace written by :mod:`repro.serve.tracing` through
the load harness (``ogdp-repro loadtest --trace-out``): one span of
``kind="request"`` per non-probe request, rung children on exemplars,
and the run's metric block.  From that single artifact this module
reconstructs the three views an operator needs:

* **RED tables** — per-endpoint Rate / Errors / Duration, where
  duration is the deterministic op cost (exact percentiles over the
  span ops, not histogram interpolation);
* **the SLO replay** — the samples are re-run through
  :class:`~repro.obs.slo.SloMonitor`, so a trace can be re-judged
  against a *different* objective file after the fact
  (``--slo slo.json`` overrides the spec recorded in the trace header,
  which in turn overrides the library defaults);
* **exemplars** — the full span trees kept by the sampling policy
  (every shed/error plus the top-K slowest), each rendered with its
  ladder rungs so "which endpoint is blowing the budget *and why*" has
  an answer.
"""

from __future__ import annotations

import pathlib

from .quantiles import percentile_nearest_rank as _percentile
from .slo import (
    RequestSample,
    SloSpec,
    default_slos,
    load_spec,
    replay,
    spec_from_json,
)
from .trace import TraceData

#: Width of the burn-rate bars in the text timeline.
BURN_BAR_WIDTH = 20


def request_spans(trace: TraceData) -> list[dict]:
    """The per-request spans of a serve trace, in arrival order."""
    spans = [s for s in trace.spans if s.get("kind") == "request"]
    spans.sort(key=lambda s: (s.get("attrs", {}).get("at", 0.0), s.get("id")))
    return spans


def trace_samples(trace: TraceData) -> list[RequestSample]:
    """Request spans as SLO samples (the replay input)."""
    samples = []
    for span in request_spans(trace):
        attrs = span.get("attrs", {})
        samples.append(RequestSample(
            at=float(attrs.get("at", 0.0)),
            endpoint=str(attrs.get("endpoint", "unknown")),
            outcome=str(attrs.get("outcome", "ok")),
            status=int(attrs.get("status", 0)),
            ops=int(span.get("ops", 0)),
            stale=bool(attrs.get("stale", False)),
        ))
    return samples


def resolve_spec(
    trace: TraceData, slo_path: str | pathlib.Path | None = None
) -> tuple[SloSpec, str]:
    """The spec to judge this trace by, and where it came from.

    Precedence: an explicit ``--slo`` file beats the spec the harness
    recorded in the trace header, which beats the library defaults.
    """
    if slo_path is not None:
        return load_spec(slo_path), str(slo_path)
    recorded = trace.header.get("slo")
    if isinstance(recorded, dict):
        return spec_from_json(recorded), "trace header"
    return default_slos(), "defaults"


def red_tables(spans: list[dict]) -> dict[str, dict]:
    """Per-endpoint RED stats from request spans."""
    duration = max(
        (s.get("attrs", {}).get("at", 0.0) for s in spans), default=0.0
    )
    per_endpoint: dict[str, dict] = {}
    for span in spans:
        attrs = span.get("attrs", {})
        endpoint = attrs.get("endpoint", "unknown")
        entry = per_endpoint.setdefault(endpoint, {
            "requests": 0,
            "ok": 0, "degraded": 0, "shed": 0, "error": 0,
            "_ops": [],
        })
        entry["requests"] += 1
        outcome = attrs.get("outcome", "ok")
        if outcome in entry:
            entry[outcome] += 1
        entry["_ops"].append(int(span.get("ops", 0)))
    for entry in per_endpoint.values():
        ordered = sorted(entry.pop("_ops"))
        errors = entry["shed"] + entry["error"]
        entry["errors"] = errors
        entry["error_rate"] = round(errors / entry["requests"], 6)
        entry["rate_rps"] = (
            round(entry["requests"] / duration, 6) if duration else 0.0
        )
        entry["ops"] = {
            "p50": _percentile(ordered, 50),
            "p99": _percentile(ordered, 99),
            "max": ordered[-1] if ordered else 0,
        }
    return dict(sorted(per_endpoint.items()))


def exemplar_trees(trace: TraceData, top: int = 10) -> list[dict]:
    """The sampled full span trees, slowest first, capped at *top*."""
    children: dict[int, list[dict]] = {}
    for span in trace.spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(span)
    trees = []
    for span in request_spans(trace):
        attrs = span.get("attrs", {})
        if not attrs.get("exemplar"):
            continue
        rungs = sorted(
            children.get(span.get("id"), []),
            key=lambda s: s.get("open", 0),
        )
        trees.append({
            "endpoint": attrs.get("endpoint", "unknown"),
            "client": attrs.get("client", "?"),
            "outcome": attrs.get("outcome", "?"),
            "status": attrs.get("status", 0),
            "ops": span.get("ops", 0),
            "at": attrs.get("at", 0.0),
            "stale": bool(attrs.get("stale", False)),
            "rungs": [
                {
                    "name": rung.get("name", "?"),
                    "ops": rung.get("ops", 0),
                    "attrs": {
                        k: v
                        for k, v in rung.get("attrs", {}).items()
                    },
                }
                for rung in rungs
            ],
        })
    trees.sort(key=lambda t: (-t["ops"], t["at"]))
    return trees[:top]


def serve_report_json(
    trace: TraceData,
    *,
    slo_path: str | pathlib.Path | None = None,
    top: int = 10,
) -> dict:
    """The machine-readable ``serve-report --json`` document."""
    spans = request_spans(trace)
    spec, spec_source = resolve_spec(trace, slo_path)
    monitor = replay(spec, trace_samples(trace))
    return {
        "trace": trace.path,
        "header": {k: v for k, v in trace.header.items() if k != "type"},
        "valid": trace.valid,
        "problems": trace.problems,
        "torn_lines": trace.torn,
        "requests": len(spans),
        "request_ops": sum(s.get("ops", 0) for s in spans),
        "endpoints": red_tables(spans),
        "slo_source": spec_source,
        "slo": monitor.summary(),
        "exemplars": exemplar_trees(trace, top),
    }


def _burn_bar(burn: float, threshold: float) -> str:
    """A bar scaled so the burn threshold sits at half width."""
    scale = BURN_BAR_WIDTH / (2.0 * threshold) if threshold else 0.0
    length = min(BURN_BAR_WIDTH, round(burn * scale))
    return "#" * length


def render_serve_report(
    trace: TraceData,
    *,
    slo_path: str | pathlib.Path | None = None,
    top: int = 10,
) -> str:
    """The human-readable serving report."""
    from ..report.render import render_table

    doc = serve_report_json(trace, slo_path=slo_path, top=top)
    lines: list[str] = []
    header = doc["header"]
    meta = " ".join(
        f"{key}={header[key]}"
        for key in ("mix", "seed", "clients", "ops_rate")
        if key in header and header[key] is not None
    )
    lines.append(
        f"serve trace {doc['trace']}: {doc['requests']} requests, "
        f"{doc['request_ops']} ops"
        + (f", {meta}" if meta else "")
    )
    if doc["torn_lines"]:
        lines.append(f"  note: {doc['torn_lines']} torn line(s) skipped")
    for problem in doc["problems"]:
        lines.append(f"  problem: {problem}")
    if not doc["requests"]:
        lines.append("")
        lines.append("no request spans: not a serve trace, or an empty run")
        return "\n".join(lines)

    lines.append("")
    lines.append(render_table(
        "RED by endpoint (rate/s, errors, duration in ops)",
        ["endpoint", "reqs", "rate/s", "ok", "degr", "shed", "err",
         "err%", "p50", "p99", "max"],
        [
            [
                endpoint,
                entry["requests"],
                f"{entry['rate_rps']:.1f}",
                entry["ok"],
                entry["degraded"],
                entry["shed"],
                entry["error"],
                f"{100.0 * entry['error_rate']:.1f}",
                entry["ops"]["p50"],
                entry["ops"]["p99"],
                entry["ops"]["max"],
            ]
            for endpoint, entry in doc["endpoints"].items()
        ],
    ))

    slo = doc["slo"]
    lines.append("")
    lines.append(
        f"SLO verdict: {slo['verdict']} "
        f"(spec from {doc['slo_source']}, "
        f"{slo['windows_evaluated']} windows of "
        f"{slo['spec']['window']}s)"
    )
    lines.append(render_table(
        "Objectives",
        ["objective", "kind", "target", "bad", "events", "budget used",
         "max burn", "verdict"],
        [
            [
                name,
                obj["kind"],
                obj["target"],
                obj["bad"],
                obj["events"],
                f"{100.0 * obj['budget_used']:.1f}%",
                f"{obj['max_burn_rate']:.2f}x",
                obj["verdict"],
            ]
            for name, obj in slo["objectives"].items()
        ],
    ))

    thresholds = {
        o["name"]: o.get("burn_threshold", 2.0)
        for o in slo["spec"]["objectives"]
    }
    if slo["windows"]:
        lines.append("")
        lines.append(
            "error-budget burn by window "
            f"(bar midpoint = burn threshold; '!' = burning)"
        )
        for window in slo["windows"]:
            for name, objective in window["objectives"].items():
                if not objective["events"]:
                    continue
                burn = objective["burn_rate"]
                threshold = thresholds.get(name, 2.0)
                marker = "!" if burn >= threshold else " "
                lines.append(
                    f"  [{window['start']:>7.2f}s] {name:<14} "
                    f"{_burn_bar(burn, threshold):<{BURN_BAR_WIDTH}} "
                    f"{burn:>6.2f}x{marker} "
                    f"({objective['bad']}/{objective['events']} bad)"
                )

    if doc["exemplars"]:
        lines.append("")
        lines.append(
            f"exemplars ({len(doc['exemplars'])} shown, slowest first; "
            "every shed/error plus the top-K slowest keep full trees)"
        )
        for tree in doc["exemplars"]:
            stale = " stale" if tree["stale"] else ""
            lines.append(
                f"  {tree['endpoint']:<16} {tree['outcome']:<8} "
                f"{tree['status']} {tree['ops']:>6} ops "
                f"at {tree['at']:.3f}s client={tree['client']}{stale}"
            )
            for rung in tree["rungs"]:
                detail = " ".join(
                    f"{k}={v}" for k, v in sorted(rung["attrs"].items())
                )
                lines.append(
                    f"    -> {rung['name']:<10} {rung['ops']:>6} ops"
                    + (f"  {detail}" if detail else "")
                )
    return "\n".join(lines)


__all__ = [
    "exemplar_trees",
    "red_tables",
    "render_serve_report",
    "request_spans",
    "resolve_spec",
    "serve_report_json",
    "trace_samples",
]
