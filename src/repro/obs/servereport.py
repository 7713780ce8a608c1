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

from .quantiles import rank_summary
from .slo import (
    RequestSample,
    SloSpec,
    default_slos,
    load_spec,
    replay,
    spec_from_json,
)
from .trace import TraceData, render_trace_head, span_attr

#: Width of the burn-rate bars in the text timeline.
BURN_BAR_WIDTH = 20


def request_spans(trace: TraceData) -> list[dict]:
    """The per-request spans of a serve trace, in arrival order."""
    spans = [s for s in trace.spans if s["kind"] == "request"]
    spans.sort(key=lambda s: span_attr(s, "at"))
    return spans


def trace_samples(spans: list[dict]) -> list[RequestSample]:
    """Request spans as SLO samples (the replay input)."""
    return [
        RequestSample(
            at=float(span_attr(span, "at")),
            endpoint=span_attr(span, "endpoint"),
            outcome=span_attr(span, "outcome"),
            status=span_attr(span, "status"),
            ops=span["ops"],
            stale=span_attr(span, "stale"),
        )
        for span in spans
    ]


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
    duration = max((span_attr(s, "at") for s in spans), default=0.0)
    per_endpoint: dict[str, dict] = {}
    ops: dict[str, list[int]] = {}
    for span in spans:
        endpoint = span_attr(span, "endpoint")
        entry = per_endpoint.setdefault(endpoint, {
            "requests": 0,
            "ok": 0, "degraded": 0, "shed": 0, "error": 0,
        })
        entry["requests"] += 1
        outcome = span_attr(span, "outcome")
        if outcome in entry:
            entry[outcome] += 1
        ops.setdefault(endpoint, []).append(span["ops"])
    for endpoint, entry in per_endpoint.items():
        errors = entry["shed"] + entry["error"]
        entry["errors"] = errors
        entry["error_rate"] = round(errors / entry["requests"], 6)
        entry["rate_rps"] = (
            round(entry["requests"] / duration, 6) if duration else 0.0
        )
        entry["ops"] = rank_summary(ops[endpoint])
    return dict(sorted(per_endpoint.items()))


def exemplar_trees(trace: TraceData, top: int = 10) -> list[dict]:
    """The sampled full span trees, slowest first, capped at *top*."""
    rungs: dict[int, list[dict]] = {}
    for span in trace.spans:
        if span["parent"] is not None:
            rungs.setdefault(span["parent"], []).append(span)
    trees = [
        {
            "endpoint": span_attr(span, "endpoint"),
            "client": span_attr(span, "client"),
            "outcome": span_attr(span, "outcome"),
            "status": span_attr(span, "status"),
            "ops": span["ops"],
            "at": span_attr(span, "at"),
            "stale": span_attr(span, "stale"),
            # Rungs open in ladder order, the order they were written.
            "rungs": [
                {"name": rung["name"], "ops": rung["ops"],
                 "attrs": dict(rung["attrs"])}
                for rung in rungs.get(span["id"], [])
            ],
        }
        for span in request_spans(trace)
        if span_attr(span, "exemplar")
    ]
    trees.sort(key=lambda t: (-t["ops"], t["at"]))
    return trees[:top]


def serve_report_json(
    trace: TraceData,
    resolved: tuple[SloSpec, str] | None = None,
    *,
    top: int = 10,
) -> dict:
    """The ``serve-report`` document.

    *resolved* is the ``(spec, source)`` pair of :func:`resolve_spec`;
    without it the trace is judged by its own recorded spec.
    """
    spec, source = resolved or resolve_spec(trace)
    spans = request_spans(trace)
    return {
        **trace.identity(),
        "requests": len(spans),
        "request_ops": sum(s["ops"] for s in spans),
        "endpoints": red_tables(spans),
        "slo_source": source,
        "slo": replay(spec, trace_samples(spans)).summary(),
        "exemplars": exemplar_trees(trace, top),
    }


def _burn_bar(burn: float, threshold: float) -> str:
    """A bar scaled so the burn threshold sits at half width."""
    scale = BURN_BAR_WIDTH / (2.0 * threshold) if threshold else 0.0
    length = min(BURN_BAR_WIDTH, round(burn * scale))
    return "#" * length


def render_serve_report(doc: dict) -> str:
    """The serving report document (:func:`serve_report_json`) as text."""
    from ..report.render import render_table

    lines = render_trace_head(
        doc,
        "serve trace",
        f"{doc['requests']} requests, {doc['request_ops']} ops",
        ("mix", "seed", "clients", "ops_rate"),
    )
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
        o["name"]: o["burn_threshold"] for o in slo["spec"]["objectives"]
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
                threshold = thresholds[name]
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
