"""Declarative service-level objectives and the error-budget monitor.

An :class:`Objective` states what fraction of requests must be *good*
(``target``) under one of three lenses:

* ``availability`` — a request is bad when it terminated ``shed`` or
  ``error`` (the ISSUE formula: availability = 1 − (shed+error)/total);
* ``latency`` — a *served* request is bad when its deterministic op
  cost exceeds ``bound_ops`` (the "p99 in ops" objective: with
  ``target=0.99``, at most 1% of requests may cost more), optionally
  scoped to one canonical endpoint;
* ``staleness`` — a served request is bad when it was answered from
  the stale cache (``stale: true``).

The :class:`SloMonitor` consumes one :class:`RequestSample` per
terminated request, bucketed into fixed windows of the **simulated
clock** (``window`` seconds each, keyed by the time the service
disposed of the request).  Each completed window yields a burn-rate
record — ``bad_fraction / (1 − target)``, i.e. how many times faster
than sustainable the error budget is being spent — and the terminal
verdict folds the whole run:

* ``EXHAUSTED`` — the budget is gone: total bad fraction exceeds
  ``1 − target``;
* ``BURNING`` — the budget survives, but at least one window burned at
  ``burn_threshold``× the sustainable rate or worse;
* ``OK`` — neither.

Everything here is deterministic: no wall clock, no randomness, sorted
JSON.  Specs are declarative and round-trip through JSON so a run can
be re-judged against a different SLO after the fact
(``ogdp-repro serve-report TRACE --slo slo.json``).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from .quantiles import worst

#: Terminal verdicts, ordered from best to worst.
VERDICT_OK = "OK"
VERDICT_BURNING = "BURNING"
VERDICT_EXHAUSTED = "EXHAUSTED"
VERDICTS = (VERDICT_OK, VERDICT_BURNING, VERDICT_EXHAUSTED)

#: Objective kinds.
KIND_AVAILABILITY = "availability"
KIND_LATENCY = "latency"
KIND_STALENESS = "staleness"
KINDS = (KIND_AVAILABILITY, KIND_LATENCY, KIND_STALENESS)

#: Outcomes that consume availability budget.
_BAD_OUTCOMES = ("shed", "error")
#: Outcomes that represent a served answer (latency/staleness scope).
_SERVED_OUTCOMES = ("ok", "degraded")


@dataclasses.dataclass(frozen=True)
class RequestSample:
    """One terminated request, as the SLO engine sees it."""

    #: Simulated time at which the service disposed of the request.
    at: float
    #: Canonical endpoint name (never a raw path).
    endpoint: str
    #: Terminal outcome: ok / degraded / shed / error.
    outcome: str
    #: HTTP status code.
    status: int
    #: Deterministic op cost charged to the request.
    ops: int
    #: Whether the answer came from the stale cache.
    stale: bool = False


@dataclasses.dataclass(frozen=True)
class Objective:
    """One declarative objective: ``target`` fraction of requests good."""

    name: str
    kind: str
    #: Required good fraction in [0, 1).
    target: float
    #: Latency objectives: a served request costing more ops is bad.
    bound_ops: int | None = None
    #: Latency objectives: restrict to one canonical endpoint
    #: (None = every endpoint).
    endpoint: str | None = None
    #: A window burning at this multiple of the sustainable rate (or
    #: worse) makes the verdict BURNING even while budget remains.
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {KINDS})"
            )
        if not 0.0 <= self.target < 1.0:
            raise ValueError(
                f"objective {self.name!r}: target must be in [0, 1), "
                f"got {self.target}"
            )
        if self.kind == KIND_LATENCY and self.bound_ops is None:
            raise ValueError(
                f"objective {self.name!r}: latency objectives need bound_ops"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"objective {self.name!r}: burn_threshold must be > 0"
            )

    @property
    def budget(self) -> float:
        """The allowed bad fraction (the error budget)."""
        return 1.0 - self.target

    def classify(self, sample: RequestSample) -> bool | None:
        """True = bad, False = good, None = out of this objective's scope."""
        if self.kind == KIND_AVAILABILITY:
            return sample.outcome in _BAD_OUTCOMES
        if sample.outcome not in _SERVED_OUTCOMES:
            return None
        if self.kind == KIND_LATENCY:
            if self.endpoint is not None and sample.endpoint != self.endpoint:
                return None
            return sample.ops > self.bound_ops
        return sample.stale  # KIND_STALENESS

    def as_json(self) -> dict:
        doc = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "burn_threshold": self.burn_threshold,
        }
        if self.bound_ops is not None:
            doc["bound_ops"] = self.bound_ops
        if self.endpoint is not None:
            doc["endpoint"] = self.endpoint
        return doc


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """A named set of objectives plus the evaluation window."""

    objectives: tuple[Objective, ...]
    #: Window width in (simulated) seconds.
    window: float = 1.0
    #: Windows with fewer events than this never count as burning —
    #: a 3-request window at 2/3 bad is noise, not a budget fire.
    min_window_events: int = 1

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")
        if self.min_window_events < 1:
            raise ValueError(
                f"min_window_events must be >= 1, "
                f"got {self.min_window_events}"
            )
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")

    def as_json(self) -> dict:
        return {
            "window": self.window,
            "min_window_events": self.min_window_events,
            "objectives": [o.as_json() for o in self.objectives],
        }


def spec_from_json(doc: dict) -> SloSpec:
    """Parse a declarative spec document (the ``--slo slo.json`` shape).

    Raises ``ValueError`` for any document that is no valid spec.
    """
    try:
        objectives = tuple(
            Objective(
                name=str(raw["name"]),
                kind=str(raw["kind"]),
                target=float(raw["target"]),
                bound_ops=(
                    int(raw["bound_ops"])
                    if raw.get("bound_ops") is not None
                    else None
                ),
                endpoint=raw.get("endpoint"),
                burn_threshold=float(raw.get("burn_threshold", 2.0)),
            )
            for raw in doc.get("objectives", ())
        )
        window = float(doc.get("window", 1.0))
        min_window_events = int(doc.get("min_window_events", 1))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed SLO spec: {exc!r}") from exc
    if not objectives:
        raise ValueError("SLO spec declares no objectives")
    return SloSpec(
        objectives=objectives,
        window=window,
        min_window_events=min_window_events,
    )


def load_spec(path: str | pathlib.Path) -> SloSpec:
    """Read a spec from a JSON file."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    return spec_from_json(json.loads(text))


def default_slos() -> SloSpec:
    """Production-shaped defaults for a served lake (DESIGN.md §13).

    Calibrated against the production :class:`ServiceConfig` defaults
    (50k-op deadlines, generous admission): sheds should be rare, half
    the deadline should comfortably bound almost every request, and
    stale serving should be the exception.
    """
    return SloSpec(
        window=60.0,
        objectives=(
            Objective("availability", KIND_AVAILABILITY, target=0.995),
            Objective(
                "latency", KIND_LATENCY, target=0.99, bound_ops=25_000
            ),
            Objective("staleness", KIND_STALENESS, target=0.99),
        ),
    )


class _ObjectiveState:
    """Running tallies of one objective inside the monitor."""

    __slots__ = (
        "objective", "events", "bad", "window_events", "window_bad",
        "max_burn", "burning_windows",
    )

    def __init__(self, objective: Objective):
        self.objective = objective
        self.events = 0
        self.bad = 0
        self.window_events = 0
        self.window_bad = 0
        self.max_burn = 0.0
        self.burning_windows = 0

    def observe(self, bad: bool) -> None:
        self.events += 1
        self.window_events += 1
        if bad:
            self.bad += 1
            self.window_bad += 1

    def close_window(self, min_events: int = 1) -> dict:
        """Fold the current window into a burn record and reset it."""
        events, bad = self.window_events, self.window_bad
        fraction = bad / events if events else 0.0
        budget = self.objective.budget
        burn = round(fraction / budget, 6) if budget > 0 else 0.0
        if events >= min_events:
            self.max_burn = max(self.max_burn, burn)
            if burn >= self.objective.burn_threshold:
                self.burning_windows += 1
        self.window_events = self.window_bad = 0
        return {
            "events": events,
            "bad": bad,
            "bad_fraction": round(fraction, 6),
            "burn_rate": burn,
            "budget_used": self.budget_used,
        }

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.events if self.events else 0.0

    @property
    def budget_used(self) -> float:
        """Cumulative budget consumption: 1.0 = the budget is gone."""
        budget = self.objective.budget
        if budget <= 0 or self.events == 0:
            return 0.0
        return round(self.bad_fraction / budget, 6)

    @property
    def verdict(self) -> str:
        if self.events and self.bad_fraction > self.objective.budget:
            return VERDICT_EXHAUSTED
        if self.burning_windows > 0:
            return VERDICT_BURNING
        return VERDICT_OK

    def summary(self) -> dict:
        return {
            "kind": self.objective.kind,
            "target": self.objective.target,
            "events": self.events,
            "bad": self.bad,
            "bad_fraction": round(self.bad_fraction, 6),
            "budget_used": self.budget_used,
            "max_burn_rate": round(self.max_burn, 6),
            "burning_windows": self.burning_windows,
            "verdict": self.verdict,
        }


class SloMonitor:
    """Evaluates an :class:`SloSpec` over a stream of request samples.

    Samples must arrive in non-decreasing ``at`` order (both the
    service and the trace replay satisfy this).  Windows are fixed
    ``spec.window``-second intervals of the simulated clock; empty
    windows are skipped arithmetically, never iterated, so an idle
    service costs nothing.
    """

    def __init__(self, spec: SloSpec):
        self.spec = spec
        self._states = [
            _ObjectiveState(objective) for objective in spec.objectives
        ]
        self.windows: list[dict] = []
        self._window_index = 0
        self._open = False
        self._finalized = False

    def _window_end(self) -> float:
        return (self._window_index + 1) * self.spec.window

    def _close_window(self) -> None:
        record = {
            "window": self._window_index,
            "start": round(self._window_index * self.spec.window, 6),
            "end": round(self._window_end(), 6),
            "objectives": {
                state.objective.name: state.close_window(
                    self.spec.min_window_events
                )
                for state in self._states
            },
        }
        self.windows.append(record)
        self._open = False

    def observe(self, sample: RequestSample) -> None:
        """Fold one terminated request into the running evaluation."""
        if self._finalized:
            raise RuntimeError("observe() after finalize()")
        while self._open and sample.at >= self._window_end():
            self._close_window()
            self._window_index += 1
        if not self._open:
            # Jump straight to the sample's window: empty windows in
            # between produce no records and cost no iterations.
            self._window_index = max(
                self._window_index, int(sample.at // self.spec.window)
            )
            self._open = True
        for state in self._states:
            bad = state.objective.classify(sample)
            if bad is not None:
                state.observe(bad)

    def finalize(self) -> None:
        """Close the in-progress window; further observes are an error."""
        if self._open:
            self._close_window()
        self._finalized = True

    @property
    def verdict(self) -> str:
        """The worst objective verdict (OK < BURNING < EXHAUSTED)."""
        return worst((state.verdict for state in self._states), VERDICTS)

    def summary(self, *, recent_windows: int | None = None) -> dict:
        """The JSON document reports and ``/statz`` embed.

        ``recent_windows`` caps the burn-rate timeline (``/statz`` wants
        the tail, reports want everything).
        """
        windows = self.windows
        if recent_windows is not None:
            windows = windows[-recent_windows:]
        return {
            "spec": self.spec.as_json(),
            "verdict": self.verdict,
            "objectives": {
                state.objective.name: state.summary()
                for state in self._states
            },
            "windows": windows,
            "windows_evaluated": len(self.windows),
        }


def replay(spec: SloSpec, samples) -> SloMonitor:
    """Run a finalized monitor over pre-collected samples (trace replay)."""
    monitor = SloMonitor(spec)
    for sample in sorted(samples, key=lambda s: s.at):
        monitor.observe(sample)
    monitor.finalize()
    return monitor


__all__ = [
    "KINDS",
    "KIND_AVAILABILITY",
    "KIND_LATENCY",
    "KIND_STALENESS",
    "Objective",
    "RequestSample",
    "SloMonitor",
    "SloSpec",
    "VERDICTS",
    "VERDICT_BURNING",
    "VERDICT_EXHAUSTED",
    "VERDICT_OK",
    "default_slos",
    "load_spec",
    "replay",
    "spec_from_json",
]
