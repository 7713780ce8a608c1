"""Paper-fidelity scoreboard (``ogdp-repro fidelity``).

Every experiment module embeds the paper's headline values in a
``PAPER`` dict; EXPERIMENTS.md renders them next to the measured values
but nothing machine-checks the comparison.  This module closes that
loop: each experiment declares a ``FIDELITY`` tuple of typed checks
over its own ``PAPER`` metrics, and the scoreboard evaluates them
against a live run's :class:`~repro.core.results.ExperimentResult`
data — the same dicts :mod:`repro.experiments.reporting` prints, so a
scoreboard verdict always reconciles with the EXPERIMENTS.md row it
annotates.

Check taxonomy (DESIGN.md §9):

* **rank** — the *ordering* of a per-portal metric must match the
  paper's (scale-free; the reproduction target for anything whose
  absolute value depends on corpus size).
* **relative** — the measured value must sit within a relative
  tolerance of the paper's (ratios, fractions, percentages).  Paper
  values of zero fall back to an absolute tolerance.
* **absolute** — the measured value must sit within an absolute
  tolerance of the paper's (metrics already on a [0, 1] scale, where
  relative error on a small fraction is meaningless).
* **band** — the measured/paper ratio must land inside an explicit
  band (scale-dependent counts: at 1/100 corpus scale a count is
  *expected* to be a small, stable fraction of the paper's).
* **claim** — a boolean finding recomputed from measured data must
  match the paper's claim.
* **order** — the paper states an explicit portal ordering (a tuple of
  codes); the measured scalars must sort the same way.

Verdicts are three-valued: ``PASS`` (inside the calibrated tolerance),
``NEAR`` (outside it but inside the documented-deviation envelope —
see EXPERIMENTS.md "Known deviations"), ``DIVERGENT`` (outside both).
An experiment's verdict is the worst of its checks'.  Nothing here
reads a clock: equal-seed runs produce byte-identical scoreboards.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Mapping, Sequence

from . import quantiles

DIVERGENT = "DIVERGENT"
NEAR = "NEAR"
PASS = "PASS"
#: Verdict strings, best first.
VERDICTS = (PASS, NEAR, DIVERGENT)

#: ``worst(verdicts)``: the worst of *verdicts* (PASS when empty).
worst = functools.partial(quantiles.worst, scale=VERDICTS)


@dataclasses.dataclass(frozen=True)
class Check:
    """One typed fidelity check over a single ``PAPER`` metric.

    The expected side is *always* read from the experiment's ``PAPER``
    dict at evaluation time — specs carry tolerances and extraction
    hints only, never paper constants.
    """

    metric: str
    kind: str
    #: relative check: PASS within ``pass_rel``, NEAR within ``near_rel``.
    pass_rel: float = 0.15
    near_rel: float = 0.40
    #: relative check fallback when the paper value is zero.
    abs_tol: float = 0.05
    #: absolute check: PASS within ``pass_abs``, NEAR within ``near_abs``.
    pass_abs: float = 0.05
    near_abs: float = 0.20
    #: band check: measured/paper ratio must land in [lo, hi] for PASS;
    #: NEAR widens the band by ``near_factor`` on both ends.
    lo: float = 0.5
    hi: float = 2.0
    near_factor: float = 3.0
    #: rank check: inverted portal pairs tolerated as NEAR.
    near_inversions: int = 1
    #: rank check: "both" compares every portal pair; "min"/"max"
    #: restrict to pairs involving the paper's extreme portal (the
    #: shape-critical "X lowest/highest" orderings).
    ends: str = "both"
    #: order check: per-portal key of ``data[code]`` holding the scalar
    #: whose ordering the paper states.
    value_key: str | None = None
    #: claim check: recomputes the measured boolean from result data.
    measure: Callable[[Mapping], object] | None = None
    #: Human rationale shown on NEAR/DIVERGENT (documented deviations).
    note: str = ""


def rank(metric: str, **kw) -> Check:
    """Cross-portal rank-order check on a per-portal metric."""
    return Check(metric, "rank", **kw)


def relative(metric: str, **kw) -> Check:
    """Relative-tolerance check on a ratio/percentage metric."""
    return Check(metric, "relative", **kw)


def absolute(metric: str, **kw) -> Check:
    """Absolute-tolerance check on a [0, 1]-scale metric."""
    return Check(metric, "absolute", **kw)


def band(metric: str, lo: float, hi: float, **kw) -> Check:
    """Measured/paper ratio band check on a scale-dependent count."""
    return Check(metric, "band", lo=lo, hi=hi, **kw)


def claim(metric: str, measure: Callable[[Mapping], object], **kw) -> Check:
    """Boolean-claim check recomputing the finding from measured data."""
    return Check(metric, "claim", measure=measure, **kw)


def order(metric: str, value_key: str, **kw) -> Check:
    """Explicit portal-ordering check (paper value is a code tuple)."""
    return Check(metric, "order", value_key=value_key, **kw)


@dataclasses.dataclass
class CheckResult:
    """The outcome of evaluating one :class:`Check`."""

    metric: str
    kind: str
    verdict: str
    expected: object
    measured: object
    detail: str
    note: str = ""

    def as_json(self) -> dict:
        doc = {
            "metric": self.metric,
            "kind": self.kind,
            "verdict": self.verdict,
            "expected": _jsonable(self.expected),
            "measured": _jsonable(self.measured),
            "detail": self.detail,
        }
        if self.note:
            doc["note"] = self.note
        return doc


@dataclasses.dataclass
class ExperimentFidelity:
    """One experiment's scoreboard row: the worst of its checks."""

    experiment_id: str
    title: str
    checks: list[CheckResult]

    @property
    def verdict(self) -> str:
        return worst([c.verdict for c in self.checks])

    def as_json(self) -> dict:
        return {
            "experiment": self.experiment_id,
            "title": self.title,
            "verdict": self.verdict,
            "checks": [c.as_json() for c in self.checks],
        }


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def measured_value(data: Mapping, metric: str, code: str):
    """The measured counterpart of ``PAPER[metric][code]``.

    This is the exact lookup :mod:`repro.experiments.reporting` uses
    for its paper-vs-measured rows, factored out so scoreboard
    verdicts and EXPERIMENTS.md cells can never disagree.
    """
    got = data.get(code, {})
    return got.get(metric) if isinstance(got, Mapping) else None


def _per_portal(data: Mapping, check: Check, expected: Mapping) -> dict:
    """Measured values for every portal the paper states a value for."""
    if check.measure is not None:
        measured = check.measure(data)
        if not isinstance(measured, Mapping):
            raise TypeError(
                f"check {check.metric!r}: measure must return a mapping "
                f"for per-portal paper values, got {type(measured).__name__}"
            )
        return {code: measured.get(code) for code in expected}
    return {code: measured_value(data, check.metric, code) for code in expected}


def _missing(expected, measured) -> tuple:
    detail = "measured value missing from result data"
    return DIVERGENT, expected, measured, detail


def _grade(error: float, pass_at: float, near_at: float) -> str:
    """PASS within *pass_at*, NEAR within *near_at*, else DIVERGENT."""
    if error <= pass_at:
        return PASS
    return NEAR if error <= near_at else DIVERGENT


# Each evaluator returns ``(verdict, expected, measured, detail)``.
def _eval_rank(check: Check, expected: Mapping, data: Mapping) -> tuple:
    measured = _per_portal(data, check, expected)
    if any(v is None for v in measured.values()):
        return _missing(dict(expected), measured)
    codes = list(expected)
    anchor = None
    if check.ends == "min":
        anchor = min(codes, key=lambda c: expected[c])
    elif check.ends == "max":
        anchor = max(codes, key=lambda c: expected[c])
    inversions = 0
    comparable = 0
    for i, a in enumerate(codes):
        for b in codes[i + 1:]:
            if anchor is not None and anchor not in (a, b):
                continue
            paper_delta = expected[a] - expected[b]
            if paper_delta == 0:
                continue  # the paper itself ties these portals
            comparable += 1
            measured_delta = measured[a] - measured[b]
            if paper_delta * measured_delta < 0:
                inversions += 1
    return (
        _grade(inversions, 0, check.near_inversions),
        dict(expected),
        measured,
        f"{inversions}/{comparable} portal pairs ordered against the paper",
    )


def _paper_pairs(check: Check, expected, data: Mapping):
    """``(code, paper, measured)`` triples plus the raw measured value.

    A per-portal paper dict pairs portal-wise; a scalar paper value
    pairs against whatever the check's ``measure`` extractor returns
    (each portal of a mapping, or a single scalar).
    """
    if isinstance(expected, Mapping):
        measured = _per_portal(data, check, expected)
        return [(code, expected[code], measured[code]) for code in expected], measured
    if check.measure is None:
        raise ValueError(
            f"check {check.metric!r}: scalar paper value needs an "
            "explicit measure extractor"
        )
    measured = check.measure(data)
    if isinstance(measured, Mapping):
        return [
            (code, expected, value) for code, value in measured.items()
        ], measured
    return [("*", expected, measured)], measured


def _eval_error(check: Check, expected, data: Mapping) -> tuple:
    """A relative or absolute check: the worst portal's error, graded."""
    pairs, measured = _paper_pairs(check, expected, data)
    if not pairs or any(value is None for _, _, value in pairs):
        return _missing(_jsonable(expected), _jsonable(measured))
    relative = check.kind == "relative"
    worst_err, worst_at = 0.0, "-"
    for code, paper, value in pairs:
        if not relative:
            err = abs(value - paper)
        elif paper == 0:
            err = (
                0.0
                if abs(value) <= check.abs_tol
                else check.near_rel + abs(value)
            )
        else:
            err = abs(value - paper) / abs(paper)
        if err >= worst_err:
            worst_err, worst_at = err, code
    if relative:
        bounds = (check.pass_rel, check.near_rel)
        error = f"max relative error {worst_err:.3f}"
    else:
        bounds = (check.pass_abs, check.near_abs)
        error = f"max absolute error {worst_err:.4f}"
    return (
        _grade(worst_err, *bounds),
        _jsonable(expected),
        _jsonable(measured),
        f"{error} at {worst_at} (pass<={bounds[0]:g}, near<={bounds[1]:g})",
    )


def _eval_band(check: Check, expected, data: Mapping) -> tuple:
    pairs, measured = _paper_pairs(check, expected, data)
    if not pairs or any(value is None for _, _, value in pairs):
        return _missing(_jsonable(expected), _jsonable(measured))
    verdicts = []
    ratios = {}
    for code, paper, value in pairs:
        ratio = value / paper if paper else float("inf")
        ratios[code] = round(ratio, 4)
        if check.lo <= ratio <= check.hi:
            verdicts.append(PASS)
        elif (
            check.lo / check.near_factor
            <= ratio
            <= check.hi * check.near_factor
        ):
            verdicts.append(NEAR)
        else:
            verdicts.append(DIVERGENT)
    return (
        worst(verdicts),
        _jsonable(expected),
        _jsonable(measured),
        f"measured/paper ratios {ratios} vs band [{check.lo:g}, {check.hi:g}]",
    )


def _eval_claim(check: Check, expected, data: Mapping) -> tuple:
    if check.measure is None:
        raise ValueError(f"claim check {check.metric!r} needs a measure")
    measured = bool(check.measure(data))
    holds = measured == bool(expected)
    return (
        PASS if holds else DIVERGENT,
        bool(expected),
        measured,
        "claim holds on measured data" if holds else "claim fails",
    )


def _eval_order(check: Check, expected, data: Mapping) -> tuple:
    codes = list(expected)
    if check.value_key is None:
        raise ValueError(f"order check {check.metric!r} needs value_key")
    measured = {
        code: measured_value(data, check.value_key, code) for code in codes
    }
    if any(v is None for v in measured.values()):
        return _missing(codes, measured)
    got = sorted(codes, key=lambda c: measured[c])
    if got == codes:
        return PASS, codes, measured, "measured ordering matches the paper"
    swaps = sum(1 for a, b in zip(got, codes) if a != b) // 2
    return (
        NEAR if swaps <= 1 else DIVERGENT,
        codes,
        measured,
        f"measured ordering {got} vs paper {codes}",
    )


_EVALUATORS = {
    "rank": _eval_rank,
    "relative": _eval_error,
    "absolute": _eval_error,
    "band": _eval_band,
    "claim": _eval_claim,
    "order": _eval_order,
}


def evaluate_checks(
    checks: Sequence[Check], paper: Mapping, data: Mapping
) -> list[CheckResult]:
    """Evaluate *checks* of one experiment against its result data."""
    results: list[CheckResult] = []
    for check in checks:
        if check.metric not in paper:
            raise KeyError(
                f"check references unknown PAPER metric {check.metric!r}"
            )
        expected = paper[check.metric]
        if check.kind == "rank" and not isinstance(expected, Mapping):
            raise TypeError(
                f"rank check {check.metric!r} needs a per-portal dict"
            )
        verdict, expected, measured, detail = _EVALUATORS[check.kind](
            check, expected, data
        )
        results.append(CheckResult(
            check.metric, check.kind, verdict, expected, measured, detail,
            check.note,
        ))
    return results


def uncovered_metrics(checks: Sequence[Check], paper: Mapping) -> list[str]:
    """PAPER metrics no check covers (the coverage test wants [])."""
    covered = {check.metric for check in checks}
    return sorted(set(paper) - covered)


def evaluate_experiment(result, checks: Sequence[Check]) -> ExperimentFidelity:
    """Scoreboard row for one :class:`ExperimentResult`."""
    paper = result.data.get("paper", {})
    return ExperimentFidelity(
        experiment_id=result.experiment_id,
        title=result.title,
        checks=evaluate_checks(checks, paper, result.data),
    )


def scoreboard_json(board: Sequence[ExperimentFidelity], *, meta: dict) -> dict:
    """The machine-readable ``fidelity --json`` document."""
    tally = {PASS: 0, NEAR: 0, DIVERGENT: 0}
    for row in board:
        tally[row.verdict] += 1
    return {
        "meta": dict(meta),
        "verdict": worst([row.verdict for row in board]),
        "tally": {k.lower(): v for k, v in tally.items()},
        "experiments": [row.as_json() for row in board],
    }


def render_scoreboard(doc: dict) -> str:
    """The scoreboard document (:func:`scoreboard_json`) as text: the
    table plus per-check annotations."""
    from ..report.render import render_table

    rows = [
        [
            row["experiment"],
            row["verdict"],
            ", ".join(
                f"{check['metric']}:{check['verdict']}"
                for check in row["checks"]
            ),
        ]
        for row in doc["experiments"]
    ]
    header_meta = " ".join(f"{k}={v}" for k, v in sorted(doc["meta"].items()))
    lines = [
        render_table(
            f"Fidelity scoreboard ({header_meta})",
            ["experiment", "verdict", "checks"],
            rows,
        )
    ]
    notes = [
        f"  {row['experiment']}.{check['metric']}: {check['verdict']} — "
        f"{check['detail']}"
        + (f" ({check['note']})" if "note" in check else "")
        for row in doc["experiments"]
        for check in row["checks"]
        if check["verdict"] != PASS
    ]
    if notes:
        lines.append("")
        lines.append("non-PASS checks:")
        lines.extend(notes)
    lines.append("")
    lines.append(f"overall: {doc['verdict']}")
    return "\n".join(lines)
