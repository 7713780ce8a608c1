"""Tests for the paper-fidelity scoreboard (repro.obs.fidelity)."""

import json

import pytest

from repro.obs import fidelity as fid
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    fidelity_checks,
    run_experiment,
)


class TestVerdictAlgebra:
    def test_worst_ordering(self):
        assert fid.worst([]) == fid.PASS
        assert fid.worst([fid.PASS, fid.PASS]) == fid.PASS
        assert fid.worst([fid.PASS, fid.NEAR]) == fid.NEAR
        assert fid.worst([fid.NEAR, fid.DIVERGENT, fid.PASS]) == fid.DIVERGENT


class TestMeasuredValue:
    def test_portal_metric_lookup(self):
        data = {"SG": {"x": 1}, "CA": {"x": 2}, "summary": "text"}
        assert fid.measured_value(data, "x", "SG") == 1
        assert fid.measured_value(data, "x", "CA") == 2

    def test_missing_is_none_not_keyerror(self):
        assert fid.measured_value({}, "x", "SG") is None
        assert fid.measured_value({"SG": {}}, "x", "SG") is None
        assert fid.measured_value({"SG": "not a dict"}, "x", "SG") is None


class TestRankCheck:
    PAPER = {"m": {"SG": 10, "CA": 20, "UK": 30, "US": 40}}

    def _eval(self, data, **kw):
        return fid.evaluate_checks(
            [fid.rank("m", **kw)], self.PAPER, data
        )[0]

    def test_matching_order_passes(self):
        data = {c: {"m": v} for c, v in [("SG", 1), ("CA", 2), ("UK", 3), ("US", 4)]}
        assert self._eval(data).verdict == fid.PASS

    def test_one_inversion_is_near(self):
        data = {c: {"m": v} for c, v in [("SG", 2), ("CA", 1), ("UK", 3), ("US", 4)]}
        assert self._eval(data).verdict == fid.NEAR

    def test_many_inversions_diverge(self):
        data = {c: {"m": v} for c, v in [("SG", 4), ("CA", 3), ("UK", 2), ("US", 1)]}
        assert self._eval(data).verdict == fid.DIVERGENT

    def test_ends_min_only_checks_the_anchor(self):
        # SG stays lowest; the CA/UK/US shuffle is invisible to ends="min".
        data = {c: {"m": v} for c, v in [("SG", 1), ("CA", 9), ("UK", 3), ("US", 5)]}
        assert self._eval(data, ends="min").verdict == fid.PASS
        data["SG"]["m"] = 99
        assert self._eval(data, ends="min").verdict == fid.DIVERGENT

    def test_missing_portal_diverges(self):
        data = {"SG": {"m": 1}, "CA": {"m": 2}, "UK": {"m": 3}}
        result = self._eval(data)
        assert result.verdict == fid.DIVERGENT
        assert "missing" in result.detail


class TestRelativeAndAbsolute:
    def test_relative_tolerance_tiers(self):
        paper = {"r": {"SG": 100.0}}
        for measured, expected in [
            (110.0, fid.PASS),
            (130.0, fid.NEAR),
            (200.0, fid.DIVERGENT),
        ]:
            result = fid.evaluate_checks(
                [fid.relative("r")], paper, {"SG": {"r": measured}}
            )[0]
            assert result.verdict == expected, measured

    def test_relative_zero_paper_uses_abs_fallback(self):
        paper = {"r": {"SG": 0.0}}
        ok = fid.evaluate_checks(
            [fid.relative("r")], paper, {"SG": {"r": 0.01}}
        )[0]
        assert ok.verdict == fid.PASS
        bad = fid.evaluate_checks(
            [fid.relative("r")], paper, {"SG": {"r": 5.0}}
        )[0]
        assert bad.verdict == fid.DIVERGENT

    def test_absolute_tolerance_tiers(self):
        paper = {"f": {"SG": 0.5}}
        for measured, expected in [
            (0.53, fid.PASS),
            (0.65, fid.NEAR),
            (0.9, fid.DIVERGENT),
        ]:
            result = fid.evaluate_checks(
                [fid.absolute("f")], paper, {"SG": {"f": measured}}
            )[0]
            assert result.verdict == expected, measured


class TestBandCheck:
    def test_ratio_band_tiers(self):
        paper = {"n": {"SG": 1000}}
        for measured, expected in [
            (800, fid.PASS),       # ratio 0.8 in [0.5, 2]
            (300, fid.NEAR),       # 0.3 within near widening (0.5/3)
            (10, fid.DIVERGENT),   # 0.01 outside even the near band
        ]:
            result = fid.evaluate_checks(
                [fid.band("n", 0.5, 2.0)], paper, {"SG": {"n": measured}}
            )[0]
            assert result.verdict == expected, measured

    def test_scalar_paper_needs_measure(self):
        with pytest.raises(ValueError):
            fid.evaluate_checks([fid.band("n", 0.5, 2.0)], {"n": 10}, {})


class TestClaimAndOrder:
    def test_claim_recomputes_boolean(self):
        paper = {"holds": True}
        check = fid.claim("holds", lambda data: data["x"] > 0)
        assert fid.evaluate_checks([check], paper, {"x": 1})[0].verdict == fid.PASS
        assert (
            fid.evaluate_checks([check], paper, {"x": -1})[0].verdict
            == fid.DIVERGENT
        )

    def test_order_against_value_key(self):
        paper = {"size_order": ("SG", "CA", "US")}
        data = {"SG": {"b": 1}, "CA": {"b": 5}, "US": {"b": 9}}
        check = fid.order("size_order", value_key="b")
        assert fid.evaluate_checks([check], paper, data)[0].verdict == fid.PASS
        data["SG"]["b"] = 7  # one adjacent swap -> NEAR
        assert fid.evaluate_checks([check], paper, data)[0].verdict == fid.NEAR


class TestSpecIntegrity:
    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            fid.evaluate_checks([fid.relative("ghost")], {"real": 1}, {})

    def test_uncovered_metrics_lists_gaps(self):
        checks = [fid.relative("a")]
        assert fid.uncovered_metrics(checks, {"a": 1, "b": 2}) == ["b"]

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_every_paper_metric_is_covered(self, experiment_id):
        module = EXPERIMENTS[experiment_id]
        assert fid.uncovered_metrics(module.FIDELITY, module.PAPER) == []

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_specs_reference_only_paper_metrics(self, experiment_id):
        module = EXPERIMENTS[experiment_id]
        for check in module.FIDELITY:
            assert check.metric in module.PAPER

    def test_registry_rejects_unknown_experiment(self):
        with pytest.raises(KeyError):
            fidelity_checks("table99")


class TestScoreboardIntegration:
    """End-to-end over the shared session study (TEST_SCALE corpus)."""

    def test_every_experiment_gets_a_verdict(self, study):
        board = [
            fid.evaluate_experiment(
                run_experiment(experiment_id, study),
                fidelity_checks(experiment_id),
            )
            for experiment_id in experiment_ids()
        ]
        assert [row.experiment_id for row in board] == experiment_ids()
        for row in board:
            assert row.verdict in (fid.PASS, fid.NEAR, fid.DIVERGENT)
            assert row.checks, row.experiment_id

    def test_scoreboard_json_shape_and_determinism(self, study):
        def build():
            board = [
                fid.evaluate_experiment(
                    run_experiment(experiment_id, study),
                    fidelity_checks(experiment_id),
                )
                for experiment_id in experiment_ids()
            ]
            return fid.scoreboard_json(board, meta={"scale": 0.18, "seed": 3})

        doc_a, doc_b = build(), build()
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )
        assert doc_a["meta"] == {"scale": 0.18, "seed": 3}
        assert sum(doc_a["tally"].values()) == len(experiment_ids())
        assert doc_a["verdict"] == fid.worst(
            [row["verdict"] for row in doc_a["experiments"]]
        )

    def test_verdicts_reconcile_with_reporting_rows(self, study):
        """A scoreboard's measured values are reporting.py's values."""
        result = run_experiment("table01", study)
        row = fid.evaluate_experiment(
            result, fidelity_checks("table01")
        ).checks[0]
        paper = result.data["paper"]
        for code in paper[row.metric]:
            assert row.measured[code] == fid.measured_value(
                result.data, row.metric, code
            )

    def test_render_scoreboard_lists_every_experiment(self, study):
        board = [
            fid.evaluate_experiment(
                run_experiment(experiment_id, study),
                fidelity_checks(experiment_id),
            )
            for experiment_id in experiment_ids()
        ]
        text = fid.render_scoreboard(
            fid.scoreboard_json(board, meta={"seed": 3})
        )
        for experiment_id in experiment_ids():
            assert experiment_id in text
        assert "overall:" in text
