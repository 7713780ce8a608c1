"""Tests for rendering helpers and letter-value statistics."""

import pytest

from repro.report import (
    letter_values,
    mib,
    percent,
    render_bar_chart,
    render_letter_values,
    render_table,
)


class TestRenderTable:
    def test_structure(self):
        text = render_table("Title", ["k", "v"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert set(lines[1]) == {"="}
        assert "k" in lines[2] and "v" in lines[2]
        assert "bb" in text

    def test_note(self):
        text = render_table("T", ["a"], [], note="scaled corpus")
        assert "note: scaled corpus" in text

    def test_float_formatting(self):
        text = render_table("T", ["a"], [[0.123456]])
        assert "0.12" in text

    def test_alignment_survives_wide_cells(self):
        text = render_table("T", ["x", "y"], [["very-long-label", 1]])
        assert "very-long-label" in text


class TestBarChart:
    def test_bars_scale(self):
        text = render_bar_chart("G", ["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[2].count("#") == 5
        assert lines[3].count("#") == 10

    def test_zero_values(self):
        text = render_bar_chart("G", ["a"], [0.0])
        assert "#" not in text.splitlines()[2]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            render_bar_chart("G", ["a"], [1.0, 2.0])


class TestFormatters:
    def test_percent(self):
        assert percent(0.1372, 2) == "13.72%"
        assert percent(1.0, 0) == "100%"

    def test_mib(self):
        assert mib(1024 * 1024) == "1.00 MiB"


class TestLetterValues:
    def test_empty(self):
        summary = letter_values([])
        assert summary.count == 0
        assert summary.boxes == ()

    def test_median_and_fourths(self):
        values = list(range(1, 101))
        summary = letter_values(values)
        assert summary.median == pytest.approx(50.5)
        low, high = summary.fourths
        assert low == pytest.approx(25.75)
        assert high == pytest.approx(75.25)
        assert summary.minimum == 1 and summary.maximum == 100

    def test_boxes_nested(self):
        values = list(range(1000))
        summary = letter_values(values, max_letters=4)
        assert len(summary.boxes) == 4
        for outer, inner in zip(summary.boxes, summary.boxes[1:]):
            assert inner[1] <= outer[1]
            assert inner[2] >= outer[2]

    def test_small_sample_stops_early(self):
        summary = letter_values([1.0, 2.0, 3.0], max_letters=4)
        assert len(summary.boxes) == 0

    def test_render(self):
        summary = letter_values(list(range(100)))
        text = render_letter_values("XX", summary)
        assert text.startswith("XX: n=100")
        assert "F-box" in text


class TestLetterValueProperties:
    def test_letter_values_random_distributions(self):
        """Letter values must nest and bracket the median for any input."""
        import random

        from repro.report import letter_values

        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 500)
            values = [rng.lognormvariate(0, 2) for _ in range(n)]
            summary = letter_values(values)
            assert summary.minimum <= summary.median <= summary.maximum
            previous = (summary.minimum, summary.maximum)
            for _, low, high in reversed(summary.boxes):
                assert previous[0] <= low <= summary.median
                assert summary.median <= high <= previous[1]
                previous = (low, high)
