"""Tests for text table/histogram rendering."""

from repro.evaluation.report import HISTOGRAM_WIDTH, format_histogram, format_table


class TestTable:
    def test_headers_and_rows_aligned(self):
        out = format_table(["name", "count"], [["alpha", 1], ["b", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_title_prepended(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_numeric_columns_right_aligned(self):
        out = format_table(["metric", "value"], [["a", 5], ["bb", 123]])
        rows = out.splitlines()[2:]
        assert rows[0].endswith("  5".rjust(5)) or rows[0].rstrip().endswith("5")
        assert rows[1].rstrip().endswith("123")

    def test_floats_formatted(self):
        out = format_table(["v"], [[0.123456789]])
        assert "0.1235" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out


class TestHistogram:
    def test_bars_scale_to_peak(self):
        out = format_histogram([("low", 1), ("high", 10)])
        lines = out.splitlines()
        assert lines[0].count("#") == HISTOGRAM_WIDTH // 10
        assert lines[1].count("#") == HISTOGRAM_WIDTH

    def test_counts_shown(self):
        out = format_histogram([("a", 3)])
        assert "3" in out

    def test_zero_counts_handled(self):
        out = format_histogram([("a", 0), ("b", 0)])
        assert "#" not in out

    def test_title(self):
        out = format_histogram([("a", 1)], title="Hist")
        assert out.splitlines()[0] == "Hist"

    def test_labels_right_justified(self):
        out = format_histogram([("long-label", 1), ("x", 2)])
        lines = out.splitlines()
        assert lines[1].startswith("         x")
