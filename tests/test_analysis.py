"""Box-plot statistics, tables, and the trial harness."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.runner import aggregate, trial_count
from repro.analysis.stats import box_stats, median, quartiles
from repro.analysis.tables import format_box_table, format_ratio_line, format_series


class TestMedianQuartiles:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_quartiles_tukey(self):
        lo, hi = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9])
        assert lo == 2.5
        assert hi == 7.5

    def test_quartiles_single_value(self):
        assert quartiles([5.0]) == (5.0, 5.0)


class TestBoxStats:
    def test_paper_definition(self):
        """Whiskers at extreme data within quartile +/- 1.5 * box height."""
        data = [10, 11, 12, 13, 14, 15, 16, 17, 18, 40]
        stats = box_stats(data)
        assert stats.median == 14.5
        height = stats.box_height
        assert stats.whisker_high <= stats.upper_quartile + 1.5 * height
        assert 40 in stats.outliers

    def test_no_outliers_for_tight_data(self):
        stats = box_stats([10.0, 10.1, 10.2, 10.3, 10.4])
        assert stats.outliers == ()
        assert stats.whisker_low == 10.0
        assert stats.whisker_high == 10.4

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            box_stats([1.0, float("nan")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_invariants(self, data):
        stats = box_stats(data)
        assert stats.lower_quartile <= stats.median <= stats.upper_quartile
        assert stats.whisker_low <= stats.lower_quartile + 1e-9
        assert stats.whisker_high >= stats.upper_quartile - 1e-9
        assert stats.count == len(data)
        # Outliers plus whisker range cover every datum.
        for v in data:
            assert (
                stats.whisker_low - 1e-9 <= v <= stats.whisker_high + 1e-9
                or v in stats.outliers
            )


class TestTables:
    def test_box_table_renders_all_rows(self):
        rows = {
            "not running": box_stats([300.0, 301.0, 299.0]),
            "unregulated": box_stats([570.0, 575.0, 565.0]),
        }
        text = format_box_table("Figure 3", rows, baseline="not running")
        assert "Figure 3" in text
        assert "not running" in text
        assert "unregulated" in text
        assert "1.90x" in text  # relative median column

    def test_series_downsamples(self):
        series = [(float(i), float(i) * 2) for i in range(1000)]
        text = format_series("trace", series, max_points=10)
        assert "every" in text

    def test_empty_series(self):
        assert "(empty series)" in format_series("x", [])

    def test_ratio_line(self):
        line = format_ratio_line("db run time", 280.0, 300.0, unit="s")
        assert "0.93" in line


class TestRunner:
    def test_trial_count_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "7")
        assert trial_count() == 7

    def test_trial_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert trial_count(default=3) == 3

    def test_trial_count_rejects_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "0")
        with pytest.raises(ValueError):
            trial_count()

    def test_aggregate(self):
        stats = aggregate({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
        assert stats["a"].median == 2.0
        assert stats["b"].median == 5.0


class TestAsciiPlot:
    def test_sparkline_shape(self):
        from repro.analysis.ascii_plot import sparkline

        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] != line[-1]

    def test_sparkline_constant_series(self):
        from repro.analysis.ascii_plot import sparkline

        assert sparkline([2.0, 2.0]) == "██"

    def test_sparkline_empty(self):
        from repro.analysis.ascii_plot import sparkline

        assert sparkline([]) == ""

    def test_timeseries_plot_renders(self):
        from repro.analysis.ascii_plot import timeseries_plot

        series = [(float(i), float(i % 7)) for i in range(200)]
        text = timeseries_plot(series, width=40, height=8, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 1 + 8 + 2  # title + rows + axis + labels
        assert "•" in text

    def test_timeseries_plot_empty(self):
        from repro.analysis.ascii_plot import timeseries_plot

        assert "(empty series)" in timeseries_plot([], title="x")

    def test_timeseries_plot_validates_size(self):
        from repro.analysis.ascii_plot import timeseries_plot

        with pytest.raises(ValueError):
            timeseries_plot([(0.0, 1.0)], width=4, height=2)
