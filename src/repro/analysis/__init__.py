"""Experiment post-processing: box-plot statistics, tables, trial harness."""

from repro.analysis.ascii_plot import sparkline, timeseries_plot
from repro.analysis.parallel import (
    ParallelRunner,
    TrialCache,
    TrialEnvelope,
    code_fingerprint,
    config_fingerprint,
    resolve_jobs,
)
from repro.analysis.runner import aggregate, trial_count
from repro.analysis.stats import BoxStats, box_stats, median, quartiles
from repro.analysis.tables import format_box_table, format_ratio_line, format_series

__all__ = [
    "BoxStats",
    "ParallelRunner",
    "TrialCache",
    "TrialEnvelope",
    "aggregate",
    "box_stats",
    "code_fingerprint",
    "config_fingerprint",
    "format_box_table",
    "format_ratio_line",
    "format_series",
    "median",
    "quartiles",
    "resolve_jobs",
    "sparkline",
    "timeseries_plot",
    "trial_count",
]
