"""Figure 8: the defragmenter's normalized progress rate over time.

Paper (section 9.4): during the periods when the defragmenter is
progressing at or above its target rate, *many individual measurements
still fall below target* — noise that would make a per-sample comparator
"overreactive and highly erratic".  The statistical comparator ignores
below-target measurements when they are balanced by above-target ones.
"""

from __future__ import annotations

from repro.analysis.tables import format_series
from repro.apps.base import RegulationMode
from repro.experiments.scenarios import defrag_database_trial

from _util import bench_scale


def run_figure8():
    return defrag_database_trial(
        RegulationMode.MS_MANNERS, 4242, scale=bench_scale(), with_traces=True
    )


def test_fig8_progress_rate(benchmark, report):
    result = benchmark.pedantic(run_figure8, rounds=1, iterations=1)
    trace = result.extras["testpoints"]
    hi_start, hi_end = result.extras["hi_window"]
    end = result.li_time if result.li_time else hi_end + 600.0

    # The paper's y-axis: normalized target duration over 2 s windows
    # (> 1 means progressing above the target rate).
    series = trace.normalized_progress(0.0, end, window=2.0)

    # Per-sample noise in the healthy region after the workload completes.
    healthy = [
        r
        for r in trace.records
        if r.when > hi_end + 100.0 and r.target_duration is not None and r.duration > 0
    ]
    below = sum(1 for r in healthy if r.duration > r.target_duration)
    below_fraction = below / len(healthy) if healthy else float("nan")

    lines = [
        format_series(
            "Figure 8: normalized progress (target/measured duration, 2 s windows)",
            series,
            x_label="run time (s)",
            y_label="normalized",
        ),
        "",
        f"healthy-period samples below target: {below_fraction:6.1%} "
        "(paper: 'many of these individual progress rate measurements fall"
        " below the target rate')",
        "A per-sample comparator would suspend on every one of those;"
        " the sign test ignores them while they stay balanced.",
    ]
    report("fig8_progress_trace", "\n".join(lines))

    assert healthy, "expected healthy-period samples after the workload"
    # Substantial per-sample noise exists...
    assert below_fraction > 0.10
    # ...yet the healthy windows aggregate to at-or-above target.
    healthy_windows = [v for t, v in series if t > hi_end + 100.0]
    if healthy_windows:
        median = sorted(healthy_windows)[len(healthy_windows) // 2]
        assert median > 0.85
