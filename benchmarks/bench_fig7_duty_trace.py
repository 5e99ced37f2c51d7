"""Figure 7: the defragmenter's execution duty during the database load.

Paper (section 9.4): the defragmenter runs freely until the database
workload starts at t = 30 s, then MS Manners suspends it for exponentially
increasing intervals; an execution probe just before the workload completes
leaves it suspended ~220 s longer than necessary (suspension overshoot);
afterwards it runs freely again.
"""

from __future__ import annotations

from repro.analysis.tables import format_series
from repro.apps.base import RegulationMode
from repro.experiments.scenarios import defrag_database_trial

from _util import bench_scale


def run_figure7():
    # One traced trial (trace objects are not JSON-safe, so it is never
    # cached).
    return defrag_database_trial(
        RegulationMode.MS_MANNERS, 4242, scale=bench_scale(), with_traces=True
    )


def test_fig7_defragmenter_duty(benchmark, report):
    result = benchmark.pedantic(run_figure7, rounds=1, iterations=1)
    duty = result.extras["duty"]
    thread = result.extras["defrag_thread"]
    hi_start, hi_end = result.extras["hi_window"]
    end = result.li_time if result.li_time else hi_end + 600.0
    series = duty.binned(thread, 0.0, end, 10.0)

    before = duty.duty_fraction(thread, 0.0, hi_start)
    during = duty.duty_fraction(thread, hi_start + 30.0, hi_end)
    after_window = min(hi_end + 300.0, end)
    after = duty.duty_fraction(thread, hi_end, after_window) if after_window > hi_end else 1.0

    # Suspension overshoot: executing resumes only some time after the
    # database completes (the last backoff interval runs out).
    resume_at = None
    for t, fraction in series:
        if t >= hi_end and fraction > 0.5:
            resume_at = t
            break
    overshoot = (resume_at - hi_end) if resume_at is not None else float("nan")

    lines = [
        format_series(
            "Figure 7: defragmenter duty (fraction executing per 10 s bin)",
            series,
            x_label="run time (s)",
            y_label="duty",
        ),
        "",
        f"database workload window:      {hi_start:7.1f} .. {hi_end:7.1f} s",
        f"duty before workload:          {before:7.2f}   (paper: ~1.0)",
        f"duty during workload:          {during:7.2f}   (paper: ~0, probes only)",
        f"duty after workload:           {after:7.2f}   (paper: ~1.0 after overshoot)",
        f"suspension overshoot:          {overshoot:7.1f} s (paper: ~220 s worst case,"
        " bounded by the 256 s suspension cap)",
    ]
    report("fig7_duty_trace", "\n".join(lines))

    assert before > 0.9, "defragmenter should run freely before the workload"
    assert during < 0.35, "defragmenter must defer during the workload"
    assert overshoot <= 260.0, "overshoot is bounded by the suspension cap"
