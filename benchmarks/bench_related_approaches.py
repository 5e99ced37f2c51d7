"""Section 2's prior approaches vs MS Manners, quantified.

The paper argues qualitatively why each earlier approach fails in a server
environment with continuously running applications and unpredictable
workloads.  This bench runs them all on the Figure-3 scenario — with the
database server resident for the whole run and two bulk loads arriving at
unpredictable times — and regenerates each claim as a number:

* *scheduled windows* protect the first (lucky) load but are caught by the
  second, and squander all the idle time before the window;
* the *screen-saver* rule sees no user input on a server, declares it
  idle, and lets the defragmenter fight the database;
* *process-queue scanning* starves the defragmenter forever, because the
  database process is always present whether or not it is busy;
* *MS Manners* protects both loads and still finishes the defragmentation
  promptly.
"""

from __future__ import annotations

from repro.experiments.related import STRATEGIES, related_strategy_trial

from _util import bench_scale


def run_related():
    scale = bench_scale()
    return {
        strategy: related_strategy_trial(strategy, 42, scale=scale)
        for strategy in STRATEGIES
    }


def test_related_approaches(benchmark, report):
    results = benchmark.pedantic(run_related, rounds=1, iterations=1)
    baseline = min(r.hi_time for r in results.values() if r.hi_time)

    lines = [
        "Section 2: prior approaches vs MS Manners (Figure-3 scenario,",
        "resident DB server + two unpredictable bulk loads)",
        "=" * 72,
        f"{'strategy':<14} {'load #1':>9} {'load #2':>9} {'defrag done':>12}",
    ]
    for name, r in results.items():
        hi2 = r.extras["hi2_time"]
        li = f"{r.li_time:10.1f}s" if r.li_finished else "     never"
        lines.append(
            f"{name:<14} {r.hi_time:>8.1f}s {hi2:>8.1f}s {li:>12}"
        )
    lines += [
        "",
        "paper section 2, regenerated:",
        "  scheduled:   misses unanticipated activity and wastes idle time",
        "  screensaver: 'not valid for a server, which is often busy but",
        "               rarely receives direct user input'",
        "  queue-scan:  'would never allow a low-importance process to run'",
        "  MS Manners:  regulates both loads, defragmentation completes",
    ]
    report("related_approaches", "\n".join(lines))

    unreg = results["unregulated"]
    sched = results["scheduled"]
    saver = results["screensaver"]
    queue = results["queue-scan"]
    manners = results["ms-manners"]

    assert unreg.hi_time > 1.5 * baseline
    # Scheduled: first load fine, second load (inside the window) degraded,
    # and the defragmenter finishes far later than under MS Manners.
    assert sched.hi_time < 1.2 * baseline
    assert sched.extras["hi2_time"] > 1.5 * baseline
    assert sched.li_time > 2.0 * manners.li_time
    # Screen saver: behaves like (most of) an unregulated run on a server.
    assert saver.hi_time > 1.5 * baseline
    # Queue scan: perfect protection, total starvation.
    assert queue.hi_time < 1.2 * baseline
    assert not queue.li_finished
    # MS Manners: both loads near baseline, defragmentation completes.
    assert manners.hi_time < 1.25 * baseline
    assert manners.extras["hi2_time"] < 1.25 * baseline
    assert manners.li_finished
