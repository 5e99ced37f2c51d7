"""Figure 9: time-multiplex isolation of two Groveler threads.

Paper (section 9.5): with dummy loads alternating across disks C and D
(which share a SCSI controller) and a dummy CPU load, MS Manners favours
the higher-priority C-drive thread; a load on C shifts execution to the
D-drive thread; a CPU load or loads on both drives suspend both threads.
"""

from __future__ import annotations

from repro.experiments.scenarios import thread_isolation_trial

from _util import full_run


def run_figure9():
    duration = 600.0 if full_run() else 300.0
    isolated = thread_isolation_trial(11, duration=duration)
    ablation = thread_isolation_trial(11, duration=duration / 2, isolation=False)
    return isolated, ablation


def test_fig9_thread_isolation(benchmark, report):
    isolated, ablation = benchmark.pedantic(run_figure9, rounds=1, iterations=1)
    duty = isolated.duty
    duration = isolated.duration
    phase = duration / 6.0
    labels = ["idle", "disk C load", "disk D load", "CPU load", "both disks", "idle again"]

    lines = [
        "Figure 9: Groveler thread duty by load phase",
        "=" * 60,
        f"{'phase':<14} {'grovelC duty':>13} {'grovelD duty':>13}",
    ]
    fractions = {}
    for i, label in enumerate(labels):
        lo, hi = i * phase + 10.0, (i + 1) * phase
        c = duty.duty_fraction(isolated.threads["grovelC"], lo, hi)
        d = duty.duty_fraction(isolated.threads["grovelD"], lo, hi)
        fractions[label] = (c, d)
        lines.append(f"{label:<14} {c:>13.2f} {d:>13.2f}")
    lines += [
        "",
        f"mutual execution overlap with isolation:    {isolated.mutual_overlap:6.1%}",
        f"mutual execution overlap without isolation:  {ablation.mutual_overlap:6.1%}",
        "paper: C-thread favoured when idle; load on C shifts execution to D;",
        "CPU or both-disk load suspends both; some perturbation from backoff",
        "and the shared SCSI controller.",
    ]
    report("fig9_thread_isolation", "\n".join(lines))

    c_idle, d_idle = fractions["idle"]
    assert c_idle > d_idle, "higher-priority C thread favoured on idle system"
    c_cload, d_cload = fractions["disk C load"]
    assert d_cload > c_cload, "load on C shifts execution to D"
    c_dload, d_dload = fractions["disk D load"]
    assert c_dload > d_dload, "load on D shifts execution back to C"
    c_cpu, d_cpu = fractions["CPU load"]
    assert c_cpu + d_cpu < 0.5, "CPU load suspends both threads"
    c_both, d_both = fractions["both disks"]
    assert c_both + d_both < 0.5, "both-disk load suspends both threads"
    assert isolated.mutual_overlap < 0.1
    assert ablation.mutual_overlap > 3 * isolated.mutual_overlap
