"""The perf gate: compare_reports semantics and ``repro exp run --gate``.

The gate (docs/performance.md) fails only on drift in the *bad* direction
beyond the tolerance — events/sec down, or wall time up when the two runs
did identical work.  Improvements must never fail, and wall time must not
be compared across runs of different sizing.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments.spec import compare_reports


def _report(**overrides) -> dict:
    base = {
        "name": "defrag_idle",
        "trials": 4,
        "jobs": 1,
        "wall_time_s": 2.0,
        "events_per_sec": 100_000,
    }
    base.update(overrides)
    return base


class TestCompareReports:
    def test_identical_reports_pass(self):
        assert compare_reports(_report(), _report()) == []

    def test_drop_within_tolerance_passes(self):
        fresh = _report(events_per_sec=85_000)  # -15% < 20%
        assert compare_reports(_report(), fresh) == []

    def test_drop_beyond_tolerance_fails(self):
        fresh = _report(events_per_sec=70_000)  # -30%
        failures = compare_reports(_report(), fresh)
        assert len(failures) == 1
        assert "events/sec regressed" in failures[0]
        assert "defrag_idle" in failures[0]

    def test_improvement_never_fails(self):
        fresh = _report(events_per_sec=1_000_000, wall_time_s=0.1)
        assert compare_reports(_report(), fresh) == []

    def test_tolerance_is_configurable(self):
        fresh = _report(events_per_sec=85_000)
        assert compare_reports(_report(), fresh, tolerance=0.10)  # -15% > 10%

    def test_wall_time_rise_fails_when_same_work(self):
        fresh = _report(wall_time_s=3.0)  # +50%
        failures = compare_reports(_report(), fresh)
        assert len(failures) == 1
        assert "wall time regressed" in failures[0]

    def test_wall_time_ignored_across_different_sizing(self):
        # A bigger run is slower for a good reason; only events/sec gates.
        fresh = _report(trials=8, wall_time_s=4.0, events_per_sec=100_000)
        assert compare_reports(_report(), fresh) == []

    def test_missing_metrics_are_not_compared(self):
        assert compare_reports({"name": "x"}, {"name": "x"}) == []


class TestGateCli:
    def _run(self, tmp_path, *extra: str) -> int:
        return main(
            [
                "--quiet", "exp", "run", "smoke",
                "--trials", "1", "--scale", "0.01", "--no-cache",
                "--out", str(tmp_path / "fresh"), *extra,
            ]
        )

    def _commit_baseline(self, tmp_path, events_per_sec: float) -> str:
        """Commit the last fresh run as the baseline, with a set throughput
        and a wall time no rerun can exceed, so only events/sec decides."""
        report = json.loads((tmp_path / "fresh" / "EXP_smoke.json").read_text())
        report.update(events_per_sec=events_per_sec, wall_time_s=1e9)
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir(exist_ok=True)
        (baseline_dir / "EXP_smoke.json").write_text(json.dumps(report))
        return str(baseline_dir)

    def test_exit_zero_on_pass_and_one_on_regression(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        slow = self._commit_baseline(tmp_path, events_per_sec=1)
        assert self._run(tmp_path, "--gate", "--baseline-dir", slow) == 0

        fast = self._commit_baseline(tmp_path, events_per_sec=1e12)
        capsys.readouterr()
        assert self._run(tmp_path, "--gate", "--baseline-dir", fast) == 1
        captured = capsys.readouterr()
        assert "events/sec regressed" in captured.out
        assert "baseline regression gate failed" in captured.err

    def test_unlike_work_is_not_gated(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        fast = self._commit_baseline(tmp_path, events_per_sec=1e12)
        capsys.readouterr()
        code = self._run(tmp_path, "--gate", "--baseline-dir", fast, "--scale", "0.02")
        assert code == 0
        assert "not comparable (scale 0.02 vs baseline 0.01)" in capsys.readouterr().out
