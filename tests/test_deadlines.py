"""DeadlineQueue: wall-clock deadlines on the simulation event core."""

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.daemon.soak import run_soak
from repro.realtime.deadlines import DeadlineQueue


class FakeClock:
    """Injectable monotonic clock for deterministic deadline tests."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestDeadlineQueue:
    def test_fires_in_deadline_then_insertion_order(self):
        clock = FakeClock()
        q = DeadlineQueue(clock=clock)
        fired = []
        q.schedule(2.0, fired.append, "late")
        q.schedule(1.0, fired.append, "early")
        q.schedule(1.0, fired.append, "early-second")
        assert q.poll() == 0
        clock.advance(1.5)
        assert q.poll() == 2
        assert fired == ["early", "early-second"]
        clock.advance(1.0)
        q.poll()
        assert fired == ["early", "early-second", "late"]
        assert q.pending == 0

    def test_cancel_suppresses_firing(self):
        clock = FakeClock()
        q = DeadlineQueue(clock=clock)
        fired = []
        handle = q.schedule(1.0, fired.append, "cancelled")
        q.schedule(1.0, fired.append, "kept")
        handle.cancel()
        clock.advance(2.0)
        q.poll()
        assert fired == ["kept"]

    def test_negative_delay_clamps_to_next_poll(self):
        clock = FakeClock()
        q = DeadlineQueue(clock=clock)
        fired = []
        q.schedule(-5.0, fired.append, "overdue")
        assert q.next_wait() == 0.0
        assert q.poll() == 1
        assert fired == ["overdue"]

    def test_next_wait_sizes_the_sleep(self):
        clock = FakeClock()
        q = DeadlineQueue(clock=clock)
        assert q.next_wait() is None
        q.schedule(3.0, lambda: None)
        assert q.next_wait() == pytest.approx(3.0)
        clock.advance(1.0)
        assert q.next_wait() == pytest.approx(2.0)
        clock.advance(5.0)
        assert q.next_wait() == 0.0

    def test_periodic_reschedule_fires_once_per_interval(self):
        clock = FakeClock()
        q = DeadlineQueue(clock=clock)
        ticks = []

        def tick():
            ticks.append(clock())
            q.schedule(1.0, tick)

        q.schedule(1.0, tick)
        for _ in range(4):
            clock.advance(1.0)
            q.poll()
        assert len(ticks) == 4

    def test_mixed_delays_fire_sorted(self):
        clock = FakeClock()
        q = DeadlineQueue(clock=clock)
        fired = []
        for i, delay in enumerate([0.5, 2.5, 1.5, 0.5, 60.0]):
            q.schedule(delay, fired.append, i)
        clock.advance(100.0)
        q.poll()
        assert fired == [0, 3, 2, 1, 4]


class TestDaemonSoak:
    """The deployable daemon path orders its deadlines on the queue."""

    def test_soak_runs(self):
        workdir = Path(tempfile.mkdtemp(prefix="reprocore-"))
        try:
            report = run_soak(
                ["ipc-chaos"], seeds=[1], duration=3.0, workdir=workdir
            )
            assert len(report.runs) == 1
            assert report.runs[0].ok, report.runs[0].unmatched or report.runs[0].note
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
