"""Wall-clock deadline scheduling on the simulation event core.

The realtime adapter and the regulator daemon both keep small sets of
future deadlines — periodic calibration saves, journal sweeps, snapshot
compactions.  :class:`DeadlineQueue` orders them on a
:class:`~repro.simos.engine.Engine`.  Wall time maps onto engine time
through a fixed epoch taken at construction; firing is explicit —
callers :meth:`poll` with the current wall clock (typically right after
an ``asyncio.sleep`` or condition wait sized by :meth:`next_wait`), and
every deadline at or before that instant fires in exact
``(deadline, insertion)`` order.

The queue is deliberately not thread-safe: each owner (the adapter
under its lock, a daemon loop on its event loop) drives its own queue.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.simos.engine import Engine, EventHandle

__all__ = ["DeadlineQueue"]


class DeadlineQueue:
    """Monotonic-clock deadlines ordered by a simulation event core.

    ``clock`` is injectable for deterministic tests; production callers
    leave it on :func:`time.monotonic`.
    """

    __slots__ = ("_engine", "_clock", "_epoch")

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._engine = Engine()
        self._clock = clock
        self._epoch = clock()

    @property
    def pending(self) -> int:
        """Deadlines scheduled and not yet fired or cancelled."""
        return self._engine.pending

    # -- scheduling ------------------------------------------------------------
    def _engine_time(self, wall: float) -> float:
        # The engine clock never runs backwards; a caller-supplied "now"
        # earlier than the last poll clamps forward rather than raising.
        return max(wall - self._epoch, self._engine.now)

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``fn(*args)`` ``delay`` seconds from the current wall clock.

        Returns a cancellable handle.  Negative delays clamp to "due at
        the next poll" rather than raising — wall-clock callers routinely
        compute small negative slacks under scheduling jitter.
        """
        return self.schedule_at(self._clock() + max(delay, 0.0), fn, *args)

    def schedule_at(
        self, wall_deadline: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``fn(*args)`` once the wall clock reaches ``wall_deadline``."""
        return self._engine.call_at(self._engine_time(wall_deadline), fn, *args)

    # -- firing ----------------------------------------------------------------
    def poll(self, now: float | None = None) -> int:
        """Fire every deadline due at wall time ``now``; return the count.

        Callbacks may reschedule themselves (periodic deadlines); a
        callback scheduling at-or-before ``now`` fires within the same
        poll, exactly as the simulation engine handles same-time posts.
        """
        wall = self._clock() if now is None else now
        engine = self._engine
        before = engine.events_fired
        engine.run(until=self._engine_time(wall))
        return engine.events_fired - before

    def next_wait(self, now: float | None = None) -> float | None:
        """Seconds until the earliest pending deadline.

        ``0.0`` when a deadline is already due, ``None`` when nothing is
        scheduled.  Sized for ``asyncio.wait_for`` / ``Condition.wait``
        timeouts so pollers sleep exactly as long as the queue allows.
        """
        head = self._engine.next_event_time()
        if head is None:
            return None
        wall = self._clock() if now is None else now
        return max(head - self._engine_time(wall), 0.0)
