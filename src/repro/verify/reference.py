"""Slow, obviously-correct reference implementations for differential oracles.

Three PRs of optimization replaced transparent code with fast paths: the
sign test indexes precomputed threshold tables instead of walking binomial
tails, the event engine keeps an O(1) pending counter and compacts cancelled
heap entries, and trial sweeps fan out across processes.  Each fast path has
a twin here that does the naive thing — linear tail walks, linear heap
scans, no counters, no compaction — written for legibility rather than
speed.  The oracles in :mod:`repro.verify.oracles` drive both sides with
identical seeded inputs and assert identical outputs.

References intentionally avoid sharing code with the optimized
implementations beyond the primitive tail probabilities in
:mod:`repro.core.binomial` (themselves cross-checked against scipy by the
test suite): shared logic would let one bug hide on both sides of the diff.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.core.binomial import binomial_cdf, binomial_sf
from repro.core.signtest import Judgment
from repro.simos.engine import SimulationError

__all__ = [
    "reference_poor_threshold",
    "reference_good_threshold",
    "ReferenceSignTest",
    "ReferenceHandle",
    "ReferenceEngine",
]


def reference_poor_threshold(n: int, alpha: float) -> int:
    """Smallest ``r`` with ``P(R >= r | n, 1/2) <= alpha``, by linear walk.

    No normal-approximation guess, no caching: start at ``r = 0`` and walk
    up until the exact upper tail drops to ``alpha``.  Returns ``n + 1``
    when no count is extreme enough.  Valid only in the exact regime
    (``n`` at most ``signtest._EXACT_LIMIT``); the production function's
    large-``n`` approximation is deliberately out of scope here.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    for r in range(n + 1):
        if binomial_sf(n, r) <= alpha:
            return r
    return n + 1


def reference_good_threshold(n: int, beta: float) -> int:
    """Largest ``r`` with ``P(R <= r | n, 1/2) <= beta``, by linear walk.

    Returns ``-1`` when no count is small enough.  Exact-regime counterpart
    of :func:`repro.core.signtest.good_threshold`.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    for r in range(n, -1, -1):
        if binomial_cdf(n, r) <= beta:
            return r
    return -1


class ReferenceSignTest:
    """Sequential sign test that recomputes its thresholds on every sample.

    Mirrors :class:`repro.core.signtest.SignTest`'s sequential semantics —
    the window resets on a POOR or GOOD verdict, or silently when it reaches
    ``max_samples`` — but makes every decision by walking exact binomial
    tails from scratch, never touching the precomputed threshold tables.
    ``max_samples`` must stay within the exact regime (<= 256).
    """

    def __init__(self, alpha: float, beta: float, max_samples: int) -> None:
        self.alpha = alpha
        self.beta = beta
        self.max_samples = max_samples
        self._n = 0
        self._below = 0

    @property
    def sample_count(self) -> int:
        """Samples in the current window."""
        return self._n

    @property
    def below_count(self) -> int:
        """Below-target samples in the current window."""
        return self._below

    def add_sample(self, below_target: bool) -> Judgment:
        """Record one comparison; return the verdict (window-resetting)."""
        self._n += 1
        if below_target:
            self._below += 1
        if self._below >= reference_poor_threshold(self._n, self.alpha):
            verdict = Judgment.POOR
        elif self._below <= reference_good_threshold(self._n, self.beta):
            verdict = Judgment.GOOD
        else:
            verdict = Judgment.INDETERMINATE
        if verdict is not Judgment.INDETERMINATE or self._n >= self.max_samples:
            self._n = 0
            self._below = 0
        return verdict


class ReferenceHandle:
    """A cancellable reference to one :class:`ReferenceEngine` event."""

    def __init__(self, when: float, seq: int, fn: Callable[..., None], args: tuple) -> None:
        self.when = when
        self.seq = seq
        self.fn: Callable[..., None] | None = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self.cancelled = True
        self.fn = None
        self.args = ()


class ReferenceEngine:
    """Naive event loop: an unsorted list scanned linearly for the minimum.

    Behaviourally identical to :class:`repro.simos.engine.Engine` — same
    (time, sequence) firing order, same ``run``/``step``/``drain`` contract,
    same scheduling validation — but with none of the accounting the fast
    engine optimizes: :attr:`pending` is a full scan, cancelled entries are
    left in place until their turn comes, and nothing is ever compacted.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._events: list[ReferenceHandle] = []
        self._seq = 0
        self._events_fired = 0

    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total events executed."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Scheduled events not yet fired or cancelled (full scan)."""
        return sum(1 for h in self._events if not h.cancelled)

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> ReferenceHandle:
        """Schedule ``fn(*args)`` at absolute time ``when``."""
        if not math.isfinite(when):
            raise SimulationError(f"event time must be finite, got {when}")
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self._now}"
            )
        handle = ReferenceHandle(when, self._seq, fn, args)
        self._seq += 1
        self._events.append(handle)
        return handle

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> ReferenceHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, fn, *args)

    def post_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Non-cancellable twin of :meth:`call_at` (no handle returned).

        The fast engine pushes a bare tuple for these; the reference keeps
        a normal handle and simply never hands it out.
        """
        self.call_at(when, fn, *args)

    def post_after(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Non-cancellable twin of :meth:`call_after` (no handle returned)."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        self.call_at(self._now + delay, fn, *args)

    def _next_live(self) -> ReferenceHandle | None:
        best: ReferenceHandle | None = None
        for handle in self._events:
            if handle.cancelled:
                continue
            if best is None or (handle.when, handle.seq) < (best.when, best.seq):
                best = handle
        return best

    def step(self) -> bool:
        """Fire the next event; return ``False`` if nothing is pending."""
        handle = self._next_live()
        if handle is None:
            self._events.clear()
            return False
        self._events.remove(handle)
        self._now = handle.when
        fn, args = handle.fn, handle.args
        handle.cancel()
        self._events_fired += 1
        assert fn is not None  # live handles always carry their callback
        fn(*args)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run until drained, ``until`` passes, or ``max_events`` fire."""
        fired = 0
        while True:
            head = self._next_live()
            if head is None:
                break
            if until is not None and head.when > until:
                break
            if max_events is not None and fired >= max_events:
                return self._now
            self.step()
            fired += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def drain(self) -> None:
        """Discard all pending events."""
        for handle in self._events:
            handle.cancel()
        self._events.clear()
