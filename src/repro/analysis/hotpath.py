"""Event-core hot-path microbenchmark (shared by pytest and ``repro bench``).

The simulator's inner loop is ``Engine.post_after`` → heap → dispatch
(docs/performance.md).  This module drives that loop directly — no kernel,
no devices — so its throughput numbers isolate the event core itself:

* **post chain** — the allocation-free steady-state path: each fired
  event posts the next with :meth:`Engine.post_after`.  This is the
  headline ``events_per_sec`` the CI perf gate tracks.
* **call chain** — the same chain through :meth:`Engine.call_after`,
  measuring the cancellable-handle overhead (the rare path).
* **cancel churn** — schedule-and-cancel bursts shaped like a long
  regulator suspension, exercising handle cancellation and heap
  compaction.  ``rounds``/``burst`` are the churn knobs ``repro bench
  engine_hotpath --churn`` exposes.

Every run re-checks the optimization's correctness guards: the O(1)
``pending`` counter must equal a full heap scan, and compaction must have
bounded the churn heap.  A fast-but-wrong engine fails here, not in CI.
"""

from __future__ import annotations

import time

from repro.simos.engine import Engine

__all__ = [
    "live_entries",
    "run_engine_hotpath",
    "engine_hotpath_report",
]


def live_entries(engine: Engine) -> int:
    """Count live heap entries the slow way (plain posts + uncancelled handles)."""
    return sum(
        1 for h in engine._heap if h.__class__ is tuple or not h.cancelled
    )


def _run_post_chain(events: int) -> Engine:
    """Fire a chain of handle-free posts: the steady-state dispatch path."""
    engine = Engine()
    post_after = engine.post_after

    def tick(n):
        if n > 0:
            post_after(1.0, tick, n - 1)

    engine.post_at(0.0, tick, events - 1)
    engine.run()
    return engine


def _run_call_chain(events: int) -> Engine:
    """The same chain through cancellable handles (the rare path)."""
    engine = Engine()

    def tick(n):
        if n > 0:
            engine.call_after(1.0, tick, n - 1)

    engine.call_at(0.0, tick, events - 1)
    engine.run()
    return engine


def _run_cancel_churn(rounds: int, burst: int) -> Engine:
    """Schedule-and-cancel churn shaped like regulator suspensions.

    Each round schedules ``burst`` timers, cancels all but one, and lets
    the survivor fire — cancelled entries continuously dominate fresh
    pushes, so the engine's threshold compaction path runs many times.
    """
    engine = Engine()
    for _ in range(rounds):
        handles = [engine.call_after(float(i + 1), lambda: None) for i in range(burst)]
        for handle in handles[1:]:
            handle.cancel()
        engine.step()
    return engine


def run_engine_hotpath(
    events: int = 30_000, rounds: int = 2_000, burst: int = 40
) -> dict[str, float]:
    """Run the three chain/churn workloads; return throughput stats.

    Raises ``AssertionError`` if any correctness guard fails — the
    counters and compaction must be invisible except for speed.
    """
    start = time.perf_counter()
    posted = _run_post_chain(events)
    post_wall = time.perf_counter() - start

    start = time.perf_counter()
    called = _run_call_chain(events)
    call_wall = time.perf_counter() - start

    start = time.perf_counter()
    churn = _run_cancel_churn(rounds, burst)
    churn_wall = time.perf_counter() - start
    ops = rounds * burst  # schedules; most are then cancelled

    assert posted.events_fired == events
    assert called.events_fired == events
    assert churn.events_fired == rounds
    # The O(1) counter must agree with a full scan after all that churn.
    for engine in (posted, called, churn):
        assert engine.pending == live_entries(engine)
    # Compaction must have kept the heap from retaining the churn.
    assert len(churn._heap) < ops / 4

    return {
        "post_events_per_sec": events / post_wall,
        "call_events_per_sec": events / call_wall,
        "churn_ops_per_sec": ops / churn_wall,
        "churn_heap_len": float(len(churn._heap)),
        "wall_time_s": post_wall + call_wall + churn_wall,
    }


def engine_hotpath_report(
    events: int = 200_000, rounds: int = 4_000, burst: int = 40, repeats: int = 3
) -> dict:
    """Best-of-``repeats`` stats as a ``BENCH_engine_hotpath.json`` payload.

    ``events_per_sec`` (the key the CI perf gate compares) is the post
    chain — the allocation-free path steady-state simulation dispatches
    through.
    """
    from repro.analysis.parallel import code_fingerprint

    best: dict[str, float] = {}
    wall = 0.0
    for _ in range(max(1, repeats)):
        stats = run_engine_hotpath(events=events, rounds=rounds, burst=burst)
        wall += stats["wall_time_s"]
        for key, value in stats.items():
            if key in ("churn_heap_len", "wall_time_s"):
                continue
            best[key] = max(best.get(key, 0.0), value)
    return {
        "name": "engine_hotpath",
        "kind": "micro",
        "events": events,
        "rounds": rounds,
        "burst": burst,
        "repeats": repeats,
        "events_per_sec": round(best["post_events_per_sec"]),
        "post_events_per_sec": round(best["post_events_per_sec"]),
        "call_events_per_sec": round(best["call_events_per_sec"]),
        "churn_ops_per_sec": round(best["churn_ops_per_sec"]),
        "wall_time_s": round(wall, 4),
        "code_fingerprint": code_fingerprint(),
    }
