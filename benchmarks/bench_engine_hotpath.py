"""Micro-benchmark for the comparator hot path.

The sign test's precomputed threshold tables replace per-sample binomial
tail walks with two tuple indexings (docs/performance.md).  The benchmark
reports throughput (samples/sec) and *guards the optimization's
correctness*: every table entry must equal the threshold functions for
n <= max_samples — the tables must be invisible except for speed.  The
event core's own guards (pending counter, compaction) live in
``tests/simos/test_engine.py``.
"""

from __future__ import annotations

import time

from repro.core.signtest import SignTest, good_threshold, poor_threshold

#: Deterministic pseudo-random sample stream (LCG; no allocation).
_LCG_A, _LCG_C, _LCG_M = 1103515245, 12345, 2**31


def run_signtest_microbench() -> dict[str, float]:
    max_samples = 512  # spans the exact/normal-approximation boundary (256)
    test = SignTest(alpha=0.05, beta=0.2, max_samples=max_samples)

    # Correctness guard: every precomputed verdict threshold must match
    # the threshold functions exactly, for every reachable window size.
    for n in range(max_samples + 1):
        assert test._poor_table[n] == poor_threshold(n, 0.05), n
        assert test._good_table[n] == good_threshold(n, 0.2), n

    samples = 400_000
    state = 12345
    start = time.perf_counter()
    for _ in range(samples):
        state = (_LCG_A * state + _LCG_C) % _LCG_M
        test.add_sample(state < _LCG_M // 2)
    table_wall = time.perf_counter() - start

    # Reference: the unamortized pre-table cost.  Before the tables, the
    # first visit to each window size walked exact binomial tails inside
    # the threshold functions; ``__wrapped__`` bypasses their lru_caches
    # to measure that per-sample cost directly.
    walks = 2_000
    start = time.perf_counter()
    for i in range(walks):
        n = 1 + i % max_samples
        poor_threshold.__wrapped__(n, 0.05)
        good_threshold.__wrapped__(n, 0.2)
    uncached_wall = time.perf_counter() - start

    return {
        "table_samples_per_sec": samples / table_wall,
        "uncached_samples_per_sec": walks / uncached_wall,
        "speedup": (uncached_wall / walks) / (table_wall / samples),
    }


def test_engine_hotpath(benchmark, report):
    sign_stats = benchmark.pedantic(run_signtest_microbench, rounds=1, iterations=1)
    lines = [
        "Comparator hot path (single core)",
        "=" * 52,
        f"sign test, threshold tables:   {sign_stats['table_samples_per_sec']:>12,.0f} samples/s",
        f"sign test, uncached tails:     {sign_stats['uncached_samples_per_sec']:>12,.0f} samples/s"
        "  (the pre-table first-visit cost per window size)",
        f"table-path speedup:            {sign_stats['speedup']:>12.1f}x",
        "",
        "guard: table verdicts == threshold functions for every",
        "n <= max_samples (incl. across the exact limit).",
    ]
    report("engine_hotpath", "\n".join(lines))

    # Order-of-magnitude floor, far below any healthy interpreter, so the
    # bench fails only on a real hot-path regression.
    assert sign_stats["table_samples_per_sec"] > 200_000
    # The tables must beat walking binomial tails by a wide margin.
    assert sign_stats["speedup"] > 3.0
