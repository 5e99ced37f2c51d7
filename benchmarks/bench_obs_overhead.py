"""Telemetry overhead on the Figure 6 contended-defrag scenario.

The observability contract (docs/observability.md): with
``telemetry=None`` the instrumentation must reduce to one branch per
emit site — no clock reads, no event allocation.  This benchmark runs
the fig6 defrag-vs-database trial four ways:

* ``baseline`` — ``telemetry=None`` (the disabled path, default everywhere);
* ``null``     — a live handle on ``NullSink`` (metrics on, events off);
* ``traced``   — in-memory event capture with causal span tracing on
  (the ``repro obs explain`` configuration, at its default sampling of
  one span per pipeline step);
* ``jsonl``    — full event capture to a JSONL trace file.

The scenario is deterministic per seed, so interpreter work is measured
exactly: total function/builtin calls under ``cProfile`` are identical
run to run, immune to the wall-clock noise of shared CI machines.  The
contract assertions — overhead < 2% telemetry-disabled, < 5% with
tracing enabled — are made on those deterministic counts (the disabled
path executes a strict subset of the null-sink path's work, so gating
the null sink bounds it from above).  Wall CPU times are reported
alongside for scale.

Runs two ways:

* under pytest (``pytest benchmarks/bench_obs_overhead.py``), asserting
  the caps inline;
* as a script (``python benchmarks/bench_obs_overhead.py --out DIR``),
  writing ``BENCH_obs_overhead.json`` and exiting 1 when a cap is
  breached (the CI overhead gate).
"""

from __future__ import annotations

import cProfile
import pstats
import time

from repro.apps.base import RegulationMode
from repro.experiments.scenarios import defrag_database_trial
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    Telemetry,
    Tracer,
)

from _util import bench_scale

#: The scenario is deterministic per seed; identical work in every run.
SEED = 4242

#: Hard ceilings on telemetry overhead, in fractional extra interpreter
#: calls vs the disabled path: contract bounds, never relative to a
#: committed baseline.
NULL_OVERHEAD_CAP = 0.02
TRACED_OVERHEAD_CAP = 0.05


def _run_trial(telemetry: Telemetry | None, scale: float) -> None:
    result = defrag_database_trial(
        RegulationMode.MS_MANNERS, seed=SEED, scale=scale, telemetry=telemetry
    )
    assert result.li_time is not None


def _measure(make_telemetry, scale: float) -> tuple[int, float]:
    """(exact interpreter call count, CPU seconds) for one trial."""
    profile = cProfile.Profile()
    start = time.process_time()
    profile.enable()
    _run_trial(make_telemetry(), scale)
    profile.disable()
    elapsed = time.process_time() - start
    return pstats.Stats(profile).total_calls, elapsed


def run_overhead(trace_path) -> dict[str, object]:
    scale = bench_scale(0.3)
    _run_trial(None, scale)  # warm caches so call counts are steady-state

    def make_jsonl():
        return Telemetry(sink=JsonlSink(trace_path), metrics=MetricsRegistry())

    traced_sink = MemorySink()

    def make_traced():
        return Telemetry(
            sink=traced_sink, metrics=MetricsRegistry(), tracer=Tracer()
        )

    base_calls, base_cpu = _measure(lambda: None, scale)
    null_calls, null_cpu = _measure(
        lambda: Telemetry(sink=NullSink(), metrics=MetricsRegistry()), scale
    )
    traced_calls, traced_cpu = _measure(make_traced, scale)
    jsonl_calls, jsonl_cpu = _measure(make_jsonl, scale)
    events = sum(1 for line in open(trace_path, encoding="utf-8") if line.strip())
    from repro.obs.trace2 import spans_of

    return {
        "scale": scale,
        "events": events,
        "spans": len(spans_of(traced_sink.events)),
        "calls": {
            "baseline": base_calls,
            "null": null_calls,
            "traced": traced_calls,
            "jsonl": jsonl_calls,
        },
        "cpu": {
            "baseline": base_cpu,
            "null": null_cpu,
            "traced": traced_cpu,
            "jsonl": jsonl_cpu,
        },
    }


def build_report(data: dict) -> tuple[dict, list[str]]:
    """(BENCH_obs_overhead.json payload, report text lines) for one run."""
    calls, cpu = data["calls"], data["cpu"]
    null_overhead = calls["null"] / calls["baseline"] - 1.0
    traced_overhead = calls["traced"] / calls["baseline"] - 1.0
    jsonl_overhead = calls["jsonl"] / calls["baseline"] - 1.0
    report = {
        "name": "obs_overhead",
        "kind": "overhead",
        "scale": data["scale"],
        "events": data["events"],
        "spans": data["spans"],
        "calls": calls,
        "null_overhead": round(null_overhead, 5),
        "traced_overhead": round(traced_overhead, 5),
        "jsonl_overhead": round(jsonl_overhead, 5),
        "caps": {
            "null_overhead": NULL_OVERHEAD_CAP,
            "traced_overhead": TRACED_OVERHEAD_CAP,
        },
    }
    lines = [
        "Telemetry overhead on the fig6 contended-defrag run "
        f"(scale {data['scale']}, exact call counts under cProfile)",
        "",
        f"telemetry=None (baseline):  {calls['baseline']:>10} calls  "
        f"{cpu['baseline']:7.3f} s CPU",
        f"Telemetry + NullSink:       {calls['null']:>10} calls  "
        f"{cpu['null']:7.3f} s CPU  ({null_overhead:+6.3%} calls)",
        f"Telemetry + spans (traced): {calls['traced']:>10} calls  "
        f"{cpu['traced']:7.3f} s CPU  ({traced_overhead:+6.3%} calls, "
        f"{data['spans']} spans)",
        f"Telemetry + JsonlSink:      {calls['jsonl']:>10} calls  "
        f"{cpu['jsonl']:7.3f} s CPU  ({jsonl_overhead:+6.3%} calls, "
        f"{data['events']} events)",
        "",
        f"contract: disabled-path overhead (null sink) < {NULL_OVERHEAD_CAP:.0%}; "
        f"tracing-enabled overhead < {TRACED_OVERHEAD_CAP:.0%}",
    ]
    return report, lines


def test_obs_overhead_gate(benchmark, report, tmp_path):
    data = benchmark.pedantic(
        run_overhead, args=(tmp_path / "trace.jsonl",), rounds=1, iterations=1
    )
    payload, lines = build_report(data)
    report("obs_overhead", "\n".join(lines))

    assert data["events"] > 0, "the instrumented run must actually emit events"
    assert data["spans"] > 0, "the traced run must actually emit spans"
    assert payload["null_overhead"] < NULL_OVERHEAD_CAP, (
        f"null-sink telemetry does {payload['null_overhead']:.2%} extra "
        f"interpreter work (contract: < {NULL_OVERHEAD_CAP:.0%}); an emit "
        "site is likely doing heavy work per event"
    )
    assert payload["traced_overhead"] < TRACED_OVERHEAD_CAP, (
        f"span tracing does {payload['traced_overhead']:.2%} extra "
        f"interpreter work (contract: < {TRACED_OVERHEAD_CAP:.0%}); a span "
        "emission site is likely allocating outside the gated path"
    )


if __name__ == "__main__":
    import argparse
    import json
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="benchmarks/results",
        help="directory for BENCH_obs_overhead.json",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        data = run_overhead(Path(tmp) / "trace.jsonl")
    payload, lines = build_report(data)
    print("\n".join(lines))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "BENCH_obs_overhead.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nreport -> {path}")
    failed = []
    if payload["null_overhead"] >= NULL_OVERHEAD_CAP:
        failed.append(
            f"null_overhead {payload['null_overhead']:.3%} >= "
            f"{NULL_OVERHEAD_CAP:.0%}"
        )
    if payload["traced_overhead"] >= TRACED_OVERHEAD_CAP:
        failed.append(
            f"traced_overhead {payload['traced_overhead']:.3%} >= "
            f"{TRACED_OVERHEAD_CAP:.0%}"
        )
    for line in failed:
        print(f"OVERHEAD GATE FAILED: {line}")
    raise SystemExit(1 if failed else 0)
