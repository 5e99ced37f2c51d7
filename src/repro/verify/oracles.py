"""Differential oracles: fast implementations vs slow references (seeded).

Each oracle generates a randomized-but-seeded workload, runs it through an
optimized implementation and its naive twin from
:mod:`repro.verify.reference` (or through two configurations whose results
are contractually identical, e.g. parallel vs serial fan-out), and records
every observable divergence as an :class:`OracleMismatch`.  A clean run
returns a result with an empty mismatch list; the CLI (``repro verify
run``) and the CI gate fail on any mismatch.

Oracles accept an optional implementation factory so the test suite can
prove they *detect* divergence: injecting a deliberately-broken fast
implementation must produce mismatches.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.parallel import ParallelRunner
from repro.core.queueing import simulate_judgment_chain
from repro.core.signtest import SignTest, good_threshold, poor_threshold
from repro.simos.engine import Engine
from repro.verify.reference import (
    ReferenceEngine,
    ReferenceSignTest,
    reference_good_threshold,
    reference_poor_threshold,
)

__all__ = [
    "OracleMismatch",
    "OracleResult",
    "signtest_oracle",
    "engine_oracle",
    "parallel_oracle",
    "chain_rng_oracle",
]

#: Exact-regime ceiling for sign-test windows in the differential contract.
#: Beyond ``signtest._EXACT_LIMIT`` (256) the production thresholds use a
#: normal approximation by design; the references are exact-only, and the
#: approximation regime is covered separately by the scipy cross-checks in
#: the test suite.
_EXACT_WINDOW = 256

#: Alpha/beta grid the sign-test oracle samples configurations from.
_LEVELS = (0.01, 0.05, 0.1, 0.2, 0.3)


@dataclass(frozen=True)
class OracleMismatch:
    """One observed divergence between the fast and reference paths."""

    oracle: str
    case: str
    detail: str


@dataclass
class OracleResult:
    """Outcome of one oracle run: cases exercised and divergences found."""

    oracle: str
    seed: int
    cases: int = 0
    mismatches: list[OracleMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every case agreed."""
        return not self.mismatches

    def _note(self, case: str, detail: str) -> None:
        self.mismatches.append(
            OracleMismatch(oracle=self.oracle, case=case, detail=detail)
        )


def signtest_oracle(
    seed: int,
    make_test: Callable[..., object] = SignTest,
    configs: int = 4,
    stream_length: int = 400,
) -> OracleResult:
    """Cached threshold tables and table-driven verdicts vs direct tail walks.

    Two layers: (1) for sampled ``(alpha, beta)`` configurations, every
    table entry ``n = 0..max_samples`` must equal the linear-walk reference
    threshold; (2) a seeded below/above stream fed sample-by-sample through
    the fast :class:`SignTest` and the recompute-everything
    :class:`ReferenceSignTest` must produce identical verdict streams and
    identical window state at every step.
    """
    rng = random.Random(0xD1FF ^ (seed * 0x2545F4914F6CDD1D))
    result = OracleResult(oracle="signtest", seed=seed)
    for _ in range(configs):
        alpha = rng.choice(_LEVELS)
        beta = rng.choice(_LEVELS)
        max_samples = rng.randint(8, _EXACT_WINDOW)
        label = f"alpha={alpha} beta={beta} max={max_samples}"
        fast = make_test(alpha=alpha, beta=beta, max_samples=max_samples)
        for n in range(max_samples + 1):
            result.cases += 1
            expected_poor = reference_poor_threshold(n, alpha)
            expected_good = reference_good_threshold(n, beta)
            got_poor = poor_threshold(n, alpha)
            got_good = good_threshold(n, beta)
            if (got_poor, got_good) != (expected_poor, expected_good):
                result._note(
                    f"threshold {label} n={n}",
                    f"fast=({got_poor}, {got_good}) "
                    f"reference=({expected_poor}, {expected_good})",
                )
        reference = ReferenceSignTest(alpha=alpha, beta=beta, max_samples=max_samples)
        p_below = rng.uniform(0.2, 0.8)
        for i in range(stream_length):
            below = rng.random() < p_below
            result.cases += 1
            fast_verdict = fast.add_sample(below)
            ref_verdict = reference.add_sample(below)
            if fast_verdict is not ref_verdict:
                result._note(
                    f"verdict {label} sample={i}",
                    f"fast={fast_verdict} reference={ref_verdict}",
                )
                break  # Streams are out of sync; later diffs are noise.
            fast_window = (fast.sample_count, fast.below_count)
            ref_window = (reference.sample_count, reference.below_count)
            if fast_window != ref_window:
                result._note(
                    f"window {label} sample={i}",
                    f"fast={fast_window} reference={ref_window}",
                )
                break
    return result


class _EngineScriptDriver:
    """Applies one generated op script to an engine, logging observables.

    The same script is applied to the fast engine and the reference engine;
    because both must fire events in identical order, the driver's handle
    list (including handles created by self-rescheduling callbacks) stays
    aligned between the two, which lets scripted cancellations name handles
    by index.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.log: list[tuple[int, float]] = []
        self.handles: list = []

    def fire(self, tag: int, repeats: int, interval: float) -> None:
        """Scripted callback: log, then optionally reschedule itself."""
        self.log.append((tag, self.engine.now))
        if repeats > 0:
            handle = self.engine.call_after(
                interval, self.fire, tag + 1, repeats - 1, interval
            )
            self.handles.append(handle)

    def post_fire(self, tag: int, repeats: int, interval: float) -> None:
        """Scripted callback for the non-cancellable hot path."""
        self.log.append((tag, self.engine.now))
        if repeats > 0:
            self.engine.post_after(
                interval, self.post_fire, tag + 1, repeats - 1, interval
            )

    def apply(self, op: tuple) -> None:
        """Execute one script op against the engine."""
        kind = op[0]
        if kind == "schedule":
            _, delay, repeats, interval, tag = op
            self.handles.append(
                self.engine.call_after(delay, self.fire, tag, repeats, interval)
            )
        elif kind == "post":
            _, delay, repeats, interval, tag = op
            self.engine.post_after(delay, self.post_fire, tag, repeats, interval)
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "run_until":
            self.engine.run(until=self.engine.now + op[1])
        elif kind == "run_budget":
            self.engine.run(max_events=op[1])
        elif kind == "step":
            self.engine.step()

    def observables(self) -> tuple:
        """State the two engines must agree on after every op."""
        return (self.engine.now, self.engine.pending, len(self.log))


def _generate_engine_script(rng: random.Random, ops: int) -> list[tuple]:
    script: list[tuple] = []
    tag = 0
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.45:
            tag += 100
            # Mix cancellable handles with hot-path posts: the same seeded
            # stream drives both scheduling APIs on both engines.
            kind = "schedule" if rng.random() < 0.6 else "post"
            script.append(
                (
                    kind,
                    round(rng.uniform(0.0, 10.0), 3),
                    rng.randint(0, 3),
                    round(rng.uniform(0.1, 2.0), 3),
                    tag,
                )
            )
        elif roll < 0.65:
            script.append(("cancel", rng.randint(0, 1 << 30)))
        elif roll < 0.85:
            script.append(("run_until", round(rng.uniform(0.0, 8.0), 3)))
        elif roll < 0.95:
            script.append(("run_budget", rng.randint(1, 5)))
        else:
            script.append(("step",))
    return script


def engine_oracle(
    seed: int,
    new_engine: Callable[[], object] = Engine,
    ops: int = 120,
) -> OracleResult:
    """O(1)-counter, compacting engine vs the naive linear-scan engine.

    Generates a seeded script of schedules (some self-rescheduling),
    cancellations (enough to trip heap compaction), bounded runs, and
    single steps; applies it to both engines; and compares clock, pending
    count, and the full fired-event log after every op.
    """
    rng = random.Random(0xE4617 ^ (seed * 0x9E3779B97F4A7C15))
    result = OracleResult(oracle="engine", seed=seed)
    script = _generate_engine_script(rng, ops)
    fast = _EngineScriptDriver(new_engine())
    reference = _EngineScriptDriver(ReferenceEngine())
    for i, op in enumerate(script):
        result.cases += 1
        fast.apply(op)
        reference.apply(op)
        if fast.observables() != reference.observables():
            result._note(
                f"op {i} {op[0]}",
                f"fast={fast.observables()} reference={reference.observables()}",
            )
            break  # Diverged; every later comparison is noise.
    result.cases += 1
    if fast.log != reference.log:
        result._note(
            "fired-event log",
            f"fast fired {len(fast.log)} events, reference {len(reference.log)}; "
            "first difference at index "
            f"{next((j for j, (a, b) in enumerate(zip(fast.log, reference.log)) if a != b), min(len(fast.log), len(reference.log)))}",
        )
    return result


def _digest(results: Sequence) -> str:
    """Canonical JSON digest of a trial-result list."""
    return json.dumps(results, sort_keys=True)


def chain_trial(seed: int) -> dict:
    """Module-level (picklable) trial for the parallel-digest oracle.

    Runs a capped judgment chain on a seed-derived RNG stream and returns a
    JSON-able summary; any RNG leakage across trials or ordering effect in
    the fan-out changes the digest.
    """
    outcome = simulate_judgment_chain(
        0.05, 0.2, judgments=300, maximum=256.0, seed=seed
    )
    return {
        "seed": seed,
        "executing": outcome.executing_time,
        "suspended": outcome.suspended_time,
        "counts": list(outcome.state_counts),
    }


def parallel_oracle(
    seed: int,
    trials: int = 4,
    trial: Callable[[int], dict] = chain_trial,
    parallel_jobs: int = 2,
) -> OracleResult:
    """Parallel fan-out vs serial execution: digests must be bit-identical.

    Runs the same seeded trial sweep through :class:`ParallelRunner` at
    ``jobs=1`` (the pure serial path) and ``jobs=parallel_jobs`` (the
    process-pool path) and compares canonical JSON digests of the full
    result lists.
    """
    result = OracleResult(oracle="parallel", seed=seed)
    seed_base = 10_000 + seed * 1_000
    serial = ParallelRunner(jobs=1).run(trial, trials, seed_base=seed_base)
    fanned = ParallelRunner(jobs=parallel_jobs).run(trial, trials, seed_base=seed_base)
    result.cases += 1
    if _digest(serial) != _digest(fanned):
        result._note(
            f"digest trials={trials} seed_base={seed_base}",
            "serial and parallel result digests differ",
        )
    return result


def chain_rng_oracle(seed: int, trials: int = 6) -> OracleResult:
    """Per-trial RNG isolation in the judgment-chain simulator.

    Same seed twice must be bit-identical; distinct seeds must produce
    distinct streams (with overwhelming probability for chains this long);
    and running a sweep in reverse order must not change any per-seed
    result — the signature of a shared module-level stream.
    """
    result = OracleResult(oracle="chain-rng", seed=seed)
    seeds = [seed * 100 + i for i in range(trials)]
    forward = [chain_trial(s) for s in seeds]
    backward = list(reversed([chain_trial(s) for s in reversed(seeds)]))
    for s, a, b in zip(seeds, forward, backward):
        result.cases += 1
        if a != b:
            result._note(
                f"order-independence seed={s}",
                "per-seed result changed with sweep order (shared RNG stream)",
            )
    result.cases += 1
    streams = {
        _digest([{k: v for k, v in r.items() if k != "seed"}]) for r in forward
    }
    if len(streams) != len(forward):
        result._note(
            "seed-separation",
            f"seeds {seeds} produced colliding chain results",
        )
    repeat = [chain_trial(s) for s in seeds]
    result.cases += 1
    if repeat != forward:
        result._note("reproducibility", "same seeds, different results")
    return result
