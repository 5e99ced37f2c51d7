"""Verification harness: run every oracle and invariant drive over seeds.

``run_verification(seeds)`` executes each differential oracle from
:mod:`repro.verify.oracles` and each invariant *drive* — a seeded synthetic
workload executed against a monitored live component — for every seed, and
aggregates the outcome into a :class:`VerifyReport`.  The CLI
(``repro verify run``) prints the report and exits non-zero on any
mismatch or violation; CI runs it across three seeds as a required gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import DEFAULT_CONFIG
from repro.core.controller import ThreadRegulator
from repro.core.suspension import SuspensionTimer
from repro.simos.engine import Engine
from repro.verify.invariants import (
    EngineInvariantMonitor,
    InvariantViolation,
    RegulatorInvariantMonitor,
    ViolationRecorder,
    check_regulator_roundtrip,
)
from repro.verify.oracles import (
    OracleResult,
    chain_rng_oracle,
    engine_oracle,
    parallel_oracle,
    signtest_oracle,
)

__all__ = [
    "ORACLES",
    "INVARIANT_DRIVES",
    "DriveResult",
    "VerifyReport",
    "run_verification",
]

#: Registry of differential oracles: name -> fn(seed) -> OracleResult.
ORACLES = {
    "signtest": signtest_oracle,
    "engine": engine_oracle,
    "parallel": parallel_oracle,
    "chain-rng": chain_rng_oracle,
}


@dataclass
class DriveResult:
    """Outcome of one monitored invariant drive."""

    drive: str
    seed: int
    checks: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the drive completed with zero violations."""
        return not self.violations


def _drive_suspension_timer(seed: int) -> DriveResult:
    """Random judgment stream against a monitored SuspensionTimer.

    Sweeps several cap regimes — small (saturates quickly), the paper's
    256 s, and a pathological near-float-max cap — and feeds hundreds of
    POOR/GOOD/reset transitions, including long POOR runs that hold the
    timer at saturation, plus a mid-stream export/import round trip.
    """
    from repro.verify.invariants import SuspensionInvariantMonitor

    rng = random.Random(0x7142 ^ (seed * 0x9E3779B97F4A7C15))
    recorder = ViolationRecorder(mode="record")
    result = DriveResult(drive="suspension-timer", seed=seed)
    for maximum in (8.0, 256.0, 1e300):
        timer = SuspensionTimer(initial=0.25, maximum=maximum)
        monitor = SuspensionInvariantMonitor(timer, recorder)
        for _ in range(200):
            roll = rng.random()
            if roll < 0.6:
                monitor.on_poor()
            elif roll < 0.9:
                monitor.on_good()
            else:
                monitor.reset()
        # Long poor run: pin the timer at its cap, keep checking the law.
        for _ in range(64):
            monitor.on_poor()
        # Saturation must survive an export/import round trip.
        snapshot = monitor.export_state()
        restored = SuspensionTimer(initial=0.25, maximum=maximum)
        restored.import_state(snapshot)
        restored_monitor = SuspensionInvariantMonitor(restored, recorder)
        recorder.checks += 1
        if restored.export_state() != snapshot:
            recorder.report(
                "suspension_timer",
                "roundtrip_fidelity",
                f"snapshot {snapshot} re-exported as {restored.export_state()}",
            )
        restored_monitor.on_poor()
        restored_monitor.on_good()
    result.checks = recorder.checks
    result.violations = recorder.violations
    return result


def _drive_engine(seed: int) -> DriveResult:
    """Random schedule/cancel/run workload against a monitored Engine.

    Reuses the oracle script generator, so the drive exercises the same
    cancellation-heavy patterns that trip heap compaction, with the
    monitor auditing clock monotonicity and counter accounting after
    every step and schedule.
    """
    from repro.verify.oracles import _EngineScriptDriver, _generate_engine_script

    rng = random.Random(0xE391E ^ (seed * 0x2545F4914F6CDD1D))
    recorder = ViolationRecorder(mode="record")
    result = DriveResult(drive="engine", seed=seed)
    engine = Engine()
    monitor = EngineInvariantMonitor(engine, recorder)
    driver = _EngineScriptDriver(engine)
    for op in _generate_engine_script(rng, 150):
        driver.apply(op)
    engine.run()  # Drain whatever is left, still monitored.
    monitor.detach()
    result.checks = recorder.checks
    result.violations = recorder.violations
    return result


def _drive_regulator(seed: int) -> DriveResult:
    """Synthetic testpoint stream against a monitored ThreadRegulator.

    Uses a probation-enabled configuration and a manually-advanced clock;
    the thread alternately honours and ignores its mandated delays, makes
    noisy progress, and occasionally stalls — while the monitor checks
    every decision and periodically audits export/import round-trip
    fidelity.
    """
    rng = random.Random(0x2E64 ^ (seed * 0x9E3779B97F4A7C15))
    recorder = ViolationRecorder(mode="record")
    result = DriveResult(drive="regulator", seed=seed)
    config = DEFAULT_CONFIG.with_overrides(
        bootstrap_testpoints=8,
        probation_period=40.0,
        min_testpoint_interval=0.0,
    )
    regulator = ThreadRegulator(config=config, start_time=0.0)
    monitor = RegulatorInvariantMonitor(regulator, recorder, roundtrip_every=16)
    now = 0.0
    progress = 0.0
    for _ in range(300):
        progress += rng.uniform(5.0, 15.0)
        decision = regulator.on_testpoint(now, 0, (progress,))
        honoured = rng.random() < 0.8
        gap = rng.uniform(0.3, 1.2) * (2.0 if rng.random() < 0.2 else 1.0)
        if honoured:
            now += decision.delay + gap
        else:
            now += gap
    check_regulator_roundtrip(regulator, recorder, t=now)
    monitor.detach()
    result.checks = recorder.checks
    result.violations = recorder.violations
    return result


#: Registry of invariant drives: name -> fn(seed) -> DriveResult.
INVARIANT_DRIVES = {
    "suspension-timer": _drive_suspension_timer,
    "engine": _drive_engine,
    "regulator": _drive_regulator,
}


@dataclass
class VerifyReport:
    """Aggregated outcome of a full verification run."""

    seeds: list[int]
    oracle_results: list[OracleResult] = field(default_factory=list)
    drive_results: list[DriveResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every oracle and every drive came back clean."""
        return all(r.ok for r in self.oracle_results) and all(
            r.ok for r in self.drive_results
        )

    @property
    def total_cases(self) -> int:
        """Oracle cases compared plus invariant checks evaluated."""
        return sum(r.cases for r in self.oracle_results) + sum(
            r.checks for r in self.drive_results
        )

    def as_dict(self) -> dict:
        """JSON-able summary (the CLI's ``--json`` output)."""
        return {
            "seeds": self.seeds,
            "ok": self.ok,
            "total_cases": self.total_cases,
            "oracles": [
                {
                    "oracle": r.oracle,
                    "seed": r.seed,
                    "cases": r.cases,
                    "mismatches": [
                        {"case": m.case, "detail": m.detail} for m in r.mismatches
                    ],
                }
                for r in self.oracle_results
            ],
            "drives": [
                {
                    "drive": r.drive,
                    "seed": r.seed,
                    "checks": r.checks,
                    "violations": [
                        {
                            "component": v.component,
                            "invariant": v.invariant,
                            "detail": v.detail,
                        }
                        for v in r.violations
                    ],
                }
                for r in self.drive_results
            ],
        }

    def lines(self) -> list[str]:
        """Human-readable per-(oracle, seed) summary lines."""
        rows = []
        for r in self.oracle_results:
            status = "ok" if r.ok else f"{len(r.mismatches)} MISMATCHES"
            rows.append(f"oracle {r.oracle:<16} seed={r.seed} cases={r.cases} {status}")
        for r in self.drive_results:
            status = "ok" if r.ok else f"{len(r.violations)} VIOLATIONS"
            rows.append(
                f"invariants {r.drive:<12} seed={r.seed} checks={r.checks} {status}"
            )
        return rows


def run_verification(seeds: list[int]) -> VerifyReport:
    """Run every oracle and invariant drive for each seed."""
    report = VerifyReport(seeds=list(seeds))
    for seed in seeds:
        for fn in ORACLES.values():
            report.oracle_results.append(fn(seed))
        for fn in INVARIANT_DRIVES.values():
            report.drive_results.append(fn(seed))
    return report
