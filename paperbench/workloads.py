"""The benchmark's workloads, its per-trial runner and its correctness rules.

A trial is one call of a public scenario function of
``repro.experiments.scenarios`` with a pinned mode, seed and scale.  Every
trial function here is a module-level function of plain arguments, so a
``ParallelRunner`` worker can run it.  The trial cache is never used.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from functools import partial

from paperbench import tracing

__all__ = [
    "WORKLOADS",
    "Workload",
    "TrialSpec",
    "run_trial",
    "trial_failure",
    "results_digest",
    "layer_metrics",
]

NOT_RUNNING = "not running"
MS_MANNERS = "MS Manners"
FIG3_MODES = ("not running", "unregulated", "CPU priority", "MS Manners", "BeNice")
#: Modes whose trials carry decision telemetry on ``sweep_small``.
REGULATED = ("MS Manners", "BeNice")


@dataclass(frozen=True)
class Workload:
    """One named workload: a scenario, its modes, and how trials fan out."""

    name: str
    scenario: str
    scale: float
    #: Modes whose trials are timed samples of ``trial_s``.
    modes: tuple[str, ...]
    #: Mode run once per seed as the ``hi_slowdown`` reference (not a sample).
    reference: str | None
    #: Distinct scenario seeds per cycle; the results digest covers one cycle.
    seeds: int
    #: ``ParallelRunner`` workers, or 1 to run inline.
    jobs: int
    telemetry: bool
    #: The paper's HI slowdown for this figure (None: no comparable value).
    paper_slowdown: float | None
    paper_figure: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_defrag", "defrag_database", 1.0, (MS_MANNERS,), NOT_RUNNING,
                 seeds=3, jobs=1, telemetry=False, paper_slowdown=1.07,
                 paper_figure="Fig 3"),
        Workload("paper_grovel", "groveler_setup", 1.0, (MS_MANNERS,), NOT_RUNNING,
                 seeds=4, jobs=1, telemetry=False, paper_slowdown=1.12,
                 paper_figure="Fig 4"),
        Workload("sweep_small", "defrag_database", 0.05, FIG3_MODES, None,
                 seeds=8, jobs=2, telemetry=True, paper_slowdown=None,
                 paper_figure="Fig 3"),
    )
}


@dataclass(frozen=True)
class TrialSpec:
    scenario: str
    mode: str
    seed: int
    scale: float
    telemetry: bool = False


def specs_for(workload: Workload, seed_base: int, modes=None) -> list[TrialSpec]:
    """One cycle of trials: every seed of the cycle in every mode."""
    modes = workload.modes if modes is None else modes
    return [
        TrialSpec(workload.scenario, mode, seed_base + i, workload.scale,
                  workload.telemetry and mode in REGULATED)
        for mode in modes
        for i in range(workload.seeds)
    ]


# ---------------------------------------------------------------------------
# Running one trial
# ---------------------------------------------------------------------------

# Per-process state: pool workers reach it only through the module-level
# trial functions, and one trial runs at a time in each process.
_probe = tracing.Probe()
_tracer: tracing.Tracer | None = None


def _call_scenario(spec: TrialSpec):
    from repro.apps.base import RegulationMode
    from repro.experiments import scenarios

    mode = RegulationMode(spec.mode)
    if spec.scenario == "defrag_database":
        telemetry = sink = tracer = None
        if spec.telemetry:
            from repro.obs import MemorySink, Telemetry, Tracer

            sink, tracer = MemorySink(), Tracer()
            telemetry = Telemetry(sink, tracer=tracer)
        result = scenarios.defrag_database_trial(
            mode, spec.seed, scale=spec.scale, telemetry=telemetry
        )
        if telemetry is not None:
            telemetry.close()
            result.extras["obs_events"] = len(sink.events)
            result.extras["obs_spans"] = tracer.spans_issued
        return result
    if spec.scenario == "groveler_setup":
        return scenarios.groveler_setup_trial(mode, spec.seed, scale=spec.scale)
    raise ValueError(f"unknown scenario {spec.scenario!r}")


def run_trial(spec: TrialSpec, traced: bool = False, spans: bool = True) -> dict:
    """Run one trial in this process.

    Returns the simulated outputs (``sim``), the host time of the trial and
    its bounds on the shared monotonic clock, the peak RSS of this process,
    and with ``traced`` the per-layer aggregates (and, with ``spans``, the
    spans themselves).  A trial that raises is returned with ``error`` set,
    never re-raised.
    """
    global _tracer
    tracer = None
    if traced:
        if _tracer is None:
            _tracer = tracing.Tracer()
        tracer = _tracer
        tracer.reset()
    _probe.reset()
    missing = tracing.install(_probe, tracer)
    out: dict = {"spec": spec, "pid": os.getpid(), "error": None, "sim": None}
    start = time.perf_counter()
    try:
        result = _call_scenario(spec)
    except Exception as exc:  # a failed trial is counted, not fatal
        result = None
        out["error"] = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    tracing.uninstall()
    out.update(start=start, end=end, host_s=end - start,
               kernel_run_s=_probe.kernel_run_s,
               rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if result is not None:
        out["sim"] = _simulated_outputs(result, _probe.kernels)
    if tracer is not None:
        out["layers"] = _layer_counts(tracer, _probe, result)
        out["missing_entry_points"] = missing
        if spans:
            out["spans"] = tracer.export_spans()
    _probe.reset()
    return out


def _simulated_outputs(result, kernels) -> dict:
    """Every simulated statistic the digest covers (no host times)."""
    disks = {}
    for k, kernel in enumerate(kernels):
        for name in sorted(kernel.disks):
            stats = kernel.disks[name].stats
            disks[f"{k}:{name}"] = [
                stats.requests, stats.bytes_read, stats.bytes_written,
                stats.busy_time, stats.queue_wait_time, stats.max_queue_wait,
                stats.queued_peak, stats.sequential_hits,
            ]
    return {
        "hi_time": result.hi_time,
        "li_time": result.li_time,
        "move_ops": result.extras.get("move_ops"),
        "events_fired": result.extras.get("events_fired"),
        "disks": disks,
    }


def _layer_counts(tracer: tracing.Tracer, probe: tracing.Probe, result) -> dict:
    bus = [k.bus.stats.transfers for k in probe.kernels if k.bus is not None]
    extras = result.extras if result is not None else {}
    return {
        "spans": tracer.summary(),
        "thread_events": probe.thread_events,
        "decisions": probe.decisions,
        "processed": probe.processed,
        "suspensions": probe.suspensions,
        "free_extents": probe.free_extents,
        "bus_transfers_done": sum(bus),
        "obs_events": extras.get("obs_events", 0),
        "obs_spans": extras.get("obs_spans", 0),
    }


def warm_up(scenario: str, scale: float, seed: int) -> dict:
    """One small MS Manners trial, so lazily built tables exist before timing.

    Also times the slowest ``SignTest`` construction of the trial: the one
    that builds this process's sign-test threshold tables.
    """
    from repro.core.signtest import SignTest

    original = SignTest.__init__
    longest = [0.0]

    def timed_init(self, *args, **kwargs):
        start = time.perf_counter()
        original(self, *args, **kwargs)
        longest[0] = max(longest[0], time.perf_counter() - start)

    SignTest.__init__ = timed_init
    try:
        out = run_trial(TrialSpec(scenario, MS_MANNERS, seed, scale))
    finally:
        SignTest.__init__ = original
    if trial_failure(out) is not None:
        raise RuntimeError(f"warm-up trial failed: {trial_failure(out)}")
    return {"pid": out["pid"], "trial_s": out["host_s"], "table_build_s": longest[0],
            "rss_kb": out["rss_kb"]}


#: Set in the parent before the pool forks, so each worker takes exactly
#: one warm-up task (a worker blocked at the barrier cannot take a second).
_warm_barrier = None


def arm_warm_barrier(parties: int) -> None:
    import multiprocessing

    global _warm_barrier
    _warm_barrier = multiprocessing.Barrier(parties)


def warm_up_worker(scenario: str, scale: float, seed: int) -> dict:
    """``ParallelRunner`` entry for warming one pool worker."""
    result = warm_up(scenario, scale, seed)
    if _warm_barrier is not None:
        import threading

        try:
            _warm_barrier.wait(timeout=60)
        except threading.BrokenBarrierError:
            pass
    return result


def trial_by_seed(scenario, mode, scale, telemetry, traced, spans, seed) -> dict:
    """``ParallelRunner`` entry: the runner supplies the seed last."""
    return run_trial(TrialSpec(scenario, mode, seed, scale, telemetry), traced, spans)


def runner_trial(workload: Workload, mode: str, traced: bool, spans: bool):
    """Picklable ``trial(seed)`` for ``ParallelRunner.run``."""
    return partial(trial_by_seed, workload.scenario, mode, workload.scale,
                   workload.telemetry and mode in REGULATED, traced, spans)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def _bad_time(value) -> bool:
    return not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0


def trial_failure(out: dict) -> str | None:
    """Why a trial failed, or ``None``.

    A trial fails if it raised, if an application its mode runs did not
    finish before the horizon, or if it returned a non-finite or
    non-positive time.  The HI workload runs in every mode; the LI
    application runs in every mode but ``not running``.
    """
    if out.get("error"):
        return f"raised {out['error']}"
    sim = out.get("sim")
    if sim is None:
        return "no result"
    if sim["hi_time"] is None:
        return "HI workload did not finish before the horizon"
    if _bad_time(sim["hi_time"]):
        return f"bad HI time {sim['hi_time']!r}"
    if out["spec"].mode != NOT_RUNNING:
        if sim["li_time"] is None:
            return "LI application did not finish before the horizon"
        if _bad_time(sim["li_time"]):
            return f"bad LI time {sim['li_time']!r}"
    return None


def digest_material(out: dict) -> list:
    spec = out["spec"]
    return [spec.scenario, spec.mode, spec.seed, spec.scale, out.get("error"), out.get("sim")]


def results_digest(outs: list[dict]) -> str:
    """sha256 over the simulated outputs of ``outs``, in order.

    Floats serialise with ``repr`` precision, so any change to any
    simulated statistic changes the digest.
    """
    text = json.dumps([digest_material(o) for o in outs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Simulated end-to-end metrics
# ---------------------------------------------------------------------------

def simulated_metrics(outs: list[dict]) -> dict:
    """``hi_slowdown`` and ``li_sim_s`` from one cycle's trials.

    ``hi_slowdown`` is, per seed, the HI time with the MS Manners-regulated
    LI application present divided by the HI time alone; the median is
    taken over seeds.  ``li_sim_s`` is the median regulated LI time.
    """
    by_key = {(o["spec"].mode, o["spec"].seed): o["sim"] for o in outs if o.get("sim")}
    ratios = []
    li = []
    for (mode, seed), sim in by_key.items():
        if mode != MS_MANNERS:
            continue
        alone = by_key.get((NOT_RUNNING, seed))
        if alone and sim["hi_time"] and alone["hi_time"]:
            ratios.append(sim["hi_time"] / alone["hi_time"])
        if sim["li_time"]:
            li.append(sim["li_time"])
    return {
        "hi_slowdown": statistics.median(ratios) if ratios else None,
        "li_sim_s": statistics.median(li) if li else None,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _span_sum(layers: dict, layer: str, column: int, suffix: str = "") -> float:
    return sum(
        stat[column]
        for name, stat in layers["spans"].items()
        if tracing.layer_of(name) == layer and name.endswith(suffix)
    )


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics, as means per measured trial.

    ``traced`` are the traced trials of one cycle; ``untraced`` the same
    trials run without wrappers (the engine rate uses their host time, so
    tracing does not slow it).
    """
    n = len(traced)
    layers = [t["layers"] for t in traced]

    def per_trial(fn) -> float:
        return sum(fn(la) for la in layers) / n

    def disk_sum(out, column):
        return sum(v[column] for v in out["sim"]["disks"].values()) if out["sim"] else 0

    events = sum(o["sim"]["events_fired"] for o in untraced if o["sim"])
    run_s = sum(o["kernel_run_s"] for o in untraced)
    decisions = sum(la["decisions"] for la in layers)
    processed = sum(la["processed"] for la in layers)
    return {
        "simos.filesystem.calls": per_trial(lambda la: _span_sum(la, "simos.filesystem", 0)),
        "simos.filesystem.self_s": per_trial(lambda la: _span_sum(la, "simos.filesystem", 2)),
        "simos.filesystem.free_extents": per_trial(lambda la: la["free_extents"]),
        "simos.filesystem.populate_s": per_trial(
            lambda la: _span_sum(la, "simos.filesystem", 1, ":populate_volume")),
        "simos.engine.events": sum(o["sim"]["events_fired"] for o in traced if o["sim"]) / n,
        "simos.engine.posts": per_trial(lambda la: _span_sum(la, "simos.engine", 0)),
        "simos.engine.post_s": per_trial(lambda la: _span_sum(la, "simos.engine", 2)),
        "simos.engine.events_per_s": events / run_s if run_s > 0 else 0.0,
        "simos.kernel.self_s": per_trial(lambda la: _span_sum(la, "simos.kernel", 2)),
        "simos.kernel.thread_events": per_trial(lambda la: la["thread_events"]),
        "simos.disk.requests": sum(disk_sum(o, 0) for o in traced) / n,
        "simos.disk.submit_s": per_trial(lambda la: _span_sum(la, "simos.disk", 2)),
        "simos.disk.busy_sim_s": sum(disk_sum(o, 3) for o in traced) / n,
        "simos.disk.queue_wait_sim_s": sum(disk_sum(o, 4) for o in traced) / n,
        "simos.bus.transfers": per_trial(lambda la: la["bus_transfers_done"]),
        "simos.bus.transfer_s": per_trial(lambda la: _span_sum(la, "simos.bus", 2)),
        "simos.cpu.requests": per_trial(lambda la: _span_sum(la, "simos.cpu", 0)),
        "simos.cpu.request_s": per_trial(lambda la: _span_sum(la, "simos.cpu", 2)),
        "core.testpoints": decisions / n,
        "core.processed_ratio": processed / decisions if decisions else 0.0,
        "core.suspensions": per_trial(lambda la: la["suspensions"]),
        "core.self_s": per_trial(lambda la: _span_sum(la, "core", 2)),
        "core.signtest.self_s": per_trial(lambda la: _span_sum(la, "core.signtest", 2)),
        "core.calibration.self_s": per_trial(lambda la: _span_sum(la, "core.calibration", 2)),
        "benice.polls": per_trial(
            lambda la: _span_sum(la, "benice", 0, "AdaptivePoller.record_poll")),
        "benice.self_s": per_trial(lambda la: _span_sum(la, "benice", 2)),
        "obs.events": per_trial(lambda la: la["obs_events"]),
        "obs.spans": per_trial(lambda la: la["obs_spans"]),
        "obs.emit_s": per_trial(lambda la: _span_sum(la, "obs", 2)),
    }
