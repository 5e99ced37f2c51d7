"""Helpers shared by the benchmark modules (env-driven sizing + fan-out).

Every ``bench_*`` module sizes itself from the environment.  Repeated
trials go through :func:`run_spec`, which runs a registered
:class:`~repro.experiments.spec.ExperimentSpec` on the parallel trial
engine (:mod:`repro.analysis.parallel`); single-trial figures call their
trial function directly:

* ``REPRO_TRIALS`` — trials per configuration (paper uses 50);
* ``REPRO_SCALE`` — workload scale (1.0 = paper-magnitude run times);
* ``REPRO_JOBS`` — worker processes for trial fan-out (default 1 here, so
  a plain pytest run stays single-process and exactly reproduces the
  serial results; set ``REPRO_JOBS=4`` to use four cores);
* ``REPRO_CACHE`` — set to ``0``/``false``/``no``/``off`` to disable the
  content-keyed trial cache under ``benchmarks/results/cache/`` (enabled
  by default: re-running an unchanged sweep skips completed trials).

All env parsing goes through :mod:`repro.analysis.env`, so malformed
values fail loudly with the variable name and the offending value instead
of being silently mis-read.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.env import env_flag, env_scale
from repro.analysis.parallel import TrialCache, resolve_jobs

#: Benchmark trial cache location, next to the persisted reports.
CACHE_DIR = Path(__file__).parent / "results" / "cache"


def bench_scale(default: float = 1.0) -> float:
    """Workload scale (``REPRO_SCALE``; 1.0 = paper-magnitude run times).

    Validated finite-and-positive: ``REPRO_SCALE=0`` used to silently
    collapse every workload to its minimum size; now it raises the same
    style of :class:`ValueError` as
    :func:`repro.analysis.runner.trial_count`.
    """
    return env_scale(default=default)


def bench_jobs(default: int = 1) -> int:
    """Worker processes for trial fan-out (``REPRO_JOBS``; default serial)."""
    return resolve_jobs(None, default=default)


def bench_cache() -> TrialCache | None:
    """The benchmark trial cache, or ``None`` when ``REPRO_CACHE`` is falsy.

    ``REPRO_CACHE`` accepts ``0/false/no/off`` and ``1/true/yes/on``, any
    capitalization; anything else raises (``REPRO_CACHE=False`` used to
    silently *enable* the cache).
    """
    if not env_flag("REPRO_CACHE", default=True):
        return None
    return TrialCache(CACHE_DIR)


def full_run() -> bool:
    """Whether to run the long-form experiments (``REPRO_FULL=1``)."""
    return env_flag("REPRO_FULL", default=False)


def run_spec(name: str, trials: int | None = None) -> dict:
    """Run one registered :class:`~repro.experiments.spec.ExperimentSpec`
    wired to the benchmark environment (trials, scale, jobs, cache).

    The spec-driven path every figure bench now uses: same seeds, same
    trial functions, same cache namespaces as the hand-rolled sweeps they
    replaced, so samples are bit-identical to the pre-platform outputs.
    """
    from repro.experiments.spec import get_experiment, run_experiment

    # Scale resolves inside the spec (pinned value, else REPRO_SCALE, else
    # 1.0) so a spec-pinned scale is not clobbered by the env default.
    return run_experiment(
        get_experiment(name),
        trials=trials,
        jobs=bench_jobs(),
        cache=bench_cache(),
    )


def spec_samples(name: str, metric: str, trials: int | None = None) -> dict[str, list]:
    """``{cell: samples}`` of one metric from a spec run — the
    :func:`repro.analysis.runner.aggregate`-ready shape the figure benches
    consume (mode-keyed for the single-variable contention sweeps).
    """
    from repro.experiments.spec import samples_by_cell

    return samples_by_cell(run_spec(name, trials=trials), metric)
