"""The bit-identical digest contract, pinned through the one run path.

Every refactor of the simulator must leave the seeded trial results of the
gate specs unchanged.  ``bench_defrag_database`` and ``bench_defrag_idle``
re-run serially, uncached, at the trials/scale of their committed
``EXP_<name>.json`` baselines and must reproduce the pinned
``results_digest`` and ``events_total`` (which the committed artifacts
carry too).  ``bench_groveler_setup`` has no committed report; it runs at
four trials.  Each spec's metrics are every key of the scenario's trial
dict, so a digest covers each trial's full result.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.spec import (
    get_experiment,
    load_experiment_report,
    run_experiment,
)
from repro.simos.engine import Engine
from repro.simos.kernel import Kernel

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: ``(results_digest, events_total)`` per gate spec, recorded with the
#: runner that preceded the spec path (and checked there against its own,
#: older pins), at scale 0.05: 15 trials for the defragmenter specs, 4 for
#: the Groveler.  The Groveler pin covers the CD-ROM and two devices
#: contending on the shared bus.
PINS = {
    "bench_defrag_database": ("8c44d4c19e493f14", 105033),
    "bench_defrag_idle": ("8604779ce336bcdf", 60873),
    "bench_groveler_setup": ("5111ea907c1f7ce5", 10343),
}


@pytest.mark.parametrize("name", ["defrag_database", "defrag_idle"])
def test_committed_digest_reproduces(name):
    spec_name = f"bench_{name}"
    committed = load_experiment_report(RESULTS / f"EXP_{spec_name}.json")
    assert (committed["results_digest"], committed["events_total"]) == PINS[spec_name]
    fresh = run_experiment(
        get_experiment(spec_name),
        trials=committed["trials"],
        scale=committed["scale"],
        jobs=1,
    )
    assert fresh["results_digest"] == committed["results_digest"]
    assert fresh["events_total"] == committed["events_total"]


def test_groveler_setup_digest_reproduces():
    fresh = run_experiment(get_experiment("bench_groveler_setup"), trials=4, jobs=1)
    assert (fresh["results_digest"], fresh["events_total"]) == PINS["bench_groveler_setup"]


def test_kernel_runs_on_the_heap_engine():
    assert type(Kernel(seed=0).engine) is Engine
