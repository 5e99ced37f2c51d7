"""The bit-identical digest contract, pinned against the committed baselines.

Every refactor of the simulator must leave the seeded trial results of the
committed ``BENCH_defrag_*`` reports unchanged.  These tests re-run both
benchmarks serially, uncached, at the committed ``trials``/``scale`` and
compare ``results_digest`` with the value on disk.  ``groveler_setup`` has
no committed report, so its digest is pinned here as a literal.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.bench import run_benchmark
from repro.simos.engine import Engine
from repro.simos.kernel import Kernel

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


@pytest.mark.parametrize("name", ["defrag_database", "defrag_idle"])
def test_committed_digest_reproduces(name):
    committed = json.loads((RESULTS / f"BENCH_{name}.json").read_text())
    fresh = run_benchmark(
        name,
        jobs=1,
        trials=committed["trials"],
        scale=committed["scale"],
        use_cache=False,
    )
    assert fresh["results_digest"] == committed["results_digest"]
    assert fresh["events_total"] == committed["events_total"]


#: ``groveler_setup`` at the default scale (0.05), four trials, recorded
#: before the disk/bus/kernel completion path was flattened.  It is the
#: pin that covers the CD-ROM and two devices contending on the shared bus.
GROVELER_SETUP_DIGEST = "8cab35cab0ad952b"
GROVELER_SETUP_EVENTS = 10343


def test_groveler_setup_digest_reproduces():
    fresh = run_benchmark("groveler_setup", jobs=1, trials=4, use_cache=False)
    assert fresh["results_digest"] == GROVELER_SETUP_DIGEST
    assert fresh["events_total"] == GROVELER_SETUP_EVENTS


def test_kernel_runs_on_the_heap_engine():
    assert type(Kernel(seed=0).engine) is Engine
