"""Tests of the benchmark itself: names, determinism, failure rules, tracing.

Run with ``python3 -m pytest paperbench/tests -q`` from the repository root.
Trials here run at scale 0.05, where one costs about a tenth of a second.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from paperbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL = 0.05


def small(name: str, seeds: int = 2) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], scale=SMALL, seeds=seeds)


def cycle(workload: workloads.Workload, seed_base: int, traced: bool = False) -> list[dict]:
    modes = workload.modes + ((workload.reference,) if workload.reference else ())
    specs = workloads.specs_for(workload, seed_base, modes=modes)
    return [workloads.run_trial(spec, traced) for spec in specs]


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_sweep() -> tuple[list[dict], list[dict]]:
    w = small("sweep_small", seeds=1)
    return cycle(w, 40), cycle(w, 40, traced=True)


def test_metric_names_use_only_allowed_characters(benchmark_json):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in benchmark_json[key]]
    names += [w["name"] for w in benchmark_json["workloads"]]
    assert names and all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))


def test_workloads_match_benchmark_json(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_are_the_declared_per_layer_metrics(benchmark_json, traced_sweep):
    untraced, traced = traced_sweep
    produced = set(workloads.layer_metrics(traced, untraced))
    produced |= {"parallel.pool_start_s", "parallel.dispatch_s",
                 "parallel.worker_busy_frac", "core.signtest.table_build_s",
                 "trace.overhead"}
    declared = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert produced == set(declared)
    for name, unit in declared.items():
        assert run.unit_of(name) == unit, name


def test_same_seed_gives_identical_digest_and_simulated_metrics():
    w = small("paper_grovel")
    first, second = cycle(w, 10), cycle(w, 10)
    assert all(workloads.trial_failure(o) is None for o in first + second)
    assert workloads.results_digest(first) == workloads.results_digest(second)
    assert workloads.simulated_metrics(first) == workloads.simulated_metrics(second)


def test_different_seed_gives_different_digest():
    w = small("paper_defrag", seeds=1)
    assert workloads.results_digest(cycle(w, 10)) != workloads.results_digest(cycle(w, 11))


def test_installing_the_wrappers_leaves_the_digest_unchanged(traced_sweep):
    from repro.simos.disk import Disk
    from repro.simos.kernel import Kernel

    untraced, traced = traced_sweep
    assert workloads.results_digest(untraced) == workloads.results_digest(traced)
    assert all(o["layers"]["spans"] for o in traced)
    # uninstall restored the program's own methods
    assert Kernel.run.__qualname__ == "Kernel.run"
    assert Disk.submit.__qualname__ == "Disk.submit"
    assert "__init__" in vars(Kernel) and Kernel.__init__.__qualname__ == "Kernel.__init__"


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        return 1

    wrapped_child = tracer.wrap("a:child", child)

    def parent():
        return wrapped_child() + wrapped_child()

    assert tracer.wrap("b:parent", parent)() == 2
    summary = tracer.summary()
    calls, total, self_s = summary["b:parent"]
    assert calls == 1 and summary["a:child"][0] == 2
    assert self_s == pytest.approx(total - summary["a:child"][1])
    parent_id = tracer.span_id[-1]
    assert list(tracer.span_parent) == [parent_id, parent_id, 0]


@pytest.mark.parametrize("sim, error, mode, reason", [
    (None, "SimulationError: boom", "MS Manners", "raised"),
    ({"hi_time": None, "li_time": 5.0}, None, "MS Manners", "HI workload did not finish"),
    ({"hi_time": 3.0, "li_time": None}, None, "MS Manners", "LI application did not finish"),
    ({"hi_time": math.nan, "li_time": 5.0}, None, "MS Manners", "bad HI time"),
    ({"hi_time": 3.0, "li_time": -1.0}, None, "BeNice", "bad LI time"),
    ({"hi_time": 0.0, "li_time": None}, None, "not running", "bad HI time"),
])
def test_failure_rules(sim, error, mode, reason):
    spec = workloads.TrialSpec("defrag_database", mode, 1, SMALL)
    why = workloads.trial_failure({"spec": spec, "sim": sim, "error": error})
    assert why is not None and reason in why


def test_not_running_trial_needs_no_li_time():
    spec = workloads.TrialSpec("defrag_database", "not running", 1, SMALL)
    assert workloads.trial_failure(
        {"spec": spec, "sim": {"hi_time": 3.0, "li_time": None}, "error": None}) is None


def test_broken_trial_result_is_counted_as_failed(monkeypatch):
    real = workloads._call_scenario

    def broken(spec):
        result = real(spec)
        result.li_time = math.inf
        return result

    monkeypatch.setattr(workloads, "_call_scenario", broken)
    w = small("paper_defrag", seeds=1)
    bench = run.Bench(w, SimpleNamespace(seed=0, seconds=1.0, trace=0))
    bench.execute(workloads.specs_for(w, 5), traced=False)
    assert bench.attempted == 1
    assert len(bench.failures) == 1 and "bad LI time" in bench.failures[0]


@pytest.mark.parametrize("name", run.WORKLOAD_ENV)
def test_workload_changing_environment_is_refused(name):
    with pytest.raises(run.BenchError, match=name):
        run.check_environment({name: "1"})
    run.check_environment({"REPRO_UNRELATED": "1"})


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in __import__("os").environ.items() if not k.startswith("REPRO_")}
    return subprocess.run([sys.executable, "paperbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170, check=False)


def test_command_prints_every_end_to_end_metric(benchmark_json):
    done = _run(ROOT, "--workload", "sweep_small", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "paperbench", tmp_path / "paperbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "paper_defrag", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
