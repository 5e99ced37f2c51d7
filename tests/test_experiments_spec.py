"""The declarative experiment platform (repro.experiments.spec).

Determinism contract tests: cell enumeration is a pure function of the
spec, per-cell seeds are independent of enumeration order under
``seeds="derived"``, serial and parallel runs produce bit-identical
report digests, and the trial cache round-trips a spec run (a warm second
run executes zero trials and reports no throughput).  Plus
spec-resolution precedence, registry validation, the like-work baseline
gate, and the report artifact format.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.parallel import TrialCache
from repro.experiments.scenarios import measured_trial
from repro.experiments.spec import (
    EXPERIMENTS,
    SCENARIOS,
    ExperimentSpec,
    baseline_deltas,
    cell_seed_base,
    compare_reports,
    enumerate_cells,
    get_experiment,
    load_experiment_report,
    register,
    register_scenario,
    run_experiment,
    run_experiments,
    samples_by_cell,
    spec_cell_trial,
    write_experiment_report,
)

#: A fast spec for runner tests: defrag_idle at a tiny scale runs a trial
#: in ~10 ms.
TINY = ExperimentSpec(
    name="tiny_idle",
    scenario="defrag_idle",
    variables={"mode": ("unregulated", "MS Manners")},
    metrics=("li_time", "events_fired"),
    seed_base=3000,
    trials=2,
    scale=0.01,
)


class TestSpecDefinition:
    def test_cell_enumeration_declaration_order(self):
        spec = ExperimentSpec(
            name="grid",
            scenario="defrag_idle",
            variables={"mode": ("a", "b"), "scale_class": (1, 2, 3)},
            metrics=("li_time",),
        )
        cells = enumerate_cells(spec)
        assert cells == [
            {"mode": "a", "scale_class": 1},
            {"mode": "a", "scale_class": 2},
            {"mode": "a", "scale_class": 3},
            {"mode": "b", "scale_class": 1},
            {"mode": "b", "scale_class": 2},
            {"mode": "b", "scale_class": 3},
        ]
        assert spec.cell_count == 6
        # Pure function of the spec: enumerating again gives the same list.
        assert enumerate_cells(spec) == cells

    def test_paired_seeds_identical_across_cells(self):
        spec = ExperimentSpec(
            name="paired",
            scenario="defrag_idle",
            variables={"mode": ("a", "b")},
            metrics=("li_time",),
            seed_base=777,
        )
        assert [cell_seed_base(spec, c) for c in enumerate_cells(spec)] == [777, 777]

    def test_derived_seeds_independent_of_enumeration_order(self):
        forward = ExperimentSpec(
            name="fwd",
            scenario="defrag_idle",
            variables={"mode": ("a", "b"), "x": (1, 2)},
            metrics=("li_time",),
            seeds="derived",
        )
        # Same cells, declared in reversed variable order and with the
        # levels reversed: every cell must still derive the same seed base.
        backward = ExperimentSpec(
            name="bwd",
            scenario="defrag_idle",
            variables={"x": (2, 1), "mode": ("b", "a")},
            metrics=("li_time",),
            seeds="derived",
        )
        fwd = {
            frozenset(c.items()): cell_seed_base(forward, c)
            for c in enumerate_cells(forward)
        }
        bwd = {
            frozenset(c.items()): cell_seed_base(backward, c)
            for c in enumerate_cells(backward)
        }
        assert fwd == bwd
        # ... and distinct cells get distinct seed bases.
        assert len(set(fwd.values())) == len(fwd)

    def test_derived_seed_depends_on_seed_base_and_scenario(self):
        base = dict(
            variables={"mode": ("a",)}, metrics=("li_time",), seeds="derived"
        )
        a = ExperimentSpec(name="a", scenario="defrag_idle", seed_base=1, **base)
        b = ExperimentSpec(name="b", scenario="defrag_idle", seed_base=2, **base)
        c = ExperimentSpec(name="c", scenario="defrag_database", seed_base=1, **base)
        cell = {"mode": "a"}
        assert cell_seed_base(a, cell) != cell_seed_base(b, cell)
        assert cell_seed_base(a, cell) != cell_seed_base(c, cell)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="x", scenario="defrag_idle", variables={},
                metrics=("li_time",),
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="x", scenario="defrag_idle", variables={"mode": ()},
                metrics=("li_time",),
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="x", scenario="defrag_idle", variables={"mode": ("a",)},
                metrics=("li_time",), seeds="random",
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="x", scenario="defrag_idle", variables={"mode": ("a",)},
                metrics=("li_time",), scale=0.0,
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="x", scenario="defrag_idle", variables={"mode": ("a",)},
                metrics=("li_time",), trials_factor=0.0,
            )

    def test_resolve_trials_precedence(self, monkeypatch):
        spec = ExperimentSpec(
            name="t", scenario="defrag_idle", variables={"mode": ("a",)},
            metrics=("li_time",), default_trials=5,
        )
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert spec.resolve_trials() == 5
        monkeypatch.setenv("REPRO_TRIALS", "9")
        assert spec.resolve_trials() == 9
        assert spec.resolve_trials(3) == 3  # explicit beats env
        pinned = ExperimentSpec(
            name="p", scenario="defrag_idle", variables={"mode": ("a",)},
            metrics=("li_time",), trials=1,
        )
        assert pinned.resolve_trials() == 1  # pin beats env

    def test_resolve_trials_factor_matches_legacy_arithmetic(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        spec = ExperimentSpec(
            name="half", scenario="defrag_database",
            variables={"mode": ("not running",)}, metrics=("hi_time",),
            trials_factor=0.5, min_trials=2,
        )
        # The Figure 6 control arm ran max(2, trials // 2).
        for n in (3, 5, 7, 50):
            assert spec.resolve_trials(n) == max(2, n // 2)

    def test_resolve_scale_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        unpinned = ExperimentSpec(
            name="u", scenario="defrag_idle", variables={"mode": ("a",)},
            metrics=("li_time",),
        )
        assert unpinned.resolve_scale() == 0.25
        assert TINY.resolve_scale() == 0.01  # pin beats env
        assert TINY.resolve_scale(0.5) == 0.5  # explicit beats pin
        with pytest.raises(ValueError):
            TINY.resolve_scale(-1.0)


class TestRegistry:
    def test_builtin_specs_registered(self):
        for name in (
            "fig3_database", "fig4_setup", "fig5_idle", "fig6_contended",
            "fig6_defrag_alone", "fig6_database_alone",
            "ablation_backoff", "ablation_comparator", "smoke",
            "bench_defrag_database", "bench_defrag_idle", "bench_groveler_setup",
        ):
            assert name in EXPERIMENTS
            assert EXPERIMENTS[name].scenario in SCENARIOS

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            get_experiment("nope")
        assert "nope" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(EXPERIMENTS["smoke"])

    def test_register_requires_known_scenario(self):
        spec = ExperimentSpec(
            name="ghost", scenario="ghost_scenario",
            variables={"mode": ("a",)}, metrics=("li_time",),
        )
        with pytest.raises(ValueError):
            register(spec)

    def test_duplicate_scenario_rejected(self):
        with pytest.raises(ValueError):
            register_scenario("defrag_idle", lambda seed, scale=1.0: {})

    def test_spec_cell_trial_unknown_scenario(self):
        with pytest.raises(ValueError):
            spec_cell_trial("ghost", (), 1.0, 1)


class TestRunExperiment:
    def test_tiny_digest_pinned(self):
        """``TINY``'s digest, recorded when the spec path was checked
        bit-identical against the hand-rolled per-mode sweep it replaced."""
        assert run_experiment(TINY)["results_digest"] == "15ee7a055df63f09"

    def test_fig4_tiny_digest_pinned(self):
        """The fig4_setup port's shape (groveler_setup, seed_base=2000) at
        a tiny scale and a two-mode subset; the digest was recorded when
        its samples matched the hand-rolled sweep bit for bit."""
        spec = ExperimentSpec(
            name="fig4_tiny",
            scenario="groveler_setup",
            variables={"mode": ("not running", "MS Manners")},
            metrics=("hi_time",),
            seed_base=2000,
            trials=2,
            scale=0.01,
        )
        assert run_experiment(spec)["results_digest"] == "b7c356d55334165f"

    @pytest.mark.parametrize(
        "name", ["bench_defrag_database", "bench_defrag_idle", "bench_groveler_setup"]
    )
    def test_gate_specs_collect_every_trial_key(self, name):
        spec = get_experiment(name)
        ((_, (mode,)),) = spec.variables
        trial = measured_trial(spec.scenario, mode, spec.seed_base, scale=0.01)
        assert set(spec.metrics) == set(trial)

    def test_serial_parallel_digest_parity(self):
        serial = run_experiment(TINY, jobs=1)
        parallel = run_experiment(TINY, jobs=4)
        assert serial["results_digest"] == parallel["results_digest"]
        assert serial["cells"] == parallel["cells"]
        assert parallel["jobs"] == 4

    def test_cache_round_trip_executes_zero_trials(self, tmp_path):
        cache = TrialCache(tmp_path)
        first = run_experiment(TINY, cache=cache)
        assert first["trials_executed"] == 4
        assert first["trials_cached"] == 0
        second = run_experiment(TINY, cache=cache)
        assert second["trials_executed"] == 0
        assert second["trials_cached"] == 4
        assert second["results_digest"] == first["results_digest"]
        assert second["cells"] == first["cells"]

    def test_warm_cache_run_reports_no_throughput(self, tmp_path):
        # A cached trial costs a file read, not a simulation, so dividing
        # its events by the lookup time would overstate events/sec.
        cache = TrialCache(tmp_path)
        cold = run_experiment(TINY, cache=cache)
        assert cold["events_per_sec"] > 0
        warm = run_experiment(TINY, cache=cache)
        assert warm["trials_cached"] == 4
        assert warm["events_per_sec"] is None
        assert compare_reports(cold, warm) == []

    def test_report_shape(self):
        report = run_experiment(TINY)
        assert report["kind"] == "experiment"
        assert report["cell_count"] == 2
        assert report["trials_total"] == 4
        assert len(report["results_digest"]) == 16
        assert report["events_total"] > 0
        for cell in report["cells"]:
            stats = cell["stats"]["li_time"]
            assert stats["n"] == 2
            assert stats["min"] <= stats["median"] <= stats["max"]
        # Cells in enumeration order.
        assert [c["params"]["mode"] for c in report["cells"]] == [
            "unregulated", "MS Manners",
        ]

    def test_run_experiments_shares_runner(self):
        reports = run_experiments([TINY, TINY], jobs=1)
        assert len(reports) == 2
        assert reports[0]["results_digest"] == reports[1]["results_digest"]

    def test_trials_and_scale_overrides(self):
        report = run_experiment(TINY, trials=1, scale=0.02)
        assert report["trials"] == 1
        assert report["scale"] == 0.02


def _write_baseline(report: dict, directory, **overrides) -> None:
    """Commit ``report`` (with ``overrides``) as its spec's baseline."""
    path = directory / f"EXP_{report['name']}.json"
    path.write_text(json.dumps({**report, **overrides}), encoding="utf-8")


class TestBaselineAndArtifact:
    def test_missing_baseline_reported_not_raised(self, tmp_path):
        report = run_experiment(TINY)
        gate = baseline_deltas(report, baseline_dir=tmp_path)
        assert gate["name"] == "EXP_tiny_idle.json"
        assert gate["missing"] is True
        assert gate["failures"] == []

    def test_deltas_against_committed_style_baseline(self, tmp_path):
        report = run_experiment(TINY)
        _write_baseline(
            report, tmp_path, events_per_sec=report["events_per_sec"] * 2
        )
        gate = baseline_deltas(report, baseline_dir=tmp_path)
        assert gate["missing"] is False
        assert gate["not_comparable"] is None
        assert gate["deltas"]["events_per_sec"] == pytest.approx(-0.5, abs=0.01)
        assert gate["deltas"]["events_per_sec_regressed"] is True
        assert gate["failures"], "a 2x throughput drop must fail the gate"

    def test_scale_mismatch_is_not_comparable(self, tmp_path):
        committed = run_experiment(TINY)
        _write_baseline(
            committed, tmp_path, events_per_sec=committed["events_per_sec"] * 2
        )
        fresh = run_experiment(TINY, scale=0.02)
        gate = baseline_deltas(fresh, baseline_dir=tmp_path)
        assert gate["not_comparable"] == "scale 0.02 vs baseline 0.01"
        assert gate["deltas"] == {}
        assert gate["failures"] == []

    def test_cell_mismatch_is_not_comparable(self, tmp_path):
        committed = run_experiment(TINY)
        _write_baseline(
            committed,
            tmp_path,
            events_per_sec=committed["events_per_sec"] * 2,
            cells=committed["cells"][:1],
        )
        gate = baseline_deltas(run_experiment(TINY), baseline_dir=tmp_path)
        assert gate["not_comparable"].startswith("cells ")
        assert gate["deltas"] == {}
        assert gate["failures"] == []

    def test_artifact_round_trip(self, tmp_path):
        report = run_experiment(TINY)
        path = write_experiment_report(report, tmp_path)
        assert path.name == "EXP_tiny_idle.json"
        loaded = load_experiment_report(path)
        assert loaded == json.loads(json.dumps(report))  # JSON-safe
        combined = {"kind": "experiment-report", "experiments": [report]}
        path2 = write_experiment_report(combined, tmp_path)
        assert path2.name == "EXP_report.json"

    def test_samples_by_cell_multivariable_label(self):
        report = {
            "variables": {"a": [1], "b": [2]},
            "cells": [
                {"params": {"a": 1, "b": 2}, "label": "a=1,b=2",
                 "samples": {"m": [0.5]}},
            ],
        }
        assert samples_by_cell(report, "m") == {"a=1,b=2": [0.5]}
