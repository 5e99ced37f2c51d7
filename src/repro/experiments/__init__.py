"""The paper's experiments: scenario functions and the declarative platform.

:mod:`repro.experiments.scenarios` holds the reusable per-trial scenario
functions (section 9); :mod:`repro.experiments.ablations` the
design-choice ablation trials (sections 4.1-4.2); and
:mod:`repro.experiments.spec` the declarative :class:`ExperimentSpec`
registry plus the single runner that fans any spec's cross product
through the parallel trial engine.
"""

from repro.experiments.ablations import (
    backoff_ablation_trial,
    comparator_ablation_trial,
)
from repro.experiments.scenarios import (
    EXPERIMENT_CONFIG,
    MEASURED_SCENARIOS,
    CalibrationResult,
    IsolationResult,
    TrialResult,
    calibration_trial,
    defrag_database_trial,
    defrag_idle_trial,
    groveler_setup_trial,
    measured_trial,
    thread_isolation_trial,
)
from repro.experiments.spec import (
    EXPERIMENTS,
    SCENARIOS,
    ExperimentSpec,
    baseline_deltas,
    cell_seed_base,
    enumerate_cells,
    get_experiment,
    register,
    register_scenario,
    run_experiment,
    run_experiments,
    samples_by_cell,
    write_experiment_report,
)

__all__ = [
    "EXPERIMENT_CONFIG",
    "EXPERIMENTS",
    "MEASURED_SCENARIOS",
    "SCENARIOS",
    "CalibrationResult",
    "ExperimentSpec",
    "IsolationResult",
    "TrialResult",
    "backoff_ablation_trial",
    "baseline_deltas",
    "calibration_trial",
    "cell_seed_base",
    "comparator_ablation_trial",
    "defrag_database_trial",
    "defrag_idle_trial",
    "enumerate_cells",
    "get_experiment",
    "groveler_setup_trial",
    "measured_trial",
    "register",
    "register_scenario",
    "run_experiment",
    "run_experiments",
    "samples_by_cell",
    "thread_isolation_trial",
    "write_experiment_report",
]
