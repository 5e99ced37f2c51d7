"""Repeat-trial helpers: the trial count and box-plot aggregation.

The paper repeats each configuration of its contention experiments 50 times
and reports box plots.  Trials run through
:class:`repro.analysis.parallel.ParallelRunner` (usually via an
:class:`~repro.experiments.spec.ExperimentSpec`); trial counts honour the
``REPRO_TRIALS`` environment variable so the full paper-scale runs and
quick smoke runs share one code path.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.env import env_int
from repro.analysis.stats import BoxStats, box_stats

__all__ = ["trial_count", "aggregate"]

#: Default trials per configuration when REPRO_TRIALS is unset.  The paper
#: uses 50; the default here keeps a full benchmark run in minutes while
#: remaining statistically meaningful.  Set REPRO_TRIALS=50 for paper scale.
DEFAULT_TRIALS = 15


def trial_count(default: int = DEFAULT_TRIALS) -> int:
    """Trials per configuration, from ``REPRO_TRIALS`` or the default.

    Empty/whitespace values count as unset; anything else must parse as an
    integer >= 1 or :class:`ValueError` names the variable and the value.
    """
    count = env_int("REPRO_TRIALS", default=None)
    return default if count is None else count


def aggregate(
    samples: Mapping[str, Sequence[float]],
) -> dict[str, BoxStats]:
    """Box-plot statistics per configuration, preserving insertion order."""
    return {name: box_stats(list(values)) for name, values in samples.items()}
