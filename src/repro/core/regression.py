"""Ridge regression over decayed sufficient statistics (paper section 6.3).

For applications that progress along several metrics concurrently, the
calibrator models the duration between testpoints as the sum of the times to
make each kind of progress (Eq. 8):

    d = sum_k (1 / r_k) * dp_k

and estimates the regression coefficients ``c_k = 1 / r_k`` by least squares
with no bias term.  The sufficient statistics are (Eqs. 9-10):

    x[i][j] = sum over samples of dp_i * dp_j
    y[i]    = sum over samples of d * dp_i

and are *exponentially averaged* rather than summed, so the inferred rates
track long-term changes in resource characteristics (Eqs. 11-12):

    x[i][j] <- theta * x[i][j] + dp_i * dp_j
    y[i]    <- theta * y[i]    + d * dp_i

Correlated metrics (common in practice: bytes read and read operations move
together) make the normal-equation matrix nearly singular, so the solver
applies *ridge regression* (Eqs. 13-14): before solving, it adds
``nu * q`` to each diagonal element, where ``q`` is the mean diagonal
magnitude.  The paper reports ``nu = 0.1`` balances the perturbation against
floating-point round-off.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.errors import ConfigError, MetricError

__all__ = ["RidgeCalibrator"]


class RidgeCalibrator:
    """Infers per-metric target rates from (duration, progress-deltas) samples.

    One instance per metric set.  Feed samples with :meth:`update`; read the
    current estimates with :meth:`rates` or :meth:`coefficients`, and compute
    target durations for a new progress vector with :meth:`target_duration`.
    """

    __slots__ = (
        "_arity",
        "_theta",
        "_nu",
        "_min_rate",
        "_x",
        "_y",
        "_sum_dp",
        "_sum_d",
        "_count",
        "_solution",
        "_median",
        "_telemetry",
        "_set_index",
    )

    def __init__(
        self,
        arity: int,
        theta: float,
        nu: float = 0.1,
        min_rate: float = 1e-9,
        telemetry=None,
        set_index: int = 0,
    ) -> None:
        if arity < 1:
            raise MetricError(f"metric set must have at least one metric, got {arity}")
        if not 0.0 <= theta < 1.0:
            raise ConfigError(f"theta must be in [0, 1), got {theta}")
        if nu < 0.0:
            raise ConfigError(f"nu must be non-negative, got {nu}")
        if min_rate <= 0.0:
            raise ConfigError(f"min_rate must be positive, got {min_rate}")
        self._arity = arity
        self._theta = theta
        self._nu = nu
        self._min_rate = min_rate
        self._x = np.zeros((arity, arity), dtype=float)
        self._y = np.zeros(arity, dtype=float)
        # Decayed aggregate progress and duration, used to pin the solution's
        # scale: ridge shrinkage (and duration noise correlated with the
        # progress deltas) biases the raw least-squares coefficients low,
        # which would make typical samples look below-target even on an
        # idle system.  Rescaling the coefficient vector so that predicted
        # total duration matches observed total duration removes that bias
        # while keeping the regression's *apportioning* of cost among
        # correlated metrics.
        self._sum_dp = np.zeros(arity, dtype=float)
        self._sum_d = 0.0
        self._count = 0
        # The last solve of the normal equations; ``None`` once the
        # statistics change.  A testpoint reads it twice, in
        # target_duration and again in update before the sample is folded.
        self._solution: np.ndarray | None = None
        # Median correction: least squares estimates the *mean* cost, the
        # sign-test comparator judges against the *median* sample; see
        # repro.core.calibration.MedianScale.
        from repro.core.calibration import MedianScale

        self._median = MedianScale()
        self._telemetry = telemetry
        self._set_index = set_index

    # -- state -------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of metrics."""
        return self._arity

    @property
    def sample_count(self) -> int:
        """Samples folded into the sufficient statistics."""
        return self._count

    @property
    def sufficient_statistics(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the decayed statistics ``(x, y)`` (Eqs. 9-12)."""
        return self._x.copy(), self._y.copy()

    # -- persistence ----------------------------------------------------------------
    def export_state(self) -> dict:
        """Serializable snapshot (for :mod:`repro.core.persistence`)."""
        return {
            "x": self._x.tolist(),
            "y": self._y.tolist(),
            "sum_dp": self._sum_dp.tolist(),
            "sum_d": self._sum_d,
            "count": self._count,
            "median_scale": self._median.export_state(),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        x = np.asarray(state["x"], dtype=float)
        y = np.asarray(state["y"], dtype=float)
        if x.shape != (self._arity, self._arity) or y.shape != (self._arity,):
            raise MetricError(
                f"persisted state arity mismatch: x{x.shape}, y{y.shape}, "
                f"expected arity {self._arity}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise MetricError("persisted regression state contains non-finite values")
        self._x = x
        self._y = y
        self._solution = None
        sum_dp = np.asarray(state.get("sum_dp", [0.0] * self._arity), dtype=float)
        if sum_dp.shape != (self._arity,) or not np.isfinite(sum_dp).all():
            raise MetricError("persisted regression aggregates are malformed")
        self._sum_dp = sum_dp
        self._sum_d = float(state.get("sum_d", 0.0))
        self._count = int(state.get("count", 0))
        if "median_scale" in state:
            self._median.import_state(state["median_scale"])

    # -- operation --------------------------------------------------------------------
    def update(self, duration: float, deltas: Sequence[float]) -> None:
        """Fold one testpoint sample into the decayed sufficient statistics."""
        if len(deltas) != self._arity:
            raise MetricError(
                f"expected {self._arity} metrics, got {len(deltas)}"
            )
        if not math.isfinite(duration) or duration < 0.0:
            raise MetricError(f"duration must be finite and non-negative: {duration}")
        dp = np.asarray(deltas, dtype=float)
        if not np.isfinite(dp).all() or (dp < 0).any():
            raise MetricError(f"progress deltas must be finite and non-negative: {deltas}")
        self._median.observe(duration, self._mean_duration(deltas))
        self._x *= self._theta
        self._y *= self._theta
        self._sum_dp *= self._theta
        self._x += np.outer(dp, dp)
        self._y += duration * dp
        self._sum_dp += dp
        self._sum_d = self._theta * self._sum_d + duration
        self._count += 1
        self._solution = None
        tel = self._telemetry
        if tel is not None:
            if tel.emitting:
                from repro.obs import events as obs_events

                tel.emit(
                    obs_events.TargetUpdated(
                        t=tel.now,
                        src=tel.label,
                        set_index=self._set_index,
                        sample_count=self._count,
                        target_rate=None,
                        scale=self._median.scale,
                    )
                )
            tel.metrics.gauge("calibration_scale").set(self._median.scale)

    def coefficients(self) -> np.ndarray:
        """Solve the ridge-regularized normal equations for ``c_k = 1/r_k``.

        Returns a vector of per-metric time costs (seconds per progress
        unit), clamped to be non-negative.  Before any sample has been seen,
        returns zeros (no inferred cost).  The solution is cached until the
        statistics change; each call returns a fresh copy.
        """
        if self._solution is None:
            self._solution = self._solve()
        return self._solution.copy()

    def _solve(self) -> np.ndarray:
        if self._count == 0:
            return np.zeros(self._arity, dtype=float)
        diag = np.abs(np.diagonal(self._x))
        if diag.max() <= 0.0:
            # No progress observed along any metric yet.
            return np.zeros(self._arity, dtype=float)
        # Standardized ridge: normalize each metric by sqrt of its diagonal
        # before applying the offset, so the perturbation is the same
        # *relative* size for every metric.  This is Eqs. (13)-(14) made
        # scale-invariant — with the paper's literal mean-diagonal offset,
        # a metric whose magnitude is orders of magnitude below another's
        # (indices counted in ones vs bytes counted in thousands) would be
        # annihilated by the offset rather than merely stabilized.
        scale = np.where(diag > 0.0, np.sqrt(diag), 1.0)
        a = self._x / np.outer(scale, scale)
        a[np.diag_indices_from(a)] += self._nu  # unit diagonal => Q = 1.
        b = self._y / scale
        try:
            c = np.linalg.solve(a, b) / scale
        except np.linalg.LinAlgError:
            # The ridge offset should prevent singularity; fall back to the
            # pseudo-inverse if numerical trouble slips through anyway.
            c = np.linalg.lstsq(a, b, rcond=None)[0] / scale
        # A metric can transiently receive a small negative cost when it is
        # strongly anti-correlated with another; a negative time-per-unit is
        # physically meaningless, so clamp.
        c = np.maximum(c, 0.0)
        # Pin the scale: predicted aggregate duration must equal the observed
        # aggregate duration (see the constructor comment).
        predicted = float(np.dot(c, self._sum_dp))
        if predicted > 0.0 and self._sum_d > 0.0:
            c *= self._sum_d / predicted
        return c

    def rates(self) -> np.ndarray:
        """Per-metric target rates ``r_k`` (progress units per second).

        The inverse of :meth:`coefficients`, floored at ``min_rate`` to keep
        target durations finite.  A metric whose inferred cost is zero gets
        an infinite rate (it contributes no target duration).
        """
        c = self.coefficients()
        rates = np.empty_like(c)
        for i, cost in enumerate(c):
            rates[i] = math.inf if cost <= 0.0 else 1.0 / cost
        return np.maximum(rates, self._min_rate)

    def _mean_duration(self, deltas: Sequence[float]) -> float:
        if len(deltas) != self._arity:
            raise MetricError(
                f"expected {self._arity} metrics, got {len(deltas)}"
            )
        c = self.coefficients()
        dp = np.asarray(deltas, dtype=float)
        return float(np.dot(c, dp))

    def target_duration(self, deltas: Sequence[float]) -> float:
        """Section 4.4: ``d_target = sum_k dp_k / r_k``, median-corrected."""
        return self._mean_duration(deltas) * self._median.scale
