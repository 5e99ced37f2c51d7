"""Ridge regression over decayed sufficient statistics (section 6.3)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError, MetricError
from repro.core.regression import RidgeCalibrator


def _feed(cal: RidgeCalibrator, rng: random.Random, costs, samples: int, noise: float = 0.0):
    """Feed samples generated from the linear model d = costs . dp."""
    for _ in range(samples):
        dp = [rng.uniform(0.0, 10.0) for _ in costs]
        d = sum(c * p for c, p in zip(costs, dp))
        if noise:
            d *= 1.0 + rng.gauss(0.0, noise)
        cal.update(max(d, 0.0), dp)


class TestRecovery:
    def test_recovers_single_metric_rate(self):
        cal = RidgeCalibrator(1, theta=0.99)
        rng = random.Random(1)
        _feed(cal, rng, [0.004], samples=500)  # 250 units/second
        assert cal.rates()[0] == pytest.approx(250.0, rel=0.05)

    def test_recovers_two_independent_metrics(self):
        cal = RidgeCalibrator(2, theta=0.995)
        rng = random.Random(2)
        _feed(cal, rng, [0.01, 0.002], samples=2000)
        c = cal.coefficients()
        # The ridge offset (nu = 0.1) deliberately perturbs the solution
        # (the paper accepts an order-of-magnitude-of-round-off error), so
        # the *split* between metrics is approximate...
        assert c[0] == pytest.approx(0.01, rel=0.25)
        assert c[1] == pytest.approx(0.002, rel=0.6)
        # ...but predicted durations must stay accurate.
        assert cal.target_duration([5.0, 5.0]) == pytest.approx(
            5.0 * 0.012, rel=0.1
        )

    def test_paper_worked_example(self):
        """Section 4.4: 750 kB/s scanning + 120 indices/s."""
        cal = RidgeCalibrator(2, theta=0.995)
        rng = random.Random(3)
        scan_cost = 1.0 / 750_000.0
        index_cost = 1.0 / 120.0
        for _ in range(3000):
            kb = rng.uniform(10_000, 100_000)
            idx = rng.uniform(0, 20)
            cal.update(kb * scan_cost + idx * index_cost, [kb, idx])
        # 60 kB + 5 indices should take ~80 + ~42 = ~122 ms.
        assert cal.target_duration([60_000, 5]) == pytest.approx(0.1217, rel=0.05)

    def test_correlated_metrics_stay_stable(self):
        """Perfectly collinear metrics must not blow up (ridge, Eq. 13-14)."""
        cal = RidgeCalibrator(2, theta=0.99, nu=0.1)
        rng = random.Random(4)
        for _ in range(1000):
            ops = rng.uniform(1, 10)
            cal.update(0.01 * ops, [ops, ops * 65536.0])  # bytes = 64K * ops
        c = cal.coefficients()
        assert np.isfinite(c).all()
        # Whatever the split, predicted durations must match reality.
        assert cal.target_duration([4.0, 4.0 * 65536.0]) == pytest.approx(0.04, rel=0.05)

    def test_aggregate_scale_is_pinned(self):
        """Predicted total duration tracks observed total (bias control)."""
        cal = RidgeCalibrator(2, theta=0.999, nu=0.1)
        rng = random.Random(5)
        total_d = 0.0
        total_dp = np.zeros(2)
        for _ in range(800):
            dp = np.array([rng.uniform(1, 5), rng.uniform(0, 3)])
            d = 0.02 * dp[0] + 0.05 * dp[1]
            d *= 1.0 + rng.gauss(0, 0.2)
            d = max(d, 1e-6)
            cal.update(d, dp)
            total_d += d
            total_dp += dp
        c = cal.coefficients()
        # Mean predicted vs mean observed within a few percent.
        assert float(np.dot(c, total_dp)) == pytest.approx(total_d, rel=0.1)


class TestValidationAndState:
    def test_arity_checked(self):
        cal = RidgeCalibrator(2, theta=0.9)
        with pytest.raises(MetricError):
            cal.update(1.0, [1.0])
        with pytest.raises(MetricError):
            cal.target_duration([1.0, 2.0, 3.0])

    def test_negative_inputs_rejected(self):
        cal = RidgeCalibrator(1, theta=0.9)
        with pytest.raises(MetricError):
            cal.update(-1.0, [1.0])
        with pytest.raises(MetricError):
            cal.update(1.0, [-1.0])

    def test_constructor_validation(self):
        with pytest.raises(MetricError):
            RidgeCalibrator(0, theta=0.9)
        with pytest.raises(ConfigError):
            RidgeCalibrator(1, theta=1.0)
        with pytest.raises(ConfigError):
            RidgeCalibrator(1, theta=0.9, nu=-1.0)

    def test_before_any_sample(self):
        cal = RidgeCalibrator(2, theta=0.9)
        assert cal.target_duration([1.0, 1.0]) == 0.0
        assert (cal.coefficients() == 0.0).all()

    def test_state_round_trip(self):
        cal = RidgeCalibrator(2, theta=0.99)
        rng = random.Random(6)
        _feed(cal, rng, [0.01, 0.002], samples=400)
        state = cal.export_state()
        clone = RidgeCalibrator(2, theta=0.99)
        clone.import_state(state)
        probe = [3.0, 7.0]
        assert clone.target_duration(probe) == pytest.approx(
            cal.target_duration(probe)
        )

    def test_import_rejects_wrong_arity(self):
        cal = RidgeCalibrator(2, theta=0.99)
        state = cal.export_state()
        other = RidgeCalibrator(3, theta=0.99)
        with pytest.raises(MetricError):
            other.import_state(state)

    def test_import_rejects_non_finite(self):
        cal = RidgeCalibrator(1, theta=0.9)
        with pytest.raises(MetricError):
            cal.import_state({"x": [[float("nan")]], "y": [0.0]})


class TestSolutionCache:
    def _fresh_solve(self, cal: RidgeCalibrator) -> np.ndarray:
        twin = RidgeCalibrator(cal.arity, theta=0.95)
        twin.import_state(cal.export_state())
        return twin.coefficients()

    def test_one_solve_per_statistics_change(self, monkeypatch):
        cal = RidgeCalibrator(2, theta=0.95)
        _feed(cal, random.Random(4), [0.01, 0.002], samples=20)
        solves = []
        real_solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: solves.append(1) or real_solve(a, b)
        )
        # A testpoint: target_duration, then update, which reads the mean
        # duration of the same (unchanged) statistics first.
        cal.target_duration([3.0, 4.0])
        cal.coefficients()
        cal.update(0.05, [3.0, 4.0])
        assert len(solves) == 1
        cal.target_duration([1.0, 1.0])
        assert len(solves) == 2

    def test_update_invalidates(self):
        cal = RidgeCalibrator(2, theta=0.95)
        rng = random.Random(5)
        _feed(cal, rng, [0.01, 0.002], samples=20)
        before = cal.coefficients()
        _feed(cal, rng, [0.03, 0.001], samples=5)
        after = cal.coefficients()
        assert not np.array_equal(before, after)
        assert np.array_equal(after, self._fresh_solve(cal))

    def test_import_state_invalidates(self):
        source = RidgeCalibrator(2, theta=0.95)
        _feed(source, random.Random(6), [0.02, 0.004], samples=30)
        cal = RidgeCalibrator(2, theta=0.95)
        _feed(cal, random.Random(7), [0.001, 0.05], samples=30)
        cal.coefficients()
        cal.import_state(source.export_state())
        assert np.array_equal(cal.coefficients(), source.coefficients())

    def test_failed_import_still_invalidates(self):
        cal = RidgeCalibrator(2, theta=0.95)
        _feed(cal, random.Random(8), [0.01, 0.002], samples=30)
        cal.coefficients()
        state = RidgeCalibrator(2, theta=0.95).export_state()
        state["x"] = [[4.0, 1.0], [1.0, 2.0]]
        state["y"] = [0.5, 0.25]
        state["sum_dp"] = [float("nan"), 0.0]
        with pytest.raises(MetricError):
            cal.import_state(state)
        # x and y were replaced before the aggregates were rejected.
        assert np.array_equal(cal.coefficients(), self._fresh_solve(cal))

    def test_returns_a_copy(self):
        cal = RidgeCalibrator(2, theta=0.95)
        _feed(cal, random.Random(9), [0.01, 0.002], samples=20)
        first = cal.coefficients()
        expected = first.copy()
        first[:] = -1.0
        assert np.array_equal(cal.coefficients(), expected)
        assert cal.target_duration([1.0, 0.0]) > 0.0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=4),
        st.integers(0, 10_000),
    )
    def test_rates_always_positive_finite_costs(self, costs, seed):
        cal = RidgeCalibrator(len(costs), theta=0.99)
        rng = random.Random(seed)
        _feed(cal, rng, costs, samples=150, noise=0.1)
        c = cal.coefficients()
        assert np.isfinite(c).all()
        assert (c >= 0.0).all()
        rates = cal.rates()
        assert (rates > 0).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_target_duration_linear_in_deltas(self, seed):
        cal = RidgeCalibrator(2, theta=0.99)
        rng = random.Random(seed)
        _feed(cal, rng, [0.01, 0.03], samples=100, noise=0.05)
        a = cal.target_duration([1.0, 2.0])
        b = cal.target_duration([2.0, 4.0])
        assert b == pytest.approx(2.0 * a, rel=1e-9)
