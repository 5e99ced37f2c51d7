"""The paired-sample sign test (paper section 6.1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.signtest import (
    Judgment,
    SignTest,
    good_threshold,
    min_poor_samples,
    poor_threshold,
)


class TestThresholds:
    def test_paper_minimum_samples(self):
        # alpha = 0.05 => m = ceil(log2(20)) = 5 (section 6.1).
        assert min_poor_samples(0.05) == 5

    def test_minimum_samples_other_alphas(self):
        assert min_poor_samples(0.5) == 1
        assert min_poor_samples(0.25) == 2
        assert min_poor_samples(0.01) == 7

    def test_poor_threshold_at_minimum_window(self):
        m = min_poor_samples(0.05)
        # At the minimum window, only the all-below outcome is extreme enough.
        assert poor_threshold(m, 0.05) == m
        # Below the minimum window nothing can be judged poor.
        assert poor_threshold(m - 1, 0.05) == m  # == n + 1

    def test_good_threshold_small_windows(self):
        # One above-target sample is never enough at beta = 0.2.
        assert good_threshold(1, 0.2) == -1
        # Three consecutive above-target samples: P = 1/8 <= 0.2.
        assert good_threshold(3, 0.2) == 0

    @given(st.integers(1, 150))
    def test_thresholds_leave_indeterminate_gap_or_touch(self, n):
        lo = good_threshold(n, 0.2)
        hi = poor_threshold(n, 0.05)
        # The good region must never overlap the poor region.
        assert lo < hi

    @given(st.integers(1, 100), st.sampled_from([0.01, 0.05, 0.1, 0.3]))
    def test_poor_threshold_monotone_in_alpha(self, n, alpha):
        # A stricter (smaller) alpha demands at least as many below-target
        # samples.
        assert poor_threshold(n, alpha) >= poor_threshold(n, max(alpha, 0.3))

    @given(st.integers(2, 100))
    def test_poor_threshold_nonincreasing_in_n(self, n):
        # More data can only make it easier (never harder) to condemn.
        assert poor_threshold(n, 0.05) <= poor_threshold(n - 1, 0.05) + 1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            poor_threshold(10, 0.0)
        with pytest.raises(ConfigError):
            good_threshold(10, 1.0)
        with pytest.raises(ValueError):
            poor_threshold(-1, 0.1)


class TestSequentialBehaviour:
    def test_all_below_judged_poor_at_m(self):
        test = SignTest(alpha=0.05, beta=0.2)
        verdicts = [test.add_sample(True) for _ in range(5)]
        assert verdicts[:4] == [Judgment.INDETERMINATE] * 4
        assert verdicts[4] is Judgment.POOR

    def test_all_above_judged_good(self):
        test = SignTest(alpha=0.05, beta=0.2)
        verdicts = []
        while not verdicts or verdicts[-1] is Judgment.INDETERMINATE:
            verdicts.append(test.add_sample(False))
        assert verdicts[-1] is Judgment.GOOD
        assert len(verdicts) == 3  # P(R <= 0 | 3) = 1/8 <= 0.2

    def test_window_resets_after_judgment(self):
        test = SignTest(alpha=0.05, beta=0.2)
        for _ in range(5):
            test.add_sample(True)
        assert test.sample_count == 0
        assert test.below_count == 0

    def test_window_cap_restarts_without_judgment(self):
        test = SignTest(alpha=0.05, beta=0.2, max_samples=8)
        # Alternate to stay indeterminate.
        verdicts = [test.add_sample(i % 2 == 0) for i in range(8)]
        assert all(v is Judgment.INDETERMINATE for v in verdicts)
        assert test.sample_count == 0  # restarted at the cap

    def test_evaluate_is_stateless(self):
        test = SignTest(alpha=0.05, beta=0.2)
        assert test.evaluate(5, 5) is Judgment.POOR
        assert test.evaluate(3, 0) is Judgment.GOOD
        assert test.evaluate(4, 2) is Judgment.INDETERMINATE
        assert test.evaluate(0, 0) is Judgment.INDETERMINATE

    def test_requires_alpha_beta_in_range(self):
        with pytest.raises(ConfigError):
            SignTest(alpha=0.0)
        with pytest.raises(ConfigError):
            SignTest(beta=1.0)
        with pytest.raises(ConfigError):
            SignTest(max_samples=2)


class TestThresholdTables:
    """The precomputed tables must be invisible except for speed."""

    def test_add_sample_never_walks_binomial_tails(self, monkeypatch):
        import repro.core.signtest as mod

        calls = {"sf": 0, "cdf": 0}
        real_sf, real_cdf = mod.binomial_sf, mod.binomial_cdf

        def counting_sf(n, r):
            calls["sf"] += 1
            return real_sf(n, r)

        def counting_cdf(n, r):
            calls["cdf"] += 1
            return real_cdf(n, r)

        monkeypatch.setattr(mod, "binomial_sf", counting_sf)
        monkeypatch.setattr(mod, "binomial_cdf", counting_cdf)
        # Unique parameters so neither the threshold lru_caches nor the
        # table cache can already hold this configuration.
        test = SignTest(alpha=0.0511, beta=0.2011, max_samples=96)
        calls["sf"] = calls["cdf"] = 0

        rng = random.Random(3)
        for _ in range(5000):
            test.add_sample(rng.random() < 0.5)
        assert calls == {"sf": 0, "cdf": 0}

    def test_tables_match_threshold_functions_across_exact_limit(self):
        # max_samples=512 spans the exact-binomial region (n <= 256) and
        # the normal-approximation region beyond it.
        test = SignTest(alpha=0.05, beta=0.2, max_samples=512)
        for n in range(513):
            assert test._poor_table[n] == poor_threshold(n, 0.05)
            assert test._good_table[n] == good_threshold(n, 0.2)

    @pytest.mark.parametrize(
        "alpha, beta, max_samples",
        [
            (0.05, 0.2, 4096),  # the paper's configuration
            (0.0511, 0.2011, 96),
            (0.05, 0.2, 512),
            (0.01, 0.3, 300),
            (0.1, 0.05, 300),
            # Dyadic levels put tails exactly on the bound (ties).
            (0.5, 0.25, 300),
            (0.125, 0.5, 300),
        ],
    )
    def test_pascal_tables_equal_threshold_functions(self, alpha, beta, max_samples):
        from repro.core.signtest import _threshold_tables

        poor, good = _threshold_tables.__wrapped__(alpha, beta, max_samples)
        assert poor == tuple(poor_threshold(n, alpha) for n in range(max_samples + 1))
        assert good == tuple(good_threshold(n, beta) for n in range(max_samples + 1))

    def test_exact_ties_defer_to_threshold_functions(self):
        from repro.core.signtest import _within

        # Row n=3 is 1 3 3 1: at alpha = 0.5 the bound is 4, which the
        # running sum 1, 4 hits exactly.
        assert _within([1, 3, 3, 1], 0.5 * 2**3) is None
        assert _within([1, 3, 3, 1], 0.05 * 2**3) == 0
        assert _within([1, 3, 3, 1], 0.2 * 2**3) == 1

    def test_evaluate_matches_functions_for_all_window_sizes(self):
        test = SignTest(alpha=0.05, beta=0.2, max_samples=64)
        for n in range(1, 70):  # crosses max_samples: table and fallback paths
            for below in (0, n // 2, n):
                verdict = test.evaluate(n, below)
                if below >= poor_threshold(n, 0.05):
                    assert verdict is Judgment.POOR
                elif below <= good_threshold(n, 0.2):
                    assert verdict is Judgment.GOOD
                else:
                    assert verdict is Judgment.INDETERMINATE

    def test_tables_shared_between_instances(self):
        a = SignTest(alpha=0.05, beta=0.2, max_samples=128)
        b = SignTest(alpha=0.05, beta=0.2, max_samples=128)
        assert a._poor_table is b._poor_table
        assert a._good_table is b._good_table


class TestErrorRates:
    def test_type_one_error_rate_bounded(self):
        """When progress is genuinely good, POOR verdicts are rare."""
        rng = random.Random(7)
        test = SignTest(alpha=0.05, beta=0.2)
        poor = good = 0
        for _ in range(40_000):
            # Good progress: below target with probability 0.35 (< 0.5).
            verdict = test.add_sample(rng.random() < 0.35)
            if verdict is Judgment.POOR:
                poor += 1
            elif verdict is Judgment.GOOD:
                good += 1
        assert good > 0
        # The fraction of judgments that were poor must be small.
        assert poor / (poor + good) < 0.05

    def test_detects_genuinely_poor_progress(self):
        rng = random.Random(8)
        test = SignTest(alpha=0.05, beta=0.2)
        poor = good = 0
        for _ in range(10_000):
            verdict = test.add_sample(rng.random() < 0.9)  # mostly below
            if verdict is Judgment.POOR:
                poor += 1
            elif verdict is Judgment.GOOD:
                good += 1
        assert poor > 0
        assert good / max(poor + good, 1) < 0.05

    @given(st.integers(0, 2**32 - 1))
    def test_balanced_stream_terminates(self, seed):
        """Exactly-at-target progress must not wedge the test forever."""
        rng = random.Random(seed)
        test = SignTest(alpha=0.05, beta=0.2, max_samples=64)
        for _ in range(1000):
            test.add_sample(rng.random() < 0.5)
        # The window is bounded by the cap regardless of the stream.
        assert test.sample_count < 64
