"""Tests for the statistics underlying the CPA distinguisher."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.stats import (
    batched_pearson,
    fisher_z_threshold,
    normal_quantile,
    pearson_corr,
)


class TestNormalQuantile:
    def test_median(self):
        assert abs(normal_quantile(0.5)) < 1e-9

    def test_symmetry(self):
        assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), abs=1e-9)

    def test_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.9999) == pytest.approx(3.719016, abs=1e-4)

    def test_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for p in (0.001, 0.01, 0.3, 0.7, 0.99, 0.9999, 0.999999):
            assert normal_quantile(p) == pytest.approx(stats.norm.ppf(p), abs=1e-7)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestFisherThreshold:
    def test_decreases_with_traces(self):
        t = [fisher_z_threshold(d) for d in (100, 1000, 10000)]
        assert t[0] > t[1] > t[2]

    def test_tiny_sample_below_one(self):
        """Degenerate n must return a bound *strictly* below 1.0.

        Regression: the old code returned exactly 1.0 for n <= 3, so a
        perfect |r| = 1.0 correlation could never clear the strict ``>``
        comparison and was reported as insignificant.
        """
        for n in (0, 1, 2, 3):
            thr = fisher_z_threshold(n)
            assert thr < 1.0
            assert thr > 0.99  # still essentially saturated

    def test_perfect_correlation_significant_at_tiny_n(self):
        """A perfect correlation on 3 traces must count as significant."""
        x = np.array([0.0, 1.0, 2.0])
        r = pearson_corr(x, 2 * x + 5)
        assert abs(r) > fisher_z_threshold(len(x))

    def test_paper_scale(self):
        """At 10k traces the 99.99% bound sits around 0.037 (Fig. 4 dashes)."""
        assert 0.03 < fisher_z_threshold(10_000, 0.9999) < 0.045

    def test_null_false_positive_rate(self):
        """Under no leakage, crossings happen at roughly the nominal rate."""
        rng = np.random.default_rng(7)
        d, trials = 500, 2000
        thr = fisher_z_threshold(d, 0.99)
        hits = 0
        x = rng.standard_normal((trials, d))
        y = rng.standard_normal((trials, d))
        for i in range(trials):
            if abs(pearson_corr(x[i], y[i])) > thr:
                hits += 1
        # two-sided: nominal 2% of 2000 = 40; allow generous slack
        assert hits < 100


class TestPearson:
    def test_perfect_correlation(self):
        x = np.arange(50, dtype=float)
        assert pearson_corr(x, 3 * x + 1) == pytest.approx(1.0)
        assert pearson_corr(x, -x) == pytest.approx(-1.0)

    def test_degenerate_is_zero(self):
        assert pearson_corr(np.ones(10), np.arange(10.0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson_corr(np.ones(3), np.ones(4))

    @given(st.integers(5, 60))
    @settings(max_examples=20)
    def test_bounded(self, n):
        rng = np.random.default_rng(n)
        r = pearson_corr(rng.standard_normal(n), rng.standard_normal(n))
        assert -1.0 <= r <= 1.0

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(1)
        hyps = rng.standard_normal((200, 5))
        traces = rng.standard_normal((200, 7))
        got = batched_pearson(hyps, traces)
        for g in range(5):
            for t in range(7):
                assert got[g, t] == pytest.approx(pearson_corr(hyps[:, g], traces[:, t]))

    def test_batched_degenerate_column(self):
        hyps = np.ones((50, 2))
        hyps[:, 1] = np.arange(50)
        traces = np.random.default_rng(2).standard_normal((50, 3))
        got = batched_pearson(hyps, traces)
        assert np.all(got[0] == 0.0)

    def test_batched_shape_validation(self):
        with pytest.raises(ValueError):
            batched_pearson(np.ones((10, 2)), np.ones((11, 2)))


class TestStreamingPearson:
    """Row blocks (``chunk_rows``) must agree with the one-block kernel."""

    @given(
        st.integers(10, 400),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_batched(self, d, g, t, chunk, seed):
        rng = np.random.default_rng(seed)
        hyps = rng.standard_normal((d, g))
        traces = rng.standard_normal((d, t))
        got = batched_pearson(hyps, traces, chunk_rows=chunk)
        want = batched_pearson(hyps, traces)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matches_on_trace_like_data(self):
        """Realistic magnitudes: HW hypotheses vs noisy integer samples."""
        rng = np.random.default_rng(11)
        hw = rng.integers(0, 65, size=(5000, 8)).astype(float)
        traces = hw[:, :1] * 3.0 + rng.normal(0, 10.0, size=(5000, 12))
        got = batched_pearson(hw, traces, chunk_rows=512)
        np.testing.assert_allclose(got, batched_pearson(hw, traces), atol=1e-9)

    def test_degenerate_column_zero(self):
        hyps = np.ones((64, 2))
        hyps[:, 1] = np.arange(64.0)
        traces = np.random.default_rng(4).standard_normal((64, 3))
        got = batched_pearson(hyps, traces, chunk_rows=16)
        assert np.all(got[0] == 0.0)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            batched_pearson(np.ones((8, 1)), np.ones((8, 1)), chunk_rows=0)

    @pytest.mark.parametrize("d", (2, 300, 4096))
    def test_one_block_is_the_unchunked_kernel(self, d):
        """``chunk_rows >= D`` is one block: bit-identical to ``None``."""
        rng = np.random.default_rng(d)
        hyps = rng.integers(0, 54, size=(d, 5)).astype(np.int8)
        traces = (hyps[:, :1] * 0.5 + rng.normal(0, 4.0, size=(d, 3))).astype(np.float32)
        want = batched_pearson(hyps, traces)
        for chunk in (d, d + 1, 10 * d):
            np.testing.assert_array_equal(batched_pearson(hyps, traces, chunk_rows=chunk), want)


class TestPearsonAccumulator:
    """The row-block accumulation inside :func:`batched_pearson`."""

    def test_update_matches_batched(self):
        rng = np.random.default_rng(5)
        hyps = rng.standard_normal((300, 4))
        hyps[:, 3] = 1.0  # a degenerate (constant) guess column scores 0
        traces = rng.standard_normal((300, 9))
        # deliberately uneven blocks, then single-row blocks
        for chunk in (77, 1):
            corr = batched_pearson(hyps, traces, chunk_rows=chunk)
            assert corr.shape == (4, 9)
            np.testing.assert_allclose(corr, batched_pearson(hyps, traces), atol=1e-9)
            assert np.all(corr[3] == 0.0)

    def test_empty_correlation_rejected(self):
        """Fewer than two traces fail the same way for every block size."""
        for d, chunk_rows in itertools.product((0, 1), (None, 4)):
            with pytest.raises(ValueError, match="at least two traces"):
                batched_pearson(np.ones((d, 2)), np.ones((d, 3)), chunk_rows=chunk_rows)
