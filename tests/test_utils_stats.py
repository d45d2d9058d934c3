"""Tests for the statistics underlying the CPA distinguisher."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.stats import (
    OnlineMoments,
    PearsonAccumulator,
    batched_pearson,
    fisher_z_threshold,
    normal_quantile,
    pearson_corr,
    streaming_pearson,
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
    """The chunked raw-moment path must agree with the one-shot matrix."""

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
        got = streaming_pearson(hyps, traces, chunk_rows=chunk)
        want = batched_pearson(hyps, traces)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matches_on_trace_like_data(self):
        """Realistic magnitudes: HW hypotheses vs noisy integer samples."""
        rng = np.random.default_rng(11)
        hw = rng.integers(0, 65, size=(5000, 8)).astype(float)
        traces = hw[:, :1] * 3.0 + rng.normal(0, 10.0, size=(5000, 12))
        got = streaming_pearson(hw, traces, chunk_rows=512)
        np.testing.assert_allclose(got, batched_pearson(hw, traces), atol=1e-9)

    def test_degenerate_column_zero(self):
        hyps = np.ones((64, 2))
        hyps[:, 1] = np.arange(64.0)
        traces = np.random.default_rng(4).standard_normal((64, 3))
        got = streaming_pearson(hyps, traces, chunk_rows=16)
        assert np.all(got[0] == 0.0)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            streaming_pearson(np.ones((8, 1)), np.ones((8, 1)), chunk_rows=0)


class TestPearsonAccumulator:
    def test_update_matches_batched(self):
        rng = np.random.default_rng(5)
        hyps = rng.standard_normal((300, 4))
        hyps[:, 3] = 1.0  # a degenerate (constant) guess column scores 0
        traces = rng.standard_normal((300, 9))
        # deliberately uneven chunks, then single-row batches
        for chunk in (77, 1):
            acc = PearsonAccumulator()
            for lo in range(0, 300, chunk):
                acc.update(hyps[lo : lo + chunk], traces[lo : lo + chunk])
            assert acc.count == 300
            assert acc.n_guesses == 4 and acc.n_samples == 9
            corr = acc.correlation()
            np.testing.assert_allclose(corr, batched_pearson(hyps, traces), atol=1e-9)
            assert np.all(corr[3] == 0.0)

    def test_merge_matches_single_stream(self):
        """Two accumulators merged == one accumulator over everything,
        which is what makes the per-worker partial sums composable."""
        rng = np.random.default_rng(6)
        hyps = rng.standard_normal((500, 3))
        traces = rng.standard_normal((500, 5))
        a = PearsonAccumulator().update(hyps[:200], traces[:200])
        b = PearsonAccumulator().update(hyps[200:], traces[200:])
        merged = a.merge(b)
        np.testing.assert_allclose(
            merged.correlation(), batched_pearson(hyps, traces), atol=1e-9
        )
        assert merged.threshold() == fisher_z_threshold(500)

    def test_merge_with_empty(self):
        rng = np.random.default_rng(7)
        hyps = rng.standard_normal((50, 2))
        traces = rng.standard_normal((50, 2))
        a = PearsonAccumulator().update(hyps, traces)
        merged = a.merge(PearsonAccumulator())
        np.testing.assert_allclose(
            merged.correlation(), batched_pearson(hyps, traces), atol=1e-12
        )

    def test_shape_mismatch_rejected(self):
        acc = PearsonAccumulator().update(np.ones((4, 2)), np.ones((4, 3)))
        with pytest.raises(ValueError):
            acc.update(np.ones((4, 5)), np.ones((4, 3)))
        other = PearsonAccumulator().update(np.ones((4, 9)), np.ones((4, 3)))
        with pytest.raises(ValueError):
            acc.merge(other)

    def test_empty_correlation_rejected(self):
        with pytest.raises(ValueError):
            PearsonAccumulator().correlation()


class TestOnlineMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((100, 6))
        om = OnlineMoments()
        om.update(data[:40])
        om.update(data[40:])
        assert om.count == 100
        np.testing.assert_allclose(om.mean, data.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(om.variance, data.var(axis=0, ddof=1), atol=1e-10)

    def test_many_uneven_batches_match_numpy(self):
        """Chan's batched update across pathological batch sizes (1-row
        batches included) must agree with the two-pass numpy answer."""
        rng = np.random.default_rng(9)
        data = rng.standard_normal((517, 4)) * 50.0 + 1000.0
        om = OnlineMoments()
        lo = 0
        for size in (1, 2, 1, 100, 3, 250, 1, 159):
            om.update(data[lo : lo + size])
            lo += size
        assert lo == 517 and om.count == 517
        np.testing.assert_allclose(om.mean, data.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            om.variance, data.var(axis=0, ddof=1), rtol=1e-9
        )

    def test_empty_rejected(self):
        om = OnlineMoments()
        with pytest.raises(ValueError):
            _ = om.mean
        om.update(np.ones((1, 3)))
        with pytest.raises(ValueError):
            _ = om.variance
