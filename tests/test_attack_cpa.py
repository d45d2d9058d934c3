"""Tests for the CPA distinguisher and hypothesis builders."""

import numpy as np
import pytest

from repro.attack.cpa import run_cpa
from repro.attack.hypotheses import (
    hyp_exp_biased,
    hyp_exp_out,
    hyp_exp_sum,
    hyp_product,
    hyp_s_lo,
    hyp_sign,
    known_exponent,
    known_limbs,
    known_sign,
)
from repro.utils.bits import hamming_weight
from repro.utils.stats import fisher_z_threshold


def patterns_of(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestKnownExtractors:
    def test_known_limbs(self):
        y = patterns_of([1.5])  # significand 1.5 -> 0x18000000000000
        lo, hi = known_limbs(y)
        m = (1 << 52) | (1 << 51)
        assert int(lo[0]) == m & ((1 << 25) - 1)
        assert int(hi[0]) == m >> 25

    def test_known_exponent_and_sign(self):
        y = patterns_of([-2.0])
        assert int(known_exponent(y)[0]) == 1024
        assert int(known_sign(y)[0]) == 1


class TestHypothesisBuilders:
    def test_hyp_product_values(self):
        known = np.array([3], dtype=np.uint64)
        guesses = np.array([0, 1, 5], dtype=np.uint64)
        hyp = hyp_product(known, guesses)
        assert list(hyp[0]) == [0, 2, 4]  # HW(0), HW(3), HW(15)

    def test_hyp_product_masked(self):
        known = np.array([0xFFFFFF], dtype=np.uint64)
        guesses = np.array([1], dtype=np.uint64)
        assert hyp_product(known, guesses, mask_bits=4)[0, 0] == 4

    def test_mask_property(self):
        """Masked hypothesis depends only on the guess mod 2^m."""
        rng = np.random.default_rng(0)
        known = rng.integers(1, 1 << 25, 50).astype(np.uint64)
        g1 = np.array([0b1011], dtype=np.uint64)
        g2 = np.array([0b1011 | (1 << 20)], dtype=np.uint64)
        m = 4
        np.testing.assert_array_equal(
            hyp_product(known, g1, mask_bits=m), hyp_product(known, g2, mask_bits=m)
        )

    def test_hyp_s_lo_matches_trace_semantics(self):
        from repro.fpr.trace import fpr_mul_trace

        x, y = 3.7, -1.2
        bx = int(patterns_of([x])[0])
        t = fpr_mul_trace(bx, int(patterns_of([y])[0]))
        y_lo, y_hi = known_limbs(patterns_of([y]))
        d = t.value("load_x_lo")
        hyp = hyp_s_lo(y_lo, y_hi, np.array([d], dtype=np.uint64))
        assert hyp[0, 0] == hamming_weight(t.value("s_lo"))

    def test_hyp_exp_sum_values(self):
        y = patterns_of([2.0])  # E_y = 1024
        hyp = hyp_exp_sum(y, np.array([1023], dtype=np.uint64))
        assert hyp[0, 0] == hamming_weight(1023 + 1024)

    def test_hyp_exp_biased_values(self):
        y = patterns_of([2.0])
        hyp = hyp_exp_biased(y, np.array([1023], dtype=np.uint64))
        assert hyp[0, 0] == hamming_weight((1023 + 1024 - 2100) & 0xFFFFFFFF)

    def test_hyp_exp_out_exact(self):
        """With the true significand, the correct guess predicts the
        result exponent exactly."""
        x, ys = -3.75, [1.1, 0.2, 123.4]
        bx = int(patterns_of([x])[0])
        sig = ((bx & ((1 << 52) - 1)) | (1 << 52))
        true_e = (bx >> 52) & 0x7FF
        y = patterns_of(ys)
        hyp = hyp_exp_out(y, np.array([true_e], dtype=np.uint64), sig)
        for d, yv in enumerate(ys):
            expected = (patterns_of([x * yv])[0] >> np.uint64(52)) & np.uint64(0x7FF)
            assert hyp[d, 0] == hamming_weight(int(expected))

    def test_hyp_exp_out_validates_significand(self):
        with pytest.raises(ValueError):
            hyp_exp_out(patterns_of([1.0]), np.array([5], dtype=np.uint64), 123)

    def test_hyp_sign_complementary(self):
        y = patterns_of([1.0, -1.0, 2.0])
        hyp = hyp_sign(y)
        np.testing.assert_array_equal(hyp[:, 0] ^ hyp[:, 1], [1, 1, 1])


class TestRunCpa:
    def _planted(self, d=2000, g=16, noise=1.0, seed=0):
        """Traces leak HW(secret * known); return cpa over all guesses."""
        rng = np.random.default_rng(seed)
        known = rng.integers(1, 1 << 20, d).astype(np.uint64)
        secret = 11
        leak = hamming_weight_array_local(known * np.uint64(secret)).astype(float)
        traces = (leak + rng.normal(0, noise, d)).reshape(-1, 1)
        guesses = np.arange(1, g + 1, dtype=np.uint64)
        hyp = hyp_product(known, guesses)
        return run_cpa(hyp, traces, guesses), secret

    def test_recovers_planted_secret(self):
        res, secret = self._planted()
        assert res.best_guess == secret

    def test_scores_shape_and_ranking(self):
        res, secret = self._planted()
        assert res.scores.shape == (16,)
        assert res.guesses[res.ranking[0]] == secret
        assert res.top(3)[0][0] == secret

    def test_significance(self):
        res, secret = self._planted(noise=0.5)
        sig = res.significant_guesses()
        assert secret in sig

    def test_threshold_matches_module_function(self):
        res, _ = self._planted()
        assert res.threshold() == fisher_z_threshold(res.n_traces)

    def test_signed_ranking(self):
        rng = np.random.default_rng(3)
        d = 1000
        known = rng.integers(0, 2, d).astype(np.uint64) << np.uint64(63)
        hyp = hyp_sign(known)
        # device leaks sign_out = s_y ^ 1 (secret sign = 1)
        leak = (known >> np.uint64(63)).astype(float) * -1 + 1
        traces = (leak + rng.normal(0, 0.5, d)).reshape(-1, 1)
        res = run_cpa(hyp, traces, np.array([0, 1]), signed=True)
        assert res.best_guess == 1


def hamming_weight_array_local(v):
    from repro.utils.bits import hamming_weight_array

    return hamming_weight_array(v)
