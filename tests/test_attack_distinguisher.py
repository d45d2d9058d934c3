"""The unified Distinguisher protocol and its four implementations."""

import numpy as np
import pytest

from repro.attack.config import AttackConfig, KNOWN_DISTINGUISHERS
from repro.attack.cpa import CpaResult, run_cpa
from repro.attack.distinguisher import (
    DISTINGUISHERS,
    CpaDistinguisher,
    MlDistinguisher,
    ScoreResult,
    SecondOrderDistinguisher,
    TemplateDistinguisher,
    make_distinguisher,
    profile_distinguisher,
)
from repro.falcon.keygen import keygen
from repro.falcon.params import FalconParams
from repro.leakage.capture import CaptureCampaign
from repro.leakage.device import DeviceModel


@pytest.fixture(scope="module")
def campaign():
    sk, _ = keygen(FalconParams.get(8), seed=b"distinguisher-tests")
    return CaptureCampaign(
        sk=sk, device=DeviceModel(noise_sigma=2.0, seed=23), n_traces=500, seed=43
    )


@pytest.fixture(scope="module")
def exp_problem(campaign):
    """An exact-hypothesis scoring problem with known ground truth."""
    from repro.attack.hypotheses import hyp_exp_sum

    ts = campaign.capture(0)
    seg = ts.segments[0]
    guesses = np.arange(963, 1084, dtype=np.uint64)
    hyp = hyp_exp_sum(seg.known_y, guesses)
    window = seg.traces[:, ts.layout.slice_of("exp_sum")]
    true_exp = (ts.true_secret >> 52) & 0x7FF
    return hyp, window, guesses, true_exp


class TestRegistry:
    def test_registry_matches_config_contract(self):
        assert set(DISTINGUISHERS) == set(KNOWN_DISTINGUISHERS)

    def test_make_by_name(self):
        for name in KNOWN_DISTINGUISHERS:
            dist = make_distinguisher(name, chunk_rows=64)
            assert dist.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown distinguisher"):
            make_distinguisher("sasca-but-wrong")
        with pytest.raises(ValueError, match="unknown distinguisher"):
            AttackConfig(distinguisher="sasca-but-wrong")

    def test_profiling_knobs_validated(self):
        with pytest.raises(ValueError):
            AttackConfig(profiling_traces=0)
        with pytest.raises(ValueError):
            AttackConfig(profiling_targets=0)


class TestCpaDistinguisher:
    def test_matches_run_cpa_exactly(self, exp_problem):
        hyp, window, guesses, _ = exp_problem
        ref = run_cpa(hyp, window, guesses)
        res = CpaDistinguisher().score(hyp, window, guesses, label="exp_sum")
        assert isinstance(res, CpaResult)
        np.testing.assert_array_equal(res.corr, ref.corr)
        assert res.best_guess == ref.best_guess

    def test_satisfies_score_result_protocol(self, exp_problem):
        hyp, window, guesses, _ = exp_problem
        res = CpaDistinguisher(chunk_rows=128).score(hyp, window, guesses)
        assert isinstance(res, ScoreResult)
        assert res.ranking.shape == guesses.shape


class TestProfiledDistinguishers:
    @pytest.fixture(scope="class")
    def fitted_template(self, campaign):
        cfg = AttackConfig(
            distinguisher="template", profiling_traces=800, profiling_targets=3
        )
        return profile_distinguisher(make_distinguisher("template"), campaign, cfg)

    def test_profiling_covers_engine_labels(self, fitted_template):
        from repro.attack.distinguisher import ENGINE_PROFILED_LABELS

        assert set(fitted_template.fitted_labels) == set(ENGINE_PROFILED_LABELS)

    def test_template_finds_true_exponent(self, fitted_template, exp_problem):
        hyp, window, guesses, true_exp = exp_problem
        res = fitted_template.score(hyp, window, guesses, label="exp_sum")
        assert res.best_guess == true_exp

    def test_unfitted_label_raises(self, exp_problem):
        hyp, window, guesses, _ = exp_problem
        with pytest.raises(ValueError, match="not profiled"):
            TemplateDistinguisher().score(hyp, window, guesses, label="exp_sum")

    def test_inexact_hypotheses_fall_back_to_cpa(self, fitted_template, exp_problem):
        hyp, window, guesses, _ = exp_problem
        fallback = fitted_template.score(
            hyp, window, guesses, label="p_ll", exact=False
        )
        ref = run_cpa(hyp, window, guesses)
        np.testing.assert_array_equal(fallback.scores, ref.scores)

    def test_chunked_scoring_matches_one_shot(self, fitted_template, exp_problem):
        hyp, window, guesses, _ = exp_problem
        one_shot = fitted_template.score(hyp, window, guesses, label="exp_sum").scores
        chunked = TemplateDistinguisher(chunk_rows=77)
        chunked._models = fitted_template._models
        streamed = chunked.score(hyp, window, guesses, label="exp_sum").scores
        np.testing.assert_allclose(streamed, one_shot, rtol=1e-12)

    def test_mlp_distinguisher_scores_exact_step(self):
        # The MLP's softmax calibration is much weaker than Gaussian
        # templates on a 1-sample window, so give it a quieter device
        # than the shared campaign.
        from repro.attack.hypotheses import hyp_exp_sum

        sk, _ = keygen(FalconParams.get(8), seed=b"mlp-tests")
        quiet = CaptureCampaign(
            sk=sk, device=DeviceModel(noise_sigma=0.5, seed=29), n_traces=500, seed=47
        )
        cfg = AttackConfig(
            distinguisher="mlp", profiling_traces=1200, profiling_targets=3
        )
        dist = profile_distinguisher(
            MlDistinguisher(epochs=60), quiet, cfg, labels=("exp_sum",)
        )
        ts = quiet.capture(0)
        seg = ts.segments[0]
        guesses = np.arange(963, 1084, dtype=np.uint64)
        hyp = hyp_exp_sum(seg.known_y, guesses)
        window = seg.traces[:, ts.layout.slice_of("exp_sum")]
        true_exp = (ts.true_secret >> 52) & 0x7FF
        res = dist.score(hyp, window, guesses, label="exp_sum")
        top = [int(guesses[i]) for i in res.ranking[:5]]
        assert true_exp in top


class TestSecondOrderDistinguisher:
    def test_requires_share_pairs(self):
        dist = SecondOrderDistinguisher()
        with pytest.raises(ValueError, match="share pairs"):
            dist.score(np.zeros((10, 2)), np.zeros((10, 3)), np.array([0, 1]))

    def test_streaming_matches_one_shot(self):
        rng = np.random.default_rng(11)
        d = 400
        hw = rng.integers(0, 17, d).astype(np.float64)
        mask_hw = rng.normal(0, 1, d)
        share1 = (hw - mask_hw)[:, None] + rng.normal(0, 0.5, (d, 1))
        share2 = mask_hw[:, None] + rng.normal(0, 0.5, (d, 1))
        hyp = np.stack([hw, rng.permutation(hw)], axis=1)
        window = np.concatenate([share1, share2], axis=1)
        guesses = np.array([0, 1])
        one = SecondOrderDistinguisher().score(hyp, window, guesses)
        streamed = SecondOrderDistinguisher(chunk_rows=59).score(hyp, window, guesses)
        np.testing.assert_allclose(streamed.corr, one.corr, rtol=1e-10)
        assert isinstance(streamed, CpaResult)


class TestEngineIntegration:
    def test_recover_coefficient_same_for_default_and_explicit_cpa(self, campaign):
        from repro.attack.coefficient import recover_coefficient

        ts = campaign.capture(1)
        cfg = AttackConfig()
        a = recover_coefficient(ts, cfg)
        b = recover_coefficient(ts, cfg, distinguisher=CpaDistinguisher())
        assert a.pattern == b.pattern

    def test_template_coefficient_recovery(self):
        # End-to-end through the profiled path. Everything is seeded, so
        # this is a deterministic regression; the quieter device keeps
        # the 500-trace budget comfortably above the success threshold.
        from repro.attack.coefficient import recover_coefficient

        sk, _ = keygen(FalconParams.get(8), seed=b"template-rec-tests")
        quiet = CaptureCampaign(
            sk=sk, device=DeviceModel(noise_sigma=1.0, seed=13), n_traces=600, seed=53
        )
        cfg = AttackConfig(
            distinguisher="template", profiling_traces=800, profiling_targets=3
        )
        dist = profile_distinguisher(make_distinguisher("template"), quiet, cfg)
        rec = recover_coefficient(quiet.capture(0), cfg, distinguisher=dist)
        assert rec.correct

    def test_second_order_engine_selection_fails_informatively(self, campaign):
        from repro.attack.key_recovery import recover_coefficients

        cfg = AttackConfig(distinguisher="second-order")
        # Unmasked captures carry no share pairs: every per-step window
        # has an odd/selected sample layout the combiner must reject
        # rather than silently correlate.
        with pytest.raises(ValueError, match="share pairs"):
            recover_coefficients(campaign, cfg)
