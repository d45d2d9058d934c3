"""Tests for the ML-profiled attack (numpy MLP classifier)."""

import numpy as np
import pytest

from repro.attack.hypotheses import hyp_s_lo, known_limbs
from repro.attack.ml_profiled import MlpClassifier, ml_profile_step, ml_scores
from repro.falcon import FalconParams, keygen
from repro.leakage import CaptureCampaign, DeviceModel


@pytest.fixture(scope="module")
def setup():
    sk, _ = keygen(FalconParams.get(8), seed=b"mlp")
    prof = CaptureCampaign(sk=sk, n_traces=5000, device=DeviceModel(seed=61), seed=62).capture(0)
    atk = CaptureCampaign(sk=sk, n_traces=800, device=DeviceModel(seed=63), seed=64).capture(0)
    return prof, atk


class TestMlpClassifier:
    def test_learns_separable_toy_problem(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(-3, 1, (300, 2)), rng.normal(3, 1, (300, 2))])
        y = np.array([0] * 300 + [1] * 300)
        clf = MlpClassifier(classes=np.array([0, 1]), hidden=8, epochs=30, seed=1)
        clf.fit(x, y)
        assert clf.accuracy(x, y) > 0.95

    def test_log_proba_normalized(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 3))
        y = rng.integers(0, 3, 100)
        clf = MlpClassifier(classes=np.array([0, 1, 2]), hidden=4, epochs=5).fit(x, y)
        probs = np.exp(clf.log_proba(x))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_untrained_rejected(self):
        clf = MlpClassifier(classes=np.array([0, 1]))
        with pytest.raises(ValueError):
            clf.log_proba(np.zeros((1, 2)))

    def test_label_shape_mismatch(self):
        clf = MlpClassifier(classes=np.array([0, 1]))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((5, 2)), np.zeros(4))

    def test_unknown_class_rejected(self):
        clf = MlpClassifier(classes=np.array([0, 1]))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((3, 2)), np.array([0, 1, 7]))


class TestMlProfiledAttack:
    def test_classifier_tracks_hw(self, setup):
        prof, _ = setup
        clf = ml_profile_step(prof, "s_lo", epochs=40, seed=3)
        # the classifier should beat chance substantially on its own data
        from repro.fpr.trace import MUL_STEP_LABELS
        from repro.leakage.steps import step_values
        from repro.utils.bits import hamming_weight_array

        seg = prof.segments[0]
        values = step_values(prof.true_secret, seg.known_y)
        hw = hamming_weight_array(values[:, MUL_STEP_LABELS.index("s_lo")])
        window = seg.traces[:, prof.layout.slice_of("s_lo")]
        acc = clf.accuracy(window, hw)
        assert acc > 2.0 / len(clf.classes)

    def test_recovers_secret_limb(self, setup):
        prof, atk = setup
        clf = ml_profile_step(prof, "s_lo", epochs=40, seed=3)
        sig = (atk.true_secret & ((1 << 52) - 1)) | (1 << 52)
        true_lo = sig & ((1 << 25) - 1)
        rng = np.random.default_rng(4)
        cands = np.unique(
            np.concatenate([[true_lo], rng.integers(1, 1 << 25, 60)]).astype(np.uint64)
        )
        seg = atk.segments[0]
        y_lo, y_hi = known_limbs(seg.known_y)
        hyp = hyp_s_lo(y_lo, y_hi, cands)
        res = ml_scores(clf, seg.traces[:, atk.layout.slice_of("s_lo")], hyp, cands)
        assert res.best_guess == true_lo

    def test_hypothesis_shape_validated(self, setup):
        prof, _ = setup
        clf = ml_profile_step(prof, "s_lo", epochs=2, seed=3)
        with pytest.raises(ValueError):
            ml_scores(clf, np.zeros((5, 1)), np.zeros((4, 1)), np.arange(1))
