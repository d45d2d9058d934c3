"""Tests for the leakage models, device, synthesizer and capture layers."""

import hashlib

import numpy as np
import pytest

from repro.falcon import FalconParams, keygen
from repro.fpr.trace import MUL_STEP_LABELS
from repro.leakage import (
    CaptureCampaign,
    DeviceModel,
    HammingDistanceModel,
    HammingWeightModel,
    TraceSet,
    WeightedBitModel,
    capture_coefficient,
    synthesize_mul_traces,
    trace_layout,
)
from repro.leakage.capture import doubles_to_fft, fft_to_doubles
from repro.leakage.steps import step_values
from repro.leakage.traceset import Segment


@pytest.fixture(scope="module")
def kp():
    return keygen(FalconParams.get(16), seed=b"leak")


class TestModels:
    def test_hw_model(self):
        vals = np.array([0, 1, 3, 0xFF], dtype=np.uint64)
        np.testing.assert_array_equal(HammingWeightModel().signal(vals), [0, 1, 2, 8])

    def test_hd_model_defaults_to_hw(self):
        vals = np.array([7, 8], dtype=np.uint64)
        np.testing.assert_array_equal(HammingDistanceModel().signal(vals), [3, 1])

    def test_hd_model_with_previous(self):
        vals = np.array([0b1100], dtype=np.uint64)
        prev = np.array([0b1010], dtype=np.uint64)
        assert HammingDistanceModel().signal(vals, prev)[0] == 2

    def test_weighted_bits_equal_weights_is_hw(self):
        vals = np.array([0b1011, 0xFFFF], dtype=np.uint64)
        wb = WeightedBitModel()
        np.testing.assert_allclose(wb.signal(vals), HammingWeightModel().signal(vals))

    def test_weighted_bits_nonuniform(self):
        weights = tuple([2.0] + [0.0] * 63)
        wb = WeightedBitModel(weights=weights)
        np.testing.assert_allclose(wb.signal(np.array([1, 2, 3], dtype=np.uint64)), [2, 0, 2])


class TestDeviceModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceModel(samples_per_step=0)
        with pytest.raises(ValueError):
            DeviceModel(noise_sigma=-1)
        with pytest.raises(ValueError):
            DeviceModel(jitter=-1)

    def test_emit_shape(self):
        dev = DeviceModel(samples_per_step=3, noise_sigma=0.0)
        vals = np.ones((5, 4), dtype=np.uint64)
        out = dev.emit(vals, dev.rng())
        assert out.shape == (5, 12)

    def test_noise_free_signal_is_hw(self):
        dev = DeviceModel(noise_sigma=0.0, gain=2.0, offset=1.0)
        vals = np.array([[0b111]], dtype=np.uint64)
        out = dev.emit(vals, dev.rng())
        assert out[0, 0] == pytest.approx(2.0 * 3 + 1.0)

    def test_noise_statistics(self):
        dev = DeviceModel(noise_sigma=5.0, offset=0.0, gain=1.0)
        vals = np.zeros((4000, 1), dtype=np.uint64)
        out = dev.emit(vals, dev.rng())
        assert abs(float(out.mean())) < 0.5
        assert float(out.std()) == pytest.approx(5.0, rel=0.1)

    def test_deterministic_given_seed(self):
        dev = DeviceModel(seed=77)
        vals = np.arange(12, dtype=np.uint64).reshape(3, 4)
        a = dev.emit(vals, dev.rng())
        b = dev.emit(vals, dev.rng())
        np.testing.assert_array_equal(a, b)

    def test_jitter_shifts_traces(self):
        dev = DeviceModel(noise_sigma=0.0, jitter=2, seed=1)
        vals = np.zeros((20, 10), dtype=np.uint64)
        vals[:, 5] = 0xFFFF
        out = dev.emit(vals, dev.rng())
        peaks = out.argmax(axis=1)
        assert peaks.min() >= 3 and peaks.max() <= 7 and len(set(peaks)) > 1

    def test_jitter_gather_matches_roll_loop(self):
        """The vectorized jitter gather must be bit-identical to the
        obvious per-trace np.roll loop it replaced."""
        dev = DeviceModel(noise_sigma=3.0, jitter=4, samples_per_step=2, seed=99)
        vals = np.random.default_rng(2).integers(
            0, 1 << 56, size=(50, 9), dtype=np.uint64
        )
        fast = dev.emit(vals, dev.rng())

        # reference: same rng consumption order, explicit roll loop
        rng = dev.rng()
        signal = dev.model.signal(vals) * dev.gain + dev.offset
        expanded = np.repeat(signal, dev.samples_per_step, axis=1)
        noise = rng.normal(0.0, dev.noise_sigma, size=expanded.shape)
        slow = (expanded + noise).astype(np.float32)
        shifts = rng.integers(-dev.jitter, dev.jitter + 1, size=slow.shape[0])
        for i, s in enumerate(shifts):
            if s:
                slow[i] = np.roll(slow[i], int(s))
        np.testing.assert_array_equal(fast, slow)


class TestSynth:
    def test_trace_layout(self):
        dev = DeviceModel(samples_per_step=2)
        layout = trace_layout(dev)
        assert layout.n_samples == 2 * len(MUL_STEP_LABELS)
        assert layout.slice_of("p_ll") == slice(8, 10)
        assert layout.sample_of("sign_out") == 2 * MUL_STEP_LABELS.index("sign_out")

    def test_zero_operand_rejected(self):
        with pytest.raises(ValueError):
            step_values(0, np.array([np.float64(1.5).view(np.uint64)]))

    def test_synthesize_shapes(self):
        dev = DeviceModel()
        y = (np.random.default_rng(0).standard_normal(50) + 2.0).view(np.uint64)
        x = np.float64(3.25).view(np.uint64)
        traces, values = synthesize_mul_traces(int(x), y, dev)
        assert traces.shape == (50, len(MUL_STEP_LABELS))
        assert values.shape == (50, len(MUL_STEP_LABELS))

    def test_leakage_depends_on_secret(self):
        """Noise-free traces for two different secrets must differ."""
        dev = DeviceModel(noise_sigma=0.0)
        y = (np.random.default_rng(1).standard_normal(10) + 3.0).view(np.uint64)
        t1, _ = synthesize_mul_traces(int(np.float64(1.237).view(np.uint64)), y, dev)
        t2, _ = synthesize_mul_traces(int(np.float64(9.991).view(np.uint64)), y, dev)
        assert not np.array_equal(t1, t2)


class TestDoublesLayout:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        f_fft = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        np.testing.assert_allclose(doubles_to_fft(fft_to_doubles(f_fft)), f_fft)

    def test_interleaving_order(self):
        f_fft = np.array([1 + 2j, 3 + 4j])
        np.testing.assert_array_equal(fft_to_doubles(f_fft), [1, 2, 3, 4])

    def test_leading_axes_map_row_by_row(self):
        rng = np.random.default_rng(6)
        f_fft = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        doubles = fft_to_doubles(f_fft)
        assert doubles.shape == (3, 8)
        for row, d in zip(f_fft, doubles):
            np.testing.assert_array_equal(d, fft_to_doubles(row))
        np.testing.assert_array_equal(doubles_to_fft(doubles), f_fft)


class TestCapture:
    def test_traceset_structure(self, kp):
        sk, _ = kp
        ts = capture_coefficient(sk, 0, n_traces=200)
        assert len(ts.segments) == 2
        assert ts.segments[0].name == "x_re"
        assert ts.segments[1].name == "x_im"
        assert ts.true_secret is not None
        assert ts.meta["n"] == 16

    def test_known_operands_match_fft_c(self, kp):
        sk, _ = kp
        camp = CaptureCampaign(sk=sk, n_traces=100)
        ts = camp.capture(4)  # slot 2 real part
        np.testing.assert_array_equal(
            ts.segments[0].known_y.view(np.float64), camp.c_fft[:, 2].real
        )

    def test_true_secret_is_fft_f_double(self, kp):
        sk, _ = kp
        camp = CaptureCampaign(sk=sk, n_traces=50)
        ts = camp.capture(3)
        from repro.math import fft

        expected = fft.fft(sk.f)[1].imag
        assert np.uint64(ts.true_secret).view(np.float64) == expected

    def test_deterministic(self, kp):
        sk, _ = kp
        a = capture_coefficient(sk, 1, n_traces=100, seed=9)
        b = capture_coefficient(sk, 1, n_traces=100, seed=9)
        np.testing.assert_array_equal(a.segments[0].traces, b.segments[0].traces)

    def test_bad_target_rejected(self, kp):
        sk, _ = kp
        camp = CaptureCampaign(sk=sk, n_traces=10)
        with pytest.raises(ValueError):
            camp.capture(16)

    def test_bad_mode_rejected(self, kp):
        sk, _ = kp
        with pytest.raises(ValueError):
            CaptureCampaign(sk=sk, mode="replay")

    def test_hash_mode_runs(self, kp):
        sk, _ = kp
        camp = CaptureCampaign(sk=sk, n_traces=20, mode="hash")
        ts = camp.capture(0)
        assert ts.segments[0].n_traces <= 20

    def test_head_truncates(self, kp):
        sk, _ = kp
        ts = capture_coefficient(sk, 0, n_traces=100)
        small = ts.head(30)
        assert all(seg.n_traces == 30 for seg in small.segments)
        assert small.true_secret == ts.true_secret

    def test_corpus_rng_domain_separated(self, kp):
        """Hash and direct mode must draw from *different* streams for the
        same seed — otherwise switching modes silently reuses randomness."""
        sk, _ = kp
        direct = CaptureCampaign(sk=sk, n_traces=64, mode="direct", seed=5)
        hashed = CaptureCampaign(sk=sk, n_traces=64, mode="hash", seed=5)
        assert not np.array_equal(direct.c_fft, hashed.c_fft)

    def test_direct_corpus_deterministic(self, kp):
        sk, _ = kp
        a = CaptureCampaign(sk=sk, n_traces=64, mode="direct", seed=5)
        b = CaptureCampaign(sk=sk, n_traces=64, mode="direct", seed=5)
        np.testing.assert_array_equal(a.c_fft, b.c_fft)
        c = CaptureCampaign(sk=sk, n_traces=64, mode="direct", seed=6)
        assert not np.array_equal(a.c_fft, c.c_fft)

    @pytest.mark.parametrize("mode, digest", [
        ("direct", "193fcca024bdde7600070ba23927752c8f9850d224b87f331f1104b57d0bd0b8"),
        ("hash", "c25a2e723140668ce5aaf3bd2e8150b5c0eede817acd7b9d909c6005b6664bf6"),
    ])
    def test_corpus_is_pinned(self, kp, mode, digest):
        """1100 rows at n = 16 (two full FFT blocks and a partial one) give
        the corpus recorded from the one-transform-per-row build, bit for
        bit."""
        sk, _ = kp
        camp = CaptureCampaign(sk=sk, n_traces=1100, mode=mode, seed=5)
        assert hashlib.sha256(camp.c_fft.tobytes()).hexdigest() == digest
        assert hashlib.sha256(camp.secret_doubles.tobytes()).hexdigest() == (
            "9e8951b01bac2efce8490dd8b631d75a3ac054cea01530341da665adf5748734"
        )

    def test_capture_meta_reports_kept_counts(self, kp):
        """The traceset records both the requested signings and the rows
        that survived the non-normal-operand filter, per segment."""
        sk, _ = kp
        camp = CaptureCampaign(sk=sk, n_traces=80)
        ts = camp.capture(0)
        assert ts.meta["n_requested"] == 80
        assert ts.meta["n_kept"] == tuple(seg.n_traces for seg in ts.segments)
        assert all(0 < kept <= 80 for kept in ts.meta["n_kept"])

    def test_campaign_pickle_roundtrip(self, kp):
        """Workers receive the campaign by pickle; caches are stripped and
        the rebuilt corpus must be identical."""
        import pickle

        sk, _ = kp
        camp = CaptureCampaign(sk=sk, n_traces=30, seed=12)
        _ = camp.c_fft  # populate the cache that __getstate__ must strip
        clone = pickle.loads(pickle.dumps(camp))
        np.testing.assert_array_equal(clone.c_fft, camp.c_fft)
        a = camp.capture(1)
        b = clone.capture(1)
        np.testing.assert_array_equal(a.segments[0].traces, b.segments[0].traces)

    def test_value_transform_hook(self, kp):
        sk, _ = kp
        calls = []

        def xform(values, rng):
            calls.append(values.shape)
            return values

        camp = CaptureCampaign(sk=sk, n_traces=30, value_transform=xform)
        camp.capture(0)
        assert len(calls) == 2  # one per segment


class TestTraceSetIO:
    def test_save_load_roundtrip(self, kp, tmp_path):
        sk, _ = kp
        ts = capture_coefficient(sk, 2, n_traces=50)
        path = str(tmp_path / "ts.npz")
        ts.save(path)
        loaded = TraceSet.load(path)
        assert loaded.target_index == ts.target_index
        assert loaded.true_secret == ts.true_secret
        assert loaded.layout.samples_per_step == ts.layout.samples_per_step
        for a, b in zip(loaded.segments, ts.segments):
            np.testing.assert_array_equal(a.traces, b.traces)
            np.testing.assert_array_equal(a.known_y, b.known_y)
            assert a.name == b.name

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Segment(known_y=np.zeros(3, dtype=np.uint64), traces=np.zeros((4, 2)))

    def test_n_traces_totals(self, kp):
        sk, _ = kp
        ts = capture_coefficient(sk, 0, n_traces=40)
        assert ts.n_traces == sum(s.n_traces for s in ts.segments)
