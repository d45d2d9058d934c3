"""The capture's step engine against the softfloat reference, bit for bit.

:func:`repro.leakage.steps.step_values` computes every intermediate of
the fpr multiply as uint64 array ops, including the integer
round-to-nearest-even and the fpr.c underflow-flush / overflow-saturate
semantics the host FPU does not share. The reference is one
:func:`repro.fpr.trace.fpr_mul_trace` per operand pair
(:mod:`tests.mul_reference`). Every column must agree on every input:
normal mid-range operands and the edge patterns where the rounding and
exponent paths actually branch.
"""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.falcon import FalconParams, keygen
from repro.fpr import emu
from repro.fpr.trace import MUL_STEP_LABELS, fpr_mul_trace
from repro.leakage import CaptureCampaign, DeviceModel, capture_coefficient, synthesize_mul_traces
from repro.leakage.steps import step_values
from tests.mul_reference import reference_step_values


def _patterns(rng, n, emin, emax):
    """Random sign/exponent/mantissa patterns with exponents in [emin, emax]."""
    s = rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    e = rng.integers(emin, emax + 1, n).astype(np.uint64) << np.uint64(52)
    m = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    return s | e | m


def _assert_columns_equal(x, y):
    ref_vals = reference_step_values(x, y)
    batch_vals = step_values(x, y)
    for i, label in enumerate(MUL_STEP_LABELS):
        np.testing.assert_array_equal(
            ref_vals[:, i], batch_vals[:, i], err_msg=f"column {label!r} diverged"
        )
    return batch_vals


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "ex_range,ey_range",
        [
            ((900, 1200), (900, 1200)),   # the campaign's operating regime
            ((1, 80), (1, 80)),           # products underflow-flush to zero
            ((1980, 2046), (1980, 2046)),  # products overflow-saturate to inf
            ((1, 2046), (1, 2046)),       # full normal range
        ],
        ids=["mid", "underflow", "overflow", "full"],
    )
    def test_random_batches_bit_exact(self, ex_range, ey_range):
        rng = np.random.default_rng(hash(("backend", ex_range, ey_range)) & 0xFFFF)
        x = _patterns(rng, 2000, *ex_range)
        y = _patterns(rng, 2000, *ey_range)
        batch_vals = _assert_columns_equal(x, y)
        # and the packed result is exactly the softfloat's, including the
        # flush/saturate cases where the host FPU would disagree
        for d in range(0, 2000, 397):
            assert int(batch_vals[d, -1]) == emu.fpr_mul(int(x[d]), int(y[d]))

    def test_scalar_secret_broadcasts(self):
        rng = np.random.default_rng(7)
        y = _patterns(rng, 257, 1000, 1050)
        x = int(np.float64(-3.714).view(np.uint64))
        _assert_columns_equal(x, y)

    def test_matches_per_value_trace(self):
        """The engine reproduces fpr_mul_trace's step list row by row."""
        rng = np.random.default_rng(11)
        x = _patterns(rng, 64, 1, 2046)
        y = _patterns(rng, 64, 1, 2046)
        batch_vals = step_values(x, y)
        for d in range(64):
            trace = fpr_mul_trace(int(x[d]), int(y[d]))
            assert trace.labels == list(MUL_STEP_LABELS)
            np.testing.assert_array_equal(
                batch_vals[d], np.array(trace.values, dtype=np.uint64)
            )

    def test_rounding_ties_and_carry(self):
        """Crafted significands hitting ties-to-even and the all-ones
        round-up that carries into a new exponent."""
        mants = [0, (1 << 52) - 1, 1, 0xABCDEF, (1 << 51) + 1, (1 << 26) - 1]
        pairs = [
            (emu.compose(sx, ex, mx), emu.compose(sy, ey, my))
            for mx in mants
            for my in mants
            for (sx, sy) in ((0, 0), (1, 0))
            for (ex, ey) in ((1023, 1023), (1, 1022), (2046, 1), (1500, 600))
        ]
        x = np.array([p[0] for p in pairs], dtype=np.uint64)
        y = np.array([p[1] for p in pairs], dtype=np.uint64)
        _assert_columns_equal(x, y)

    @given(
        st.integers(0, 1), st.integers(1, 2046), st.integers(0, (1 << 52) - 1),
        st.integers(0, 1), st.integers(1, 2046), st.integers(0, (1 << 52) - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_single_pairs(self, sx, ex, mx, sy, ey, my):
        x = emu.compose(sx, ex, mx)
        y = emu.compose(sy, ey, my)
        batch_vals = step_values(
            np.array([x], dtype=np.uint64), np.array([y], dtype=np.uint64)
        )
        trace = fpr_mul_trace(x, y)
        np.testing.assert_array_equal(
            batch_vals[0], np.array(trace.values, dtype=np.uint64)
        )

    def test_zero_operand_rejected(self):
        y = np.array([np.float64(1.5).view(np.uint64)])
        with pytest.raises(ValueError, match="nonzero normal"):
            step_values(0, y)

    def test_inf_operand_rejected(self):
        inf = struct.unpack("<Q", struct.pack("<d", float("inf")))[0]
        y = np.array([np.float64(2.0).view(np.uint64)])
        with pytest.raises(ValueError, match="nonzero normal"):
            step_values(inf, y)


@pytest.fixture(scope="module")
def kp():
    return keygen(FalconParams.get(8), seed=b"backend")


def _reference_traceset_bytes(ts, device, seed):
    """Trace bytes the capture should emit, from reference step values.

    Replays capture's per-target RNG and device over the kept known
    operands, so only the step values can differ.
    """
    rng = np.random.default_rng((device.seed, seed, ts.target_index))
    return [
        device.emit(reference_step_values(ts.true_secret, seg.known_y), rng).tobytes()
        for seg in ts.segments
    ]


class TestCaptureAgainstReference:
    def test_tracesets_byte_identical(self, kp):
        """Captured traces are the device's emission of the reference
        step values, byte for byte."""
        sk, _ = kp
        dev = DeviceModel()
        ts = capture_coefficient(sk, 0, n_traces=120, device=dev, seed=4)
        want = _reference_traceset_bytes(ts, dev, seed=4)
        assert [seg.traces.tobytes() for seg in ts.segments] == want

    def test_synthesize_matches_reference(self):
        dev = DeviceModel(noise_sigma=0.0)
        y = (np.random.default_rng(3).standard_normal(40) + 2.5).view(np.uint64)
        x = int(np.float64(1.618).view(np.uint64))
        traces, values = synthesize_mul_traces(x, y, dev)
        ref = reference_step_values(x, y)
        np.testing.assert_array_equal(values, ref)
        np.testing.assert_array_equal(traces, dev.emit(ref, dev.rng()))

    def test_store_matches_reference(self, kp, tmp_path):
        """Materialized shards hold the reference traces, and the
        manifest no longer names a step engine."""
        sk, _ = kp
        dev = DeviceModel()
        store = CaptureCampaign(sk=sk, device=dev, n_traces=60, seed=5).materialize(
            str(tmp_path / "s")
        )
        with open(os.path.join(store.path, "manifest.json")) as fh:
            assert "backend" not in json.load(fh)
        for j in store.targets():
            ts = store.capture(j, mmap=False)
            want = _reference_traceset_bytes(ts, dev, seed=5)
            assert [seg.traces.tobytes() for seg in ts.segments] == want
