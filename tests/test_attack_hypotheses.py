"""Hypothesis matrices against the softfloat reference, and their memory layout.

The builders in :mod:`repro.attack.hypotheses` predict the Hamming weight
of one step value of the multiply per trace and guess. For the true
secret, that column must be exactly the HW of the step value the
reference :func:`repro.fpr.trace.fpr_mul_trace` records: not the capture
engine's, which shares its stage functions with the builders. The
builders return column-major matrices; the Pearson kernels and the
template distinguisher must give the same answer for either memory order.
"""

import numpy as np
import pytest

from repro.attack.distinguisher import TemplateDistinguisher
from repro.attack.hypotheses import (
    hyp_exp_biased,
    hyp_exp_out,
    hyp_exp_sum,
    hyp_product,
    hyp_s_hi,
    hyp_s_lo,
    hyp_s_mid,
    hyp_sign,
    known_limbs,
)
from repro.falcon import FalconParams, keygen
from repro.fpr import emu
from repro.fpr.trace import LOW_BITS, MUL_STEP_LABELS
from repro.leakage import CaptureCampaign
from repro.utils.bits import hamming_weight, hamming_weight_array
from repro.utils.stats import batched_pearson, guess_block
from tests.mul_reference import reference_step_values

D = 6000
BLOCK = guess_block(D)
#: guess counts: a single column, a pair, and one spanning two full
#: blocks plus a partial one
G_CASES = (1, 2, 2 * BLOCK + 5)


@pytest.fixture(scope="module")
def captured():
    sk, _ = keygen(FalconParams.get(8), seed=b"hypothesis-layout-tests")
    ts = CaptureCampaign(sk=sk, n_traces=D, seed=3).capture(1)
    seg = ts.segments[0]
    steps = reference_step_values(ts.true_secret, seg.known_y)
    return ts.true_secret, seg.known_y, steps


def _with_truth(truth: int, g: int, width: int, rng) -> tuple[np.ndarray, int]:
    """``g`` distinct guesses below 2**width, the truth at a late position."""
    others = rng.choice(1 << width, size=g + 8, replace=False)
    guesses = others[others != truth][:g].astype(np.uint64)
    pos = (2 * g) // 3
    guesses[pos] = truth
    return guesses, pos


@pytest.mark.parametrize("g", G_CASES)
def test_true_guess_column_is_hw_of_captured_step(captured, g):
    secret, y, steps = captured
    rng = np.random.default_rng(g)
    sig = (secret & ((1 << 52) - 1)) | (1 << 52)
    lo, hi = sig & ((1 << LOW_BITS) - 1), sig >> LOW_BITS
    exp, sign = (secret >> 52) & 0x7FF, secret >> 63
    y_lo, y_hi = known_limbs(y)
    lo_g, lo_pos = _with_truth(lo, g, LOW_BITS, rng)
    hi_g, hi_pos = _with_truth(hi, g, 28, rng)
    exp_g, exp_pos = _with_truth(exp, g, 11, rng)
    built = {
        "p_ll": (hyp_product(y_lo, lo_g), lo_pos),
        "p_lh": (hyp_product(y_hi, lo_g), lo_pos),
        "p_hl": (hyp_product(y_lo, hi_g), hi_pos),
        "p_hh": (hyp_product(y_hi, hi_g), hi_pos),
        "s_lo": (hyp_s_lo(y_lo, y_hi, lo_g), lo_pos),
        "s_mid": (hyp_s_mid(y_lo, y_hi, lo, hi_g), hi_pos),
        "s_hi": (hyp_s_hi(y_lo, y_hi, lo, hi_g), hi_pos),
        "exp_sum": (hyp_exp_sum(y, exp_g), exp_pos),
        "exp_biased": (hyp_exp_biased(y, exp_g), exp_pos),
        "exp_out": (hyp_exp_out(y, exp_g, sig), exp_pos),
        "sign_out": (hyp_sign(y), sign),
    }
    for label, (hyp, pos) in built.items():
        want = hamming_weight_array(steps[:, MUL_STEP_LABELS.index(label)])
        assert hyp.dtype == np.int8 and hyp.flags.f_contiguous, label
        assert hyp.shape == (D, 2 if label == "sign_out" else g), label
        np.testing.assert_array_equal(hyp[:, pos], want, err_msg=label)


@pytest.mark.parametrize("sig", [1 << 52, (1 << 53) - 1, 0x1B6DB6DB6DB6DB])
def test_exp_out_extreme_guesses_flush_and_saturate(sig):
    """At the extreme exponent guesses (1, 2, 2045, 2046) products with
    small or large known exponents underflow or overflow: every cell must
    be the HW of fpr_mul's flushed or saturated exponent field."""
    rng = np.random.default_rng(sig & 0xFFFF)
    n = 3000
    y = (
        (rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63))
        | (rng.integers(1, 2047, n).astype(np.uint64) << np.uint64(52))
        | rng.integers(0, 1 << 52, n, dtype=np.uint64)
    )
    y[:8] |= np.uint64((1 << 52) - 1)  # all-ones significands: rounding carries
    guesses = np.array([1, 2, 2045, 2046], dtype=np.uint64)
    hyp = hyp_exp_out(y, guesses, sig)
    fields = set()
    for j, e in enumerate(guesses):
        x = (int(e) << 52) | (sig & ((1 << 52) - 1))
        got = [(emu.fpr_mul(x, int(v)) >> 52) & 0x7FF for v in y]
        fields |= set(got)
        want = [hamming_weight(f) for f in got]
        np.testing.assert_array_equal(hyp[:, j], want, err_msg=f"guess {int(e)}")
    assert {0, 0x7FF} <= fields  # both clamps are exercised


@pytest.mark.parametrize("g", G_CASES)
def test_every_column_matches_a_per_guess_build(captured, g):
    """Each block lands in its own columns: build one guess at a time."""
    _secret, y, _steps = captured
    y_lo, y_hi = known_limbs(y)
    guesses = np.random.default_rng(g).integers(0, 1 << LOW_BITS, g, dtype=np.uint64)
    hyp = hyp_s_lo(y_lo, y_hi, guesses)
    for j in (0, g // 2, g - 1):
        np.testing.assert_array_equal(hyp[:, j], hyp_s_lo(y_lo, y_hi, guesses[j : j + 1])[:, 0])


def _layouts(g: int):
    rng = np.random.default_rng(100 + g)
    hyp = rng.integers(0, 54, size=(D, g)).astype(np.int8)
    if g > 1:
        hyp[:, 0] = 7  # a degenerate column scores 0 in either layout
    traces = (hyp[:, -1:] * 0.5 + rng.normal(0, 4.0, size=(D, 3))).astype(np.float32)
    return np.ascontiguousarray(hyp), np.asfortranarray(hyp), traces


@pytest.mark.parametrize("g", G_CASES)
def test_batched_pearson_layout_independent(g):
    c_hyp, f_hyp, traces = _layouts(g)
    got = batched_pearson(f_hyp, traces)
    np.testing.assert_array_equal(got, batched_pearson(c_hyp, traces))
    assert g == 1 or np.all(got[0] == 0.0)


@pytest.mark.parametrize("g", G_CASES)
@pytest.mark.parametrize("chunk_rows", (1000, 4096, 997))
def test_streaming_pearson_layout_independent(g, chunk_rows):
    # 997 divides neither D nor any guess-block width of the kernel
    assert D % 997 and guess_block(997) % 997 and 997 % guess_block(997)
    c_hyp, f_hyp, traces = _layouts(g)
    got = batched_pearson(f_hyp, traces, chunk_rows=chunk_rows)
    np.testing.assert_array_equal(got, batched_pearson(c_hyp, traces, chunk_rows=chunk_rows))
    np.testing.assert_allclose(got, batched_pearson(f_hyp, traces), atol=1e-12)


@pytest.mark.parametrize("g", G_CASES)
def test_template_scores_layout_independent(g):
    c_hyp, f_hyp, traces = _layouts(g)
    window = traces[:, :1]
    dist = TemplateDistinguisher()
    dist.fit_step("s_lo", window, c_hyp[:, -1])
    guesses = np.arange(g)
    got = dist.score(f_hyp, window, guesses, label="s_lo").scores
    np.testing.assert_array_equal(got, dist.score(c_hyp, window, guesses, label="s_lo").scores)
    assert dist.score(f_hyp, window, guesses, label="s_lo").best_guess == g - 1
