"""Tests for the ladder, extend-and-prune and per-coefficient recovery.

These are the paper's core claims, exercised on simulated traces:
the multiplication phase produces shift-aliased candidates; the addition
phase prunes them; the combination recovers sign, exponent, and the full
52-bit mantissa of a FALCON FFT(f) coefficient.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.attack.coefficient import recover_coefficient
from repro.attack.config import AttackConfig
from repro.attack.distinguisher import ENGINE_PROFILED_LABELS, CpaDistinguisher
from repro.attack.extend_prune import (
    LOW_PRUNE_STEPS,
    prune_candidates,
    recover_mantissa,
    refine_limb,
)
from repro.attack.ladder import LOW_LIMB_STEPS, ROWS, ladder_limb
from repro.attack.sign_exp import ExponentRecovery, recover_exponent, recover_sign
from repro.falcon import FalconParams, keygen
from repro.fpr.trace import LOW_BITS
from repro.leakage import CaptureCampaign, DeviceModel
from repro.leakage.traceset import Segment, TraceSet


@pytest.fixture(scope="module")
def campaign():
    sk, pk = keygen(FalconParams.get(8), seed=b"ep-tests")
    return CaptureCampaign(sk=sk, n_traces=8000, device=DeviceModel(seed=5))


@pytest.fixture(scope="module")
def ts0(campaign):
    return campaign.capture(0)


@pytest.fixture(scope="module")
def rec0(ts0):
    return recover_coefficient(ts0, AttackConfig())


def true_parts(ts):
    sig = (ts.true_secret & ((1 << 52) - 1)) | (1 << 52)
    return {
        "sign": ts.true_secret >> 63,
        "exp": (ts.true_secret >> 52) & 0x7FF,
        "lo": sig & ((1 << LOW_BITS) - 1),
        "hi": sig >> LOW_BITS,
        "sig": sig,
    }


class TestAttackConfig:
    def test_defaults_valid(self):
        AttackConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(n_workers=0)
        with pytest.raises(ValueError):
            AttackConfig(chunk_rows=0)
        with pytest.raises(ValueError):
            AttackConfig(profiling_traces=0)
        with pytest.raises(ValueError):
            AttackConfig(profiling_targets=0)
        with pytest.raises(ValueError, match="unknown distinguisher"):
            AttackConfig(distinguisher="bogus")

    @pytest.mark.parametrize(
        "name", ("window", "beam", "prune_keep", "use_both_segments", "exponent_guesses")
    )
    def test_search_widths_are_not_knobs(self, name):
        with pytest.raises(TypeError):
            AttackConfig(**{name: 1})


class TestLadder:
    def test_stages_cover_all_bits(self, ts0):
        res = ladder_limb(ts0, LOW_LIMB_STEPS, total_bits=LOW_BITS, window=5, beam=16)
        assert res.stages[-1].covered_bits == LOW_BITS
        assert [s.covered_bits for s in res.stages] == [5, 10, 15, 20, 25]

    def test_survivors_within_beam_plus_zero_extensions(self, ts0):
        res = ladder_limb(ts0, LOW_LIMB_STEPS, total_bits=10, window=5, beam=8)
        assert len(res.stages[0].survivors) <= 8 + 1

    def test_true_limb_class_survives(self, ts0):
        """The ladder must keep the true limb or one of its shift aliases."""
        from repro.attack.strawman import shift_aliases

        parts = true_parts(ts0)
        res = ladder_limb(ts0, LOW_LIMB_STEPS, total_bits=LOW_BITS, window=5, beam=32)
        survivors = set(int(c) for c in res.candidates)
        alias_class = set()
        for s in survivors:
            alias_class.update(shift_aliases(s, LOW_BITS))
        assert parts["lo"] in alias_class

    def test_result_is_best_first(self, ts0):
        """``best`` is the top final-stage candidate; ``scores`` line up."""
        res = ladder_limb(ts0, LOW_LIMB_STEPS, total_bits=15, window=5, beam=8, keep=8)
        last = res.stages[-1]
        idx = np.searchsorted(last.candidates, res.candidates)
        np.testing.assert_array_equal(last.candidates[idx], res.candidates)
        np.testing.assert_array_equal(res.scores, last.scores[idx])
        assert np.all(np.diff(res.scores) <= 0)
        assert res.best == int(last.candidates[np.argmax(last.scores)])
        np.testing.assert_array_equal(res.candidates, last.survivors)

    def test_bad_total_bits(self, ts0):
        with pytest.raises(ValueError):
            ladder_limb(ts0, LOW_LIMB_STEPS, total_bits=0)

    def test_rows_past_the_prefix_are_not_read(self, ts0):
        """On a 3000-row set, replacing every sample past ``ROWS`` with
        noise leaves the result unchanged: the guard holds at σ = 10."""
        ts = ts0.head(3000)
        rng = np.random.default_rng(1)
        scrambled = TraceSet(ts.layout, [
            Segment(seg.known_y, np.concatenate([
                seg.traces[:ROWS], rng.normal(10.0, 10.0, seg.traces[ROWS:].shape),
            ]), seg.name)
            for seg in ts.segments
        ], meta=ts.meta)
        want = ladder_limb(ts, LOW_LIMB_STEPS, total_bits=LOW_BITS)
        got = ladder_limb(scrambled, LOW_LIMB_STEPS, total_bits=LOW_BITS)
        assert want.n_rows == got.n_rows == ROWS
        np.testing.assert_array_equal(got.candidates, want.candidates)
        np.testing.assert_array_equal(got.scores, want.scores)

    def test_noisy_capture_grows_the_prefix(self, campaign):
        """At σ = 30 the best candidate does not clear the Fisher-z bound
        of ``ROWS`` rows, so the ladder reruns on more of them."""
        noisy = CaptureCampaign(
            sk=campaign.sk, n_traces=3000, device=DeviceModel(noise_sigma=30.0, seed=5)
        ).capture(0)
        res = ladder_limb(noisy, LOW_LIMB_STEPS, total_bits=LOW_BITS)
        assert res.n_rows > ROWS
        assert res.n_rows == min(2 * ROWS, max(seg.n_traces for seg in noisy.segments))


class TestPrune:
    def test_prune_ranks_truth_over_alias(self, ts0):
        """Fig 4(d): the addition separates D from its shift aliases."""
        parts = true_parts(ts0)
        d = parts["lo"]
        aliases = [d]
        if d * 2 < 1 << LOW_BITS:
            aliases.append(d * 2)
        if d % 2 == 0:
            aliases.append(d // 2)
        cands = np.array(sorted(set(aliases)), dtype=np.uint64)
        scores, results = prune_candidates(ts0, cands, LOW_PRUNE_STEPS)
        assert int(cands[int(np.argmax(scores))]) == d
        assert len(results) == 2  # two segments, one step each

    def test_refine_stays_at_truth(self, ts0):
        parts = true_parts(ts0)
        refined, _ = refine_limb(ts0, parts["lo"], LOW_BITS, LOW_PRUNE_STEPS)
        assert refined == parts["lo"]

    def test_refine_repairs_single_window_error(self, ts0):
        parts = true_parts(ts0)
        corrupted = parts["lo"] ^ 0b11000  # flip two bits in one window
        refined, _ = refine_limb(ts0, corrupted, LOW_BITS, LOW_PRUNE_STEPS)
        assert refined == parts["lo"]


class TestMantissaRecovery:
    def test_recovers_both_limbs(self, ts0):
        parts = true_parts(ts0)
        rec = recover_mantissa(ts0)
        assert rec.low_limb == parts["lo"]
        assert rec.high_limb == parts["hi"]
        assert rec.significand == parts["sig"]
        assert rec.mantissa_field == parts["sig"] & ((1 << 52) - 1)

    def test_diagnostics_exposed(self, ts0):
        rec = recover_mantissa(ts0)
        assert len(rec.low.ladder.stages) == 5
        assert len(rec.low.prune_results) >= 1
        assert rec.high.best == rec.high_limb
        assert rec.high_limb >> 27 == 1  # implicit MSB


class TestSignExponent:
    def test_sign_recovered(self, ts0):
        parts = true_parts(ts0)
        rec = recover_sign(ts0)
        assert rec.bit == parts["sign"]
        assert rec.score > 0

    def test_exponent_recovered_or_top8(self, ts0):
        parts = true_parts(ts0)
        sig = parts["sig"]
        rec = recover_exponent(ts0, significand=sig, guess_range=(963, 1084))
        assert parts["exp"] in rec.top_candidates(8)

    def test_top_candidates_share_the_tie_break(self):
        """Near-tied scores rank by distance from the public centre, the
        rule that picks ``biased_exponent``, so the list leads with it."""
        guesses = np.arange(963, 1084, dtype=np.uint64)
        scores = np.zeros(len(guesses))
        scores[[964 - 963, 1028 - 963]] = 1.0      # an exact 64-offset tie
        scores[1000 - 963] = 1.0 - 1e-12           # tied up to float order
        scores[1030 - 963] = 0.5
        rec = ExponentRecovery(1028, [], scores, guesses, center=1028)
        assert rec.top_candidates(4) == [1028, 1000, 964, 1030]

    def test_margin_skips_the_winners_tie_group(self):
        """Guesses tied with the winner (exactly, or up to float order) are
        aliases, so the margin is measured to the best guess past them."""
        guesses = np.arange(963, 1084, dtype=np.uint64)
        scores = np.full(len(guesses), 0.25)
        scores[[1012 - 963, 1028 - 963, 1044 - 963]] = 1.0   # 16-octave aliases
        scores[1060 - 963] = 1.0 - 1e-12
        scores[1030 - 963] = 0.75
        rec = ExponentRecovery(1028, [], scores, guesses, center=1028)
        assert rec.margin == pytest.approx(0.25, abs=1e-15)
        scores[1030 - 963] = 1.0 - 1e-6                      # past the tie tolerance
        assert rec.margin == pytest.approx(1e-6, rel=1e-6)
        assert ExponentRecovery(1028, [], np.ones(3), guesses[:3], center=1028).margin == np.inf

    def test_exponent_ignores_impossible_range(self, ts0):
        rec = recover_exponent(ts0, guess_range=(1000, 1050))
        assert 1000 <= rec.biased_exponent < 1050

    def test_exponent_repr_is_a_summary(self, ts0):
        sig = true_parts(ts0)["sig"]
        rec = recover_exponent(ts0, significand=sig, guess_range=(963, 1084))
        text = repr(rec)
        assert len(text) < 160
        assert f"biased_exponent={rec.biased_exponent}" in text
        assert f"margin={rec.margin:.4g}" in text
        for res in rec.results:
            assert len(repr(res)) < 160
            assert f"best_guess={res.best_guess}" in repr(res)


@dataclass(repr=False)
class RecordingCpa(CpaDistinguisher):
    """Classic CPA that logs (label, exact, signed) for every score call."""

    calls: list = field(default_factory=list)

    def score(self, hyp, window, guesses, *, label=None, signed=False, exact=True):
        self.calls.append((label, exact, signed))
        return super().score(hyp, window, guesses, label=label, signed=signed, exact=exact)


class TestCoefficientRecovery:
    def test_every_step_reaches_the_supplied_distinguisher(self, ts0):
        dist = RecordingCpa()
        rec = recover_coefficient(ts0, distinguisher=dist)
        assert rec.mantissa.mantissa_field == ts0.true_secret & ((1 << 52) - 1)
        flags: dict[str, set] = {}
        for label, exact, signed in dist.calls:
            flags.setdefault(label, set()).add((exact, signed))
        products = {"p_ll", "p_lh", "p_hl", "p_hh"}
        assert set(flags) == products | set(ENGINE_PROFILED_LABELS)
        assert len(flags) == 11
        for label, seen in flags.items():
            exact = label not in products
            assert seen == {(exact, label == "sign_out")}, label
        exact_labels = {label for label, exact, _ in dist.calls if exact}
        assert exact_labels == set(ENGINE_PROFILED_LABELS)

    def test_full_coefficient(self, rec0, ts0):
        rec = rec0
        parts = true_parts(ts0)
        # mantissa and sign must be exact; the exponent may need the
        # global repair, but must be in the candidate set
        assert rec.mantissa.mantissa_field == ts0.true_secret & ((1 << 52) - 1)
        assert rec.sign.bit == parts["sign"]
        assert ts0.true_secret in rec.candidate_patterns(12)
        # the decoder starts from the pattern the attack chose
        assert rec.exponent.top_candidates(12)[0] == rec.exponent.biased_exponent
        assert rec.candidate_patterns(12)[0] == rec.pattern

    def test_only_the_ladder_scores_a_prefix(self, rec0, ts0):
        """The prune, exponent and sign steps correlate every row of each
        segment, so their Fisher-z bounds use all the data."""
        rows = [seg.n_traces for seg in ts0.segments]
        assert min(rows) > ROWS

        def per_call(results):
            per_segment = len(results) // len(rows)
            return [r.n_traces for r in results] == [n for n in rows for _ in range(per_segment)]

        for limb in (rec0.mantissa.low, rec0.mantissa.high):
            assert limb.ladder.n_rows == ROWS
            assert per_call(limb.prune_results)
        assert per_call(rec0.exponent.results)
        assert per_call(rec0.sign.results)

    def test_more_noise_needs_more_traces(self, campaign):
        """With 10x the noise, 300 traces are not enough for the mantissa."""
        sk = campaign.sk
        noisy = CaptureCampaign(
            sk=sk, n_traces=300, device=DeviceModel(noise_sigma=120.0, seed=6)
        )
        ts = noisy.capture(0)
        rec = recover_mantissa(ts)
        assert rec.mantissa_field != ts.true_secret & ((1 << 52) - 1)
