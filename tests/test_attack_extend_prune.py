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
from repro.attack import extend_prune as extend_prune_mod
from repro.attack import sign_exp as sign_exp_mod
from repro.attack.extend_prune import (
    LOW_PRUNE_STEPS,
    _with_shift_aliases,
    prune_candidates,
    recover_mantissa,
    refine_limb,
)
from repro.attack import ladder as ladder_mod
from repro.attack.ladder import (
    BEAM,
    HIGH_LIMB_STEPS,
    KEEP,
    LOW_LIMB_STEPS,
    ROWS,
    WINDOW,
    ladder_limb,
)
from repro.attack.sign_exp import ExponentRecovery, _ranked, recover_exponent, recover_sign
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

    @pytest.mark.parametrize("steps,bits", [(LOW_LIMB_STEPS, LOW_BITS), (HIGH_LIMB_STEPS, 27)])
    def test_only_the_beam_and_zero_are_carried(self, ts0, steps, bits):
        """Each stage extends at most the beam plus the all-zero candidate,
        and carries at most that many on; earlier survivors do not pile up."""
        res = ladder_limb(ts0, steps, total_bits=bits)
        for i, stage in enumerate(res.stages):
            n_keep = KEEP if i == len(res.stages) - 1 else BEAM
            assert len(stage.candidates) <= (BEAM + 1) << WINDOW
            assert len(stage.survivors) <= n_keep + 1
            assert 0 in stage.survivors

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

    def test_guard_reruns_once_on_all_rows(self, ts0, monkeypatch):
        """Traces with no leak never clear the bound; the ladder then costs
        the prefix and one all-row pass, not a pass per larger prefix."""
        ts = ts0.head(6000)
        rng = np.random.default_rng(2)
        noise = TraceSet(ts.layout, [
            Segment(seg.known_y, rng.normal(10.0, 10.0, seg.traces.shape), seg.name)
            for seg in ts.segments
        ], meta=ts.meta)
        passes = []
        inner = ladder_mod._ladder

        def counted(traceset, *args):
            passes.append(traceset.segments[0].n_traces)
            return inner(traceset, *args)

        monkeypatch.setattr(ladder_mod, "_ladder", counted)
        res = ladder_limb(noise, LOW_LIMB_STEPS, total_bits=LOW_BITS)
        assert passes == [ROWS, 6000]
        assert res.n_rows == 6000

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

    def test_high_limb_aliases_reach_the_implicit_msb(self):
        """A high limb C = 0x896fa00 ends in 9 zero bits; the ladder, over
        the 27 unknown bits, may return C >> 8 = 0x896fa. Only a shift
        within all 28 bits puts its top bit back on the implicit MSB."""
        msb = 1 << 27
        cands = _with_shift_aliases(np.array([0x896FA], dtype=np.uint64), 27, msb)
        assert 0x896FA00 in cands
        assert all(msb <= int(c) < 2 * msb for c in cands)
        assert 0x896FA | msb in cands  # the unshifted survivor, MSB set
        low = _with_shift_aliases(np.array([0b1100], dtype=np.uint64), LOW_BITS, 0)
        assert low.tolist() == [0b11 << k for k in range(LOW_BITS - 1)]


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
        rec = recover_exponent(ts0, significand=sig)
        assert parts["exp"] in rec.top_candidates(8)

    def test_top_candidates_share_the_tie_break(self):
        """Exact and float-order ties are broken by the magnitude prior,
        the rule that picks ``biased_exponent``, so the list starts with
        it: 1028 beats its 64-octave alias 964, 1000 (tied with both up
        to float order) sits between them, and the prior orders the
        untied guesses after them."""
        guesses = np.arange(963, 1084, dtype=np.uint64)
        scores = np.full(len(guesses), -1.0)
        scores[[964 - 963, 1028 - 963]] = 1.0      # an exact 64-offset tie
        scores[1000 - 963] = 1.0 - 1e-12           # tied up to float order
        scores[1030 - 963] = 0.5
        rec = ExponentRecovery(1028, [], scores, guesses)
        assert rec.top_candidates(6) == [1028, 1000, 964, 1030, 1029, 1027]

    def test_margin_skips_the_winners_tie_group(self):
        """Guesses tied with the winner (exactly, or up to float order) are
        aliases, so the margin is measured to the best guess past them."""
        guesses = np.arange(963, 1084, dtype=np.uint64)
        scores = np.full(len(guesses), 0.25)
        scores[[1012 - 963, 1028 - 963, 1044 - 963]] = 1.0   # 16-octave aliases
        scores[1060 - 963] = 1.0 - 1e-12
        scores[1030 - 963] = 0.75
        rec = ExponentRecovery(1028, [], scores, guesses)
        assert rec.margin == pytest.approx(0.25, abs=1e-15)
        scores[1030 - 963] = 1.0 - 1e-6                      # past the tie tolerance
        assert rec.margin == pytest.approx(1e-6, rel=1e-6)
        assert ExponentRecovery(1028, [], np.ones(3), guesses[:3]).margin == np.inf

    def test_ranked_orders_by_posterior_score(self):
        """Score plus the weighted log-prior decides: the prior outweighs
        small score gaps near the magnitude of a keygen double and is
        outweighed by large ones. Guesses whose prior underflows (1035 and
        up) come last, in score order, so no guess is dropped."""
        guesses = np.arange(963, 1084, dtype=np.uint64)
        scores = np.zeros(len(guesses))
        for g, score in ((1045, 1.0), (1013, 0.9), (1029, 0.8), (997, 0.7), (1020, 0.6), (1061, 0.5)):
            scores[g - 963] = score
        order = [int(guesses[i]) for i in _ranked(scores)]
        assert order[:6] == [1013, 1029, 997, 1020, 1028, 1027]
        assert order[-49:] == [1045, 1061] + [g for g in range(1035, 1084) if g not in (1045, 1061)]
        assert sorted(order) == list(range(963, 1084))

    def test_prior_outweighs_a_small_score_gap(self):
        """FALCON-512 seed 1's shape: a true 1028 trails a wrong 1020 by
        0.005 in combined score, and the prior (5.27 nats for 1028) puts
        it first."""
        guesses = np.arange(963, 1084, dtype=np.uint64)
        scores = np.zeros(len(guesses))
        scores[1020 - 963], scores[1028 - 963] = 1.0, 1.0 - 0.005
        order = [int(guesses[i]) for i in _ranked(scores)]
        assert order[:2] == [1028, 1020]

    def test_ranked_breaks_an_exact_alias_tie_by_the_prior(self):
        """A 16-octave tie between 1018 and 1034: 1034 is the nearer to
        the RMS magnitude 1029, but a double of 512 or more is about 8
        sigma out, so the prior picks 1018."""
        guesses = np.arange(963, 1084, dtype=np.uint64)
        scores = np.full(len(guesses), -1.0)
        scores[[1018 - 963, 1034 - 963]] = 1.0
        rec = ExponentRecovery(1018, [], scores, guesses)
        assert rec.top_candidates(2) == [1018, 1034]

    def test_exponent_repr_is_a_summary(self, ts0):
        sig = true_parts(ts0)["sig"]
        rec = recover_exponent(ts0, significand=sig)
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

    def test_hypothesis_cells_stay_bounded(self, ts0, monkeypatch):
        """Cost guard: the hypothesis cells (rows x guesses, per step) one
        coefficient attack scores, 8.07e7 here. The bound sits 24% above;
        a ladder that carries every earlier survivor on scores 2.03e8."""
        cells = []
        for mod in (ladder_mod, extend_prune_mod, sign_exp_mod):
            def counted(traceset, steps, guesses, *args, _inner=mod.score_steps, **kwargs):
                rows = sum(seg.n_traces for seg in traceset.segments)
                cells.append(rows * len(steps) * len(guesses))
                return _inner(traceset, steps, guesses, *args, **kwargs)

            monkeypatch.setattr(mod, "score_steps", counted)
        rec = recover_coefficient(ts0)
        assert rec.pattern == ts0.true_secret
        assert sum(cells) <= 100_000_000

    def test_more_noise_needs_more_traces(self, campaign):
        """With 10x the noise, 300 traces are not enough for the mantissa."""
        sk = campaign.sk
        noisy = CaptureCampaign(
            sk=sk, n_traces=300, device=DeviceModel(noise_sigma=120.0, seed=6)
        )
        ts = noisy.capture(0)
        rec = recover_mantissa(ts)
        assert rec.mantissa_field != ts.true_secret & ((1 << 52) - 1)
