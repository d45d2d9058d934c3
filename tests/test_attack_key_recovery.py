"""Tests for key reconstruction and forgery from recovered coefficients."""

import math

import numpy as np
import pytest

from repro.attack.coefficient import CoefficientRecovery
from repro.attack.extend_prune import MantissaRecovery
from repro.attack.key_recovery import (
    KeyRecoveryError,
    _invfft_basis,
    rebuild_signing_key,
    recover_f,
    recover_g_from_public,
    repair_exponents,
)
from repro.attack.sign_exp import EXPONENT_GUESSES, ExponentRecovery, SignRecovery
from repro.falcon import FalconParams, keygen, verify
from repro.falcon.params import Q
from repro.fpr.emu import compose
from repro.fpr.trace import LOW_BITS
from repro.leakage.capture import doubles_to_fft, fft_to_doubles
from repro.math import fft, poly


@pytest.fixture(scope="module")
def kp():
    return keygen(FalconParams.get(16), seed=b"kr")


def true_patterns(sk):
    doubles = fft_to_doubles(fft.fft(sk.f))
    return [int(np.float64(v).view(np.uint64)) for v in doubles]


class TestRecoverF:
    def test_exact_patterns_invert(self, kp):
        sk, _ = kp
        assert recover_f(true_patterns(sk)) == sk.f

    def test_corrupt_patterns_rejected(self, kp):
        sk, _ = kp
        pats = true_patterns(sk)
        # force a huge exponent: the coefficient explodes, invFFT cannot
        # be near-integral
        pats[3] = (pats[3] & ~(0x7FF << 52)) | (1500 << 52)
        with pytest.raises(KeyRecoveryError):
            recover_f(pats)


class TestRecoverG:
    def test_recovers_true_g(self, kp):
        sk, pk = kp
        g = recover_g_from_public(sk.f, pk)
        assert poly.mod_q(g, pk.params.q) == poly.mod_q(sk.g, pk.params.q)

    def test_wrong_f_rejected(self, kp):
        sk, pk = kp
        wrong = list(sk.f)
        wrong[0] += 1
        with pytest.raises(KeyRecoveryError):
            recover_g_from_public(wrong, pk)


_MANT = (1 << 52) - 1


def planted_recoveries(sk, errors):
    """Per-coefficient recoveries with planted misses, as the attack reports them.

    ``errors[j] = (d, shifted)`` scores double j's exponent best at the
    truth + ``d`` and, if ``shifted``, recovers its significand as the
    ``(true >> 1) | 1 << 52`` alias. Exponent scores put that exponent
    first and its 16/32/48/64-offset tie class next, as the structural
    aliasing does; the recovered pattern takes the attack's first guess,
    so the magnitude prior puts the truth back first when the slip is an
    alias of a less likely magnitude.
    """
    guesses = np.arange(*EXPONENT_GUESSES, dtype=np.uint64)
    recs = []
    for j, p in enumerate(true_patterns(sk)):
        d, shifted = errors.get(j, (0, False))
        sig = (p & _MANT) | 1 << 52
        if shifted:
            sig = sig >> 1 | 1 << 52
        exp = ((p >> 52) & 0x7FF) + d
        offset = guesses.astype(np.int64) - exp
        scores = -(offset % 16 != 0).astype(float) - np.abs(offset) / 1000.0
        exponent = ExponentRecovery(exp, [], scores, guesses)
        exponent.biased_exponent = exponent.top_candidates(1)[0]
        recs.append(
            CoefficientRecovery(
                target_index=j,
                pattern=compose(p >> 63, exponent.biased_exponent, sig & _MANT),
                sign=SignRecovery(bit=p >> 63, results=[]),
                exponent=exponent,
                mantissa=MantissaRecovery(sig & ((1 << LOW_BITS) - 1), sig >> LOW_BITS, None, None),
            )
        )
    return recs


def rebuild_planted(sk, pk, errors):
    events = []
    result = rebuild_signing_key(planted_recoveries(sk, errors), [], pk, events.append)
    (repair,) = [e for e in events if e.stage == "repair"]
    return result, repair.message


class TestRepairExponents:
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_basis_is_the_stack_of_unit_inverse_transforms(self, n):
        """One batched invFFT gives the basis bit for bit, C-ordered like
        the column stack of n one-row transforms."""
        mat = _invfft_basis(n)
        cols = np.stack([fft.ifft(doubles_to_fft(unit)) for unit in np.eye(n)], axis=1)
        assert mat.flags.c_contiguous
        assert mat.tobytes() == cols.tobytes()

    def test_identity_when_top1_correct(self, kp):
        sk, pk = kp
        pats = true_patterns(sk)
        cands = [[p, p ^ (3 << 52)] for p in pats]
        patterns, f, g = repair_exponents(cands, pk)
        assert patterns == pats
        assert f == sk.f and g == sk.g

    def test_rebuild_without_misses_makes_no_moves(self, kp):
        """A clean recovery rebuilds the victim's key on the first state."""
        sk, pk = kp
        result, moves = rebuild_planted(sk, pk, {})
        assert moves == "none"
        assert (result.f, result.g, result.big_f, result.big_g) == (sk.f, sk.g, sk.big_f, sk.big_g)

    def test_fixes_single_wrong_exponent(self, kp):
        sk, pk = kp
        pats = true_patterns(sk)
        cands = [[p] for p in pats]
        true5 = pats[5]
        wrong5 = true5 ^ (1 << 54)  # exponent off by 4
        cands[5] = [wrong5, true5]
        patterns, f, _ = repair_exponents(cands, pk)
        assert patterns == pats
        assert f == sk.f

    def test_fixes_multiple_wrong_exponents(self, kp):
        sk, pk = kp
        pats = true_patterns(sk)
        cands = [[p] for p in pats]
        for j, delta in ((2, 1), (9, 2), (13, 5)):
            true_p = pats[j]
            wrong = ((true_p >> 52) + delta) << 52 | (true_p & ((1 << 52) - 1)) | (
                true_p & (1 << 63)
            )
            cands[j] = [wrong, true_p]
        patterns, f, _ = repair_exponents(cands, pk)
        assert patterns == pats
        assert f == sk.f

    def test_fixes_shift_alias_significand(self):
        """The prune kept the truth's one-bit right shift (the n8-key
        seed-14 miss); the decoder's alias list holds the truth."""
        sk, pk = keygen(FalconParams.get(8), seed=b"kr-alias")
        result, moves = rebuild_planted(sk, pk, {5: (0, True)})
        assert result.f == sk.f and result.g == sk.g
        truth = true_patterns(sk)[5]
        wrong = compose(truth >> 63, (truth >> 52) & 0x7FF, (((truth & _MANT) | 1 << 52) >> 1) & _MANT)
        assert moves == f"coef 5: {wrong:#018x} → {truth:#018x}"

    def test_fixes_exponent_aliases_and_shift_alias_at_n64(self):
        """Tie-class slips (+16 and +32 octaves on the two smallest
        doubles) land on magnitudes the prior makes unlikely, so the
        attack's order starts from the truth there. The decoder undoes
        what the prior cannot: a +2-octave slip on the second largest
        double, still a likely magnitude, and a shifted significand on
        the largest."""
        sk, pk = keygen(FalconParams.get(64), seed=b"kr64")
        truth = true_patterns(sk)
        by_size = [int(j) for j in np.argsort(np.abs(np.array(truth, dtype=np.uint64).view(np.float64)))]
        errors = {by_size[0]: (16, False), by_size[1]: (32, False), by_size[-2]: (2, False), by_size[-1]: (0, True)}
        recs = planted_recoveries(sk, errors)
        assert [recs[j].pattern for j in by_size[:2]] == [truth[j] for j in by_size[:2]]
        result, moves = rebuild_planted(sk, pk, errors)
        assert result.f == sk.f and result.g == sk.g
        moved = sorted(int(m.split()[1].rstrip(":")) for m in moves.split("; "))
        assert moved == sorted(by_size[-2:])

    def test_fixes_three_misses_at_n8(self):
        """The n8-key seed-14 shape, with slips the magnitude prior cannot
        undo: +2-octave exponent slips on the two largest doubles, which
        stay likely magnitudes, and a shifted significand on the second
        smallest. Once the slips are undone every residual looks random,
        so only the per-move cost keeps the search from wandering off."""
        sk, pk = keygen(FalconParams.get(8), seed=b"kr8")
        by_size = np.argsort(np.abs(np.array(true_patterns(sk), dtype=np.uint64).view(np.float64)))
        errors = {int(by_size[-1]): (2, False), int(by_size[-2]): (2, False), int(by_size[1]): (0, True)}
        result, moves = rebuild_planted(sk, pk, errors)
        assert result.f == sk.f and result.g == sk.g
        assert moves.count("coef ") == 3

    def test_truth_absent_raises_naming_the_coefficient(self, kp):
        """With no list holding the truth, the budget runs out and the
        error names the coefficient that lacks it."""
        sk, pk = kp
        pats = true_patterns(sk)
        wrong0 = pats[0] ^ (1 << 51)  # significand off by a quarter
        cands = [[p, p ^ (3 << 52)] for p in [wrong0, *pats[1:]]]
        with pytest.raises(KeyRecoveryError, match=r"most likely first: 0,"):
            repair_exponents(cands, pk)


class TestMagnitudeOrder:
    def test_likelier_alias_of_tiny_truth_takes_one_move(self):
        """The n8-key seed-205 shape: coefficient 4's truth has biased
        exponent 1015 (|x| < 1/128), and its +16 alias scores better and
        is a likelier magnitude, so the attack starts from the alias. The
        truth stays in the list behind it and the decoder reaches it in
        one move."""
        sk, pk = keygen(FalconParams.get(8), seed=b"perfbench/n8-key/205/key")
        truth = true_patterns(sk)[4]
        assert (truth >> 52) & 0x7FF == 1015
        (rec,) = [r for r in planted_recoveries(sk, {4: (16, False)}) if r.target_index == 4]
        assert rec.exponent.biased_exponent == 1031
        assert truth in rec.candidate_patterns()
        result, moves = rebuild_planted(sk, pk, {4: (16, False)})
        assert result.f == sk.f and result.g == sk.g
        assert moves == f"coef 4: {rec.pattern:#018x} → {truth:#018x}"

    def test_alias_slips_at_n512_need_no_moves(self):
        """A FALCON-512 campaign's shape: 128 doubles whose exponent scores
        best at a +16, +32 or -32-octave alias of the truth. The prior
        starts each from its truth, so the decoder accepts the first
        state."""
        sk, pk = keygen(FalconParams.get(512), seed=b"kr512")
        errors = {j: ((16, 32, -32)[j % 3], False) for j in range(0, 512, 4)}
        recs = planted_recoveries(sk, errors)
        assert all(r.pattern == t for r, t in zip(recs, true_patterns(sk)))
        result, moves = rebuild_planted(sk, pk, errors)
        assert moves == "none"
        assert (result.f, result.g) == (sk.f, sk.g)

    @pytest.mark.parametrize("n, seeds", [(8, 20), (512, 2)])
    def test_doubles_lie_within_keygen_span(self, n, seeds):
        """Keygen's norm check and Parseval bound every FFT(f) double by
        sqrt(n/2) * 1.17 sqrt(q), the span the erasure scan covers."""
        span = math.sqrt(n / 2) * 1.17 * math.sqrt(Q)
        for seed in range(seeds):
            sk, _ = keygen(FalconParams.get(n), seed=b"span-%d" % seed)
            doubles = np.array(true_patterns(sk), dtype=np.uint64).view(np.float64)
            assert np.abs(doubles).max() <= span


@pytest.fixture(scope="module")
def attack_report():
    """One full end-to-end attack shared by the assertions below."""
    from repro.attack import full_attack

    sk, pk = keygen(FalconParams.get(8), seed=b"e2e-test")
    report = full_attack(sk, pk, n_traces=6000, message=b"forged by test")
    return sk, pk, report


class TestParallelEngine:
    """The worker-process fan-out must be invisible in the results."""

    @pytest.fixture(scope="class")
    def campaign(self):
        from repro.leakage import CaptureCampaign, DeviceModel

        sk, _ = keygen(FalconParams.get(8), seed=b"par")
        return CaptureCampaign(sk=sk, n_traces=600, device=DeviceModel(), seed=41)

    def test_parallel_bit_identical_to_serial(self, campaign):
        from repro.attack import AttackConfig, recover_coefficients
        from repro.obs import scoped_registry

        serial, s_records = recover_coefficients(campaign, AttackConfig(n_workers=1))
        assert [r.target_index for r in s_records] == list(range(8))
        # the parallel fan-out and the chunked (streaming) Pearson path
        # must both reproduce the serial one-shot run exactly
        for config in (AttackConfig(n_workers=2), AttackConfig(chunk_rows=256)):
            with scoped_registry() as reg:
                par, p_records = recover_coefficients(campaign, config)
            # only the chunked config streams (worker counts merge back)
            assert (reg.counter("cpa.chunks_streamed") > 0) == (config.chunk_rows is not None)
            assert [r.pattern for r in par] == [r.pattern for r in serial]
            assert [r.sign.bit for r in par] == [r.sign.bit for r in serial]
            assert [r.exponent.biased_exponent for r in par] == [
                r.exponent.biased_exponent for r in serial
            ]
            # observability rides along, in target order, on every path
            assert [r.target_index for r in p_records] == list(range(8))
            assert [r.n_traces_kept for r in p_records] == [
                r.n_traces_kept for r in s_records
            ]
            assert all(r.elapsed_seconds > 0 for r in p_records)

    def test_progress_events_fire_per_coefficient(self, campaign):
        from repro.attack import AttackConfig, recover_coefficients

        events = []
        recover_coefficients(
            campaign, AttackConfig(n_workers=2), progress_callback=events.append
        )
        coeff_events = [e for e in events if e.stage == "coefficient"]
        assert len(coeff_events) == 8
        assert sorted(e.record.target_index for e in coeff_events) == list(range(8))
        assert [e.completed for e in coeff_events] == list(range(1, 9))
        assert all(e.total == 8 for e in coeff_events)

    def test_trace_accounting_reflects_kept_rows(self, campaign):
        """Records carry the post-filter row counts the CPA actually saw
        (the capture layer drops non-normal operands), not the request."""
        from repro.attack import AttackConfig, recover_coefficients

        _, records = recover_coefficients(campaign, AttackConfig())
        for rec in records:
            assert rec.n_traces_requested == 600
            assert len(rec.n_traces_kept) == 2  # one count per captured segment
            assert all(0 < kept <= 600 for kept in rec.n_traces_kept)
            assert rec.n_traces_used == sum(rec.n_traces_kept)


class _FailingSource:
    """Picklable TraceSource proxy that fails one target's capture.

    Module-level so ProcessPoolExecutor can ship it to workers; every
    fingerprint-relevant attribute delegates to the wrapped campaign,
    so a session bound through the proxy resumes with the real one.
    """

    def __init__(self, inner, fail_index):
        self.inner = inner
        self.fail_index = fail_index

    def capture(self, target_index):
        if target_index == self.fail_index:
            raise RuntimeError("injected capture failure")
        return self.inner.capture(target_index)

    @property
    def n_targets(self):
        return self.inner.n_targets

    @property
    def n_traces(self):
        return self.inner.n_traces

    @property
    def target(self):
        return self.inner.target

    @property
    def mode(self):
        return self.inner.mode

    @property
    def seed(self):
        return self.inner.seed

    @property
    def device(self):
        return self.inner.device


class TestFailurePathPreservesSiblings:
    """Regression: one raising future must not discard its siblings'
    finished work — their checkpoints survive and a resume skips them."""

    def test_failed_batch_preserves_sibling_checkpoints(self, tmp_path):
        from repro.attack import AttackConfig, recover_coefficients
        from repro.attack.session import AttackSession
        from repro.leakage import CaptureCampaign, DeviceModel

        sk, _ = keygen(FalconParams.get(8), seed=b"par-fail")
        campaign = CaptureCampaign(
            sk=sk, n_traces=300, device=DeviceModel(), seed=43
        )
        cfg = AttackConfig(n_workers=2)
        sess = tmp_path / "sess"
        with pytest.raises(RuntimeError, match="injected capture failure"):
            recover_coefficients(
                _FailingSource(campaign, fail_index=0), cfg,
                session=AttackSession(sess),
            )
        saved = sorted(int(p.stem.split("_")[1]) for p in sess.glob("coeff_*.pkl"))
        assert saved, "siblings in flight when target 0 failed must be checkpointed"
        assert 0 not in saved  # the failing target itself never finished

        # resume against the healthy campaign: every checkpointed sibling
        # replays from disk instead of being re-attacked
        restored = []

        def cb(ev):
            if ev.stage == "coefficient" and ev.message == "restored from checkpoint":
                restored.append(ev.record.target_index)

        recs, _ = recover_coefficients(
            campaign, cfg, session=AttackSession(sess), progress_callback=cb
        )
        assert sorted(restored) == saved
        clean, _ = recover_coefficients(campaign, AttackConfig(n_workers=1))
        assert [r.pattern for r in recs] == [r.pattern for r in clean]


class TestPicklableProbe:
    def test_verdict_cached_per_object(self):
        import gc

        from repro.attack import key_recovery as kr

        class Probe:
            reduced = 0

            def __reduce__(self):
                type(self).reduced += 1
                return (dict, ())

        p = Probe()
        assert kr._picklable(p) is True
        assert Probe.reduced == 1
        assert kr._picklable(p) is True
        assert Probe.reduced == 1  # cached: no second full traversal
        key = id(p)
        assert key in kr._PICKLE_PROBES
        del p
        gc.collect()
        assert key not in kr._PICKLE_PROBES  # weakref evicts dead entries

    def test_unpicklable_object_cached_false(self):
        from repro.attack import key_recovery as kr

        class Holder:
            def __init__(self):
                self.fn = lambda: None  # closures do not pickle

        h = Holder()
        assert kr._picklable(h) is False
        assert kr._picklable(h) is False  # cached verdict, same answer

    def test_probe_streams_instead_of_materializing(self):
        """The probe must not build the full pickle byte string."""
        import pickle as _pickle

        from repro.attack import key_recovery as kr

        calls = {"dumps": 0}
        orig = _pickle.dumps

        def counting_dumps(*a, **kw):
            calls["dumps"] += 1
            return orig(*a, **kw)

        _pickle.dumps = counting_dumps
        try:
            assert kr._picklable((1, 2, 3)) is True
        finally:
            _pickle.dumps = orig
        assert calls["dumps"] == 0


class TestEndToEnd:
    def test_key_recovered(self, attack_report):
        """The paper's headline claim at laptop scale (n=8, 6k traces)."""
        sk, _, report = attack_report
        assert report.key_correct, "secret key f not recovered"
        assert report.key_recovery.f == sk.f
        assert report.key_recovery.g == sk.g
        assert report.n_coefficients == 8

    def test_forgery_verifies(self, attack_report):
        _, _, report = attack_report
        assert report.forgery_verifies, "forged signature rejected"
        assert "YES" in report.summary()

    def test_recovered_key_signs_arbitrary_messages(self, attack_report):
        from repro.falcon.sign import sign

        _, pk, report = attack_report
        sig = sign(report.key_recovery.recovered_sk, b"another message", seed=3)
        assert verify(pk, b"another message", sig)

    def test_ntru_equation_on_recovered_key(self, attack_report):
        _, pk, report = attack_report
        kr = report.key_recovery
        lhs = poly.sub(poly.mul(kr.f, kr.big_g), poly.mul(kr.g, kr.big_f))
        assert lhs == poly.constant(pk.params.q, pk.params.n)
