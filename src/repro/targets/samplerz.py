"""The ``samplerz`` surface: RCDT walk + rejection-loop leakage.

SamplerZ (FALCON Algorithm 12-14) is the other universally-implemented
secret hot spot besides the fpr multiply: every signature makes 2n calls
through :func:`repro.falcon.ffsampling.ffsampling`, and each call's
output ``z`` feeds straight into the short lattice vector. Bi-SamplerZ
(arXiv:2505.24509) breaks FALCON from single-bit leakage of exactly the
intermediates this surface captures; GALACTICS (arXiv:1910.06185-style
attacks on BLISS) established that sampler-adjacent leakage suffices to
break a full signature scheme. This module makes that family of attacks
a registered end-to-end citizen of the pipeline.

**Victim model.** One seeded signing is executed with the instrumented
:func:`repro.falcon.samplerz.samplerz_trace` hook; each of its 2n
samplerz calls is one *target*. The device replays that call
``n_traces`` times (a triggered oscilloscope re-arming on the same
sampler invocation — standard practice for single-execution targets)
and emits noisy Hamming-weight leakage of the 26
:data:`~repro.falcon.samplerz.SAMPLERZ_STEP_LABELS` intermediates: the
rejection-loop iteration count, the 72-bit RCDT draw (three 24-bit
limbs), the 18 thermometer-comparison bits ``cmp_i = [u < RCDT[i]]``
whose sum *is* ``z0``, the sign bit ``b``, and the assembled outputs.

**Hypothesis engine.** The candidate space is tiny — ``z0`` in
``0..len(RCDT)`` and ``b`` in {0, 1} determine ``z = b + (2b-1) z0``
and every predictable step value — so instead of Pearson CPA (which
degenerates on replay captures: the hypothesis column is constant
across replays) the surface scores candidates with a calibrated affine
template: predicted sample mean ``offset + gain * HW(step value)``
against the measured per-step means, ranked by negative squared error.
The ``gain``/``offset`` calibration rides in the TraceSet meta,
modeling the profiling step an attacker performs on a clone device.

**Recovered secret.** The center-relative draw ``z`` of every call —
ffSampling's Gaussian outputs. (The absolute output ``z + floor(mu)``
needs the secret-dependent center ``mu``; recovering the per-call ``z``
transcript is the sampler-leakage primitive the cited attacks build
key recovery from.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.falcon.samplerz import (
    RCDT,
    SAMPLERZ_STEP_LABELS,
    SamplerZTrace,
    samplerz_trace,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attack.config import AttackConfig
    from repro.attack.key_recovery import CoefficientRecord, KeyRecoveryResult
    from repro.falcon.keygen import PublicKey, SecretKey
    from repro.leakage.capture import CaptureCampaign
    from repro.leakage.device import DeviceModel
    from repro.leakage.synth import TraceLayout
    from repro.leakage.traceset import TraceSet

__all__ = ["SamplerZTarget", "SamplerZRecovery", "traced_signing"]

_U64 = (1 << 64) - 1


def _hw(v: int) -> int:
    return bin(v).count("1")


def traced_signing(sk: "SecretKey", seed: int) -> list[SamplerZTrace]:  # sast: declassify(reason=capture layer models the victim signing and consumes sk by design (leakage model boundary))
    """One seeded signing with every samplerz call instrumented.

    Replicates :func:`repro.falcon.sign.sign` — salt + message from the
    campaign's domain-separated stream, HashToPoint, the (t0, t1)
    target, then ffSampling — but routes the sampler through
    :func:`~repro.falcon.samplerz.samplerz_trace`, which consumes the
    RNG byte-for-byte like the plain sampler (the recording is passive).
    Returns the 2n per-call traces in execution order.
    """
    from repro.falcon.ffsampling import ffsampling
    from repro.falcon.hash_to_point import hash_to_point
    from repro.falcon.sign import sign_target
    from repro.utils.rng import ChaCha20Prng

    params = sk.params
    # Same domain-separation shape as the fpr-mul corpus stream, with
    # the surface name in the mode slot (a signing always hashes, so
    # the direct/hash distinction does not exist here).
    rng = ChaCha20Prng(("capture", seed, "samplerz", params.n).__repr__())
    salt = rng.randombytes(params.salt_len)
    msg = rng.randombytes(32)
    c = hash_to_point(salt + msg, params.q, params.n)
    t0, t1 = sign_target(sk, c)
    calls: list[SamplerZTrace] = []

    def sampler(center: float, sigma: float) -> int:
        trace = samplerz_trace(center, sigma, params.sigmin, rng)
        calls.append(trace)
        return trace.result

    ffsampling(t0, t1, sk.tree, sampler)
    return calls


@dataclass(frozen=True)
class SamplerZRecovery:
    """One recovered samplerz call: the center-relative draw ``z``.

    Mirrors the role :class:`~repro.attack.coefficient.
    CoefficientRecovery` plays for the fpr-mul surface (``value`` /
    ``correct`` / a decision margin), so the surface-agnostic engine
    can account for either.
    """

    call_index: int
    z0: int                      # recovered half-Gaussian base sample
    b: int                       # recovered sign-flip bit
    margin: float                # best-vs-runner-up template score gap
    true_value: int | None       # ground-truth z pattern (sims only)

    @property
    def z(self) -> int:
        """The recovered center-relative draw ``b + (2b-1) z0``."""
        return self.b + (2 * self.b - 1) * self.z0

    @property
    def value(self) -> int:
        """``z`` as the two's-complement u64 pattern of the z_val step."""
        return self.z & _U64

    @property
    def correct(self) -> bool | None:
        if self.true_value is None:
            return None
        return self.value == self.true_value


class SamplerZTarget:
    """TargetPoint for the discrete Gaussian sampler surface."""

    name = "samplerz"
    has_forgery = False
    step_labels: tuple[str, ...] = SAMPLERZ_STEP_LABELS
    #: Steps whose value a (z0, b) candidate fully determines — the
    #: template scores exactly these. The u limbs are excluded (the
    #: uniform draw is not predictable from the candidate) and so is
    #: z_out (it needs the secret center mu); iters is excluded because
    #: the accepted-iteration count does not discriminate (z0, b).
    predicted_labels: tuple[str, ...] = (
        *(f"cmp_{i:02d}" for i in range(len(RCDT))),
        "z0",
        "b",
        "z_val",
    )

    def layout(self, device: "DeviceModel") -> "TraceLayout":
        from repro.leakage.synth import TraceLayout

        return TraceLayout(
            samples_per_step=device.samples_per_step, labels=SAMPLERZ_STEP_LABELS
        )

    def n_targets(self, campaign: "CaptureCampaign") -> int:
        # ffSampling makes 4 sampler calls per leaf over n/2 leaves.
        return 2 * int(campaign.sk.params.n)

    def _calls(self, campaign: "CaptureCampaign") -> list[SamplerZTrace]:  # sast: declassify(reason=capture layer models the victim signing and consumes sk by design (leakage model boundary))
        calls = campaign._surface_cache.get("samplerz_calls")
        if calls is None:
            calls = traced_signing(campaign.sk, campaign.seed)
            campaign._surface_cache["samplerz_calls"] = calls
        return calls

    def capture_traceset(self, campaign: "CaptureCampaign", target_index: int) -> "TraceSet":  # sast: declassify(reason=capture layer emits modeled leakage of secret sampler intermediates by design (leakage model boundary))
        from repro.leakage.traceset import Segment, TraceSet
        from repro.obs.spans import span

        calls = self._calls(campaign)
        if not 0 <= target_index < len(calls):
            raise ValueError(
                f"target_index must be in 0..{len(calls) - 1}, got {target_index}"
            )
        call = calls[target_index]
        row = np.array([val for _, val in call.steps], dtype=np.uint64)
        values = np.tile(row, (campaign.n_traces, 1))
        # Same per-target RNG derivation as the fpr-mul capture, so
        # replays are independent across calls but reproducible per call.
        rng = np.random.default_rng((campaign.device.seed, campaign.seed, target_index))
        with span("capture", target=target_index, source="live"):
            if campaign.value_transform is not None:
                values = campaign.value_transform(values, rng)
            traces = campaign.device.emit(values, rng)
            segments = [
                Segment(
                    known_y=np.arange(campaign.n_traces, dtype=np.uint64),
                    traces=traces,
                    name="replay",
                )
            ]
        return TraceSet(
            layout=self.layout(campaign.device),
            segments=segments,
            target_index=target_index,
            true_secret=call.z & _U64,
            meta={
                "n": campaign.sk.params.n,
                "mode": campaign.mode,
                "target": self.name,
                "call_index": target_index,
                # The attacker's clone-device calibration of the affine
                # HW response — the profiling assumption of the template.
                "gain": float(campaign.device.gain),
                "offset": float(campaign.device.offset),
                "n_requested": campaign.n_traces,
                "n_kept": (campaign.n_traces,),
            },
        )

    # -- hypothesis engine -------------------------------------------------

    def _predict(self, z0: int, b: int, gain: float, offset: float) -> dict[str, float]:
        """Predicted per-step sample mean for candidate (z0, b)."""
        z = b + (2 * b - 1) * z0
        values = {
            # RCDT is decreasing, so u < RCDT[i] holds exactly for i < z0.
            **{f"cmp_{i:02d}": (1 if i < z0 else 0) for i in range(len(RCDT))},
            "z0": z0,
            "b": b,
            "z_val": z & _U64,
        }
        return {lab: offset + gain * _hw(v) for lab, v in values.items()}

    def recover(
        self,
        traceset: "TraceSet",
        config: "AttackConfig",
        distinguisher: Any = None,
    ) -> SamplerZRecovery:
        """Decode (z0, b) from one call's replay traces.

        ``distinguisher`` is accepted for engine-interface parity but
        unused: replay captures make every hypothesis column constant
        across traces, which degenerates Pearson-style scorers, so this
        surface ships its own calibrated-template engine (see the
        module docstring).
        """
        from repro.obs import metrics

        layout = traceset.layout
        gain = float(traceset.meta.get("gain", 1.0))
        offset = float(traceset.meta.get("offset", 10.0))
        measured: dict[str, float] = {}
        rows = 0
        for seg in traceset.segments:
            rows += seg.n_traces
        for label in self.predicted_labels:
            sl = layout.slice_of(label)
            measured[label] = float(
                np.mean([np.mean(seg.traces[:, sl]) for seg in traceset.segments])
            )
        scored: list[tuple[float, int, int]] = []
        for z0 in range(len(RCDT) + 1):
            for b in (0, 1):
                predicted = self._predict(z0, b, gain, offset)
                sse = sum(
                    (measured[lab] - predicted[lab]) ** 2
                    for lab in self.predicted_labels
                )
                scored.append((-sse, z0, b))
        scored.sort(key=lambda t: -t[0])
        best_score, z0, b = scored[0]
        metrics.inc("cpa.rows_correlated", rows)
        return SamplerZRecovery(
            call_index=traceset.target_index,
            z0=z0,
            b=b,
            margin=best_score - scored[1][0],
            true_value=traceset.true_secret,
        )

    # -- engine records ----------------------------------------------------

    def make_record(
        self,
        recovery: SamplerZRecovery,
        traceset: "TraceSet",
        elapsed_seconds: float,
        n_requested: int,
    ) -> "CoefficientRecord":
        from repro.attack.key_recovery import CoefficientRecord

        return CoefficientRecord(
            target_index=traceset.target_index,
            elapsed_seconds=elapsed_seconds,
            n_traces_requested=n_requested,
            n_traces_kept=tuple(seg.n_traces for seg in traceset.segments),
            correct=recovery.correct,
            mantissa_margin=recovery.margin,
        )

    def rebuild(
        self,
        recoveries: list[Any],
        records: "list[CoefficientRecord]",
        pk: "PublicKey",
        notify: Any,
    ) -> "KeyRecoveryResult":
        """Assemble the recovered per-call draws into the campaign result.

        No forgery follows directly (``has_forgery`` is False): the
        deliverable is the ffSampling sampler transcript — the
        primitive Bi-SamplerZ-style key recovery consumes. ``pk`` is
        unused but kept for rebuild-interface parity.
        """
        from repro.attack.key_recovery import KeyRecoveryResult, ProgressEvent
        from repro.obs.spans import span

        notify(
            ProgressEvent(
                "rebuild", 0, 1, message="assembling ffSampling sampler transcript"
            )
        )
        with span("rebuild"):
            values = [int(r.value) for r in recoveries]
        return KeyRecoveryResult(
            f=[],
            g=[],
            big_f=[],
            big_g=[],
            recovered_sk=None,
            coefficients=list(recoveries),
            records=list(records),
            recovered_values=values,
        )
