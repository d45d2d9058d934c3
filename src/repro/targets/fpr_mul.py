"""The ``fpr-mul`` surface: the paper's FFT(c) (*) FFT(f) multiply attack.

This surface *fronts* the pinned implementations rather than re-hosting
them: capture stays in :meth:`repro.leakage.capture.CaptureCampaign.
capture` (the legacy body runs whenever ``campaign.target`` is
``fpr-mul``), per-coefficient recovery stays in
:func:`repro.attack.coefficient.recover_coefficient`, and the key
rebuild stays in :func:`repro.attack.key_recovery.rebuild_signing_key`.
Keeping those bodies in place is deliberate — the verified leakage
contract fingerprints them by (path, function, line), and the byte-
identity pin (``tests/test_targets.py``) holds the refactor to exactly
the pre-protocol trace bytes.

Surface parameters:

* **Targets** — the n secret doubles of FFT(f) (Re/Im interleaved).
* **Steps** — the 18 ``MUL_STEP_LABELS`` intermediates of one fpr
  multiply (:mod:`repro.fpr.trace`), batch-computed by
  :func:`repro.leakage.steps.step_values`.
* **Hypotheses** — the ``hyp_*`` family of :mod:`repro.attack.
  hypotheses`, consumed through the extend-and-prune ladder and the
  sign/exponent DEMA of :mod:`repro.attack.coefficient`.
* **Secret** — one fpr bit pattern per target; all n rebuild ``f`` via
  the inverse FFT, then (g, F, G) from the public key and NTRUSolve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.fpr.trace import MUL_STEP_LABELS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attack.coefficient import CoefficientRecovery
    from repro.attack.config import AttackConfig
    from repro.attack.key_recovery import CoefficientRecord, KeyRecoveryResult
    from repro.falcon.keygen import PublicKey
    from repro.leakage.capture import CaptureCampaign
    from repro.leakage.device import DeviceModel
    from repro.leakage.synth import TraceLayout
    from repro.leakage.traceset import TraceSet

__all__ = ["FprMulTarget"]


class FprMulTarget:
    """TargetPoint adapter over the original (pinned) attack pipeline."""

    name = "fpr-mul"
    has_forgery = True
    step_labels: tuple[str, ...] = MUL_STEP_LABELS

    def layout(self, device: "DeviceModel") -> "TraceLayout":
        from repro.leakage.synth import trace_layout

        return trace_layout(device)

    def n_targets(self, campaign: "CaptureCampaign") -> int:
        return int(campaign.sk.params.n)

    def capture_traceset(self, campaign: "CaptureCampaign", target_index: int) -> "TraceSet":
        # The legacy capture body runs directly (campaign.capture only
        # dispatches away from itself for non-default surfaces).
        return campaign.capture(target_index)

    def recover(
        self,
        traceset: "TraceSet",
        config: "AttackConfig",
        distinguisher: Any = None,
    ) -> "CoefficientRecovery":
        from repro.attack.coefficient import recover_coefficient

        return recover_coefficient(traceset, config, distinguisher=distinguisher)

    def make_record(
        self,
        recovery: "CoefficientRecovery",
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
            sign_margin=recovery.sign.margin,
            exponent_margin=recovery.exponent.margin,
            mantissa_margin=recovery.mantissa_margin,
        )

    def rebuild(
        self,
        recoveries: "list[Any]",
        records: "list[CoefficientRecord]",
        pk: "PublicKey",
        notify: Any,
    ) -> "KeyRecoveryResult":
        from repro.attack.key_recovery import rebuild_signing_key

        return rebuild_signing_key(recoveries, records, pk, notify)
