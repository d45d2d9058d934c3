"""Pluggable leakage surfaces: which secret-handling hot spot is attacked.

The paper attacks exactly one computation — the coefficient-wise product
``FFT(c) (*) FFT(f)`` at line 3 of the signing algorithm — and for five
PRs the whole pipeline was hard-wired to it. A :class:`TargetPoint`
makes the surface a first-class, registered object instead: each surface
owns

* its **trace layout** — the ordered step labels of the instrumented
  execution and how the device maps them to oscilloscope samples
  (:meth:`TargetPoint.layout`),
* its **batched step-value computation** — how a capture campaign turns
  victim state into the (D, S) uint64 intermediate matrix the device
  emits (:meth:`TargetPoint.capture_traceset`, composing with
  :func:`repro.leakage.steps.step_values` where vectorization applies),
* its **hypothesis engine** — the predictor family scored against the
  traces (for ``fpr-mul`` the :mod:`repro.attack.hypotheses` ``hyp_*``
  functions; for ``samplerz`` the thermometer-code HW predictor of
  :mod:`repro.targets.samplerz`),
* its **secret parameterization** — which integers/doubles the
  per-target attacks recover and how they rebuild key material or
  sampler transcripts (:meth:`TargetPoint.recover` /
  :meth:`TargetPoint.rebuild`),
* its **contract annotation boundary** — where its instrumented trace
  hook lives and carries the reviewed ``sast: declassify`` boundary
  (``repro/fpr/trace.py`` and ``repro/falcon/samplerz.py``).

Two surfaces are registered:

``fpr-mul``
    The paper's attack. Byte-identical to the pre-protocol pipeline:
    the surface object fronts the pinned capture/recovery
    implementations in :mod:`repro.leakage.capture` and
    :mod:`repro.attack` rather than re-hosting them (the leakage
    contract fingerprints those bodies).

``samplerz``
    The discrete Gaussian sampler (Algorithm 12-14) driven through real
    seeded signings: the RCDT base-sampler walk and the rejection-loop
    iteration count are the architectural intermediates, and the
    recovered secrets are ffSampling's per-call Gaussian draws.

Select a surface by name everywhere a campaign is configured:
``CaptureCampaign(target=...)``, ``full_attack(target=...)``,
``repro-falcon capture/attack --target``. Store manifests record the
surface; legacy manifests default to ``fpr-mul``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.utils.registry import resolve_name

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.attack.config import AttackConfig
    from repro.attack.key_recovery import CoefficientRecord, KeyRecoveryResult
    from repro.falcon.keygen import PublicKey
    from repro.leakage.capture import CaptureCampaign
    from repro.leakage.device import DeviceModel
    from repro.leakage.synth import TraceLayout
    from repro.leakage.traceset import TraceSet

__all__ = [
    "TargetPoint",
    "TARGETS",
    "TARGET_NAMES",
    "DEFAULT_TARGET",
    "get_target",
]


@runtime_checkable
class TargetPoint(Protocol):
    """One attackable leakage surface, end to end.

    The capture layer asks a surface for its corpus size and per-target
    trace sets; the attack layer asks it to recover each target's secret
    and to rebuild the campaign-level result. Everything between —
    stores, sessions, worker fan-out, journals, telemetry — is
    surface-agnostic and works unchanged for any registered surface.
    """

    @property
    def name(self) -> str:  # pragma: no cover - trivial accessor
        ...

    @property
    def step_labels(self) -> tuple[str, ...]:  # pragma: no cover
        ...

    @property
    def has_forgery(self) -> bool:
        """Whether a successful campaign yields a signing key to forge with."""
        ...  # pragma: no cover

    def layout(self, device: "DeviceModel") -> "TraceLayout":
        """Trace layout of this surface on ``device``."""
        ...  # pragma: no cover

    def n_targets(self, campaign: "CaptureCampaign") -> int:
        """How many per-target attacks one campaign comprises."""
        ...  # pragma: no cover

    def capture_traceset(self, campaign: "CaptureCampaign", target_index: int) -> "TraceSet":
        """Acquire one target's TraceSet from a live campaign."""
        ...  # pragma: no cover

    def recover(
        self, traceset: "TraceSet", config: "AttackConfig", distinguisher: Any = None
    ) -> Any:
        """Recover one target's secret from its TraceSet."""
        ...  # pragma: no cover

    def make_record(
        self, recovery: Any, traceset: "TraceSet", elapsed_seconds: float, n_requested: int
    ) -> "CoefficientRecord":
        """Observability record for one finished per-target attack."""
        ...  # pragma: no cover

    def rebuild(
        self, recoveries: list[Any], records: "list[CoefficientRecord]",
        pk: "PublicKey", notify: Any,
    ) -> "KeyRecoveryResult":
        """Campaign-level result from the per-target recoveries."""
        ...  # pragma: no cover


def _build_registry() -> dict[str, TargetPoint]:
    from repro.targets.fpr_mul import FprMulTarget
    from repro.targets.samplerz import SamplerZTarget

    surfaces: tuple[TargetPoint, ...] = (FprMulTarget(), SamplerZTarget())
    return {s.name: s for s in surfaces}


DEFAULT_TARGET = "fpr-mul"

TARGETS: dict[str, TargetPoint] = _build_registry()

TARGET_NAMES: tuple[str, ...] = tuple(sorted(TARGETS))


def get_target(name: "str | TargetPoint") -> TargetPoint:
    """Resolve a surface by name (a surface instance passes through)."""
    if isinstance(name, str):
        return resolve_name("target", name, TARGETS)
    return name
