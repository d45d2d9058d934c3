"""End-to-end attack driver: capture -> per-coefficient DEMA -> forgery.

This is the Section IV experiment in one call: given a victim device
(secret key + device model), acquire a measurement campaign, recover
every coefficient of FFT(f) with the extend-and-prune attack, rebuild
the signing key from the public information, forge a signature on an
arbitrary message, and verify it under the victim's genuine public key.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.attack.config import AttackConfig
from repro.attack.key_recovery import (
    CoefficientRecord,
    KeyRecoveryError,
    KeyRecoveryResult,
    ProgressCallback,
    forge,
    recover_full_key,
)
from repro.falcon.keygen import PublicKey, SecretKey
from repro.falcon.verify import verify
from repro.leakage.capture import CaptureCampaign
from repro.leakage.device import DeviceModel
from repro.obs import metrics, spans
from repro.obs.metrics import MetricsSnapshot
from repro.obs.spans import Span, span
from repro.targets import DEFAULT_TARGET, get_target

__all__ = ["AttackTelemetry", "FullAttackReport", "full_attack"]


@dataclass
class AttackTelemetry:
    """Where a campaign's wall clock and I/O went.

    Distilled from the run's metrics snapshot and root span so reports
    (and the JSONL journal) expose the perf trajectory without keeping
    raw traces around. ``per_stage_s`` holds the direct children of the
    ``attack`` root span — materialize / coefficients / rebuild / forge
    — whose sum approximates the wall clock (the residue is setup cost).
    """

    per_stage_s: dict[str, float] = field(default_factory=dict)
    rows_correlated: int = 0          # rows that entered a distinguisher score
    chunks_streamed: int = 0          # streaming-CPA batches processed
    store_bytes_read: int = 0         # bytes exposed by store shard reads
    checkpoints_written: int = 0      # session checkpoints persisted this run
    checkpoints_restored: int = 0     # targets replayed from a prior run
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot, repr=False)
    root_span: Span | None = field(default=None, repr=False)

    @classmethod
    def from_run(cls, root: Span | None, snapshot: MetricsSnapshot) -> "AttackTelemetry":
        c = snapshot.counters
        return cls(
            per_stage_s=root.stage_seconds() if root is not None else {},
            rows_correlated=int(c.get("cpa.rows_correlated", 0)),
            chunks_streamed=int(c.get("cpa.chunks_streamed", 0)),
            store_bytes_read=int(c.get("store.bytes_read", 0)),
            checkpoints_written=int(c.get("session.checkpoints_written", 0)),
            checkpoints_restored=int(c.get("session.checkpoints_restored", 0)),
            metrics=snapshot,
            root_span=root,
        )

    def to_jsonable(self) -> dict:
        return {
            "per_stage_s": dict(self.per_stage_s),
            "rows_correlated": self.rows_correlated,
            "chunks_streamed": self.chunks_streamed,
            "store_bytes_read": self.store_bytes_read,
            "checkpoints_written": self.checkpoints_written,
            "checkpoints_restored": self.checkpoints_restored,
            "metrics": self.metrics.to_jsonable(),
            "span": self.root_span.to_jsonable() if self.root_span else None,
        }


@dataclass
class FullAttackReport:
    """What the adversary achieved, and at what measurement cost."""

    n: int
    n_traces: int                     # requested signings per coefficient
    key_recovery: KeyRecoveryResult
    key_correct: bool                 # recovered f equals the victim's f
    forgery_verifies: bool
    forged_message: bytes
    elapsed_seconds: float
    #: Rows that actually entered the CPA, summed over coefficients and
    #: segments — the capture layer drops non-normal known operands, so
    #: this is the count the significance bounds were computed from.
    n_traces_correlated: int = 0
    n_workers: int = 1
    failure: str | None = None        # why recovery failed, if it did
    #: Which leakage surface the campaign attacked (:mod:`repro.targets`).
    target: str = DEFAULT_TARGET
    #: Metrics + span telemetry for the whole run (always collected; the
    #: instrumentation never influences the recovered key).
    telemetry: AttackTelemetry | None = field(default=None, repr=False)

    @property
    def succeeded(self) -> bool:
        return self.failure is None and self.key_recovery.succeeded

    @property
    def n_coefficients(self) -> int:
        return len(self.key_recovery.coefficients)

    @property
    def n_correct_coefficients(self) -> int:
        return self.key_recovery.n_correct_coefficients

    @property
    def records(self) -> list[CoefficientRecord]:
        return self.key_recovery.records

    @property
    def coefficient_seconds(self) -> float:
        """Summed per-coefficient attack time (> wall clock when parallel)."""
        return sum(r.elapsed_seconds for r in self.records)

    def summary(self) -> str:
        if self.target != DEFAULT_TARGET:
            return self._summary_surface()
        lines = [
            f"FALCON-{self.n} full key extraction with {self.n_traces} measurements",
        ]
        if self.n_traces_correlated:
            lines.append(
                f"  trace rows correlated: {self.n_traces_correlated} "
                f"(requested {self.n_traces} signings/coefficient)"
            )
        if self.key_recovery.recovered_sk is None:
            reason = self.failure or "no consistent key could be rebuilt"
            lines.append(f"  key recovery FAILED: {reason}")
        if self.key_recovery.coefficients:
            lines.append(
                f"  coefficients recovered exactly: "
                f"{self.n_correct_coefficients}/{self.n_coefficients}"
            )
        lines += [
            f"  secret key f recovered: {'YES' if self.key_correct else 'no'}",
            f"  forged signature on {self.forged_message!r} verifies: "
            f"{'YES' if self.forgery_verifies else 'no'}",
        ]
        if self.n_workers > 1 and self.records:
            lines.append(
                f"  wall clock: {self.elapsed_seconds:.1f}s with {self.n_workers} "
                f"workers ({self.coefficient_seconds:.1f}s of per-coefficient work)"
            )
        else:
            lines.append(f"  wall clock: {self.elapsed_seconds:.1f}s")
        return "\n".join(lines)

    def _summary_surface(self) -> str:
        """Summary for non-key-material surfaces (no forgery stanza)."""
        lines = [
            f"FALCON-{self.n} {self.target} transcript extraction "
            f"with {self.n_traces} measurements",
        ]
        if self.n_traces_correlated:
            lines.append(
                f"  trace rows correlated: {self.n_traces_correlated} "
                f"(requested {self.n_traces} replays/call)"
            )
        if self.failure is not None:
            lines.append(f"  recovery FAILED: {self.failure}")
        if self.key_recovery.coefficients:
            lines.append(
                f"  sampler calls recovered exactly: "
                f"{self.n_correct_coefficients}/{self.n_coefficients}"
            )
        lines.append(
            f"  ffSampling sampler outputs recovered: "
            f"{'YES' if self.key_correct else 'no'}"
        )
        lines.append(f"  wall clock: {self.elapsed_seconds:.1f}s")
        return "\n".join(lines)


def full_attack(
    sk: SecretKey,
    pk: PublicKey,
    n_traces: int = 10_000,
    device: DeviceModel | None = None,
    config: AttackConfig | None = None,
    message: bytes = b"arbitrary message chosen by the adversary",
    mode: str = "direct",
    seed: int = 2021,
    target: str = DEFAULT_TARGET,
    progress_callback: ProgressCallback | None = None,
    n_workers: int | None = None,
    value_transform=None,
    store=None,
    session=None,
    journal=None,
) -> FullAttackReport:
    """Run the complete Section-IV attack against a simulated victim.

    ``sk`` plays the victim device (it drives the leakage simulation);
    the adversary's code path only consumes the traces, the known
    FFT(c) values, and the public key. ``value_transform`` installs a
    countermeasure on the simulated device (see
    :mod:`repro.countermeasures`) — useful as a negative control.

    ``n_workers`` overrides ``config.n_workers``: per-coefficient
    attacks fan out over that many worker processes, with results
    bit-identical to the serial run. ``progress_callback`` receives
    structured per-coefficient :class:`ProgressEvent` records.

    ``target`` selects the leakage surface (see :mod:`repro.targets`).
    The default ``fpr-mul`` runs the paper's key-extraction attack and
    ends in a forgery; ``samplerz`` attacks the discrete Gaussian
    sampler instead, recovering ffSampling's per-call outputs
    (``report.key_recovery.recovered_values``) — surfaces without key
    material skip the forgery stage.

    ``store`` separates capture cost from attack cost: a path (or
    :class:`~repro.leakage.store.CampaignStore`) makes the attack read
    its traces from a disk-backed store — materialized on first use,
    memory-mapped and re-simulation-free afterwards. ``session`` (a
    path or :class:`~repro.attack.session.AttackSession`) checkpoints
    each finished coefficient so an interrupted run resumes
    bit-identically.

    ``journal`` (a :class:`~repro.obs.journal.RunJournal`) receives the
    structured event stream: ``run_start``, per-target ``progress`` and
    ``span`` events, the run's span tree and metrics snapshot, then
    ``run_end``. The returned report always carries
    :class:`AttackTelemetry` — the instrumentation is passive, so the
    recovered key is bit-identical with or without a journal attached.
    """
    start = time.perf_counter()
    cfg = config or AttackConfig()
    if n_workers is not None:
        cfg = dataclasses.replace(cfg, n_workers=n_workers)

    surface = get_target(target)  # fail fast on unknown surface names

    def _execute() -> FullAttackReport:
        campaign = CaptureCampaign(
            sk=sk,
            device=device if device is not None else DeviceModel(),
            n_traces=n_traces,
            mode=mode,
            seed=seed,
            target=target,
            value_transform=value_transform,
        )
        source = campaign
        local_session = session
        if store is not None:
            from repro.leakage.store import CampaignStore

            if isinstance(store, CampaignStore):
                source = store
            else:
                with span("materialize"):
                    source = campaign.materialize(store)
        if local_session is not None and not hasattr(local_session, "bind"):
            from repro.attack.session import AttackSession

            local_session = AttackSession(local_session)
        try:
            result = recover_full_key(
                source, pk, config=cfg, progress_callback=progress_callback,
                session=local_session, journal=journal,
            )
        except KeyRecoveryError as exc:  # failed recovery is an outcome, not a crash
            partial = KeyRecoveryResult(
                f=[], g=[], big_f=[], big_g=[], recovered_sk=None,
                coefficients=list(exc.coefficients), records=list(exc.records),
            )
            return FullAttackReport(
                n=sk.params.n,
                n_traces=n_traces,
                key_recovery=partial,
                key_correct=False,
                forgery_verifies=False,
                forged_message=message,
                elapsed_seconds=time.perf_counter() - start,
                n_traces_correlated=partial.n_traces_correlated,
                n_workers=cfg.n_workers,
                failure=str(exc),
                target=target,
            )
        if surface.has_forgery:
            key_correct = result.f == sk.f
            with span("forge"):
                sig = forge(result, message, seed=b"forgery")
                ok = verify(pk, message, sig)
        else:
            # No key material to forge with; "correct" means the full
            # recovered transcript matches the victim's ground truth.
            key_correct = bool(result.coefficients) and all(
                c.correct for c in result.coefficients
            )
            ok = False
        return FullAttackReport(
            n=sk.params.n,
            n_traces=n_traces,
            key_recovery=result,
            key_correct=key_correct,
            forgery_verifies=ok,
            forged_message=message,
            elapsed_seconds=time.perf_counter() - start,
            n_traces_correlated=result.n_traces_correlated,
            n_workers=cfg.n_workers,
            target=target,
        )

    if journal is not None:
        journal.emit(
            "run_start", n=sk.params.n, n_traces=n_traces, mode=mode,
            seed=seed, n_workers=cfg.n_workers, target=target,
        )
    # The run's telemetry is collected in an isolated scope and merged
    # back afterwards, so the report (and journal) see exactly this
    # attack's numbers even when several campaigns share a process.
    with metrics.scoped_registry() as reg, spans.detached() as roots:
        with span("attack", n=sk.params.n, n_traces=n_traces):
            report = _execute()
    snap = reg.snapshot()
    metrics.current_registry().merge_snapshot(snap)
    root = roots[0] if roots else None
    report.telemetry = AttackTelemetry.from_run(root, snap)
    if journal is not None:
        if root is not None:
            journal.emit_span(root)
        journal.emit_metrics(snap)
        journal.emit(
            "run_end", succeeded=report.succeeded,
            elapsed_seconds=report.elapsed_seconds, failure=report.failure,
        )
    return report
