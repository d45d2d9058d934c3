"""The generic ``contract:<id>`` surface: attack any ranked contract entry.

The exploitability triage (:mod:`repro.sast.exploit`) gives every
CONFIRMED contract entry a stable 12-hex ``entry_id``. This module turns
that id into a registered :class:`~repro.targets.TargetPoint` — no
hand-written surface code — by instrumenting the entry's source line
with the same ``sys.settrace`` machinery the dynamic taint oracle uses
(:mod:`repro.sast.oracle`) and exposing the line's live operands as the
device's step values.

**Victim model.** The oracle's seeded workload
(:func:`repro.sast.oracle._run_workload`) runs once in-process under
line tracing — keygen, signing, verification, the fpr sweep and the
countermeasure variants, everything the contract's verdicts were
recorded against — so every CONFIRMED entry's line is reachable by
construction. Each *hit* of the traced line is one target (capped at
:data:`MAX_TARGETS`), and the device replays that hit ``n_traces``
times, exactly like the ``samplerz`` surface replays one sampler call.

**Trace layout.** The watched operands are the identifiers appearing on
the entry's line, in the oracle's own sorted order
(:func:`repro.sast.oracle._names_by_line`). Each operand contributes
one full-word step (its u64 pattern — template material) plus
:data:`VALUE_BITS` single-bit steps of its low bits, which make the
intermediate exactly decodable from mean leakage.

**Hypothesis engine.** Replay captures degenerate Pearson CPA (the
hypothesis column is constant across replays), so recovery uses the
same calibrated-template idea as the samplerz surface, reduced to its
per-bit form: a bit step's sample mean is ``offset + gain * bit``, so
thresholding the measured mean at ``offset + gain / 2`` decodes the
bit; the decision margin is the smallest distance any bit had to the
threshold. The recovered secret is the live value of the entry's
operands at the attacked hit — the leaking intermediate itself.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attack.config import AttackConfig
    from repro.attack.key_recovery import CoefficientRecord, KeyRecoveryResult
    from repro.falcon.keygen import PublicKey
    from repro.leakage.capture import CaptureCampaign
    from repro.leakage.device import DeviceModel
    from repro.leakage.synth import TraceLayout
    from repro.leakage.traceset import TraceSet

__all__ = [
    "MAX_TARGETS",
    "VALUE_BITS",
    "TracedContractTarget",
    "TracedRecovery",
    "resolve_traced_target",
]

_U64 = (1 << 64) - 1

#: contract file the ``contract:`` names resolve against (overridable so
#: tests and fixture projects can point at their own contract)
_CONTRACT_ENV = "REPRO_CONTRACT"
_DEFAULT_CONTRACT = "leakage-contract.json"

#: hits of the traced line that become attackable targets; the workload
#: executes hot lines hundreds of times and replaying each is a full
#: campaign, so the surface exposes a bounded prefix
MAX_TARGETS = 32

#: cap on recorded hits (memory bound; targets only ever index below it)
_MAX_HITS = 4096

#: low bits of each operand exposed as single-bit steps — enough to
#: decode any value mod q (q = 12289 needs 14) and any sign/exponent
#: field, while keeping the trace width bounded
VALUE_BITS = 16


def _encode_word(value: Any) -> int:
    """A local's u64 step pattern (0 for unset / non-scalar operands)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & _U64
    if isinstance(value, float):
        return int(np.float64(value).view(np.uint64))
    return 0


def _contract_path() -> str:
    return os.environ.get(_CONTRACT_ENV, _DEFAULT_CONTRACT)


@lru_cache(maxsize=32)
def resolve_traced_target(name: str, contract_path: str) -> "TracedContractTarget":
    """Resolve ``contract:<id>`` against a contract file (cached).

    Raises ``ValueError`` for unknown ids with the nearest context a
    user needs: where the contract was read from and how to list ids.
    """
    from repro.sast.contract import load_contract
    from repro.sast.exploit import entry_id

    wanted = name[len("contract:"):]
    try:
        contract = load_contract(contract_path)
    except FileNotFoundError:
        raise ValueError(
            f"cannot resolve {name!r}: contract file {contract_path!r} not "
            f"found (set ${_CONTRACT_ENV} or run from the repo root)"
        ) from None
    for entry in contract.entries:
        if entry_id(entry.fingerprint) == wanted:
            return TracedContractTarget(
                rule=entry.rule,
                rel_path=entry.path,
                function=entry.function,
                line_text=entry.line_text,
                occurrence=entry.occurrence,
            )
    raise ValueError(
        f"no contract entry with id {wanted!r} in {contract_path!r} "
        "(list ids with: repro-sast rank)"
    )


def get_traced_target(name: str) -> "TracedContractTarget":
    """``contract:`` dispatch hook used by :func:`repro.targets.get_target`."""
    return resolve_traced_target(name, _contract_path())


def _resolve_line(source_path: str, function: str, line_text: str, occurrence: int) -> int:
    """Line number of the entry's fingerprint in the *imported* source.

    The fingerprint is drift-tolerant on purpose — ``(function,
    normalized line text, occurrence)`` — so the surface re-anchors it
    against the package that will actually execute, exactly like
    ``verify`` re-anchors entries against fresh findings.
    """
    import ast

    from repro.sast.variants import normalize_line

    with open(source_path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=source_path)
    short = function.rsplit(".", 1)[-1]
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == short:
                spans.append((node.lineno, node.end_lineno or node.lineno))
    if not spans:
        raise ValueError(
            f"function {short!r} not found in {source_path!r}; the installed "
            "package drifted from the contract — regenerate it"
        )
    lines = source.splitlines()
    matches = [
        lineno
        for lo, hi in spans
        for lineno in range(lo, min(hi, len(lines)) + 1)
        if normalize_line(lines[lineno - 1]) == line_text
    ]
    matches = sorted(set(matches))
    if occurrence >= len(matches):
        raise ValueError(
            f"line {line_text!r} (occurrence {occurrence}) not found in "
            f"{short}() of {source_path!r}; regenerate the contract"
        )
    return matches[occurrence]


def _trace_hits(
    source_path: str,
    lineno: int,
    names: tuple[str, ...],
    workload: Callable[[], None],
) -> list[tuple[int, ...]]:
    """Every execution of one line, as encoded operand tuples.

    The line event fires *before* the line runs (same semantics the
    oracle records under), so operands assigned on the line itself show
    their pre-execution values and may be unset on the first hit.
    """
    watched = {source_path, os.path.realpath(source_path)}
    hits: list[tuple[int, ...]] = []

    def local_trace(frame: Any, event: str, arg: Any) -> Any:
        if (
            event == "line"
            and frame.f_lineno == lineno
            and len(hits) < _MAX_HITS
        ):
            local_vars = frame.f_locals
            hits.append(
                tuple(_encode_word(local_vars.get(name)) for name in names)
            )
        return local_trace

    def global_trace(frame: Any, event: str, arg: Any) -> Any:
        if event == "call" and frame.f_code.co_filename in watched:
            return local_trace
        return None

    sys.settrace(global_trace)
    try:
        workload()
    finally:
        sys.settrace(None)
    return hits


@dataclass(frozen=True)
class TracedRecovery:
    """One recovered hit: the decoded low bits of every line operand."""

    target_index: int                 # which hit of the line was attacked
    values: dict[str, int]            # operand -> decoded low VALUE_BITS
    true_values: dict[str, int]       # ground truth (sims only)
    primary: str                      # the operand reported as `value`
    margin: float                     # smallest bit-mean distance to threshold

    @property
    def value(self) -> int:
        return self.values.get(self.primary, 0)

    @property
    def correct(self) -> bool:
        return self.values == self.true_values


class TracedContractTarget:
    """TargetPoint for one contract entry, built from its fingerprint."""

    has_forgery = False

    def __init__(
        self,
        rule: str,
        rel_path: str,
        function: str,
        line_text: str,
        occurrence: int = 0,
    ) -> None:
        from repro.sast.exploit import entry_id
        from repro.sast.oracle import _names_by_line

        self.rule = rule
        self.rel_path = rel_path
        self.function = function
        self.line_text = line_text
        self.occurrence = occurrence
        self.entry_id = entry_id((rule, rel_path, function, line_text, occurrence))
        self.name = f"contract:{self.entry_id}"

        import repro

        pkg_dir = os.path.dirname(os.path.abspath(repro.__file__))
        self.source_path = os.path.join(pkg_dir, rel_path.replace("/", os.sep))
        self.lineno = _resolve_line(
            self.source_path, function, line_text, occurrence
        )
        self.value_names: tuple[str, ...] = _names_by_line(
            self.source_path, {self.lineno}
        ).get(self.lineno, ())
        if not self.value_names:
            raise ValueError(
                f"contract entry {self.entry_id} has no named operands on "
                f"{rel_path}:{self.lineno}; nothing to expose as step values"
            )
        labels: list[str] = []
        for name in self.value_names:
            labels.append(name)
            labels.extend(f"{name}_b{bit:02d}" for bit in range(VALUE_BITS))
        self.step_labels: tuple[str, ...] = tuple(labels)

    # -- acquisition -------------------------------------------------------

    def layout(self, device: "DeviceModel") -> "TraceLayout":
        from repro.leakage.synth import TraceLayout

        return TraceLayout(
            samples_per_step=device.samples_per_step, labels=self.step_labels
        )

    def _hits(self, campaign: "CaptureCampaign") -> list[tuple[int, ...]]:  # sast: declassify(reason=capture layer models the victim workload and records secret intermediates by design (leakage model boundary))
        key = f"traced:{self.entry_id}"
        hits = campaign._surface_cache.get(key)
        if hits is None:
            from repro.sast.oracle import _run_workload

            seed = str(campaign.seed)
            n = int(campaign.sk.params.n)
            hits = _trace_hits(
                self.source_path,
                self.lineno,
                self.value_names,
                lambda: _run_workload(seed, n),
            )
            campaign._surface_cache[key] = hits
        return hits

    def n_targets(self, campaign: "CaptureCampaign") -> int:
        return min(len(self._hits(campaign)), MAX_TARGETS)

    def _step_row(self, hit: tuple[int, ...]) -> "np.ndarray":
        row = np.empty(len(self.step_labels), dtype=np.uint64)
        pos = 0
        for word in hit:
            row[pos] = word
            pos += 1
            for bit in range(VALUE_BITS):
                row[pos] = (word >> bit) & 1
                pos += 1
        return row

    def capture_traceset(self, campaign: "CaptureCampaign", target_index: int) -> "TraceSet":  # sast: declassify(reason=capture layer emits modeled leakage of secret intermediates by design (leakage model boundary))
        from repro.leakage.traceset import Segment, TraceSet
        from repro.obs.spans import span

        hits = self._hits(campaign)
        n_targets = min(len(hits), MAX_TARGETS)
        if not 0 <= target_index < n_targets:
            raise ValueError(
                f"target_index must be in 0..{n_targets - 1}, got {target_index}"
            )
        hit = hits[target_index]
        # the operand whose decode is reported as the recovery `value`:
        # the one varying most across hits — the actual intermediate,
        # not loop geometry (k, half) or a modulus constant (q)
        distinct = [
            len({h[i] for h in hits}) for i in range(len(self.value_names))
        ]
        primary = min(
            zip(self.value_names, distinct), key=lambda t: (-t[1], t[0])
        )[0]
        row = self._step_row(hit)
        values = np.tile(row, (campaign.n_traces, 1))
        rng = np.random.default_rng(
            (campaign.device.seed, campaign.seed, target_index)
        )
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
        mask = (1 << VALUE_BITS) - 1
        true_values = {
            name: word & mask for name, word in zip(self.value_names, hit)
        }
        return TraceSet(
            layout=self.layout(campaign.device),
            segments=segments,
            target_index=target_index,
            true_secret=true_values[primary],
            meta={
                "n": campaign.sk.params.n,
                "mode": campaign.mode,
                "target": self.name,
                "entry_id": self.entry_id,
                "site": f"{self.rel_path}:{self.lineno}",
                "primary": primary,
                "true_values": true_values,
                # clone-device calibration of the affine HW response —
                # the profiling assumption of the per-bit template
                "gain": float(campaign.device.gain),
                "offset": float(campaign.device.offset),
                "n_requested": campaign.n_traces,
                "n_kept": (campaign.n_traces,),
            },
        )

    # -- hypothesis engine -------------------------------------------------

    def recover(
        self,
        traceset: "TraceSet",
        config: "AttackConfig",
        distinguisher: Any = None,
    ) -> TracedRecovery:
        """Decode every operand's low bits from the replay traces.

        ``distinguisher`` is accepted for engine-interface parity but
        unused (replay captures degenerate Pearson-style scorers; see
        the module docstring for the per-bit threshold template).
        """
        from repro.obs import metrics

        layout = traceset.layout
        gain = float(traceset.meta.get("gain", 1.0))
        offset = float(traceset.meta.get("offset", 10.0))
        threshold = offset + gain / 2.0
        decoded: dict[str, int] = {}
        margin = float("inf")
        rows = sum(seg.n_traces for seg in traceset.segments)
        for name in self.value_names:
            value = 0
            for bit in range(VALUE_BITS):
                sl = layout.slice_of(f"{name}_b{bit:02d}")
                mean = float(
                    np.mean([np.mean(seg.traces[:, sl]) for seg in traceset.segments])
                )
                if mean > threshold:
                    value |= 1 << bit
                margin = min(margin, abs(mean - threshold))
            decoded[name] = value
        metrics.inc("cpa.rows_correlated", rows)
        raw_true = traceset.meta.get("true_values", {})
        return TracedRecovery(
            target_index=traceset.target_index,
            values=decoded,
            true_values={str(k): int(v) for k, v in dict(raw_true).items()},
            primary=str(traceset.meta.get("primary", self.value_names[0])),
            margin=margin,
        )

    # -- engine records ----------------------------------------------------

    def make_record(
        self,
        recovery: TracedRecovery,
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
        recoveries: "list[Any]",
        records: "list[CoefficientRecord]",
        pk: "PublicKey",
        notify: Any,
    ) -> "KeyRecoveryResult":
        """Assemble the per-hit operand decodes into the campaign result.

        No forgery follows (``has_forgery`` is False): the deliverable
        is the recovered intermediate stream at the contract entry —
        the primitive a GALACTICS-style key recovery consumes. ``pk``
        is unused but kept for rebuild-interface parity.
        """
        from repro.attack.key_recovery import KeyRecoveryResult, ProgressEvent
        from repro.obs.spans import span

        notify(
            ProgressEvent(
                "rebuild", 0, 1,
                message=f"assembling operand stream for {self.name}",
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
