"""Measurement campaigns against FALCON signing.

A campaign records EM traces of one registered leakage surface
(:mod:`repro.targets`, selected by ``target``). The default ``fpr-mul``
surface — the paper's attack, implemented directly in this module —
replays the attacked computation, the coefficient-wise product
FFT(c) (*) FFT(f) at line 3 of the signing algorithm, for many random
messages and records EM traces of the floating-point multiplications that
involve one chosen secret double.

FALCON's complex multiplication (FPC_MUL) of slot k computes four real
products; the secret double Re(FFT(f)_k) is multiplied by the two known
doubles Re(FFT(c)_k) and Im(FFT(c)_k) (and Im(FFT(f)_k) by the same
pair), so every signing contributes two traces-worth of leakage per
secret double. These form the two :class:`Segment` streams of a
:class:`TraceSet`.

Message modes:

* ``"hash"`` — full fidelity: draw a salt, hash salt||message with
  SHAKE-256 through HashToPoint, exactly like the signer.
* ``"direct"`` — draw c uniformly from Z_q^n directly. HashToPoint's
  output is i.i.d. uniform mod q, so this is the same distribution at a
  fraction of the cost; campaigns of 10k+ traces use it by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from repro.falcon.hash_to_point import hash_to_point
from repro.falcon.keygen import SecretKey
from repro.leakage.device import DeviceModel
from repro.leakage.steps import step_values
from repro.leakage.synth import trace_layout
from repro.leakage.traceset import Segment, TraceSet
from repro.math import fft
from repro.obs.spans import span
from repro.targets import DEFAULT_TARGET, get_target
from repro.utils.rng import ChaCha20Prng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.leakage.store import CampaignStore

__all__ = [
    "CaptureCampaign",
    "capture_coefficient",
    "fft_to_doubles",
    "doubles_to_fft",
]


#: Coefficients of c per batched FFT call (n = 512: 16 corpus rows).
#: Keeps the call's transient arrays near half a megabyte at every n;
#: 64 rows at n = 512 read 1.8 MB more peak RSS, and ran no faster.
CORPUS_BLOCK = 8192


def fft_to_doubles(f_fft: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Interleave ``(..., n/2)`` complex FFT slots into ``(..., n)`` doubles.

    Index 2k is Re(slot k), index 2k+1 is Im(slot k) — the order the
    attack walks the secret doubles in.
    """
    out = np.empty(f_fft.shape[:-1] + (2 * f_fft.shape[-1],), dtype=np.float64)
    out[..., 0::2] = f_fft.real
    out[..., 1::2] = f_fft.imag
    return out


def doubles_to_fft(doubles: NDArray[Any]) -> NDArray[np.complex128]:
    """Inverse of :func:`fft_to_doubles`, over the last axis."""
    doubles = np.asarray(doubles, dtype=np.float64)
    return doubles[..., 0::2] + 1j * doubles[..., 1::2]


def _is_normal(patterns: NDArray[np.uint64]) -> NDArray[np.bool_]:
    e = (patterns >> np.uint64(52)) & np.uint64(0x7FF)
    return (e != 0) & (e != 0x7FF)


@dataclass
class CaptureCampaign:
    """A reusable acquisition session against one secret key.

    The known-message material (the matrix of FFT(c) values) is generated
    once and shared by the per-coefficient trace sets, like a real bench
    reusing one corpus of recorded signings.
    """

    sk: SecretKey
    device: DeviceModel = field(default_factory=DeviceModel)
    n_traces: int = 10_000
    mode: str = "direct"          # "direct" | "hash"
    seed: int = 2021
    #: Leakage surface (see :mod:`repro.targets`). The default
    #: ``fpr-mul`` runs the original capture body below byte-for-byte;
    #: any other registered surface owns its own acquisition
    #: (:meth:`~repro.targets.TargetPoint.capture_traceset`).
    target: str = DEFAULT_TARGET
    #: Optional hook transforming the (D, S) step-value matrix before the
    #: device emits samples — how countermeasures (masking, shuffling)
    #: are modeled (see :mod:`repro.countermeasures`).
    value_transform: Callable[
        [NDArray[np.uint64], np.random.Generator], NDArray[np.uint64]
    ] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("direct", "hash"):
            raise ValueError(f"unknown capture mode {self.mode!r}")
        get_target(self.target)  # fail fast on unknown surface names
        self._c_fft: NDArray[np.complex128] | None = None
        self._secret_doubles: NDArray[np.float64] | None = None
        #: Per-surface scratch (e.g. the samplerz surface's traced
        #: signing); derived deterministically from (sk, seed).
        self._surface_cache: dict[str, Any] = {}

    def __getstate__(self) -> dict[str, Any]:
        # The corpus is derived deterministically from (seed, mode, n);
        # drop it so shipping a campaign to a worker process stays cheap
        # and each worker rebuilds (and then reuses) its own copy.
        state = dict(self.__dict__)
        state["_c_fft"] = None
        state["_secret_doubles"] = None
        state["_surface_cache"] = {}
        return state

    # -- known-plaintext corpus -------------------------------------------

    def _build_corpus(self) -> None:  # sast: declassify(reason=capture layer models the victim and consumes sk by design (leakage model boundary))
        params = self.sk.params
        n = params.n
        # One domain-separated stream per (seed, mode, n) triple for BOTH
        # modes — direct mode must not collide with hash mode (or with any
        # other consumer of the bare integer seed) on the same seed value.
        rng = ChaCha20Prng(("capture", self.seed, self.mode, n).__repr__())
        c_fft = np.empty((self.n_traces, n // 2), dtype=np.complex128)
        if self.mode == "direct":
            np_rng = np.random.default_rng(
                np.frombuffer(rng.randombytes(32), dtype=np.uint64)
            )
            cs = np_rng.integers(0, params.q, size=(self.n_traces, n))
        block = CORPUS_BLOCK // n
        for lo in range(0, self.n_traces, block):
            hi = min(lo + block, self.n_traces)
            if self.mode == "hash":
                rows = []
                for _ in range(lo, hi):
                    salt = rng.randombytes(params.salt_len)
                    rows.append(hash_to_point(salt + rng.randombytes(32), params.q, n))
                c_fft[lo:hi] = fft.fft(np.array(rows, dtype=np.float64))
            else:
                c_fft[lo:hi] = fft.fft(cs[lo:hi].astype(np.float64))
        self._c_fft = c_fft
        self._secret_doubles = fft_to_doubles(fft.fft(self.sk.f))

    @property
    def c_fft(self) -> NDArray[np.complex128]:
        if self._c_fft is None:
            self._build_corpus()
        assert self._c_fft is not None
        return self._c_fft

    @property
    def secret_doubles(self) -> NDArray[np.float64]:
        if self._secret_doubles is None:
            self._build_corpus()
        assert self._secret_doubles is not None
        return self._secret_doubles

    @property
    def n_targets(self) -> int:
        return get_target(self.target).n_targets(self)

    # -- acquisition -------------------------------------------------------

    def capture(self, target_index: int) -> TraceSet:
        """TraceSet for target ``target_index`` of the selected surface.

        For the default ``fpr-mul`` surface that is secret double
        ``target_index`` (0 .. n-1), acquired by the original body
        below; other surfaces dispatch to their own
        :meth:`~repro.targets.TargetPoint.capture_traceset`.
        """
        if self.target != DEFAULT_TARGET:
            return get_target(self.target).capture_traceset(self, target_index)
        n = self.sk.params.n
        if not 0 <= target_index < n:
            raise ValueError(f"target_index must be in 0..{n - 1}, got {target_index}")
        slot = target_index // 2
        secret = float(self.secret_doubles[target_index])
        secret_pattern = np.float64(secret).view(np.uint64)
        if not _is_normal(np.array([secret_pattern], dtype=np.uint64))[0]:
            raise ValueError(
                f"secret double at index {target_index} is zero/non-normal; "
                "it multiplies to zero and leaks nothing"
            )
        rng = np.random.default_rng((self.device.seed, self.seed, target_index))
        segments: list[Segment] = []
        with span("capture", target=target_index, source="live"):
            for name, known in (
                ("x_re", np.ascontiguousarray(self.c_fft[:, slot].real)),
                ("x_im", np.ascontiguousarray(self.c_fft[:, slot].imag)),
            ):
                patterns = known.view(np.uint64)
                keep = _is_normal(patterns)
                patterns = patterns[keep]
                values = step_values(int(secret_pattern), patterns)
                if self.value_transform is not None:
                    values = self.value_transform(values, rng)
                traces = self.device.emit(values, rng)
                segments.append(Segment(known_y=patterns, traces=traces, name=name))
        return TraceSet(
            layout=trace_layout(self.device),
            segments=segments,
            target_index=target_index,
            true_secret=int(secret_pattern),
            meta={
                "n": n,
                "mode": self.mode,
                "slot": slot,
                # Requested vs kept: non-normal known operands are dropped
                # per segment, so downstream significance bounds must use
                # the per-segment row counts, not this request size.
                "n_requested": self.n_traces,
                "n_kept": tuple(seg.n_traces for seg in segments),
            },
        )

    def capture_all(self) -> list[TraceSet]:
        """One TraceSet per secret double (the full-key campaign)."""
        return [self.capture(j) for j in range(self.n_targets)]

    def materialize(
        self,
        path: str,
        targets: Iterable[int] | None = None,
        progress_callback: Callable[[int, int, int], None] | None = None,
    ) -> "CampaignStore":
        """Persist this campaign to a :class:`~repro.leakage.store.CampaignStore`.

        Capture once, attack many times: the returned store serves the
        exact same TraceSets from disk (memory-mapped) without ever
        re-simulating a signing, and — unlike this object — it carries
        no secret key. Materialization is resumable; already-complete
        shards are not re-captured.
        """
        from repro.leakage.store import CampaignStore

        return CampaignStore.materialize(
            path, self, targets=targets, progress_callback=progress_callback
        )


def capture_coefficient(
    sk: SecretKey,
    target_index: int,
    n_traces: int = 10_000,
    device: DeviceModel | None = None,
    mode: str = "direct",
    seed: int = 2021,
    target: str = DEFAULT_TARGET,
) -> TraceSet:
    """Convenience wrapper: one-shot capture of a single target.

    ``target_index`` is a secret-double index for the default
    ``fpr-mul`` surface and a surface-defined index (e.g. a SamplerZ
    call number) otherwise.
    """
    campaign = CaptureCampaign(
        sk=sk,
        device=device if device is not None else DeviceModel(),
        n_traces=n_traces,
        mode=mode,
        seed=seed,
        target=target,
    )
    return campaign.capture(target_index)
