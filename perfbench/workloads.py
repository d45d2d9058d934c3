"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload has a ``setup`` (real work, timed as ``setup_s``) and a
``run`` that performs one batch of operations and checks every output
against ground truth. The workload seed picks the inputs; the same seed
always gives the same inputs.

Why these three (see README.md for the layer table):

* ``n8-key`` — the paper's headline flow at FALCON-8: capture, the
  per-coefficient attack, exponent repair, NTRUSolve, forgery.
* ``n512-store-w2`` — FALCON-512 keygen and corpus in set-up, then the
  capture-once/attack-many path: memory-mapped store reads, a
  two-worker pool, chunked Pearson and checkpoints.
* ``sast-verify`` — the static-analysis contract gate, cold in set-up
  and warm in the run; the only workload that runs ``repro.sast``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.falcon as falcon
from repro.attack import key_recovery
from repro.attack.config import AttackConfig
from repro.attack.session import AttackSession
from repro.leakage import capture
from repro.leakage.store import CampaignStore
from repro.math import fft
from repro.sast import cli as sast_cli

__all__ = [
    "Batch",
    "N8Key",
    "N512Store",
    "SampleView",
    "SastVerify",
    "WORKLOADS",
    "choose_sample",
    "coefficient_accuracy",
    "secret_patterns",
]

_MANTISSA = (1 << 52) - 1
#: Exponent ranks per coefficient that the key rebuild's repair searches
#: (``rebuild_signing_key`` asks each recovery for this many candidates).
REPAIR_EXPONENTS = 12


@dataclass
class Batch:
    """What one measured batch of operations produced.

    An operation that does not deliver (a coefficient missed, a key not
    rebuilt) counts in ``failed``. ``correct`` is False when an output
    the program delivered disagrees with ground truth (a rebuilt key
    that is not the victim's, a forgery that does not verify, a store or
    session that lost data) or an operation raised unexpectedly.
    ``layer`` holds the accuracy counts the traced run reports (exact
    components, minimum margins, repairs).
    """

    attempted: int
    failed: int
    correct: bool
    layer: dict[str, float] = field(default_factory=dict)
    #: Seconds of each operation, as measured where it ran (inside the
    #: pool worker for a fanned-out coefficient).
    op_times: list[float] = field(default_factory=list)


def _seed_bytes(workload: str, seed: int, purpose: str) -> bytes:
    return f"perfbench/{workload}/{seed}/{purpose}".encode()


def _seed_int(workload: str, seed: int, purpose: str) -> int:
    return int.from_bytes(hashlib.sha256(_seed_bytes(workload, seed, purpose)).digest()[:8], "little")


def secret_patterns(sk: falcon.SecretKey) -> np.ndarray:
    """Ground truth: the n secret FFT(f) doubles as 64-bit patterns."""
    return capture.fft_to_doubles(fft.fft(sk.f)).view(np.uint64)


def coefficient_accuracy(recs: list, records: list, truth: np.ndarray) -> tuple[int, dict[str, float]]:
    """(recovered count, per-layer accuracy) of per-coefficient results.

    A coefficient counts as recovered when the truth is among the
    patterns the key rebuild searches: sign and mantissa exact and the
    exponent within the top ``REPAIR_EXPONENTS`` ranks. The top-1 exact
    counts per component and the smallest margins are reported as well,
    so a slipping exponent rank shows before it costs a key.
    """
    ok = 0
    exact = {"sign": 0, "exponent": 0, "mantissa": 0}
    for rec in recs:
        t = int(truth[rec.target_index])
        exact["sign"] += int(rec.sign.bit == t >> 63)
        exact["exponent"] += int(rec.exponent.biased_exponent == (t >> 52) & 0x7FF)
        exact["mantissa"] += int(rec.mantissa.mantissa_field == t & _MANTISSA)
        ok += int(t in rec.candidate_patterns(REPAIR_EXPONENTS))
    layer = {f"attack.exact.{k}": float(v) for k, v in exact.items()}
    for comp in ("sign", "exponent", "mantissa"):
        values = [getattr(r, f"{comp}_margin") for r in records]
        finite = [v for v in values if math.isfinite(v)]
        layer[f"attack.margin.{comp}_min"] = float(min(finite)) if finite else 0.0
    return ok, layer


def choose_sample(truth: np.ndarray, k: int, seed: int) -> list[int]:
    """``k`` sorted target indices, drawn by ``seed`` among the normal doubles.

    A zero or subnormal secret multiplies to nothing and leaks nothing,
    so the capture layer refuses it.
    """
    normal = np.flatnonzero(((truth >> np.uint64(52)) & np.uint64(0x7FF)) != 0)
    rng = np.random.default_rng(seed)
    return sorted(int(j) for j in rng.choice(normal, k, replace=False))


class SampleView:
    """A :class:`~repro.leakage.store.TraceSource` over a sample of a store.

    Exposes the store's targets ``targets[0..k-1]`` as targets ``0..k-1``
    so the attack engine (pool, session, chunked CPA) runs unchanged on
    a sample. It pickles as the store path plus the sample, so pool
    workers re-open their own memory maps.
    """

    def __init__(self, store: CampaignStore, targets: list[int]) -> None:
        self.store = store
        self.targets = tuple(int(t) for t in targets)

    @classmethod
    def open(cls, path: str, targets: tuple[int, ...]) -> "SampleView":
        return cls(CampaignStore(path), list(targets))

    def __reduce__(self) -> tuple:
        return (SampleView.open, (self.store.path, self.targets))

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def n_traces(self) -> int:
        return self.store.n_traces

    def capture(self, target_index: int):
        return self.store.capture(self.targets[target_index])

    @property
    def device(self):
        return self.store.device

    @property
    def mode(self) -> str:
        return self.store.mode

    @property
    def seed(self) -> int:
        return self.store.seed

    @property
    def target(self) -> str:
        return self.store.target


class _Workload:
    name = ""
    workers = 1
    setup_repeats = 1
    #: Seconds one batch takes on the reference box. A run does as many
    #: whole batches as fit in ``--seconds`` at this pace (at least one),
    #: a count fixed in advance, so every run of a workload does the
    #: same amount of work.
    nominal_batch_s = 1.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def _fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def prepare(self) -> None:
        """Untimed housekeeping before each batch."""

    def failed_batch(self) -> Batch:
        """The batch to count when ``run`` raised."""
        return Batch(attempted=1, failed=1, correct=False)


class N8Key(_Workload):
    """FALCON-8 victim, live capture, full key recovery and forgery."""

    name = "n8-key"
    #: One set-up takes about 0.23 s, and the reference box's speed drifts
    #: by ±12% between 2-second slices; 40 repeats, half before the run
    #: and half after it, spread the median over about 9 s of set-up.
    setup_repeats = 40
    nominal_batch_s = 47.0

    def __init__(self, seed: int, workdir: str, n_traces: int = 6000) -> None:
        super().__init__(seed, workdir)
        self.n_traces = n_traces

    def setup(self) -> None:
        sk, pk = falcon.keygen(
            falcon.FalconParams.get(8), seed=_seed_bytes(self.name, self.seed, "key")
        )
        campaign = capture.CaptureCampaign(
            sk=sk, n_traces=self.n_traces, seed=_seed_int(self.name, self.seed, "capture"),
        )
        campaign.c_fft
        self.sk, self.pk, self.campaign = sk, pk, campaign

    def run(self) -> Batch:
        try:
            result = key_recovery.recover_full_key(self.campaign, self.pk)
            recs, records = result.coefficients, result.records
        except key_recovery.KeyRecoveryError as exc:
            result, recs, records = None, exc.coefficients, exc.records
        truth = secret_patterns(self.sk)
        ok, layer = coefficient_accuracy(recs, records, truth)
        key_ok = repaired = 0
        if result is not None and result.recovered_sk is not None:
            rebuilt = secret_patterns(result.recovered_sk)
            repaired = sum(int(rebuilt[r.target_index]) != r.pattern for r in recs)
            message = _seed_bytes(self.name, self.seed, "forged message")
            sig = key_recovery.forge(result, message, seed=_seed_bytes(self.name, self.seed, "forge"))
            key_ok = int(
                result.f == list(self.sk.f)
                and result.g == list(self.sk.g)
                and falcon.verify(self.pk, message, sig)
            )
        layer["attack.key_ok"] = float(key_ok)
        layer["attack.key_recovery.repaired"] = float(repaired)
        # Operations: every coefficient, plus the key extraction with its
        # forgery. The key is the deliverable, so it weighs as much as all
        # n coefficients together: a lost key costs half of ``ok_frac``.
        n = len(truth)
        return Batch(
            attempted=2 * n,
            failed=n - ok + n * (1 - key_ok),
            correct=result is None or bool(key_ok),
            layer=layer,
            op_times=[r.elapsed_seconds for r in records],
        )

    def failed_batch(self) -> Batch:
        n = 2 * self.sk.params.n
        return Batch(attempted=n, failed=n, correct=False)


class N512Store(_Workload):
    """FALCON-512 victim; a seed-chosen sample attacked from a store.

    The victim key is the same for every seed: FALCON-512 keygen time
    depends on the key (1.9 to 16.3 s over ten seeds on the reference
    box, from NTRUSolve retries), which would make ``setup_s`` a
    property of the seed instead of the code. The seed picks the capture
    corpus and the sampled targets.
    """

    name = "n512-store-w2"
    workers = 2
    sample_size = 4
    n_traces = 6000
    nominal_batch_s = 13.0
    config = AttackConfig(n_workers=2, chunk_rows=4096)
    key_seed = b"perfbench/n512-store-w2/key"

    def setup(self) -> None:
        sk, _pk = falcon.keygen(falcon.FalconParams.get(512), seed=self.key_seed)
        campaign = capture.CaptureCampaign(
            sk=sk, n_traces=self.n_traces, seed=_seed_int(self.name, self.seed, "capture"),
        )
        campaign.c_fft
        truth = secret_patterns(sk)
        sample = choose_sample(truth, self.sample_size, _seed_int(self.name, self.seed, "sample"))
        store = campaign.materialize(os.path.join(self._fresh_dir("store-"), "store"), targets=sample)
        self.sk, self.truth, self.view = sk, truth, SampleView(store, sample)

    def run(self) -> Batch:
        session = AttackSession(self._fresh_dir("session-"))
        recs, records = key_recovery.recover_coefficients(self.view, self.config, session=session)
        ok, layer = coefficient_accuracy(recs, records, self.truth)
        checkpointed = sorted(session.completed())
        intact = checkpointed == list(range(self.view.n_targets)) and all(
            r.true_pattern == int(self.truth[r.target_index]) for r in recs
        )
        return Batch(
            attempted=len(recs), failed=len(recs) - ok, correct=intact, layer=layer,
            op_times=[r.elapsed_seconds for r in records],
        )

    def failed_batch(self) -> Batch:
        return Batch(attempted=self.sample_size, failed=self.sample_size, correct=False)


class SastVerify(_Workload):
    """``repro-sast verify`` of the source tree against the leakage contract.

    The input is the tree under test itself, so the seed changes nothing.
    """

    name = "sast-verify"
    setup_repeats = 2
    nominal_batch_s = 1.25
    root = "src/repro"
    contract = "leakage-contract.json"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.cache = os.path.join(self._fresh_dir("sast-"), "cache.json")

    def _verify(self) -> bool:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = sast_cli.main(
                ["verify", self.root, "--contract", self.contract, "--cache", self.cache]
            )
        return rc == 0 and "contract holds" in out.getvalue()

    def setup(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cache)
        if not self._verify():
            raise RuntimeError("cold verify: the leakage contract does not hold")

    def prepare(self) -> None:
        gc.collect()

    def run(self) -> Batch:
        t0 = time.perf_counter()
        ok = self._verify()
        elapsed = time.perf_counter() - t0
        return Batch(attempted=1, failed=int(not ok), correct=ok, op_times=[elapsed])


WORKLOADS: dict[str, type[Any]] = {w.name: w for w in (N8Key, N512Store, SastVerify)}
