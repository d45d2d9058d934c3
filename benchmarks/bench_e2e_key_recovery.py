"""E2E — Section IV's headline: full key extraction and forgery.

Runs the complete pipeline against the shared victim: capture 10k traces
per coefficient, recover every FFT(f) double via extend-and-prune DEMA,
invert the FFT, complete the NTRU key from the public key, and forge a
signature that the victim's genuine public key accepts.

Also benchmarks the parallel engine: per-coefficient fan-out over
worker processes must be bit-identical to the serial path (every target
derives its own seeds), and Pearson row blocks (``chunk_rows``) must
recover the same patterns as one block.
"""

import os
import time

import numpy as np

from repro.attack import AttackConfig, full_attack, recover_coefficients
from repro.fpr.trace import fpr_mul_trace
from repro.leakage import CampaignStore, CaptureCampaign, DeviceModel
from repro.leakage.steps import step_values
from repro.obs import scoped_registry

#: Signings per coefficient for the headline run (the paper budget).
E2E_TRACES = 10_000
#: Signings per coefficient for the chunked-vs-one-shot CPA check.
THROUGHPUT_TRACES = 1_500
#: Operand batch for the step-engine microbench; the fpr_mul_trace
#: reference loop runs a 1/50 slice of it (the slow path the speedup is
#: measured against).
STEP_VALUES = 200_000


def _reference_loop(x: int, y: np.ndarray) -> np.ndarray:
    return np.array([fpr_mul_trace(x, int(v)).values for v in y], dtype=np.uint64)


def _step_engine_stats() -> tuple[float, float]:
    """traces/s of (step_values, fpr_mul_trace loop) on one operand batch.

    The reference loop only runs a slice of the batch — its per-second
    rate is what matters, not its wall clock — and that slice doubles as
    a bit-exactness check against the vectorized results.
    """
    rng = np.random.default_rng(2021)
    y = (rng.standard_normal(STEP_VALUES) * 3.0 + 8.0).view(np.uint64)
    x = int(np.float64(-1.2345).view(np.uint64))

    # steady-state rates: one small warm-up call per path pays the
    # import/allocator cold start outside the measured window
    step_values(x, y[:512])
    _reference_loop(x, y[:64])

    # best-of-3 for the vectorized engine: a full-size block costs ~10ms,
    # and the first call's page faults would otherwise dominate the rate
    t_fast = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fast_vals = step_values(x, y)
        t_fast = min(t_fast, time.perf_counter() - t0)

    n_ref = max(1, STEP_VALUES // 50)
    t0 = time.perf_counter()
    ref_vals = _reference_loop(x, y[:n_ref])
    t_ref = time.perf_counter() - t0

    np.testing.assert_array_equal(fast_vals[:n_ref], ref_vals)
    return STEP_VALUES / max(t_fast, 1e-9), n_ref / max(t_ref, 1e-9)


def test_e2e_key_recovery_and_forgery(victim, benchmark):
    sk, pk = victim

    def attack():
        return full_attack(
            sk,
            pk,
            n_traces=E2E_TRACES,
            message=b"forged under the victim's public key",
        )

    report = benchmark.pedantic(attack, rounds=1, iterations=1)
    print("\n" + report.summary())

    # the paper's claim, verbatim: the entire signing key is extracted
    # and arbitrary messages can be signed
    assert report.key_correct
    assert report.key_recovery.f == sk.f
    assert report.key_recovery.g == sk.g
    assert report.forgery_verifies
    # mantissas and signs come straight out of the DEMA (the repair only
    # ever touches exponents): most coefficients are exact at top-1
    assert report.n_correct_coefficients >= report.n_coefficients // 2
    # trace accounting: the report counts the rows that actually entered
    # the CPA, which can only be <= requested * segments * coefficients
    assert 0 < report.n_traces_correlated <= E2E_TRACES * 2 * report.n_coefficients
    assert len(report.records) == report.n_coefficients
    assert all(r.elapsed_seconds > 0 for r in report.records)


def test_parallel_engine_throughput(victim):
    """Serial vs 4-worker fan-out: bit-identical patterns, wall-clock gain.

    The speedup assertion only fires when the host actually has the
    cores; on a single-core container the parallel path still runs (and
    must still be bit-identical) but cannot be faster.
    """
    sk, _ = victim
    campaign = CaptureCampaign(sk=sk, n_traces=1_500, device=DeviceModel(), seed=2021)

    t0 = time.perf_counter()
    serial_recs, serial_records = recover_coefficients(campaign, AttackConfig(n_workers=1))
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    par_recs, par_records = recover_coefficients(campaign, AttackConfig(n_workers=4))
    t_parallel = time.perf_counter() - t0

    speedup = t_serial / t_parallel
    print(
        f"\nper-coefficient engine: serial {t_serial:.2f}s, "
        f"4 workers {t_parallel:.2f}s ({speedup:.2f}x, {os.cpu_count()} cores)"
    )

    assert [r.pattern for r in par_recs] == [r.pattern for r in serial_recs]
    assert [r.target_index for r in par_records] == [r.target_index for r in serial_records]
    assert [r.n_traces_kept for r in par_records] == [r.n_traces_kept for r in serial_records]
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, f"expected >= 2x at 4 workers, got {speedup:.2f}x"


def test_store_backed_attack_cost_split(victim, tmp_path):
    """Capture-once / attack-many: materializing the campaign to a
    disk-backed store pays the simulation cost exactly once; every
    attack after that replays memory-mapped shards and recovers the
    same patterns bit-identically."""
    sk, _ = victim
    campaign = CaptureCampaign(sk=sk, n_traces=1_500, device=DeviceModel(), seed=2021)

    t0 = time.perf_counter()
    store = campaign.materialize(str(tmp_path / "store"))
    t_capture = time.perf_counter() - t0

    t0 = time.perf_counter()
    disk_recs, disk_records = recover_coefficients(store, AttackConfig())
    t_attack = time.perf_counter() - t0

    # a second materialization reuses every shard: the capture cost is gone
    t0 = time.perf_counter()
    campaign.materialize(str(tmp_path / "store"))
    t_recheck = time.perf_counter() - t0

    print(
        f"\nstore-backed attack: capture {t_capture:.2f}s (once), "
        f"attack {t_attack:.2f}s, shard recheck {t_recheck:.2f}s"
    )
    assert t_recheck < t_capture / 2, "existing shards were re-captured"

    live_recs, live_records = recover_coefficients(campaign, AttackConfig())
    assert [r.pattern for r in disk_recs] == [r.pattern for r in live_recs]
    assert [r.n_traces_kept for r in disk_records] == [
        r.n_traces_kept for r in live_records
    ]
    # the store round-trips through pickle as a path, so the parallel
    # engine can ship it to workers without copying trace data
    assert CampaignStore(store.path).n_targets == campaign.n_targets


def test_step_engine_throughput():
    """step_values vs the fpr_mul_trace loop on the same operands:
    bit-exact results (checked inside the measurement helper) and a
    >= 50x rate gain — the whole point of vectorizing the capture side."""
    fast, ref = _step_engine_stats()
    speedup = fast / ref
    print(
        f"\nstep values: engine {fast:,.0f} traces/s, "
        f"fpr_mul_trace loop {ref:,.0f} traces/s ({speedup:.0f}x)"
    )
    assert speedup >= 50.0, f"expected >= 50x over the reference loop, got {speedup:.1f}x"


def test_streaming_cpa_matches_one_shot(victim):
    """chunk_rows sums every CPA's moments over row blocks; the
    recovered patterns must not change."""
    sk, _ = victim
    campaign = CaptureCampaign(
        sk=sk, n_traces=THROUGHPUT_TRACES, device=DeviceModel(), seed=2021
    )

    t0 = time.perf_counter()
    one_shot, _ = recover_coefficients(campaign, AttackConfig())
    t_one = time.perf_counter() - t0

    with scoped_registry() as reg:
        t0 = time.perf_counter()
        streamed, _ = recover_coefficients(campaign, AttackConfig(chunk_rows=256))
        t_chunked = time.perf_counter() - t0
    snap = reg.snapshot()

    print(f"\nstreaming CPA: one-shot {t_one:.2f}s, chunked(256) {t_chunked:.2f}s")
    assert [r.pattern for r in streamed] == [r.pattern for r in one_shot]
    assert snap.counters.get("cpa.chunks_streamed", 0) > 0
