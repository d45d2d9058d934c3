"""Substrate performance: FALCON keygen / sign / verify timings.

Not a paper artifact — sanity timings for the from-scratch FALCON
implementation the experiments run on (pytest-benchmark statistics).
"""

import pytest

from repro.falcon import FalconParams, keygen, sign, verify


@pytest.fixture(scope="module")
def kp64():
    return keygen(FalconParams.get(64), seed=b"bench-prim")


def test_keygen_64(benchmark):
    sk, pk = benchmark.pedantic(
        lambda: keygen(FalconParams.get(64), seed=b"kg-bench"), rounds=3, iterations=1
    )
    assert pk.h


def test_sign_64(kp64, benchmark):
    sk, _ = kp64
    sig = benchmark(lambda: sign(sk, b"bench message"))
    assert sig.s2_compressed


def test_verify_64(kp64, benchmark):
    sk, pk = kp64
    sig = sign(sk, b"bench message", seed=1)
    ok = benchmark(lambda: verify(pk, b"bench message", sig))
    assert ok


def test_fpr_mul_trace_throughput(benchmark):
    """Instrumented multiplies per second (the capture bottleneck)."""
    import numpy as np

    from repro.leakage.steps import step_values

    rng = np.random.default_rng(0)
    y = (rng.standard_normal(10_000) * 50 + 100).view(np.uint64)
    x = int(np.float64(123.456).view(np.uint64))
    vals = benchmark(lambda: step_values(x, y))
    assert vals.shape[0] == 10_000
