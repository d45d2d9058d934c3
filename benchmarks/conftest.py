"""Shared fixtures for the benchmark harness.

One victim key and one 10k-trace measurement campaign (the paper's
trace budget) are shared by every figure/table bench; each bench then
consumes the slices it needs. Everything is seeded — rerunning the
suite regenerates identical numbers.
"""

import numpy as np
import pytest

from repro.experiment_defaults import BENCH_SEED, PAPER_N_TRACES
from repro.falcon import FalconParams, keygen
from repro.leakage import CaptureCampaign, DeviceModel

BENCH_N = 8  # laptop-scale ring: identical code path to FALCON-512


@pytest.fixture(scope="session")
def victim():
    """The victim key pair under attack in every experiment."""
    sk, pk = keygen(FalconParams.get(BENCH_N), seed=BENCH_SEED)
    return sk, pk


@pytest.fixture(scope="session")
def campaign(victim):
    """10k-trace EM campaign against the victim (paper Section IV)."""
    sk, _ = victim
    return CaptureCampaign(
        sk=sk, n_traces=PAPER_N_TRACES, device=DeviceModel(), seed=2021
    )


def pick_representative_coefficient(campaign) -> int:
    """A coefficient whose known operands carry sign information.

    HashToPoint's c has non-negative coefficients, so some FFT(c) slots
    have strongly sign-imbalanced (or constant-sign) real/imaginary
    parts; the sign-bit DEMA is starved of variance there. The paper
    presents its Figure 4 panels for one representative coefficient —
    we pick ours the same way: the first slot whose known operand signs
    are reasonably balanced on at least one multiplication stream.
    """
    c_fft = campaign.c_fft
    n = campaign.sk.params.n
    for j in range(n):
        part = c_fft[:, j // 2].real if j % 2 == 0 else c_fft[:, j // 2].imag
        neg = float(np.mean(part < 0))
        if 0.35 <= neg <= 0.65:
            return j
    return 0


@pytest.fixture(scope="session")
def traceset(campaign):
    """The per-coefficient trace set every Figure-4 panel works on."""
    return campaign.capture(pick_representative_coefficient(campaign))


@pytest.fixture(scope="session")
def true_parts(traceset):
    sig = (traceset.true_secret & ((1 << 52) - 1)) | (1 << 52)
    return {
        "pattern": traceset.true_secret,
        "sign": traceset.true_secret >> 63,
        "exp": (traceset.true_secret >> 52) & 0x7FF,
        "lo": sig & ((1 << 25) - 1),
        "hi": sig >> 25,
        "sig": sig,
    }


@pytest.fixture(scope="session")
def figures_dir(tmp_path_factory):
    """Where the benches drop their CSV series."""
    return tmp_path_factory.mktemp("figures")
