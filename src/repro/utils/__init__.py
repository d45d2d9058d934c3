"""Shared low-level utilities: bit manipulation, PRNG, statistics."""

from repro.utils.bits import (
    hamming_weight,
    hamming_weight_array,
    hamming_distance,
    bit_reverse,
    mask,
)
from repro.utils.rng import ChaCha20Prng, SystemRng
from repro.utils.stats import (
    batched_pearson,
    fisher_z_threshold,
    pearson_corr,
)

__all__ = [
    "hamming_weight",
    "hamming_weight_array",
    "hamming_distance",
    "bit_reverse",
    "mask",
    "ChaCha20Prng",
    "SystemRng",
    "batched_pearson",
    "pearson_corr",
    "fisher_z_threshold",
]
