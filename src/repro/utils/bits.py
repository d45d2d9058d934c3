"""Bit-manipulation helpers used across the leakage models and attacks.

The side-channel distinguishers in this package are built on the Hamming
weight of architectural intermediates (products, sums, packed floats).
These helpers provide both scalar (Python ``int``) and vectorized
(:mod:`numpy`) Hamming weight computations that work for values wider than
64 bits (schoolbook partial products are up to 106 bits wide).
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "hamming_weight",
    "hamming_weight_array",
    "hamming_distance",
    "bit_reverse",
    "mask",
    "bits_of",
    "from_bits",
]

def mask(nbits: int) -> int:
    """Return an ``nbits``-wide all-ones mask (``nbits >= 0``)."""
    if nbits < 0:
        raise ValueError(f"nbits must be non-negative, got {nbits}")
    return (1 << nbits) - 1


def hamming_weight(value: int) -> int:
    """Hamming weight of an arbitrary-precision non-negative integer."""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    return value.bit_count()


def hamming_distance(a: int, b: int) -> int:
    """Hamming distance between two non-negative integers."""
    if a < 0 or b < 0:
        raise ValueError("operands must be non-negative")
    return (a ^ b).bit_count()


def hamming_weight_array(values: NDArray[Any], width: int = 64) -> NDArray[np.int64]:  # sast: declassify(reason=Hamming-weight leakage model primitive; computing HW of secret intermediates is its job)
    """Vectorized Hamming weight of an unsigned integer array.

    Parameters
    ----------
    values:
        Array of unsigned integers. dtype must be an unsigned integer type
        of at most 64 bits; values wider than 64 bits must be split by the
        caller (:func:`repro.fpr.trace.mul_limbs` keeps every partial
        product of the multiply within 64 bits).
    width:
        Only the low ``width`` bits contribute (1..64).
    """
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in 1..64, got {width}")
    arr = np.asarray(values)
    if arr.dtype.kind != "u":
        arr = arr.astype(np.uint64)
    if width < 64:
        arr = arr & np.uint64(mask(width))
    return np.bitwise_count(arr).astype(np.int64)


def bit_reverse(value: int, nbits: int) -> int:
    """Reverse the low ``nbits`` bits of ``value`` (used by iterative NTT)."""
    out = 0
    for _ in range(nbits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def bits_of(value: int, nbits: int) -> list[int]:
    """Little-endian list of the low ``nbits`` bits of ``value``."""
    return [(value >> i) & 1 for i in range(nbits)]


def from_bits(bits: list[int]) -> int:
    """Inverse of :func:`bits_of` (little-endian bit list to integer)."""
    out = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {i} is {b}, expected 0 or 1")
        out |= b << i
    return out
