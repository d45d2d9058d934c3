"""Deterministic randomness for reproducible measurement campaigns.

FALCON's reference implementation expands a SHAKE-seeded state through a
ChaCha20-based PRNG. We implement ChaCha20 (RFC 8439) from scratch so the
whole signing + capture pipeline is deterministic given a seed, which makes
attack experiments and the benchmark harness reproducible run to run.

:class:`ChaCha20Prng` is validated against the ``cryptography`` package's
ChaCha20 in the test suite when that package is available.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["chacha20_block", "chacha20_blocks", "ChaCha20Prng", "SystemRng"]

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK32 = 0xFFFFFFFF
#: Keystream blocks :class:`ChaCha20Prng` computes per refill.
_REFILL_BLOCKS = 64


def _rotl32(v: NDArray[Any], c: int) -> NDArray[Any]:
    return (v << c) | (v >> (32 - c))


def _quarter_round(state: list[NDArray[Any]], a: int, b: int, c: int, d: int) -> None:
    state[a] = state[a] + state[b]
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = state[c] + state[d]
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = state[a] + state[b]
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = state[c] + state[d]
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_blocks(key: bytes, counter: int, nonce: bytes, count: int) -> bytes:
    """``count`` consecutive 64-byte ChaCha20 keystream blocks from block
    ``counter`` on (RFC 8439 section 2.3), one uint32 lane per block."""
    if len(key) != 32:
        raise ValueError(f"key must be 32 bytes, got {len(key)}")
    if len(nonce) != 12:
        raise ValueError(f"nonce must be 12 bytes, got {len(nonce)}")
    init = np.empty((16, count), dtype=np.uint32)
    init[0:4] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    init[4:12] = np.frombuffer(key, dtype="<u4")[:, None]
    init[12] = (counter + np.arange(count, dtype=np.uint64)) & _MASK32
    init[13:16] = np.frombuffer(nonce, dtype="<u4")[:, None]
    state = list(init)
    for _ in range(10):
        _quarter_round(state, 0, 4, 8, 12)
        _quarter_round(state, 1, 5, 9, 13)
        _quarter_round(state, 2, 6, 10, 14)
        _quarter_round(state, 3, 7, 11, 15)
        _quarter_round(state, 0, 5, 10, 15)
        _quarter_round(state, 1, 6, 11, 12)
        _quarter_round(state, 2, 7, 8, 13)
        _quarter_round(state, 3, 4, 9, 14)
    return (np.stack(state) + init).T.astype("<u4").tobytes()


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 section 2.3)."""
    return chacha20_blocks(key, counter, nonce, 1)


class ChaCha20Prng:
    """Seeded deterministic byte stream built on ChaCha20.

    The 32-byte key is derived from an arbitrary seed via SHAKE-256,
    mirroring how FALCON's reference code seeds its inner PRNG from a
    SHAKE context.
    """

    def __init__(self, seed: bytes | int | str) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "little", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode()
        self._key = hashlib.shake_256(seed).digest(32)
        self._nonce = bytes(12)
        self._counter = 0
        self._buffer = b""
        self._pos = 0

    def randombytes(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the keystream."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        short = n - (len(self._buffer) - self._pos)
        if short > 0:
            count = max(_REFILL_BLOCKS, -(-short // 64))
            self._buffer = self._buffer[self._pos:] + chacha20_blocks(
                self._key, self._counter, self._nonce, count
            )
            self._pos = 0
            self._counter += count
        out = self._buffer[self._pos:self._pos + n]
        self._pos += n
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi], via rejection."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        nbytes = (span.bit_length() + 7) // 8
        limit = (1 << (8 * nbytes)) // span * span
        while True:
            v = int.from_bytes(self.randombytes(nbytes), "little")
            if v < limit:
                return lo + v % span

    def random_u64(self) -> int:
        return int.from_bytes(self.randombytes(8), "little")

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.random_u64() >> 11) * (2.0**-53)


class SystemRng:
    """OS randomness with the same interface as :class:`ChaCha20Prng`."""

    def randombytes(self, n: int) -> bytes:
        return os.urandom(n)

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        nbytes = (span.bit_length() + 7) // 8
        limit = (1 << (8 * nbytes)) // span * span
        while True:
            v = int.from_bytes(self.randombytes(nbytes), "little")
            if v < limit:
                return lo + v % span

    def random_u64(self) -> int:
        return int.from_bytes(self.randombytes(8), "little")

    def uniform(self) -> float:
        return (self.random_u64() >> 11) * (2.0**-53)
