"""Tests for the ChaCha20 PRNG, including cross-validation against the
`cryptography` package's ChaCha20 when available."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import ChaCha20Prng, SystemRng, chacha20_block, chacha20_blocks


class TestChaCha20Block:
    def test_block_length(self):
        assert len(chacha20_block(bytes(32), 0, bytes(12))) == 64

    def test_counter_changes_block(self):
        k, n = bytes(32), bytes(12)
        assert chacha20_block(k, 0, n) != chacha20_block(k, 1, n)

    def test_key_changes_block(self):
        n = bytes(12)
        assert chacha20_block(bytes(32), 0, n) != chacha20_block(b"\x01" * 32, 0, n)

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            chacha20_block(bytes(31), 0, bytes(12))

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            chacha20_block(bytes(32), 0, bytes(8))

    def test_against_cryptography_package(self):
        """Bit-exact keystream vs an independent ChaCha20 implementation."""
        algorithms = pytest.importorskip("cryptography.hazmat.primitives.ciphers.algorithms")
        from cryptography.hazmat.primitives.ciphers import Cipher

        key = bytes(range(32))
        nonce = b"\x00\x00\x00\x09" + bytes(8)
        counter = 7
        # cryptography's ChaCha20 takes a 16-byte nonce: counter || nonce.
        full_nonce = struct.pack("<I", counter) + nonce
        cipher = Cipher(algorithms.ChaCha20(key, full_nonce), mode=None)
        keystream = cipher.encryptor().update(bytes(64))
        assert chacha20_block(key, counter, nonce) == keystream

    def test_rfc8439_block_vector(self):
        """RFC 8439 section 2.3.2: key 00..1f, counter 1, nonce 0:4a:0."""
        nonce = bytes.fromhex("000000090000004a00000000")
        expected = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert chacha20_block(bytes(range(32)), 1, nonce) == expected

    def test_blocks_are_consecutive_single_blocks(self):
        """Lane i is block counter + i, wrapping at 2^32 like the state word."""
        key, nonce = bytes(range(32)), bytes(range(12))
        for counter in (0, 5, (1 << 32) - 2):
            singles = b"".join(chacha20_block(key, counter + i, nonce) for i in range(5))
            assert chacha20_blocks(key, counter, nonce, 5) == singles


class TestChaCha20Prng:
    def test_stream_is_the_block_sequence_across_refills(self):
        rng = ChaCha20Prng(b"refill")
        reads = b"".join(rng.randombytes(k) for k in (3, 4093, 1, 70, 9000, 64))
        blocks = b"".join(chacha20_block(rng._key, i, bytes(12)) for i in range(214))
        assert reads == blocks[: len(reads)]

    def test_deterministic(self):
        a = ChaCha20Prng(b"seed").randombytes(100)
        b = ChaCha20Prng(b"seed").randombytes(100)
        assert a == b

    def test_seed_types(self):
        for seed in (b"x", 1234, "text"):
            assert len(ChaCha20Prng(seed).randombytes(16)) == 16

    def test_different_seeds_differ(self):
        assert ChaCha20Prng(b"a").randombytes(32) != ChaCha20Prng(b"b").randombytes(32)

    def test_stream_continuity(self):
        rng = ChaCha20Prng(b"s")
        first = rng.randombytes(10)
        second = rng.randombytes(10)
        both = ChaCha20Prng(b"s").randombytes(20)
        assert first + second == both

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ChaCha20Prng(b"s").randombytes(-1)

    @given(st.integers(-50, 50), st.integers(0, 100))
    def test_randint_in_range(self, lo, span):
        rng = ChaCha20Prng(b"ri")
        v = rng.randint(lo, lo + span)
        assert lo <= v <= lo + span

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError):
            ChaCha20Prng(b"s").randint(5, 4)

    def test_randint_uniformity(self):
        """Chi-square on a small range at 5 sigma-ish tolerance."""
        rng = ChaCha20Prng(b"uniform")
        n, k = 8000, 8
        counts = [0] * k
        for _ in range(n):
            counts[rng.randint(0, k - 1)] += 1
        expected = n / k
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 35  # df=7, p ~ 1e-5

    def test_uniform_in_unit_interval(self):
        rng = ChaCha20Prng(b"u")
        vals = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_random_u64_range(self):
        rng = ChaCha20Prng(b"u64")
        assert all(0 <= rng.random_u64() < 1 << 64 for _ in range(100))


class TestSystemRng:
    def test_interface(self):
        rng = SystemRng()
        assert len(rng.randombytes(8)) == 8
        assert 0 <= rng.randint(0, 10) <= 10
        assert 0.0 <= rng.uniform() < 1.0
        assert 0 <= rng.random_u64() < 1 << 64

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SystemRng().randint(2, 1)
