"""Tests for the FALCON FFT representation (split/merge, ring ops)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.math import fft, poly

sizes = st.sampled_from([2, 4, 8, 16, 32, 64])


def random_poly(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


class TestRoots:
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 512])
    def test_roots_satisfy_ring_equation(self, n):
        z = fft.roots(n)
        np.testing.assert_allclose(z**n, -1.0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_roots_upper_half_plane(self, n):
        assert np.all(fft.roots(n).imag > 0)

    def test_bad_n_rejected(self):
        for n in (0, 1, 3, 12):
            with pytest.raises(ValueError):
                fft.roots(n)


class TestTransform:
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 256, 1024])
    def test_roundtrip(self, n):
        f = random_poly(n, n)
        np.testing.assert_allclose(fft.ifft(fft.fft(f)), f, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 16, 128])
    def test_matches_direct_evaluation(self, n):
        f = random_poly(n, n + 1)
        direct = np.array([np.polyval(f[::-1], z) for z in fft.roots(n)])
        np.testing.assert_allclose(fft.fft(f), direct, atol=1e-8)

    def test_fft_of_constant(self):
        out = fft.fft([3.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(out, 3.0)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            fft.fft([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fft.ifft(np.ones(3, dtype=complex))

    def test_linearity(self):
        n = 16
        f, g = random_poly(n, 1), random_poly(n, 2)
        np.testing.assert_allclose(
            fft.fft(2 * f + g), 2 * fft.fft(f) + fft.fft(g), atol=1e-9
        )


class TestSplitMerge:
    @pytest.mark.parametrize("n", [4, 8, 64, 512])
    def test_split_merge_roundtrip(self, n):
        F = fft.fft(random_poly(n, n + 7))
        f0, f1 = fft.split_fft(F)
        np.testing.assert_allclose(fft.merge_fft(f0, f1), F, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_split_matches_coefficient_split(self, n):
        """split_fft(FFT(f)) == (FFT(f_even), FFT(f_odd))."""
        f = random_poly(n, n + 13)
        f0, f1 = fft.split_fft(fft.fft(f))
        np.testing.assert_allclose(f0, fft.fft(f[0::2]), atol=1e-9)
        np.testing.assert_allclose(f1, fft.fft(f[1::2]), atol=1e-9)

    def test_split_of_single_slot_rejected(self):
        with pytest.raises(ValueError):
            fft.split_fft(np.array([1 + 1j]))

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            fft.merge_fft(np.ones(2, dtype=complex), np.ones(3, dtype=complex))


class TestRingOps:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_mul_fft_is_negacyclic_product(self, n):
        rng = np.random.default_rng(n)
        a = list(rng.integers(-30, 30, n))
        b = list(rng.integers(-30, 30, n))
        via_fft = fft.ifft(fft.mul_fft(fft.fft(a), fft.fft(b)))
        np.testing.assert_allclose(via_fft, poly.mul(a, b), atol=1e-6)

    def test_div_inverts_mul(self):
        n = 32
        a = fft.fft(random_poly(n, 3))
        b = fft.fft(random_poly(n, 4) + 5.0)  # keep away from zero slots
        np.testing.assert_allclose(fft.div_fft(fft.mul_fft(a, b), b), a, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 16])
    def test_adj_fft_matches_adjoint_poly(self, n):
        rng = np.random.default_rng(n + 5)
        f = list(rng.integers(-20, 20, n))
        np.testing.assert_allclose(
            fft.adj_fft(fft.fft(f)), fft.fft(poly.adjoint(f)), atol=1e-9
        )

    def test_self_adjoint_is_real(self):
        """f * adj(f) has a real-valued FFT — the ffLDL precondition."""
        n = 32
        F = fft.fft(random_poly(n, 9))
        prod = fft.mul_fft(F, fft.adj_fft(F))
        np.testing.assert_allclose(prod.imag, 0.0, atol=1e-9)
        assert np.all(prod.real >= 0)

    def test_parseval(self):
        """sum |FFT slots|^2 * (2/n) == squared coefficient norm."""
        n = 64
        f = random_poly(n, 11)
        F = fft.fft(f)
        assert (2.0 / n) * np.sum(np.abs(F) ** 2) == pytest.approx(float(f @ f))


# -- oracle: the recursive transform the batched one replaced -------------


def _oracle_merge(f0, f1):
    m = len(f0)
    w = fft.roots(4 * m)[:m]
    out = np.empty(2 * m, dtype=np.complex128)
    out[:m] = f0 + w * f1
    out[m:] = np.conj((f0 - w * f1)[::-1])
    return out


def _oracle_split(f_fft):
    m = len(f_fft) // 2
    w = fft.roots(2 * len(f_fft))[:m]
    u = f_fft[:m]
    v = np.conj(f_fft[m:][::-1])
    return (u + v) / 2, (u - v) / (2 * w)


def oracle_fft(f):
    """One recursion per half, as in the FALCON specification."""
    f = np.asarray(f, dtype=np.float64)
    if len(f) == 2:
        return np.array([f[0] + 1j * f[1]], dtype=np.complex128)
    return _oracle_merge(oracle_fft(f[0::2]), oracle_fft(f[1::2]))


def oracle_ifft(f_fft):
    f_fft = np.asarray(f_fft, dtype=np.complex128)
    if len(f_fft) == 1:
        return np.array([f_fft[0].real, f_fft[0].imag], dtype=np.float64)
    f0, f1 = _oracle_split(f_fft)
    out = np.empty(2 * len(f_fft), dtype=np.float64)
    out[0::2] = oracle_ifft(f0)
    out[1::2] = oracle_ifft(f1)
    return out


def _inputs(n, seed):
    """Integer, Gaussian, +-1e300-scaled and signed-zero rows of length n."""
    rng = np.random.default_rng(seed)
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    zeros[rng.random(n) < 0.3] = 1.0
    return np.stack([
        rng.integers(-12289, 12289, n).astype(np.float64),
        rng.standard_normal(n),
        rng.standard_normal(n) * 1e300 / n,
        -rng.standard_normal(n) * 1e-300,
        zeros,
        np.where(rng.random(n) < 0.5, -0.0, 0.0),
    ])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestBatchedAgainstRecursive:
    @pytest.mark.parametrize("n", [2 ** k for k in range(1, 11)])
    def test_fft_rows_and_batch_match_the_recursion(self, n):
        rows = _inputs(n, n)
        expected = np.stack([oracle_fft(r) for r in rows])
        for r, e in zip(rows, expected):
            _same_bits(fft.fft(r), e)
        _same_bits(fft.fft(rows), expected)
        _same_bits(fft.fft(rows.reshape(2, 3, n)), expected.reshape(2, 3, -1))

    @pytest.mark.parametrize("n", [2 ** k for k in range(1, 11)])
    def test_ifft_rows_and_batch_match_the_recursion(self, n):
        slots = np.stack([oracle_fft(r) for r in _inputs(n, n + 1)])
        slots = np.concatenate([slots, slots * (1 - 2j), np.conj(slots)])
        expected = np.stack([oracle_ifft(s) for s in slots])
        for s, e in zip(slots, expected):
            _same_bits(fft.ifft(s), e)
        _same_bits(fft.ifft(slots), expected)

    def test_split_and_merge_broadcast_over_rows(self):
        slots = np.stack([oracle_fft(r) for r in _inputs(64, 5)])
        f0, f1 = fft.split_fft(slots)
        for s, a, b in zip(slots, f0, f1):
            e0, e1 = _oracle_split(s)
            _same_bits(a, e0)
            _same_bits(b, e1)
            _same_bits(fft.merge_fft(a, b), _oracle_merge(a, b))
        _same_bits(fft.merge_fft(f0, f1), np.stack([_oracle_merge(a, b) for a, b in zip(f0, f1)]))
