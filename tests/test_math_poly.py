"""Tests for exact integer polynomial arithmetic in Z[x]/(x^n + 1)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.math import poly

coeff = st.integers(min_value=-1000, max_value=1000)


def ring_poly(n):
    return st.lists(coeff, min_size=n, max_size=n)


class TestRingBasics:
    def test_check_ring_accepts_powers_of_two(self):
        for n in (1, 2, 4, 64):
            assert poly.check_ring([0] * n) == n

    def test_check_ring_rejects_others(self):
        for n in (0, 3, 6, 12):
            with pytest.raises(ValueError):
                poly.check_ring([0] * n)

    def test_constant(self):
        assert poly.constant(7, 4) == [7, 0, 0, 0]

    @given(ring_poly(8), ring_poly(8))
    def test_add_sub_inverse(self, f, g):
        assert poly.sub(poly.add(f, g), g) == f

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poly.add([1, 2], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            poly.mul([1, 2], [1, 2, 3, 4])


class TestMul:
    def test_x_times_x_wraps_negacyclically(self):
        # x * x^(n-1) = x^n = -1
        n = 4
        x = [0, 1, 0, 0]
        xn1 = [0, 0, 0, 1]
        assert poly.mul(x, xn1) == [-1, 0, 0, 0]

    def test_identity(self):
        f = [3, -1, 4, 1]
        assert poly.mul(f, poly.constant(1, 4)) == f

    @given(ring_poly(8), ring_poly(8))
    @settings(max_examples=30)
    def test_commutative(self, f, g):
        assert poly.mul(f, g) == poly.mul(g, f)

    @given(ring_poly(8), ring_poly(8), ring_poly(8))
    @settings(max_examples=20)
    def test_distributive(self, f, g, h):
        left = poly.mul(f, poly.add(g, h))
        right = poly.add(poly.mul(f, g), poly.mul(f, h))
        assert left == right

    def test_big_coefficients_exact(self):
        f = [10**50, -(10**49)] + [0] * 2
        g = [3, 10**45, 0, 0]
        out = poly.mul(f, g)
        assert out[1] == 10**95 - 3 * 10**49


class TestAdjointAndConjugate:
    @given(ring_poly(8))
    def test_adjoint_involution(self, f):
        assert poly.adjoint(poly.adjoint(f)) == f

    @given(ring_poly(8))
    def test_galois_involution(self, f):
        assert poly.galois_conjugate(poly.galois_conjugate(f)) == f

    @given(ring_poly(8), ring_poly(8))
    @settings(max_examples=20)
    def test_adjoint_antihomomorphism(self, f, g):
        assert poly.adjoint(poly.mul(f, g)) == poly.mul(poly.adjoint(f), poly.adjoint(g))

    def test_adjoint_degree_one_ring(self):
        assert poly.adjoint([5]) == [5]


class TestSplitMergeNormLift:
    @given(ring_poly(16))
    def test_split_merge_roundtrip(self, f):
        f0, f1 = poly.split(f)
        assert poly.merge(f0, f1) == f

    @given(ring_poly(8), ring_poly(8))
    @settings(max_examples=25)
    def test_field_norm_multiplicative(self, f, g):
        nf_ng = poly.mul(poly.field_norm(f), poly.field_norm(g))
        n_fg = poly.field_norm(poly.mul(f, g))
        assert nf_ng == n_fg

    @given(ring_poly(8))
    def test_field_norm_is_f_times_conjugate(self, f):
        # lift(N(f)) = f(x) * f(-x)
        lifted = poly.lift(poly.field_norm(f))
        direct = poly.mul(f, poly.galois_conjugate(f))
        assert lifted == direct

    @given(ring_poly(8))
    def test_sqnorm(self, f):
        assert poly.sqnorm(f) == sum(c * c for c in f)
        assert poly.sqnorm(f, f) == 2 * sum(c * c for c in f)


class TestModQ:
    Q = 12289

    def test_inverse_mod_q(self):
        f = [1, 2, 3, 4, 0, 0, 0, 1]
        inv = poly.inverse_mod_q(f, self.Q)
        assert poly.mul_mod_q(f, inv, self.Q) == poly.constant(1, 8)

    def test_non_invertible_rejected(self):
        with pytest.raises(ValueError):
            poly.inverse_mod_q([0] * 8, self.Q)

    @given(ring_poly(8))
    @settings(max_examples=20)
    def test_mul_mod_q_matches_exact(self, f):
        g = [5, -3, 2, 0, 0, 7, 1, 1]
        exact = [c % self.Q for c in poly.mul(f, g)]
        assert poly.mul_mod_q(f, g, self.Q) == exact


def schoolbook_mul(f, g):
    """The O(n^2) negacyclic product the Kronecker one replaced."""
    n = len(f)
    out = [0] * n
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            if i + j < n:
                out[i + j] += fi * gj
            else:
                out[i + j - n] -= fi * gj
    return out


class TestKroneckerAgainstSchoolbook:
    @pytest.mark.parametrize("n", [2 ** k for k in range(11)])
    def test_random_sizes(self, n):
        rng = random.Random(n)
        for bits in (1, 8, 60, 1000):
            f = [rng.randint(-(2 ** bits), 2 ** bits) for _ in range(n)]
            g = [rng.randint(-(2 ** (bits // 2 + 1)), 2 ** (bits // 2 + 1)) for _ in range(n)]
            assert poly.mul(f, g) == schoolbook_mul(f, g)
            assert poly.mul([0] * n, f) == [0] * n

    @pytest.mark.parametrize("n", [1, 2, 16, 128])
    def test_zero_and_extreme_polynomials(self, n):
        zero = [0] * n
        big = [(-1) ** i * (2 ** 1000 - 1) for i in range(n)]
        assert poly.mul(zero, zero) == zero
        assert poly.mul(zero, big) == zero
        assert poly.mul(big, big) == schoolbook_mul(big, big)
        assert poly.mul(big, [-c for c in big]) == schoolbook_mul(big, [-c for c in big])

    def test_numpy_int64_coefficients(self):
        rng = np.random.default_rng(3)
        f = list(rng.integers(-30, 30, 64))
        g = list(rng.integers(-(2 ** 62), 2 ** 62, 64))
        out = poly.mul(f, g)
        assert out == schoolbook_mul([int(c) for c in f], [int(c) for c in g])
        assert all(type(c) is int for c in out)
