"""Tests for the instrumented multiplication (the attack target) and addition."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fpr import emu
from repro.fpr.trace import (
    ADD_STEP_LABELS,
    EXP_REBIAS,
    LOW_BITS,
    MUL_STEP_LABELS,
    MUL_STEP_WIDTHS,
    fpr_add_trace,
    fpr_mul_trace,
    mul_limbs,
)


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def normal_double():
    def build(sign, exp, mant):
        return struct.unpack(
            "<d", struct.pack("<Q", (sign << 63) | ((exp + 1023) << 52) | mant)
        )[0]

    return st.builds(build, st.integers(0, 1), st.integers(-300, 300), st.integers(0, (1 << 52) - 1))


class TestLimbSplit:
    def test_split_widths(self):
        lo, hi = mul_limbs((1 << 52) | 0x123456789ABCD)
        assert lo < 1 << LOW_BITS
        assert 1 << 26 <= hi < 1 << 28  # MSB (implicit 1) always set

    @given(st.integers(1 << 52, (1 << 53) - 1))
    def test_split_recombines(self, m):
        lo, hi = mul_limbs(m)
        assert (hi << LOW_BITS) | lo == m

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mul_limbs((1 << 52) - 1)
        with pytest.raises(ValueError):
            mul_limbs(1 << 53)


class TestTraceStructure:
    def test_labels_cover_all_steps(self):
        t = fpr_mul_trace(bits(1.5), bits(2.5))
        assert t.labels == list(MUL_STEP_LABELS)

    def test_widths_table_complete(self):
        assert set(MUL_STEP_WIDTHS) == set(MUL_STEP_LABELS)

    def test_value_lookup(self):
        t = fpr_mul_trace(bits(3.0), bits(7.0))
        assert t.value("sign_out") == 0
        with pytest.raises(KeyError):
            t.value("nonexistent")

    def test_zero_operand_short_circuits(self):
        t = fpr_mul_trace(bits(0.0), bits(2.0))
        assert t.labels == ["result"]
        assert emu.is_zero(t.result)

    @given(normal_double(), normal_double())
    @settings(max_examples=300)
    def test_values_fit_declared_widths(self, x, y):
        t = fpr_mul_trace(bits(x), bits(y))
        for label, value in t.steps:
            assert 0 <= value < 1 << MUL_STEP_WIDTHS[label], label


class TestTraceSemantics:
    @given(normal_double(), normal_double())
    @settings(max_examples=300)
    def test_result_matches_emu(self, x, y):
        t = fpr_mul_trace(bits(x), bits(y))
        assert t.result == emu.fpr_mul(bits(x), bits(y))

    @given(normal_double(), normal_double())
    @settings(max_examples=200)
    def test_product_reconstruction(self, x, y):
        """s_hi and sticky exactly partition the 106-bit product."""
        bx, by = bits(x), bits(y)
        t = fpr_mul_trace(bx, by)
        _, mx, _ = emu._unpack_normal(bx)
        _, my, _ = emu._unpack_normal(by)
        product = mx * my
        assert (t.value("s_hi") << 50) | t.value("sticky") == product

    @given(normal_double(), normal_double())
    @settings(max_examples=200)
    def test_partial_products(self, x, y):
        bx, by = bits(x), bits(y)
        t = fpr_mul_trace(bx, by)
        _, mx, _ = emu._unpack_normal(bx)
        _, my, _ = emu._unpack_normal(by)
        x_lo, x_hi = mul_limbs(mx)
        y_lo, y_hi = mul_limbs(my)
        assert t.value("p_ll") == x_lo * y_lo
        assert t.value("p_lh") == x_lo * y_hi
        assert t.value("p_hl") == x_hi * y_lo
        assert t.value("p_hh") == x_hi * y_hi
        assert t.value("s_lo") == (x_lo * y_lo >> LOW_BITS) + x_lo * y_hi

    @given(normal_double(), normal_double())
    @settings(max_examples=200)
    def test_sign_exponent_steps(self, x, y):
        bx, by = bits(x), bits(y)
        t = fpr_mul_trace(bx, by)
        sx, ex, _ = emu.decompose(bx)
        sy, ey, _ = emu.decompose(by)
        assert t.value("sign_out") == sx ^ sy
        assert t.value("exp_sum") == ex + ey
        assert t.value("exp_biased") == (ex + ey - EXP_REBIAS) & 0xFFFFFFFF

    def test_shift_alias_has_identical_product_hw(self):
        """The false-positive mechanism: D and 2D give the same HW at the
        multiplication but different values at the addition."""
        from repro.utils.bits import hamming_weight

        y = bits(1.2345)
        _, my, _ = emu._unpack_normal(y)
        y_lo, y_hi = mul_limbs(my)
        d = 0x00ABCDE
        hw_mult_d = hamming_weight(d * y_lo)
        hw_mult_2d = hamming_weight((2 * d) * y_lo)
        assert hw_mult_d == hw_mult_2d  # indistinguishable at the multiply
        s_lo_d = ((d * y_lo) >> LOW_BITS) + d * y_hi
        s_lo_2d = (((2 * d) * y_lo) >> LOW_BITS) + (2 * d) * y_hi
        assert hamming_weight(s_lo_d) != hamming_weight(s_lo_2d) or s_lo_d != s_lo_2d


class TestVectorizedConsistency:
    def test_batch_step_values_matches_scalar(self):
        from repro.leakage.steps import step_values

        rng = np.random.default_rng(42)
        xs = rng.standard_normal(300) * 10.0 ** rng.integers(-5, 6, 300)
        ys = rng.standard_normal(300) * 10.0 ** rng.integers(-5, 6, 300)
        xp, yp = xs.view(np.uint64), ys.view(np.uint64)
        vals = step_values(xp, yp)
        assert vals.shape == (300, len(MUL_STEP_LABELS))
        for d in range(300):
            t = fpr_mul_trace(int(xp[d]), int(yp[d]))
            assert [int(v) for v in vals[d]] == t.values


class TestFprAddTrace:
    def test_result_matches_emu(self):
        for x, y in ((1.5, 2.25), (-3.7, 1.1), (1e10, -1e-3), (2.0, -1.999)):
            t = fpr_add_trace(bits(x), bits(y))
            assert t.result == emu.fpr_add(bits(x), bits(y))

    def test_labels(self):
        t = fpr_add_trace(bits(1.0), bits(2.0))
        assert t.labels == list(ADD_STEP_LABELS)

    def test_alignment_semantics(self):
        t = fpr_add_trace(bits(8.0), bits(1.0))  # exponents differ by 3
        assert t.value("exp_diff") == 3
        assert t.value("mant_aligned") == (1 << 52) >> 3
        assert t.value("mant_sum") == (1 << 52) + ((1 << 52) >> 3)

    def test_subtraction_path(self):
        t = fpr_add_trace(bits(3.0), bits(-2.0))
        big = (3 << 51)  # significand of 3.0 = 1.5 * 2^1
        assert t.value("mant_big") == big
        assert t.value("mant_sum") == big - (1 << 52)
        assert t.value("add_sign_out") == 0

    def test_zero_short_circuits(self):
        t = fpr_add_trace(bits(0.0), bits(5.0))
        assert t.labels == ["add_result"]

    def test_value_lookup_error(self):
        t = fpr_add_trace(bits(1.0), bits(1.0))
        with pytest.raises(KeyError):
            t.value("bogus")
