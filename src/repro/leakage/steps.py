"""The fpr multiply as staged uint64 array formulas: one step-value engine.

fpr.c (FALCON_FPEMU) multiplies two normal doubles by splitting each
53-bit significand into a 25-bit low and a 28-bit high limb, summing the
four schoolbook partial products, rounding to nearest-even with a sticky
word, and adding the exponents with the normalization carry. Each stage
below is one of those formulas, written once as an elementwise function
of broadcastable uint64 arrays.

Two callers compose them:

* :func:`step_values` evaluates the whole sequence on (D,) operand rows
  and returns the (D, S) matrix of every
  :data:`repro.fpr.trace.MUL_STEP_LABELS` intermediate. Capture turns it
  into traces.
* :mod:`repro.attack.hypotheses` evaluates the same stages on (b, 1)
  guess columns against (1, D) known-operand rows.

So the device and the attacker's predictions agree by construction. The
independent check is :func:`repro.fpr.trace.fpr_mul_trace`, the
Python-int softfloat the tests compare both against. Rounding, underflow
flush-to-zero and overflow saturate-to-infinity follow
:func:`repro.fpr.emu.fpr_mul` exactly, not the host FPU (which would
produce subnormals on underflow).
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.fpr.trace import EXP_REBIAS, LOW_BITS

__all__ = [
    "significand",
    "exponent",
    "sign",
    "limbs",
    "s_lo",
    "s_mid",
    "s_hi",
    "sticky",
    "product_sums",
    "round_even",
    "exp_out",
    "exp_biased",
    "step_values",
]

#: Unsigned integer arrays; the engine works in uint64 throughout.
UInt = NDArray[np.unsignedinteger[Any]]

_U = np.uint64
_MASK25 = _U((1 << LOW_BITS) - 1)
_MANT_MASK = _U((1 << 52) - 1)
_IMPLICIT = _U(1 << 52)
_EXP_MASK = _U(0x7FF)


def significand(p: UInt) -> UInt:
    """53-bit significand (implicit bit set) of normal double patterns."""
    return (p & _MANT_MASK) | _IMPLICIT


def exponent(p: UInt) -> UInt:
    """Biased 11-bit exponent field."""
    return (p >> _U(52)) & _EXP_MASK


def sign(p: UInt) -> UInt:
    """Sign bit. The result's sign is ``sign(x) ^ sign(y)``."""
    return p >> _U(63)


def limbs(m: UInt) -> tuple[UInt, UInt]:
    """(low 25, high 28) limbs of a 53-bit significand."""
    return m & _MASK25, m >> _U(LOW_BITS)


def s_lo(x_lo: UInt, y_lo: UInt, y_hi: UInt) -> UInt:
    """First running sum: (p_ll >> 25) + p_lh = (D*B >> 25) + D*A."""
    return ((x_lo * y_lo) >> _U(LOW_BITS)) + x_lo * y_hi


def s_mid(lo: UInt, x_hi: UInt, y_lo: UInt) -> UInt:
    """Second running sum: s_lo + p_hl = s_lo + C*B."""
    return lo + x_hi * y_lo


def s_hi(lo: UInt, x_hi: UInt, y_lo: UInt, y_hi: UInt) -> UInt:
    """Top of the product: (s_mid >> 25) + p_hh = (s_mid >> 25) + C*A.

    Takes s_mid's inputs rather than s_mid itself, so the hypothesis
    blocks shift the fresh s_mid temporary in place.
    """
    return (s_mid(lo, x_hi, y_lo) >> _U(LOW_BITS)) + x_hi * y_hi


def sticky(p_ll: UInt, mid: UInt) -> UInt:
    """The 50 dropped low bits of the product: both limbs shifted out."""
    return ((mid & _MASK25) << _U(LOW_BITS)) | (p_ll & _MASK25)


def product_sums(x_lo: UInt, x_hi: UInt, y_lo: UInt, y_hi: UInt) -> tuple[UInt, UInt, UInt, UInt]:
    """(s_lo, s_mid, s_hi, sticky) of the schoolbook product of two limb pairs."""
    lo = s_lo(x_lo, y_lo, y_hi)
    mid = s_mid(lo, x_hi, y_lo)
    return lo, mid, s_hi(lo, x_hi, y_lo, y_hi), sticky(x_lo * y_lo, mid)


def round_even(hi: UInt, stick: UInt) -> tuple[UInt, UInt]:
    """Round the exact product (hi << 50) | stick to 53 bits, ties to even.

    Returns the kept significand and the normalization carry added to
    the exponent: 1 when the product reached bit 105 (hi >= 2^55, one
    more bit dropped), plus 1 when an all-ones significand rounded up
    to 2^53 and was shifted back down (that bit is zero, so it cannot
    change the rounding).
    """
    wide = hi >> _U(55)
    shift = wide + _U(2)
    keep = hi >> shift
    rem = ((hi & ((_U(1) << shift) - _U(1))) << _U(50)) | stick
    half = _U(1) << (_U(51) + wide)
    keep += (rem > half) | ((rem == half) & ((keep & _U(1)) == _U(1)))
    renorm = keep >> _U(53)
    keep >>= renorm
    return keep, wide + renorm


def exp_out(ex: UInt, ey: UInt, carry: UInt) -> NDArray[np.signedinteger[Any]]:
    """Result exponent field E_x + E_y + carry - 1023, as fpr.c sets it.

    Underflow (<= 0) flushes to 0 and overflow (>= 2047) saturates to
    the infinity exponent. Every value fits int16, which keeps the
    per-guess hypothesis blocks small.
    """
    i16 = np.int16
    e = ex.astype(i16) + (ey.astype(i16) + carry.astype(i16) - i16(1023))
    np.clip(e, 0, 2047, out=e)
    return e


def exp_biased(ex: UInt, ey: UInt) -> UInt:
    """(E_x + E_y - 2100) as fpr.c's signed 32-bit register holds it.

    uint64 wraparound then a 32-bit mask is the two's-complement
    pattern, which is what leaks.
    """
    return (ex + ey - _U(EXP_REBIAS)) & _U(0xFFFFFFFF)


def step_values(x: NDArray[Any] | int, y: NDArray[Any]) -> NDArray[np.uint64]:
    """(D, S) step-value matrix of x * y, one column per MUL_STEP_LABELS entry.

    ``y`` is a (D,) array of known operand patterns; ``x`` is a scalar
    pattern (broadcast over ``y``) or a (D,) array. Both must be nonzero
    normal doubles.
    """
    y_arr = np.asarray(y, dtype=np.uint64)
    x_arr = np.broadcast_to(np.asarray(x, dtype=np.uint64), y_arr.shape)
    ex, ey = exponent(x_arr), exponent(y_arr)
    if bool(np.any((ex == 0) | (ex == _EXP_MASK) | (ey == 0) | (ey == _EXP_MASK))):
        raise ValueError("operands must be nonzero normal doubles")
    x_lo, x_hi = limbs(significand(x_arr))
    y_lo, y_hi = limbs(significand(y_arr))
    lo, mid, hi, stick = product_sums(x_lo, x_hi, y_lo, y_hi)
    keep, carry = round_even(hi, stick)
    e_out = exp_out(ex, ey, carry).astype(np.uint64)
    # a flushed or saturated result keeps no mantissa bits
    mant = np.where((e_out == 0) | (e_out == 2047), _U(0), keep & _MANT_MASK)
    sgn = sign(x_arr) ^ sign(y_arr)
    result = (sgn << _U(63)) | (e_out << _U(52)) | mant
    # Built as (S, D) and returned transposed, so each column is contiguous.
    return np.stack([
        x_lo, x_hi, y_lo, y_hi, x_lo * y_lo, x_lo * y_hi, lo, x_hi * y_lo, mid,
        x_hi * y_hi, hi, stick, mant, ex + ey, exp_biased(ex, ey), e_out, sgn, result,
    ]).T
