"""Vectorized leakage predictions for key guesses.

Every function returns a (D, G) Hamming-weight hypothesis matrix: the
predicted HW of one architectural intermediate of the instrumented
multiply (:mod:`repro.fpr.trace`), for each of D traces (rows, known
operand varies) and G guesses (columns, secret candidate varies).

The intermediates come from the same stage functions the capture uses
(:mod:`repro.leakage.steps`), evaluated on (b, 1) guess columns against
(1, D) known-operand rows.

Each predictor runs guess-major on cache-sized blocks of guesses
(:func:`repro.utils.stats.guess_block`) against all D known operands,
and its popcount goes straight into a (G, D) uint8 buffer; the returned
matrix is that buffer's transpose, so each guess's column is contiguous.
"""

from __future__ import annotations

import numpy as np

from repro.leakage import steps
from repro.utils.stats import guess_block

__all__ = [
    "known_limbs",
    "known_exponent",
    "known_sign",
    "hyp_product",
    "hyp_s_lo",
    "hyp_s_mid",
    "hyp_s_hi",
    "hyp_exp_sum",
    "hyp_exp_biased",
    "hyp_exp_out",
    "hyp_sign",
]

_U = np.uint64


def known_limbs(y_patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, A): low-25 and high-28 significand limbs of the known operand."""
    return steps.limbs(steps.significand(np.asarray(y_patterns, dtype=np.uint64)))


def known_exponent(y_patterns: np.ndarray) -> np.ndarray:
    return steps.exponent(np.asarray(y_patterns, dtype=np.uint64))


def known_sign(y_patterns: np.ndarray) -> np.ndarray:
    return steps.sign(np.asarray(y_patterns, dtype=np.uint64))


def _hw_matrix(guesses: np.ndarray, fn, *known: np.ndarray) -> np.ndarray:
    """(D, G) int8 HW(fn(*known, guess)); ``fn`` gets (1, D) knowns and (b, 1) guesses."""
    rows = [np.asarray(k, dtype=np.uint64)[None, :] for k in known]
    guesses = np.asarray(guesses, dtype=np.uint64)
    d, g = rows[0].shape[1], guesses.shape[0]
    out = np.empty((g, d), dtype=np.uint8)
    step = guess_block(d)
    for lo in range(0, g, step):
        np.bitwise_count(fn(*rows, guesses[lo : lo + step, None]), out=out[lo : lo + step])
    return out.T.view(np.int8)


def hyp_product(known_limb: np.ndarray, guesses: np.ndarray, mask_bits: int | None = None) -> np.ndarray:
    """HW of (guess * known_limb), optionally masked to the low bits.

    The extend phase of the attack: hypotheses on the partial products
    p_ll = D*B, p_lh = D*A (low secret limb) or p_hl = C*B, p_hh = C*A
    (high secret limb). ``mask_bits`` restricts the prediction to the low
    bits, which depend only on the guessed low bits of the secret limb —
    this is what makes the LSB-to-MSB ladder sound.
    """
    if mask_bits is not None:
        m = _U((1 << mask_bits) - 1)
        return _hw_matrix(guesses, lambda k, g: (k * g) & m, known_limb)
    return _hw_matrix(guesses, lambda k, g: k * g, known_limb)


def hyp_s_lo(y_lo: np.ndarray, y_hi: np.ndarray, d_candidates: np.ndarray) -> np.ndarray:
    """HW of s_lo = (D*B >> 25) + D*A — the prune target for the low limb."""
    return _hw_matrix(d_candidates, lambda b, a, d: steps.s_lo(d, b, a), y_lo, y_hi)


def hyp_s_mid(
    y_lo: np.ndarray, y_hi: np.ndarray, d_low: int, c_candidates: np.ndarray
) -> np.ndarray:
    """HW of s_mid = s_lo + C*B, with the low limb D already recovered."""
    b, a = (np.asarray(k, dtype=np.uint64) for k in (y_lo, y_hi))
    return _hw_matrix(
        c_candidates, lambda s, b, c: steps.s_mid(s, c, b), steps.s_lo(_U(d_low), b, a), b
    )


def hyp_s_hi(
    y_lo: np.ndarray, y_hi: np.ndarray, d_low: int, c_candidates: np.ndarray
) -> np.ndarray:
    """HW of s_hi = (s_mid >> 25) + C*A (the full product's top bits)."""
    b, a = (np.asarray(k, dtype=np.uint64) for k in (y_lo, y_hi))
    return _hw_matrix(
        c_candidates, lambda s, b, a, c: steps.s_hi(s, c, b, a),
        steps.s_lo(_U(d_low), b, a), b, a,
    )


def hyp_exp_sum(y_patterns: np.ndarray, guesses: np.ndarray) -> np.ndarray:
    """HW of the raw biased exponent sum E_x + E_y for guessed E_x."""
    return _hw_matrix(guesses, lambda k, g: k + g, known_exponent(y_patterns))


def hyp_exp_biased(y_patterns: np.ndarray, guesses: np.ndarray) -> np.ndarray:
    """HW of the 32-bit two's-complement word (E_x + E_y - 2100).

    The rebias pushes the sum into the negative range, where increments
    flip long carry chains; unlike the raw sum, the resulting HW-vs-E_y
    profiles of two guesses are generally not offset by a constant, so
    this intermediate disambiguates the tie classes of ``hyp_exp_sum``.
    """
    return _hw_matrix(
        guesses, lambda k, g: steps.exp_biased(g, k), known_exponent(y_patterns)
    )


def hyp_exp_out(y_patterns: np.ndarray, guesses: np.ndarray, significand: int) -> np.ndarray:
    """HW of the result's biased exponent for guessed E_x.

    With the 53-bit significand already recovered, the product's
    normalization/rounding carry is known per trace and does not depend
    on the exponent guess: it is computed once, and each guess only
    adds its E_x before fpr.c's flush/saturate clamp.
    """
    if not 1 << 52 <= significand < 1 << 53:
        raise ValueError(f"significand out of range: {significand:#x}")
    y = np.asarray(y_patterns, dtype=np.uint64)
    _, _, hi, stick = steps.product_sums(*steps.limbs(_U(significand)), *known_limbs(y))
    _, carry = steps.round_even(hi, stick)
    return _hw_matrix(guesses, lambda e, c, g: steps.exp_out(g, e, c), steps.exponent(y), carry)


def hyp_sign(y_patterns: np.ndarray) -> np.ndarray:
    """(D, 2) hypothesis for the result sign: guess s_x in {0, 1}."""
    return _hw_matrix(np.array([0, 1]), lambda k, g: k ^ g, known_sign(y_patterns))
