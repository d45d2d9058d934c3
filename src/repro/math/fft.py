"""FALCON's FFT representation over the ring R[x]/(x^n + 1).

A real polynomial f of (power-of-two) length n >= 2 is represented in the
FFT domain by the n/2 complex values f(zeta_k), where

    zeta_k = exp(i * pi * (2k + 1) / n),   k = 0 .. n/2 - 1

are the roots of x^n + 1 in the upper half plane. The conjugate roots are
implied because f is real: f(conj z) = conj f(z). This is exactly the
layout of the reference implementation and of the FALCON specification,
and it is what ffLDL* / ffSampling recurse over via split/merge.

:func:`fft` and :func:`ifft` transform a whole ``(..., n)`` batch (a
corpus of known inputs, the rows of a basis) in log2(n) - 1 vectorised
merge/split levels, and every row is bit-identical to the one-row
transform. Sizes are read as ``len(a.T)``, the length of the last axis:
:mod:`repro.sast` treats ``len`` as structure-only, so a size check is
not a secret-dependent branch to it.

All arrays are ``numpy.complex128``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "roots",
    "fft",
    "ifft",
    "split_fft",
    "merge_fft",
    "mul_fft",
    "div_fft",
    "adj_fft",
]


@lru_cache(maxsize=32)
def roots(n: int) -> np.ndarray:
    """The stored roots zeta_k of x^n + 1, k = 0 .. n/2 - 1."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    k = np.arange(n // 2)
    return np.exp(1j * np.pi * (2 * k + 1) / n)


def fft(f) -> np.ndarray:
    """Transform coefficients ``(..., n)``, n >= 2, to the FFT domain ``(..., n/2)``.

    Level by level over every leading index at once: row s of the
    ``(..., n/2, 1)`` leaf array is the FFT of the length-2 polynomial
    (f[s], f[s + n/2]), and each of the log2(n) - 1 :func:`merge_fft`
    levels merges rows t and t + rows/2 (the even and odd halves of one
    polynomial of the level above) into row t.
    """
    f = np.asarray(f, dtype=np.float64)
    n = len(f.T)
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    out = (f[..., : n // 2] + 1j * f[..., n // 2 :])[..., None]
    rows = n // 2
    while rows > 1:
        rows //= 2
        out = merge_fft(out[..., :rows, :], out[..., rows:, :])
    return out[..., 0, :]


def ifft(f_fft: np.ndarray) -> np.ndarray:
    """Inverse transform ``(..., n/2)`` back to real coefficients ``(..., n)``.

    The levels of :func:`fft` in reverse: :func:`split_fft` turns row t
    into rows t and t + rows, down to the length-2 leaves.
    """
    out = np.asarray(f_fft, dtype=np.complex128)[..., None, :]
    m = len(out.T)
    if m < 1 or m & (m - 1):
        raise ValueError(f"slot count must be a power of two >= 1, got {m}")
    while m > 1:
        m //= 2
        out = np.concatenate(split_fft(out), axis=-2)
    return np.concatenate([out[..., 0].real, out[..., 0].imag], axis=-1)


def _contiguous(w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots ``w`` tiled to the shape of ``x``, and ``x``, C-contiguous.

    Numpy rounds a complex product or quotient differently in its
    contiguous loop and in its broadcast or strided loops, so every
    product and quotient of the transform runs on C-contiguous operands
    of one shape: a batched transform then equals its one-row transforms
    bit for bit. An ``x`` that already is contiguous is not copied.
    """
    tiled = np.empty(x.shape, dtype=np.complex128)
    tiled[...] = w
    return tiled, np.ascontiguousarray(x)


def merge_fft(f0_fft: np.ndarray, f1_fft: np.ndarray) -> np.ndarray:
    """Combine FFTs of the even/odd halves into the FFT of the parent.

    If f(x) = f0(x^2) + x f1(x^2) with f0, f1 of ring size n/2, then for
    each stored root zeta of x^n + 1:

        f(zeta)  = f0(zeta^2) + zeta * f1(zeta^2)
        f(-zeta) = f0(zeta^2) - zeta * f1(zeta^2)

    and f(-zeta_k) = conj(f(zeta_{n/2-1-k})) because -zeta_k is the
    conjugate of a stored root. Broadcasts over leading axes.
    """
    f0_fft = np.asarray(f0_fft, dtype=np.complex128)
    f1_fft = np.asarray(f1_fft, dtype=np.complex128)
    m = len(f0_fft.T)
    if len(f1_fft.T) != m:
        raise ValueError(f"half-size mismatch: {m} vs {len(f1_fft.T)}")
    w, f1 = _contiguous(roots(4 * m)[:m], f1_fft)
    wf1 = w * f1
    out = np.empty(f0_fft.shape[:-1] + (2 * m,), dtype=np.complex128)
    out[..., :m] = f0_fft + wf1
    out[..., m:] = np.conj((f0_fft - wf1)[..., ::-1])
    return out


def split_fft(f_fft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`merge_fft` (FALCON's splitfft); broadcasts over
    leading axes."""
    f_fft = np.asarray(f_fft, dtype=np.complex128)
    m2 = len(f_fft.T)
    if m2 < 2:
        raise ValueError("cannot split below one complex slot")
    m = m2 // 2
    u = f_fft[..., :m]
    v = np.conj(f_fft[..., m:][..., ::-1])
    f0 = (u + v) / 2
    w2, d = _contiguous(2 * roots(2 * m2)[:m], u - v)
    f1 = d / w2
    return f0, f1


def mul_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product — polynomial multiplication in the ring."""
    return np.asarray(a, dtype=np.complex128) * np.asarray(b, dtype=np.complex128)


def div_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise quotient (caller guarantees b has no zero slot)."""
    return np.asarray(a, dtype=np.complex128) / np.asarray(b, dtype=np.complex128)


def adj_fft(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint: complex conjugation in the FFT domain."""
    return np.conj(np.asarray(a, dtype=np.complex128))
